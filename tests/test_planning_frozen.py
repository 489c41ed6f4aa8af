"""Planning outputs frozen to 1e-12 relative.

The 26x26 pairwise matrices of both backends, the default Grover catalog's
required-n matrix and the 52 nearest-neighbour cells at the default
PowerSpec, recorded as `float.hex` in `planning_frozen.json` when the
solver still reproduced `scipy.optimize.brentq` on a log grid. A failure
here is a change of behaviour, not noise: the solver and the builders are
deterministic, so any new value must be reported as such. NaN (the
diagonals), inf and 1.0 entries must match exactly; the overlap matrix,
which the solver does not touch, is pinned by its hash.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qleak.baseline import (
    BACKENDS,
    catalog_matrices,
    grover_catalog,
    nearest_neighbor_requirement,
    pairwise_matrix,
)

FROZEN = json.loads(Path(__file__).with_name("planning_frozen.json").read_text())
REL = 1e-12

#: sha256 of the overlap matrix's ndarray.tobytes()
CATALOG_OVL_SHA256 = "1486ad3ca7b82175e9194a394f1bee4091b80dd13242dce96e5b03004b39f44a"


def _unhex(values) -> np.ndarray:
    return np.vectorize(float.fromhex, otypes=[float])(np.array(values))


def assert_frozen(got, frozen):
    expected = _unhex(frozen)
    assert got.shape == expected.shape
    assert (np.isinf(got) == np.isinf(expected)).all()
    assert (got[expected == 1.0] == 1.0).all()
    np.testing.assert_allclose(got, expected, rtol=REL, atol=0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_pairwise_matrix(table, backend):
    assert_frozen(pairwise_matrix(table, backend), FROZEN["pairwise"][backend])


def test_catalog_matrices():
    ovl_m, req_m = catalog_matrices(grover_catalog())
    assert hashlib.sha256(ovl_m.tobytes()).hexdigest() == CATALOG_OVL_SHA256
    assert_frozen(req_m, FROZEN["catalog_required"])


def test_nearest_neighbor_cells(table):
    frozen = FROZEN["cells"]
    assert sum(map(len, frozen.values())) == 52
    for backend in BACKENDS:
        assert list(frozen[backend]) == list(table.names)
        neighbors, ns = zip(*(nearest_neighbor_requirement(table, name, backend)
                              for name in table.names))
        assert list(neighbors) == [v[0] for v in frozen[backend].values()]
        assert_frozen(np.array(ns), [v[1] for v in frozen[backend].values()])
