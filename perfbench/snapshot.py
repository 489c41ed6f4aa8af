"""Write perfbench/golden.json: the fixed-input outputs the benchmark checks.

Run from the repository root, on the commit whose outputs are the
reference (it takes about a minute, most of it the two cold 26x26
pairwise matrices):

    PYTHONPATH=src python3 perfbench/snapshot.py

Values are stored at full precision; the benchmark compares in-process
results within 1e-12 relative and printed CLI results within 1e-9 relative
plus print rounding.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import qleak
from qleak import cli

from workloads import (BACKENDS, GOLDEN_PATH, KINDS, POWER_EFFECT_SIZES,
                       QP_DEVICES, QP_VARIANCE, REPORT_FIELDS,
                       mitigation_kwargs)


def _num(x: float):
    x = float(x)
    return None if math.isnan(x) else x


def _matrix(m) -> list[list]:
    return [[_num(v) for v in row] for row in m]


def main() -> None:
    table = qleak.bundled_table()
    golden: dict = {"variance": {b: table.variance(b) for b in BACKENDS}}
    golden["cells"] = {
        b: {e.name: list(qleak.nearest_neighbor_requirement(table, e.name, b))
            for e in table.entries}
        for b in BACKENDS
    }
    golden["pairwise"] = {
        b: _matrix(qleak.pairwise_matrix(table, b)) for b in BACKENDS
    }

    catalog = sorted(qleak.grover_catalog(), key=lambda v: v.index)
    ovl_m, req_m = qleak.catalog_matrices(catalog)
    key_plans = {}
    for it in (1, 2, 3):
        within = [v.index - 1 for v in catalog if v.iterations == it]
        key_plans[str(it)] = [
            float(max(req_m[i, j] for j in within if j != i)) for i in within
        ]
    golden["catalog"] = {
        "ovl": _matrix(ovl_m),
        "req": _matrix(req_m),
        "variants": [
            {"mean": v.timing.mean, "variance": v.timing.variance,
             "iterations": v.iterations, "key": v.key}
            for v in catalog
        ],
        "key_plans": key_plans,
    }

    reports = {}
    for b in BACKENDS:
        for victim, (ref, _) in golden["cells"][b].items():
            for kind in KINDS:
                m = qleak.Mitigation(kind=kind, **mitigation_kwargs(
                    kind, table.variance(b), ref))
                r = qleak.evaluate(m, table, b, victim, ref)
                reports[f"{b}|{victim}|{kind}"] = [
                    float(getattr(r, f)) for f in REPORT_FIELDS]
    golden["mitigations"] = reports

    golden["power"] = {
        repr(d): qleak.required_sample_size(d) for d in POWER_EFFECT_SIZES
    }
    means = sorted(QP_DEVICES.values())
    golden["qp_planned"] = qleak.required_sample_size(
        (means[1] - means[0]) / math.sqrt(QP_VARIANCE))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["reproduce-table"])
    rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
    golden["reproduce_status"] = {f"{r[1]}|{r[0]}": r[6] for r in rows}
    golden["reproduce_failures"] = sum(r[6] == "FAIL" for r in rows)
    if code != 1 or not rows:
        raise SystemExit(f"reproduce-table exited {code}: {err.getvalue()}")

    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
