"""Planning outputs frozen bit for bit.

The 26x26 pairwise matrices of both backends, the default Grover catalog
matrices and the 52 nearest-neighbour cells at the default PowerSpec,
recorded when `pairwise_matrix` and `catalog_matrices` still ran loops of
their own. A failure here
is a change of behaviour, not noise: the solver and the builders are
deterministic, so any new value must be reported as such.
"""
import hashlib

import pytest

from qleak.baseline import (
    BACKENDS,
    HARDWARE,
    SIMULATOR,
    bundled_table,
    catalog_matrices,
    grover_catalog,
    nearest_neighbor_requirement,
    pairwise_matrix,
)

#: sha256 of ndarray.tobytes()
PAIRWISE_SHA256 = {
    SIMULATOR: "b46ae7b8b82e1607c5c7982b18e567acaab1e2ec8166c3b080c9e2ae4a08551d",
    HARDWARE: "53abe87f2b99df96fbb9e483a50a51caa67cc44cd097d58e44a38e819050c6d2",
}
CATALOG_OVL_SHA256 = "1486ad3ca7b82175e9194a394f1bee4091b80dd13242dce96e5b03004b39f44a"
CATALOG_REQUIRED_SHA256 = "637ee7d9ac028cd586f48b837fb05213ea6dcd5345d427b24b9453334662da6f"

#: (backend, circuit) -> (nearest neighbour, float.hex of its planned n)
CELLS = {
    (SIMULATOR, "BB84 and Other Communication Protocols as Benchmarks"): (
        "Grover Search Algorithm Benchmark", "0x1.618f1105e916ep+14"
    ),
    (SIMULATOR, "Bernstein-Vazirani Algorithm"): (
        "Quantum Edge Detection", "0x1.473df5113ca3dp+8"
    ),
    (SIMULATOR, "Circuit Layer Operations Per Second (CLOPS)"): (
        "Quantum Volume", "0x1.20a7a8af70109p+3"
    ),
    (SIMULATOR, "Deutsch-Jozsa algorithm"): (
        "Web Interface Approx. Execution Time", "0x1.0eb71582d27e1p+4"
    ),
    (SIMULATOR, "Entanglement of Observable"): (
        "Quantum Random Number Generation", "0x1.a285953906163p+12"
    ),
    (SIMULATOR, "Flexible Representation of Quantum Images (FRQI)"): (
        "Quantum Error Correction Threshold", "0x1.3a0c9cbb63f31p+13"
    ),
    (SIMULATOR, "GHZ"): (
        "Hidden Shift Application Benchmark", "0x1.37f8bc7f29439p+11"
    ),
    (SIMULATOR, "Grover Search Algorithm Benchmark"): (
        "The HHL algorithm", "0x1.70527f2dc6157p+17"
    ),
    (SIMULATOR, "Hidden Shift Application Benchmark"): (
        "Flexible Representation of Quantum Images (FRQI)", "0x1.35de9e644aaf8p+12"
    ),
    (SIMULATOR, "Quantum Edge Detection"): (
        "Bernstein-Vazirani Algorithm", "0x1.473df5113ca3dp+8"
    ),
    (SIMULATOR, "Quantum Error Correction Threshold"): (
        "Flexible Representation of Quantum Images (FRQI)", "0x1.3a0c9cbb63f31p+13"
    ),
    (SIMULATOR, "Quantum Phase Estimation"): (
        "Quantum Error Correction Threshold", "0x1.1b8b6a1e4b8a6p+13"
    ),
    (SIMULATOR, "Quantum Random Number Generation"): (
        "Entanglement of Observable", "0x1.a285953906163p+12"
    ),
    (SIMULATOR, "Quantum Randomized Cryptography Benchmark"): (
        "GHZ", "0x1.a5e60124fa99fp+10"
    ),
    (SIMULATOR, "Quantum State Tomography"): (
        "T2/Decoherence", "0x1.6ae811770b632p+2"
    ),
    (SIMULATOR, "Quantum Volume"): (
        "Circuit Layer Operations Per Second (CLOPS)", "0x1.20a7a8af70109p+3"
    ),
    (SIMULATOR, "Qubit Spectroscopy"): (
        "The Vaidman Detection Test: Interaction Free Measurement", "0x1.d91a969a8fa67p+2"
    ),
    (SIMULATOR, "Rabi Oscillations"): (
        "Quantum State Tomography", "0x1.f0e3d14a6f38ap+1"
    ),
    (SIMULATOR, "Randomized Benchmarking"): (
        "T1/Qubit Lifetimes", "0x1.ad4b92b1e3b2ep+3"
    ),
    (SIMULATOR, "Shor's Algorithm"): (
        "Quantum Edge Detection", "0x1.25c44fad90e94p+6"
    ),
    (SIMULATOR, "T1/Qubit Lifetimes"): (
        "Randomized Benchmarking", "0x1.ad4b92b1e3b2ep+3"
    ),
    (SIMULATOR, "T2/Decoherence"): (
        "The Vaidman Detection Test: Interaction Free Measurement", "0x1.8ea17e3db60fbp+2"
    ),
    (SIMULATOR, "The HHL algorithm"): (
        "Grover Search Algorithm Benchmark", "0x1.70527f2dc6157p+17"
    ),
    (SIMULATOR, "The Vaidman Detection Test: Interaction Free Measurement"): (
        "Qubit Spectroscopy", "0x1.d91a969a8fa67p+2"
    ),
    (SIMULATOR, "Tphi Dephase Benchmark"): (
        "Randomized Benchmarking", "0x1.0000000000000p+0"
    ),
    (SIMULATOR, "Web Interface Approx. Execution Time"): (
        "Entanglement of Observable", "0x1.27394d151a396p+6"
    ),
    (HARDWARE, "BB84 and Other Communication Protocols as Benchmarks"): (
        "Deutsch-Jozsa algorithm", "0x1.f74ca27c5eef7p+12"
    ),
    (HARDWARE, "Bernstein-Vazirani Algorithm"): (
        "Hidden Shift Application Benchmark", "0x1.b00065c5a496bp+7"
    ),
    (HARDWARE, "Circuit Layer Operations Per Second (CLOPS)"): (
        "Quantum Volume", "0x1.0f07b154f647bp+3"
    ),
    (HARDWARE, "Deutsch-Jozsa algorithm"): (
        "BB84 and Other Communication Protocols as Benchmarks", "0x1.f74ca27c5eef7p+12"
    ),
    (HARDWARE, "Entanglement of Observable"): (
        "Web Interface Approx. Execution Time", "0x1.211891a2695b8p+11"
    ),
    (HARDWARE, "Flexible Representation of Quantum Images (FRQI)"): (
        "The HHL algorithm", "0x1.bf7bba6d1f6bbp+10"
    ),
    (HARDWARE, "GHZ"): (
        "Quantum Phase Estimation", "0x1.371a5f22591f8p+9"
    ),
    (HARDWARE, "Grover Search Algorithm Benchmark"): (
        "The Vaidman Detection Test: Interaction Free Measurement", "0x1.245e5dd630f01p+14"
    ),
    (HARDWARE, "Hidden Shift Application Benchmark"): (
        "Bernstein-Vazirani Algorithm", "0x1.b00065c5a496bp+7"
    ),
    (HARDWARE, "Quantum Edge Detection"): (
        "Qubit Spectroscopy", "0x1.63039778fb44fp+1"
    ),
    (HARDWARE, "Quantum Error Correction Threshold"): (
        "BB84 and Other Communication Protocols as Benchmarks", "0x1.e3003e244a433p+8"
    ),
    (HARDWARE, "Quantum Phase Estimation"): (
        "GHZ", "0x1.371a5f22591f8p+9"
    ),
    (HARDWARE, "Quantum Random Number Generation"): (
        "Deutsch-Jozsa algorithm", "0x1.efcbf62a4cb3ep+11"
    ),
    (HARDWARE, "Quantum Randomized Cryptography Benchmark"): (
        "Quantum Phase Estimation", "0x1.b11f1f7c9e188p+6"
    ),
    (HARDWARE, "Quantum State Tomography"): (
        "Quantum Edge Detection", "0x1.0000000000000p+0"
    ),
    (HARDWARE, "Quantum Volume"): (
        "Circuit Layer Operations Per Second (CLOPS)", "0x1.0f07b154f647bp+3"
    ),
    (HARDWARE, "Qubit Spectroscopy"): (
        "Shor's Algorithm", "0x1.79aa3d7c05273p+2"
    ),
    (HARDWARE, "Rabi Oscillations"): (
        "T2/Decoherence", "0x1.0000000000000p+0"
    ),
    (HARDWARE, "Randomized Benchmarking"): (
        "Rabi Oscillations", "0x1.0000000000000p+0"
    ),
    (HARDWARE, "Shor's Algorithm"): (
        "Quantum Randomized Cryptography Benchmark", "0x1.5de274124fccfp+3"
    ),
    (HARDWARE, "T1/Qubit Lifetimes"): (
        "Randomized Benchmarking", "0x1.0000000000000p+0"
    ),
    (HARDWARE, "T2/Decoherence"): (
        "Rabi Oscillations", "0x1.0000000000000p+0"
    ),
    (HARDWARE, "The HHL algorithm"): (
        "Flexible Representation of Quantum Images (FRQI)", "0x1.bf7bba6d1f6bbp+10"
    ),
    (HARDWARE, "The Vaidman Detection Test: Interaction Free Measurement"): (
        "Grover Search Algorithm Benchmark", "0x1.245e5dd630f01p+14"
    ),
    (HARDWARE, "Tphi Dephase Benchmark"): (
        "Circuit Layer Operations Per Second (CLOPS)", "0x1.0000000000000p+0"
    ),
    (HARDWARE, "Web Interface Approx. Execution Time"): (
        "Entanglement of Observable", "0x1.211891a2695b8p+11"
    ),
}


def _sha(m) -> str:
    return hashlib.sha256(m.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def table():
    return bundled_table()


@pytest.mark.parametrize("backend", BACKENDS)
def test_pairwise_matrix(table, backend):
    assert _sha(pairwise_matrix(table, backend)) == PAIRWISE_SHA256[backend]


def test_catalog_matrices():
    ovl_m, req_m = catalog_matrices(grover_catalog())
    assert _sha(ovl_m) == CATALOG_OVL_SHA256
    assert _sha(req_m) == CATALOG_REQUIRED_SHA256


def test_nearest_neighbor_cells(table):
    got = {}
    for backend in BACKENDS:
        for name in table.names:
            neighbor, n = nearest_neighbor_requirement(table, name, backend)
            got[backend, name] = (neighbor, n.hex())
    assert len(got) == 52
    assert got == CELLS
