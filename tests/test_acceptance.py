"""Release gate: one test per shipped guarantee, one PASS/FAIL line each.

Every test prints ``ACCEPTANCE <k> <PASS|FAIL> - <detail>`` before
asserting, so the full scoreboard survives a red run. Criteria 1, 3 and
5 check what the published table, the 80%-power plan and the Grover
catalog promise; their docstrings say why the stricter targets they
once held (all 52 cells, perfect labels, absolute per-regime bounds)
cannot be met by any implementation of the documented model.
"""
import math
import zlib

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import binomtest

from qleak.attacks import (
    DISTINGUISHABLE,
    NULL_RULE_FP_LEVEL,
    null_distinguishability,
    qp_fingerprint,
    uc_classify,
)
from qleak.baseline import (
    _CSV_HEADER,
    BACKENDS,
    HARDWARE,
    SIMULATOR,
    catalog_matrices,
    grover_catalog,
    load_table,
    nearest_neighbor_requirement,
)
from qleak.cloudsim import DeviceProfile, Scenario, ground_truth_durations, run_simulation
from qleak.cli import within_tolerance
from qleak.csvout import write_csv
from qleak.stats import (
    PowerSpec,
    TimingDistribution,
    effect_size,
    mc_power_oracle,
    ovl,
    required_sample_size,
)
from qleak.trace import AttackerView, assemble_trace, reconstruct
from oracles import ovl_numeric, runs_trace
from pins import load_pins
from table1_divergences import DIVERGENT_CELLS, LatencyAsGap


def report(k: int, ok: bool, detail: str) -> None:
    """Print the scoreboard line, then check it against its pin: a detail
    line moves only with a change that says why."""
    line = f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'} - {detail}"
    print(f"\n{line}")
    assert line == load_pins()["acceptance"][str(k)]


def _pair_n(table, a, b, backend):
    """Planning n for one pair of the table."""
    d = effect_size(table.timing(a, backend), table.timing(b, backend))
    return required_sample_size(d)


def _cause_n(table, cause, backend):
    """Planning n of a divergent cell's named cause in its column."""
    if isinstance(cause, LatencyAsGap):
        gap = table.entry(cause.circuit).latency(cause.backend)
        return required_sample_size(gap / math.sqrt(table.variance(backend)))
    return _pair_n(table, *cause, backend)


def test_criterion_1_table_regression(table):
    """Recompute all 52 printed cells with the nearest-neighbour rule:
    exactly the seven published divergent cells fall outside tolerance,
    and each reproduces from the cause named for it: six from a pair, and
    Hidden Shift/hardware from its own simulator latency as the mean gap.
    All 52 cannot pass: the table pairs QPE with GHZ but GHZ with BV, so
    no single pairing rule gives it."""
    failures = []
    for backend in BACKENDS:
        for entry in table.entries:
            printed = entry.required(backend)
            if printed is None:
                continue
            _, computed = nearest_neighbor_requirement(table, entry.name, backend)
            if not within_tolerance(printed, computed):
                failures.append((entry.name, backend))
    unexpected = sorted(set(failures) ^ set(DIVERGENT_CELLS))

    mismatched, unexplained = [], []
    for (name, backend), (cause, _) in DIVERGENT_CELLS.items():
        printed = table.entry(name).required(backend)
        if cause is None:
            unexplained.append(f"{name}/{backend}")
        elif not within_tolerance(printed, _cause_n(table, cause, backend)):
            mismatched.append(f"{name}/{backend}")

    ok = not unexpected and not mismatched and not unexplained
    report(
        1,
        ok,
        f"52 cells, {len(failures)} outside tolerance, "
        f"unlisted or missing: {unexpected or 'none'}; "
        f"{len(DIVERGENT_CELLS) - len(unexplained) - len(mismatched)} reproduce "
        f"from their named cause, unexplained: {unexplained}, "
        f"mismatched: {mismatched or 'none'}",
    )
    assert ok, f"unexpected {unexpected}, mismatched {mismatched}, unexplained {unexplained}"


def test_criterion_2_power_oracle_equivalence():
    """Monte-Carlo power at the planned n hits 0.80 +/- 0.03."""
    results = {}
    for i, d in enumerate((0.05, 0.08, 0.28, 1.0)):
        n = math.ceil(required_sample_size(d))
        p = mc_power_oracle(
            TimingDistribution(1.0, 1.0),
            TimingDistribution(1.0 + d, 1.0),
            n,
            trials=10_000,
            seed=100 + i,
        )
        results[d] = (n, p)
    ok = all(abs(p - 0.80) <= 0.03 for _, p in results.values())
    detail = ", ".join(f"d={d}: n={n} power={p:.3f}" for d, (n, p) in results.items())
    report(2, ok, detail)
    assert ok, detail


UC_RUNS = 1000
#: per-cell level of the exact binomial test of seeded against analytic accuracy
UC_BINOMIAL_LEVEL = 1e-4


def _uc_floor(spec=PowerSpec()):
    """Least nearest-mean accuracy the planned n implies.

    At the planned n, d*sqrt(n/2) >= z(1-alpha/2) + z(power), so the trace
    mean crosses the midpoint to a neighbour at least d away with
    probability at most Phi(-(z(1-alpha/2) + z(power))/sqrt(2)) per side.
    """
    z = ndtri(1 - spec.alpha / 2) + ndtri(spec.power)
    return 1 - 2 * float(ndtr(-z / math.sqrt(2)))


def _uc_accuracy(table, name, backend, n, seeds=UC_RUNS):
    """Correct nearest-mean labels in seeded runs, and the analytic accuracy.

    The classifier's decision depends on the trace only through its
    sample mean, so each run draws that sufficient statistic exactly
    (mean of n iid normals) instead of materializing n samples; this is
    a distribution-identical shortcut, not an approximation. The label is
    right when the mean lands in the circuit's decision cell, between the
    midpoints to the nearest table means on either side. The seed depends
    only on the cell, so every process draws the same runs.
    """
    mu = table.entry(name).latency(backend)
    se = math.sqrt(table.variance(backend) / n)
    centers = np.array([e.latency(backend) for e in table.entries])
    below, above = centers[centers < mu], centers[centers > mu]
    lo = (mu + below.max()) / 2 if below.size else -math.inf
    hi = (mu + above.min()) / 2 if above.size else math.inf
    analytic = float(ndtr((hi - mu) / se) - ndtr((lo - mu) / se))

    rng = np.random.default_rng(zlib.crc32(f"{name}/{backend}".encode()))
    trace_means = rng.normal(mu, se, seeds)
    labels = np.abs(trace_means[:, None] - centers[None, :]).argmin(axis=1)
    correct = int(np.sum(labels == table.names.index(name)))
    return correct, analytic


def test_criterion_3_uc_end_to_end(table):
    """At the planned trace length every cell's analytic nearest-mean
    accuracy meets the floor the 80%-power plan implies (~0.952) and 1000
    seeded runs agree with it (exact binomial test); a quarter of the
    budget falls below the floor. Perfect labels were never promised: at
    80% power a label errs toward the nearest neighbour ~2.4% of the time."""
    # pipeline spot check: the full classifier agrees with the shortcut rule
    rng = np.random.default_rng(0)
    mu = table.entry("GHZ").latency(HARDWARE)
    sd = math.sqrt(table.qc_variance)
    tr = runs_trace(rng.normal(mu, sd, 623))
    assert uc_classify(tr, table, HARDWARE).label == "GHZ"

    floor = _uc_floor()
    cells = {}
    for backend in BACKENDS:
        for entry in table.entries:
            _, planned = nearest_neighbor_requirement(table, entry.name, backend)
            n = max(2, math.ceil(planned))
            correct, analytic = _uc_accuracy(table, entry.name, backend, n)
            p = binomtest(correct, UC_RUNS, analytic).pvalue
            cells[f"{entry.name}/{backend}"] = (correct / UC_RUNS, analytic, p)
    worst = min(cells, key=lambda c: cells[c][1])
    least_agreeing = min(cells, key=lambda c: cells[c][2])
    floor_ok = cells[worst][1] >= floor
    agree_ok = cells[least_agreeing][2] >= UC_BINOMIAL_LEVEL

    drops = []
    for name in ("Grover Search Algorithm Benchmark", "The HHL algorithm"):
        _, planned = nearest_neighbor_requirement(table, name, SIMULATOR)
        n = max(2, math.ceil(planned / 4))
        correct, analytic = _uc_accuracy(table, name, SIMULATOR, n)
        drops.append((correct / UC_RUNS, analytic))
    quarter_drops = all(acc < floor and an < floor for acc, an in drops)

    ok = floor_ok and agree_ok and quarter_drops
    report(
        3,
        ok,
        f"floor {floor:.4f}; worst planned-n analytic accuracy "
        f"{cells[worst][1]:.4f}, seeded {cells[worst][0]:.3f} ({worst}); "
        f"smallest binomial p {cells[least_agreeing][2]:.3g} ({least_agreeing}), "
        f"level {UC_BINOMIAL_LEVEL:g}; quarter-budget Grover/HHL accuracy "
        f"{['%.3f' % acc for acc, _ in drops]} "
        f"(analytic {['%.3f' % an for _, an in drops]})",
    )
    assert ok, f"floor {floor_ok}, agreement {agree_ok}, quarter drops {drops}"


def test_criterion_4_qp_crossing():
    """Two devices at table-scale separation: QP names the right device,
    fully powered, from the first 10 measurements of a reconstructed trace
    in at least 95% of seeded runs (the plan is about 4.4)."""
    dev_a = DeviceProfile(
        "dev_a",
        {
            "grover": TimingDistribution(1.853176702, 0.3),
            "probe": TimingDistribution(0.05, 1e-4),
        },
    )
    dev_b = DeviceProfile("dev_b", {"grover": TimingDistribution(3.075851148, 0.3)})
    hits = 0
    seeds = 1000
    for seed in range(seeds):
        scenario = Scenario(dev_a, "grover", 60, "probe", probe_every=1, seed=seed)
        tr = reconstruct(run_simulation(scenario))
        v = qp_fingerprint(
            runs_trace(tr.durations[:10]), [dev_a, dev_b], "grover"
        )
        hits += v.label == "dev_a" and not v.underpowered
    rate = hits / seeds
    ok = rate >= 0.95
    report(
        4, ok,
        f"right and fully powered at 10 measurements in {rate:.1%} of {seeds} seeds",
    )
    assert ok, f"right, fully powered rate {rate}"


#: least factor by which the key stage must out-demand the iteration stage
#: ("orders of magnitude more data", co_identify)
KEY_STAGE_FACTOR = 100


def test_criterion_5_co_envelope():
    """Grover catalog matrices: the calibrated [500, 2e7] envelope, same-
    iteration OVL > 0.99, and every same-iteration cell needing at least
    100x the largest cross-iteration cell. Absolute per-regime bounds
    cannot hold: the evenly spaced key offsets make cross-iteration cells
    span >= 4x and same-iteration cells ~49x in n."""
    cat = grover_catalog()
    ovl_m, req_m = catalog_matrices(cat)
    same_iter = np.zeros_like(req_m, dtype=bool)
    for v in cat:
        for w in cat:
            if v.index != w.index and v.iterations == w.iterations:
                same_iter[v.index - 1, w.index - 1] = True
    cross_iter = ~same_iter & ~np.eye(24, dtype=bool)

    off = req_m[~np.isnan(req_m)]
    envelope_ok = off.min() >= 500 and off.max() <= 2e7
    ovl_ok = bool(np.all(ovl_m[same_iter] > 0.99))
    cross_max, same_min = req_m[cross_iter].max(), req_m[same_iter].min()
    ratio = same_min / cross_max
    ratio_ok = ratio >= KEY_STAGE_FACTOR

    ok = envelope_ok and ovl_ok and ratio_ok
    report(
        5,
        ok,
        f"envelope [{off.min():.4g}, {off.max():.4g}] ok={envelope_ok}, "
        f"same-iter OVL>0.99 ok={ovl_ok}, same-iter min {same_min:.4g} / "
        f"cross-iter max {cross_max:.4g} = {ratio:.3g}x "
        f">= {KEY_STAGE_FACTOR}x ok={ratio_ok}",
    )
    assert ok


def _null_fp_rate(n, variance, seeds=1000, seed0=0):
    sd = math.sqrt(variance)
    rng = np.random.default_rng(seed0)
    fp = 0
    for _ in range(seeds):
        a = runs_trace(rng.normal(2.0, sd, n))
        b = runs_trace(rng.normal(2.0, sd, n))
        verdict, _ = null_distinguishability(a, b)
        fp += verdict == DISTINGUISHABLE
    return fp / seeds


def test_criterion_6_null_attacks():
    """Identical-model pairs stay indistinguishable: the false-positive
    rate never exceeds the calibrated level by more than 0.02."""
    limit = NULL_RULE_FP_LEVEL + 0.02
    rates = {
        "QM-sim n=10000": _null_fp_rate(10_000, 0.003, seed0=1),
        "QM-hardware n=700": _null_fp_rate(700, 0.3, seed0=2),
        "CA n=2000": _null_fp_rate(2_000, 0.3, seed0=3),
    }
    ok = all(r <= limit for r in rates.values())
    detail = ", ".join(f"{k}: {v:.3f}" for k, v in rates.items()) + f" (limit {limit})"
    report(6, ok, detail)
    assert ok, detail


def test_criterion_7_property_suite(table, tmp_path):
    """Deterministic invariants across the statistics and simulation APIs."""
    checks = {}

    p = TimingDistribution(1.3, 0.4)
    q = TimingDistribution(2.1, 1.7)
    checks["ovl-identity"] = ovl(p, p) == 1.0
    checks["ovl-symmetry"] = abs(ovl(p, q) - ovl(q, p)) < 1e-12
    checks["ovl-vs-integration"] = abs(ovl(p, q) - ovl_numeric(p, q)) < 1e-6

    # the oracle's pooled test holds its level at n = 2, where Welch's df
    # would halve it, and shifting both means moves no verdict
    alpha = PowerSpec().alpha
    null = mc_power_oracle(p, p, 2, trials=20_000, seed=7)
    checks["oracle-null-level"] = abs(null - alpha) <= 4 * math.sqrt(
        alpha * (1 - alpha) / 20_000)
    shifted = (TimingDistribution(11.3, 0.4), TimingDistribution(12.1, 1.7))
    checks["oracle-shift-invariance"] = (
        mc_power_oracle(p, q, 5, seed=7) == mc_power_oracle(*shifted, 5, seed=7))

    n1, n2 = required_sample_size(0.05), required_sample_size(0.10)
    checks["n-monotone"] = n1 > n2
    checks["n-quarter-scaling"] = abs(n1 / n2 - 4.0) < 0.01

    dev = DeviceProfile(
        "d",
        {
            "v": TimingDistribution(2.0, 0.3),
            "p": TimingDistribution(0.05, 1e-4),
        },
    )
    scenario = Scenario(dev, "v", 25, "p", probe_every=1, seed=42)
    log = run_simulation(scenario)
    checks["simulation-determinism"] = np.array_equal(
        run_simulation(scenario).ended_at, log.ended_at
    )
    truth = ground_truth_durations(log)
    tr = assemble_trace(AttackerView.from_log(log), avg_victim=2.0)
    checks["trace-identity-k1"] = np.allclose(tr.durations, truth)

    path = tmp_path / "roundtrip.csv"
    write_csv(path, _CSV_HEADER, (
        [e.name, e.sim_latency, e.qc_latency, e.sim_required, e.qc_required]
        for e in table.entries
    ), digits=12)
    again = load_table(path)
    checks["csv-roundtrip"] = all(
        a.name == b.name
        and abs(a.latency(SIMULATOR) - b.latency(SIMULATOR)) < 1e-9
        and abs(a.latency(HARDWARE) - b.latency(HARDWARE)) < 1e-9
        for a, b in zip(table.entries, again.entries)
    )

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    report(7, ok, f"{len(checks)} invariants, failed: {failed or 'none'}")
    assert ok, failed
