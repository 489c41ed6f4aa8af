"""The five attack decision procedures over reconstructed timing traces.

UC  - identify which baseline circuit the victim ran (and which backend).
CO  - recover a Grover variant: iteration count first, hidden key second.
CA  - ansatz-parameter recovery, a null test expected to fail.
QM  - qubit-mapping recovery, likewise a null test.
QP  - fingerprint which processor ran a known circuit.

Attacks are fixed-sample designs: they compare the trace length against a
power-analysis plan instead of testing sequentially.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baseline import (
    BACKENDS,
    BaselineTable,
    GroverVariant,
    catalog_matrices,
    nearest_neighbor_requirement,
)
from .cloudsim import DeviceProfile
from .stats import (
    DOM_CONFIDENCE,
    PowerSpec,
    SampleSummary,
    dom_curves,
    effect_size,
    pooled_t_power,
    required_sample_size,
)
from .trace import Trace

#: distance below which two candidate means are treated as tied
AMBIGUITY_EPS = 1e-12

#: measured false-positive rate of the "final tenth beyond the band" rule
#: on identical distributions at DOM_CONFIDENCE (frozen by the null suite)
NULL_RULE_FP_LEVEL = 0.03

DISTINGUISHABLE = "distinguishable"
INDISTINGUISHABLE = "indistinguishable"
AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class AttackVerdict:
    attack: str
    label: str
    measurements_used: int
    statistic: float
    planned_n: float
    confidence: float
    ambiguous: bool = False
    underpowered: bool = False

    def __post_init__(self):
        if self.measurements_used < 1:
            raise ValueError("measurements_used must be at least 1")
        if not self.label:
            raise ValueError("label must be non-empty")


def _nearest_two(mu: float, candidates: list[tuple[str, float]]):
    """Best and runner-up candidates by |mean distance|, plus a tie flag."""
    ranked = sorted(candidates, key=lambda c: abs(c[1] - mu))
    best = ranked[0]
    tie = (
        len(ranked) > 1
        and abs(abs(ranked[1][1] - mu) - abs(best[1] - mu)) < AMBIGUITY_EPS
    )
    return best, ranked[1] if len(ranked) > 1 else None, tie


def _mean_statistic(n: int, mean: float, var: float, ref_mean: float) -> float:
    if n < 2 or var == 0.0:
        return math.inf if mean != ref_mean else 0.0
    return (mean - ref_mean) / math.sqrt(var / n)


def uc_classify(
    trace: Trace,
    table: BaselineTable,
    backend: str,
    spec: PowerSpec = PowerSpec(),
) -> AttackVerdict:
    """Label the victim's circuit by nearest baseline mean.

    The plan is the requirement against the provisional label's nearest
    neighbor; shorter traces still get the nearest-mean label, flagged
    under-powered.
    """
    s = SampleSummary.from_samples(trace.durations)
    candidates = [(e.name, e.latency(backend)) for e in table.entries]
    (label, ref_mu), _, tie = _nearest_two(s.mean, candidates)
    neighbor, planned = nearest_neighbor_requirement(table, label, backend, spec)
    d = effect_size(table.timing(label, backend), table.timing(neighbor, backend))
    return AttackVerdict(
        attack="UC",
        label=label,
        measurements_used=s.n,
        statistic=_mean_statistic(s.n, s.mean, s.variance, ref_mu),
        planned_n=planned,
        confidence=pooled_t_power(max(s.n, 2), d, spec.alpha),
        ambiguous=tie,
        underpowered=s.n < math.ceil(planned),
    )


def detect_backend(
    trace: Trace, table: BaselineTable, spec: PowerSpec = PowerSpec()
) -> AttackVerdict:
    """Decide simulator vs hardware by nearest mean over both columns."""
    s = SampleSummary.from_samples(trace.durations)
    n, mean, var = s.n, s.mean, s.variance
    candidates = [
        (backend, e.latency(backend))
        for backend in BACKENDS
        for e in table.entries
    ]
    (label, ref_mu), runner, tie = _nearest_two(mean, candidates)
    # separation between the winning distance and the best distance on the
    # other column, in trace standard errors
    other = [c for c in candidates if c[0] != label]
    other_best = min(abs(c[1] - mean) for c in other)
    sep = other_best - abs(ref_mu - mean)
    se = math.sqrt(var / n) if n > 1 and var > 0 else 0.0
    statistic = sep / se if se > 0 else math.inf
    return AttackVerdict(
        attack="UC",
        label=label,
        measurements_used=n,
        statistic=statistic,
        planned_n=1.0,
        confidence=spec.power,
        ambiguous=tie or sep < AMBIGUITY_EPS,
    )


def co_identify(
    trace: Trace,
    catalog: list[GroverVariant],
    spec: PowerSpec = PowerSpec(),
) -> tuple[AttackVerdict, np.ndarray, np.ndarray]:
    """Two-stage Grover variant recovery plus the full pairwise matrices.

    Iteration count is decided first (cross-iteration gaps are large),
    then the key within that iteration, which may demand orders of
    magnitude more data: short traces report the iteration with the key
    flagged under-powered. Returns (verdict, ovl matrix, requirement
    matrix) in catalog index order for export.
    """
    if len(catalog) != 24:
        raise ValueError(f"expected a 24-variant catalog, got {len(catalog)}")
    s = SampleSummary.from_samples(trace.durations)
    n, mean, var = s.n, s.mean, s.variance
    cat = sorted(catalog, key=lambda v: v.index)
    ovl_m, req_m = catalog_matrices(cat, spec)

    centers = []
    for it in (1, 2, 3):
        means = [v.timing.mean for v in cat if v.iterations == it]
        centers.append((it, sum(means) / len(means)))
    (iteration, _), _, iter_tie = _nearest_two(mean, centers)

    within = [v for v in cat if v.iterations == iteration]
    (variant_idx, ref_mu), _, key_tie = _nearest_two(
        mean, [(v.index, v.timing.mean) for v in within]
    )
    variant = next(v for v in within if v.index == variant_idx)
    # key-stage plan: requirement against the nearest same-iteration variant
    idx = [v.index - 1 for v in within if v.index != variant_idx]
    # nearest key has the smallest gap and therefore the largest requirement
    planned = float(np.max(req_m[variant.index - 1, idx]))
    underpowered = n < math.ceil(planned)
    label = (
        f"iterations={iteration} key=under-powered"
        if underpowered
        else f"iterations={iteration} key={variant.key}"
    )
    return (
        AttackVerdict(
            attack="CO",
            label=label,
            measurements_used=n,
            statistic=_mean_statistic(n, mean, var, ref_mu),
            planned_n=planned,
            confidence=spec.power,
            ambiguous=iter_tie or key_tie,
            underpowered=underpowered,
        ),
        ovl_m,
        req_m,
    )


def _final_tenth_exceeds(dom: np.ndarray, band: np.ndarray) -> bool:
    k = max(1, int(0.1 * len(dom)))
    return bool(np.all(np.abs(dom[-k:]) > band[-k:]))


def null_distinguishability(
    trace_a: Trace, trace_b: Trace
) -> tuple[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Difference-of-means verdict for two traces, with the (n, dom, band)
    curve it rests on.

    "Distinguishable" only when the whole final tenth of the curve sits
    beyond the band; single-point excursions at DOM_CONFIDENCE are
    expected noise (null rate ~ NULL_RULE_FP_LEVEL). Length mismatch
    is resolved by truncating to the shorter trace.
    """
    ns, dom, band = dom_curves(trace_a.durations, trace_b.durations)
    verdict = (
        DISTINGUISHABLE if _final_tenth_exceeds(dom, band) else INDISTINGUISHABLE
    )
    return verdict, (ns, dom, band)


def first_crossing(dom: np.ndarray, band: np.ndarray, ns: np.ndarray) -> Optional[int]:
    hits = np.nonzero(np.abs(dom) > band)[0]
    return int(ns[hits[0]]) if hits.size else None


def qp_fingerprint(
    trace: Trace,
    devices: list[DeviceProfile],
    circuit: str,
    spec: PowerSpec = PowerSpec(),
) -> AttackVerdict:
    """Name the device whose reference model the trace stays consistent
    with; every other device is rejected at its first band crossing.

    The plan is the requirement that tells apart the two devices whose
    models lie closest, with the pooled sd of that pair.
    """
    if len(devices) < 2:
        raise ValueError("need at least two candidate devices")
    xs = np.asarray(trace.durations, dtype=float)
    n = xs.size
    rejected: dict[str, int] = {}
    kept: list[str] = []
    final_dom: dict[str, float] = {}
    for dev in devices:
        ns, dom, band = dom_curves(xs, dev.timing(circuit))
        final_dom[dev.name] = abs(float(dom[-1]))
        if _final_tenth_exceeds(dom, band):
            cross = first_crossing(dom, band, ns)
            rejected[dev.name] = cross if cross is not None else n
        else:
            kept.append(dev.name)
    models = sorted((dev.timing(circuit) for dev in devices), key=lambda t: t.mean)
    nearest = min(zip(models[:-1], models[1:]), key=lambda pq: pq[1].mean - pq[0].mean)
    gap = nearest[1].mean - nearest[0].mean
    ambiguous = len(kept) != 1 or gap < AMBIGUITY_EPS
    if len(kept) == 1:
        label = kept[0]
    elif kept:
        label = min(kept, key=lambda name: final_dom[name])
    else:
        label = AMBIGUOUS
    used = max(rejected.values()) if rejected else n
    return AttackVerdict(
        attack="QP",
        label=label,
        measurements_used=max(used, 1),
        statistic=float(len(rejected)),
        planned_n=required_sample_size(effect_size(*nearest), spec),
        confidence=DOM_CONFIDENCE,
        ambiguous=ambiguous,
    )
