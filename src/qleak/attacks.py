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
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .baseline import (
    AMBIGUITY_EPS,
    BACKENDS,
    BaselineTable,
    GroverVariant,
    _nearest,
    _neighbor,
    _requirements,
)
from .cloudsim import DeviceProfile
from .stats import (
    PowerSpec,
    dom_curves,
    effect_size,
    pooled_t_power,
    required_sample_size,
)
from .trace import Trace

#: measured false-positive rate of the "final tenth beyond the band" rule
#: on identical distributions at DOM_CONFIDENCE (frozen by the null suite)
NULL_RULE_FP_LEVEL = 0.03

DISTINGUISHABLE = "distinguishable"
INDISTINGUISHABLE = "indistinguishable"
AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class AttackVerdict:
    """`planned_n` is the requirement for the plan's pair of candidates,
    `confidence` the pooled-test power at `measurements_used` (at least 2)
    against that pair, `underpowered` is derived as `measurements_used <
    planned_n`, and `ambiguous` marks tied candidates. Backend detection
    still carries a placeholder plan (planned_n 1, confidence spec.power).
    """

    attack: str
    label: str
    measurements_used: int
    statistic: float
    planned_n: float
    confidence: float
    ambiguous: bool = False
    underpowered: bool = field(init=False)

    def __post_init__(self):
        if self.measurements_used < 1:
            raise ValueError("measurements_used must be at least 1")
        if not self.label:
            raise ValueError("label must be non-empty")
        object.__setattr__(
            self, "underpowered", self.measurements_used < self.planned_n)


def _verdict(attack: str, label: str, n: int, statistic: float, d: float,
             spec: PowerSpec, ambiguous: bool) -> AttackVerdict:
    """A decision on n measurements, planned against a pair at effect size d."""
    return AttackVerdict(
        attack, label, n, statistic, required_sample_size(d, spec),
        pooled_t_power(max(n, 2), d, spec.alpha), ambiguous,
    )


def _moments(trace: Trace) -> tuple[int, float, float]:
    """(n, mean, unbiased variance) of the trace's durations; one duration
    has variance 0."""
    xs = trace.durations
    if xs.size < 1:
        raise ValueError("empty trace")
    return xs.size, float(xs.mean()), float(xs.var(ddof=1)) if xs.size > 1 else 0.0


def _in_se(gap: float, n: int, var: float) -> float:
    """`gap` in standard errors of a mean of n draws with variance var;
    with no spread, inf for a nonzero gap and 0 for none."""
    se = math.sqrt(var / n) if n > 1 else 0.0
    if se == 0.0:
        return math.inf if gap != 0 else 0.0
    return gap / se


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
    n, mean, var = _moments(trace)
    means = [e.latency(backend) for e in table.entries]
    best, tie = _nearest(mean, means)
    label = table.entries[best].name
    _, d = _neighbor(table, label, backend)
    return _verdict("UC", label, n, _in_se(mean - means[best], n, var), d, spec, tie)


def detect_backend(
    trace: Trace, table: BaselineTable, spec: PowerSpec = PowerSpec()
) -> AttackVerdict:
    """Decide simulator vs hardware by nearest mean over both columns."""
    n, mean, var = _moments(trace)
    columns = [[e.latency(b) for e in table.entries] for b in BACKENDS]
    means = columns[0] + columns[1]
    best, tie = _nearest(mean, means)
    side = best // len(table)
    # separation between the winning distance and the best distance on the
    # other column, in trace standard errors
    other_best = min(abs(m - mean) for m in columns[1 - side])
    sep = other_best - abs(means[best] - mean)
    return AttackVerdict(
        attack="UC",
        label=BACKENDS[side],
        measurements_used=n,
        statistic=_in_se(sep, n, var),
        planned_n=1.0,
        confidence=spec.power,
        ambiguous=tie or sep < AMBIGUITY_EPS,
    )


def co_identify(
    trace: Trace,
    catalog: list[GroverVariant],
    spec: PowerSpec = PowerSpec(),
) -> tuple[AttackVerdict, np.ndarray]:
    """Two-stage Grover variant recovery plus the requirement matrix.

    Iteration count is decided first (cross-iteration gaps are large),
    then the key within that iteration, which may demand orders of
    magnitude more data: short traces report the iteration with the key
    flagged under-powered. Returns (verdict, requirement matrix), the
    matrix in catalog index order for export.
    """
    cat = sorted(catalog, key=lambda v: v.index)
    if [v.index for v in cat] != list(range(1, 25)):
        raise ValueError("catalog must hold each variant index 1-24 exactly once")
    n, mean, var = _moments(trace)
    req_m = _requirements([v.timing for v in cat], spec)

    by_iteration = [cat[i : i + 8] for i in (0, 8, 16)]
    centers = [sum(v.timing.mean for v in group) / 8 for group in by_iteration]
    it, iter_tie = _nearest(mean, centers)
    key, key_tie = _nearest(mean, [v.timing.mean for v in by_iteration[it]])
    variant = by_iteration[it][key]
    # key-stage plan: the same-iteration variant with the largest
    # requirement (the smallest gap); the NaN diagonal drops the variant
    row = req_m[variant.index - 1, 8 * it : 8 * it + 8]
    rival = by_iteration[it][int(np.nanargmax(row))]
    head = f"iterations={variant.iterations}"
    verdict = _verdict(
        "CO", f"{head} key={variant.key}", n,
        _in_se(mean - variant.timing.mean, n, var),
        effect_size(variant.timing, rival.timing), spec, iter_tie or key_tie,
    )
    if verdict.underpowered:
        verdict = replace(verdict, label=f"{head} key=under-powered")
    return verdict, req_m


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

    `measurements_used` is the first band crossing of the last device
    rejected (the whole trace when none is). The plan is the requirement
    that tells apart the two devices whose models lie closest, with the
    pooled sd of that pair.
    """
    if len(devices) < 2:
        raise ValueError("need at least two candidate devices")
    rejected: dict[str, int] = {}
    kept: list[str] = []
    final_dom: list[float] = []
    for dev in devices:
        ns, dom, band = dom_curves(trace.durations, dev.timing(circuit))
        if _final_tenth_exceeds(dom, band):
            rejected[dev.name] = first_crossing(dom, band, ns)
        else:
            kept.append(dev.name)
            final_dom.append(float(dom[-1]))
    models = sorted((dev.timing(circuit) for dev in devices), key=lambda t: t.mean)
    nearest = min(zip(models[:-1], models[1:]), key=lambda pq: pq[1].mean - pq[0].mean)
    gap = nearest[1].mean - nearest[0].mean
    # the kept model nearest the trace mean: the smallest final |dom|
    label = kept[_nearest(0.0, final_dom)[0]] if kept else AMBIGUOUS
    used = max(rejected.values()) if rejected else len(trace)
    return _verdict(
        "QP", label, max(used, 1), float(len(rejected)), effect_size(*nearest),
        spec, len(kept) != 1 or gap < AMBIGUITY_EPS,
    )
