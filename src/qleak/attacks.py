"""The five attack decision procedures over reconstructed timing traces.

UC  - identify which baseline circuit the victim ran (and which backend).
CO  - recover a Grover variant: iteration count first, hidden key second.
CA  - ansatz-parameter recovery, a null test expected to fail.
QM  - qubit-mapping recovery, likewise a null test.
QP  - fingerprint which processor ran a known circuit.

UC, backend detection, both CO stages and QP are one nearest-model
classifier over (label, model) candidates: the label is that of the model
nearest the trace mean, and the plan is against its rival, the model with
another label nearest the winner. Attacks are fixed-sample designs: they
compare the trace length against that plan instead of testing
sequentially.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .baseline import (
    BACKENDS,
    BaselineTable,
    GroverVariant,
    _nearest,
    _rival,
)
from .cloudsim import DeviceProfile
from .stats import (
    MixtureTiming,
    PowerSpec,
    TimingDistribution,
    dom_curves,
    effect_size,
    pooled_t_power,
    required_sample_size,
)
from .trace import Trace

#: measured false-positive rate of the "final tenth beyond the band" rule
#: on identical distributions at DOM_CONFIDENCE (frozen by the null suite)
NULL_RULE_FP_LEVEL = 0.03

#: distance below which two candidate means are treated as tied
AMBIGUITY_EPS = 1e-12

DISTINGUISHABLE = "distinguishable"
INDISTINGUISHABLE = "indistinguishable"


@dataclass(frozen=True)
class AttackVerdict:
    """`label` names the candidate model nearest the trace mean and
    `statistic` is the trace mean minus that model's mean, in standard
    errors of the trace mean.
    `planned_n` is the requirement for telling that model from its rival,
    the nearest model with another label; `confidence` is the pooled-test
    power at `measurements_used` (at least 2) against that pair.
    `underpowered` is derived as `measurements_used < planned_n`, and
    `ambiguous` marks a tie for nearest with a model of another label.
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


def _in_se(gap: float, n: int, var: float) -> float:
    """`gap` in standard errors of a mean of n draws with variance var;
    with no spread, inf for a nonzero gap and 0 for none."""
    se = math.sqrt(var / n) if n > 1 else 0.0
    if se == 0.0:
        return math.inf if gap != 0 else 0.0
    return gap / se


def _classify(
    attack: str,
    trace: Trace,
    candidates: list[tuple[str, TimingDistribution | MixtureTiming]],
    spec: PowerSpec,
) -> AttackVerdict:
    """Label the trace with the (label, model) candidate whose mean lies
    nearest the trace mean, planned against that candidate's rival: the
    candidate with another label nearest it in mean. A tie counts only
    against the candidate with another label nearest the trace mean."""
    n, mean, var = trace.moments
    label, model = candidates[_nearest(mean, [m.mean for _, m in candidates])]
    _, rival = _rival(candidates, label, model.mean)
    _, runner_up = _rival(candidates, label, mean)
    tie = abs(runner_up.mean - mean) - abs(model.mean - mean) < AMBIGUITY_EPS
    d = effect_size(model, rival)
    return AttackVerdict(
        attack, label, n, _in_se(mean - model.mean, n, var),
        required_sample_size(d, spec), pooled_t_power(max(n, 2), d, spec.alpha),
        tie,
    )


def uc_classify(
    trace: Trace,
    table: BaselineTable,
    backend: str,
    spec: PowerSpec = PowerSpec(),
) -> AttackVerdict:
    """Label the victim's circuit by nearest baseline mean.

    The plan is the requirement against the label's nearest neighbor in
    the table; shorter traces still get the nearest-mean label, flagged
    under-powered.
    """
    return _classify("UC", trace, table.column(backend), spec)


def detect_backend(
    trace: Trace, table: BaselineTable, spec: PowerSpec = PowerSpec()
) -> AttackVerdict:
    """Decide simulator vs hardware by nearest mean over both columns.

    The label is the backend of the nearest table model; the plan is
    against the model in the other column nearest that one.
    """
    candidates = [(b, m) for b in BACKENDS for _, m in table.column(b)]
    return _classify("UC", trace, candidates, spec)


def co_identify(
    trace: Trace,
    catalog: list[GroverVariant],
    spec: PowerSpec = PowerSpec(),
) -> tuple[AttackVerdict, AttackVerdict]:
    """Two-stage Grover variant recovery.

    Both stages are the one nearest-model rule: the iteration count over
    three candidates, each iteration's eight variants as one uniform
    `MixtureTiming`, then the key among that iteration's eight variants,
    planned against the nearest other key, which may demand orders of
    magnitude more data: short traces report the iteration with the key
    flagged under-powered. `ambiguous` marks a tie at either stage.
    Returns (verdict, iteration): the final verdict, then the iteration
    stage's own, labelled `1`-`3` and planned against the nearest other
    iteration's mixture.
    """
    cat = sorted(catalog, key=lambda v: v.index)
    if [v.index for v in cat] != list(range(1, 25)):
        raise ValueError("catalog must hold each variant index 1-24 exactly once")
    iteration = _classify("CO", trace, [
        (str(it), MixtureTiming(tuple(v.timing for v in cat if v.iterations == it)))
        for it in (1, 2, 3)
    ], spec)
    keys = [(v.key, v.timing) for v in cat if str(v.iterations) == iteration.label]
    verdict = _classify("CO", trace, keys, spec)
    key = "under-powered" if verdict.underpowered else verdict.label
    return replace(
        verdict, label=f"iterations={iteration.label} key={key}",
        ambiguous=verdict.ambiguous or iteration.ambiguous,
    ), iteration


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
    k = max(1, int(0.1 * len(dom)))
    beyond = np.all(np.abs(dom[-k:]) > band[-k:])
    return (DISTINGUISHABLE if beyond else INDISTINGUISHABLE), (ns, dom, band)


def qp_fingerprint(
    trace: Trace,
    devices: Sequence[DeviceProfile],
    circuit: str,
    spec: PowerSpec = PowerSpec(),
) -> AttackVerdict:
    """Name the device whose reference model for `circuit` lies nearest
    the mean of the whole trace.

    The plan is against the rival model: the one nearest the winner's
    among devices of another name. Raises `ValueError` unless the devices
    carry at least two distinct names.
    """
    if not devices:
        raise ValueError("no reference devices: QP needs two device names")
    models = [(dev.name, dev.timing(circuit)) for dev in devices]
    return _classify("QP", trace, models, spec)
