"""Timing-channel countermeasures and their cost/benefit evaluation.

Four knobs, all modelled as transforms on per-circuit timing
distributions or on scheduler behavior; each rewrites a scenario too:

- timer noise: the service adds zero-mean jitter of a fixed variance to
  every reported duration, inflating every pairwise requirement by the
  common factor (sigma^2 + v) / sigma^2;
- compile randomness: each submission is compiled to one of several
  layouts drawn uniformly, turning a point latency into a mixture;
- circuit padding: idle gates shift a circuit's mean toward a decoy's,
  shrinking the gap the attacker must resolve (the decoy is looked up
  where the circuits run: a table column, or a scenario's device);
- scheduler batching: victims run batch_factor executions between
  probes; its reported inflation is batch_factor as given, not derived
  from the per-interval effect size (ROADMAP.md, item 4).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable

import numpy as np

from .baseline import BaselineTable
from .cloudsim import Scenario, _check_ints
from .stats import (
    MixtureTiming,
    PowerSpec,
    TimingDistribution,
    effect_size,
    ovl,
    required_sample_size,
)

TIMER_NOISE = "timer-noise"
COMPILE_RANDOMNESS = "compile-randomness"
CIRCUIT_PADDING = "circuit-padding"
SCHEDULER_BATCHING = "scheduler-batching"

#: the Mitigation fields each kind reads; the others must keep their defaults
KIND_PARAMS = {
    TIMER_NOISE: ("added_variance",),
    COMPILE_RANDOMNESS: ("layout_spread", "layouts"),
    CIRCUIT_PADDING: ("pad_toward", "pad_fraction"),
    SCHEDULER_BATCHING: ("batch_factor",),
}
KINDS = tuple(KIND_PARAMS)

#: one timing model per layout: `evaluate` takes about 0.1 s at this bound (2 vCPUs)
MAX_LAYOUTS = 10**4


@dataclass(frozen=True)
class Mitigation:
    """One configured countermeasure.

    kind-specific parameters (those of the other kinds keep their defaults):
      timer-noise: 0 < added_variance < inf
      compile-randomness: 0 < layout_spread < inf, 2 <= layouts <= MAX_LAYOUTS
        (evenly spaced mean offsets spanning +/- layout_spread / 2)
      circuit-padding: pad_toward (decoy circuit name), pad_fraction in
        [0, 1] (how much of the mean gap the padding closes)
      scheduler-batching: batch_factor >= 1 (multiplies probe_every)
    """

    kind: str
    added_variance: float = 0.0
    layout_spread: float = 0.0
    layouts: int = 2
    pad_toward: str = ""
    pad_fraction: float = 1.0
    batch_factor: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown mitigation kind {self.kind!r}")
        _check_ints(self, ("layouts", "batch_factor"), ValueError)
        own = ("kind", *KIND_PARAMS[self.kind])
        for f in fields(self):
            if f.name not in own and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.kind} does not read {f.name}")
        if self.kind == TIMER_NOISE and not 0 < self.added_variance < math.inf:
            raise ValueError("timer-noise needs a positive, finite added_variance, "
                             f"got {self.added_variance}")
        if self.kind == COMPILE_RANDOMNESS:
            if not 0 < self.layout_spread < math.inf:
                raise ValueError("compile-randomness needs a positive, finite "
                                 f"layout_spread, got {self.layout_spread}")
            if not 2 <= self.layouts <= MAX_LAYOUTS:
                raise ValueError(f"compile-randomness needs layouts from 2 to "
                                 f"{MAX_LAYOUTS}, got {self.layouts}")
        if self.kind == CIRCUIT_PADDING:
            if not self.pad_toward:
                raise ValueError("circuit-padding needs pad_toward")
            if not 0.0 <= self.pad_fraction <= 1.0:
                raise ValueError("pad_fraction must lie in [0, 1]")
        if self.kind == SCHEDULER_BATCHING and self.batch_factor < 1:
            raise ValueError("batch_factor must be >= 1")

    # -- distribution transforms ------------------------------------------

    def apply(
        self,
        circuit: str,
        timing_of: Callable[[str], TimingDistribution | MixtureTiming],
    ) -> TimingDistribution | MixtureTiming:
        """Transform the timing distribution of the named circuit, which
        `timing_of` looks up: a table column in `evaluate`, the device in
        `apply_to_scenario`. circuit-padding looks up its decoy there too.
        scheduler-batching leaves distributions untouched.
        compile-randomness raises `ValueError`, naming the circuit, unless
        its mean exceeds layout_spread / 2, where its shortest layout ends.
        """
        timing = timing_of(circuit)
        if self.kind == TIMER_NOISE:
            return TimingDistribution(timing.mean, timing.variance + self.added_variance)
        if self.kind == COMPILE_RANDOMNESS:
            half = self.layout_spread / 2
            if not timing.mean > half:
                raise ValueError(
                    f"compile-randomness layout_spread {self.layout_spread} "
                    f"needs every circuit mean above layout_spread / 2 = {half}, "
                    f"but {circuit!r} has mean {timing.mean}")
            return MixtureTiming(tuple(
                TimingDistribution(timing.mean + float(o), timing.variance)
                for o in np.linspace(-half, half, self.layouts)))
        if self.kind == CIRCUIT_PADDING:
            decoy = timing_of(self.pad_toward).mean
            # padding only lengthens circuits: shift the shorter of the
            # pair toward the longer one
            if timing.mean >= decoy:
                return timing
            mean = timing.mean + self.pad_fraction * (decoy - timing.mean)
            return TimingDistribution(mean, timing.variance)
        return timing

    def apply_to_scenario(self, scenario: Scenario) -> Scenario:
        """Batching multiplies probe_every; the other kinds `apply` to every
        circuit model on the device, the probe's too. Padding resolves its
        decoy on the device and also lengthens a probe shorter than it,
        which moves log timestamps but not the probe intervals the attacker
        reads. Every circuit mean must exceed a compile spread's half. The
        reference devices, the attacker's calibration, stay as they are.
        """
        if self.kind == SCHEDULER_BATCHING:
            return replace(
                scenario, probe_every=scenario.probe_every * self.batch_factor
            )
        device = scenario.device
        timings = {n: self.apply(n, device.timing) for n in device.circuit_timings}
        return replace(scenario, device=replace(device, circuit_timings=timings))


@dataclass(frozen=True)
class MitigationReport:
    """Cost/benefit summary for one mitigation against one victim pair."""

    kind: str
    baseline_required_n: float
    mitigated_required_n: float
    inflation: float
    overlap_before: float
    overlap_after: float
    mean_overhead: float
    variance_overhead: float


def evaluate(
    mitigation: Mitigation,
    table: BaselineTable,
    backend: str,
    victim: str,
    reference: str,
    spec: PowerSpec = PowerSpec(),
) -> MitigationReport:
    """How much harder does the mitigation make telling victim from
    reference on this backend, and at what cost to the victim?

    Benefit is the required-measurement inflation factor for the pooled
    two-sample design; cost is the added mean latency and variance the
    victim's own jobs incur. scheduler-batching acts on the attacker's
    sampling, not on the timing models: its inflation is batch_factor as
    given, not derived from the per-interval effect size (ROADMAP.md,
    item 4). Raises ValueError when victim and reference are one circuit;
    two circuits of equal latency plan inf before and after.
    """
    a, b = table.timing(victim, backend), table.timing(reference, backend)
    if victim == reference:
        raise ValueError(f"victim and reference are the same circuit {victim!r}")
    before = required_sample_size(effect_size(a, b), spec)
    timing_of = partial(table.timing, backend=backend)
    am, bm = mitigation.apply(victim, timing_of), mitigation.apply(reference, timing_of)
    after = required_sample_size(effect_size(am, bm), spec)
    if mitigation.kind == SCHEDULER_BATCHING:
        inflation = float(mitigation.batch_factor)
    else:
        inflation = after / before if math.isfinite(before) else math.inf

    return MitigationReport(
        kind=mitigation.kind,
        baseline_required_n=before,
        mitigated_required_n=after,
        inflation=inflation,
        overlap_before=ovl(a, b),
        # mixtures are summarized by their first two moments for overlap
        overlap_after=ovl(am, bm),
        mean_overhead=am.mean - a.mean,
        variance_overhead=am.variance - a.variance,
    )

