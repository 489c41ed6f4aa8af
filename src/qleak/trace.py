"""Attacker-side reconstruction of victim durations from probe timestamps.

The attacker sees only its own jobs' start/end times, an (n, 2) array;
victim execution time is the gap between the end of one probe and the
start of the next, and all gaps are reconstructed at once as arrays: a
view computes its intervals once, and a `Trace` holds the durations with
an int column of per-interval counts (`Trace.inferred_counts` is that
column as a Python list, derived for perfbench) and computes its moments
once.
When several victim runs fall inside one gap, the per-execution values are
the interval split evenly, so a count-k interval contributes k correlated
durations: the sample mean is unbiased but the sample variance shrinks by
roughly a factor of k. Power planning on such traces must budget by
intervals, not executions. No gap is subtracted and no interval is
dropped, so `Trace.dropped_intervals` reads 0 until ROADMAP item 2
estimates the gap.

`reconstruct` is the entry point: it runs the whole chain on a job log.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cloudsim import JobLog


@dataclass(frozen=True, eq=False)
class AttackerView:
    """Ordered, disjoint probe jobs as an (n, 2) array of rows
    (started_at, ended_at); built from any sequence of such pairs."""

    probe_records: np.ndarray

    def __post_init__(self):
        probes = np.asarray(self.probe_records, dtype=float)
        probes = probes.reshape(len(probes), 2)
        object.__setattr__(self, "probe_records", probes)
        if not np.all(np.isfinite(probes)):
            raise ValueError("probe times must be finite")
        if np.any(probes[1:, 0] < probes[:-1, 1]):
            raise ValueError("probe intervals overlap or are unordered")
        if np.any(probes[:, 1] <= probes[:, 0]):
            raise ValueError("probe with non-positive duration")

    @classmethod
    def from_log(cls, log: JobLog) -> "AttackerView":
        return cls(log.spans.compress(~log.victim, axis=0))

    @cached_property
    def intervals(self) -> np.ndarray:
        """Gap between consecutive probes: next start minus previous end,
        computed once per view and read-only."""
        probes = self.probe_records
        if len(probes) < 2:
            raise ValueError("need at least two probes to measure an interval")
        gaps = probes[1:, 0] - probes[:-1, 1]
        gaps.flags.writeable = False
        return gaps


@dataclass(frozen=True, eq=False)
class Trace:
    """Inferred victim durations plus per-interval bookkeeping: `counts`
    is an integer array of the executions inferred in each interval, summing
    to the number of durations. `inferred_counts` is the same column as a
    list of Python ints, derived for perfbench's tracer, which writes
    their sums to JSON. `dropped_intervals` reads 0 until ROADMAP item 2
    estimates the gap."""

    durations: np.ndarray
    counts: np.ndarray
    dropped_intervals: int = 0

    def __post_init__(self):
        durations = np.asarray(self.durations, dtype=float)
        counts = np.asarray(self.counts)
        if counts.size and counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "counts", counts)
        if not np.all(np.isfinite(durations)):
            raise ValueError("durations must be finite")
        if len(durations) != counts.sum():
            raise ValueError("durations length must equal the summed counts")

    def __len__(self):
        return len(self.durations)

    @property
    def inferred_counts(self) -> list[int]:
        return self.counts.tolist()

    @cached_property
    def moments(self) -> tuple[int, float, float]:
        """(n, mean, unbiased variance) of the durations, computed once;
        one duration has variance 0. The variance takes numpy's own `var`
        steps from the mean already in hand, so both keep `mean()`'s and
        `var(ddof=1)`'s bits."""
        xs = self.durations
        n = xs.size
        if n < 1:
            raise ValueError("empty trace")
        mean = xs.sum() / n
        if n == 1:
            return n, float(mean), 0.0
        deviations = xs - mean
        np.square(deviations, out=deviations)
        return n, float(mean), float(deviations.sum() / (n - 1))

    @classmethod
    def from_durations(cls, durations) -> "Trace":
        durations = np.asarray(durations, dtype=float)
        return cls(durations, np.ones(len(durations), dtype=int))


def infer_execution_count(interval, avg_victim: float):
    """Number of victim executions inside each interval and their implied
    per-execution duration, as numpy int and float values of the
    interval's shape (shape () for a scalar interval).

    Nearest-integer count, half-way cases rounding down (a phantom extra
    execution is worse than a missed one); floored at 1 for any positive
    interval. A zero interval means no victim ran (count and duration 0).
    """
    if not avg_victim > 0:
        raise ValueError("avg_victim must be positive")
    intervals = np.asarray(interval, dtype=float)
    if not np.all(np.isfinite(intervals) & (intervals >= 0)):
        raise ValueError("interval must be finite and non-negative")
    # one scratch array (`out` keeps it an array for a 0-d interval): the
    # count floored at 1 divides the interval, then a zero interval's
    # count becomes 0
    scratch = np.divide(intervals, avg_victim, out=np.empty(intervals.shape))
    scratch -= 0.5
    np.ceil(scratch, out=scratch)
    np.maximum(scratch, 1, out=scratch)
    per_execution = intervals / scratch
    np.copyto(scratch, 0.0, where=intervals == 0)
    return scratch.astype(int), per_execution


def estimate_victim_mean(view: AttackerView) -> float:
    """Bootstrap estimate of the victim's average duration from intervals
    assumed to hold one execution each (k=1 warmup)."""
    return float(np.mean(view.intervals))


def assemble_trace(view: AttackerView, avg_victim: float) -> Trace:
    """Turn probe intervals into per-execution victim durations: each
    interval split evenly over its inferred count of executions, and an
    interval with no execution kept at count 0. No interval is dropped, so
    `dropped_intervals` reads 0 until ROADMAP item 2 estimates the gap.
    """
    counts, per_execution = infer_execution_count(view.intervals, avg_victim)
    return Trace(np.repeat(per_execution, counts), counts)


def reconstruct(log: JobLog) -> Trace:
    """Victim trace from a job log: the attacker's view of its probes, the
    victim mean estimated from it, then `assemble_trace`."""
    # both steps are looked up at call time and given the log and the view
    # positionally, which is where perfbench/tracer.py's wrappers read them
    view = AttackerView.from_log(log)
    return assemble_trace(view, estimate_victim_mean(view))
