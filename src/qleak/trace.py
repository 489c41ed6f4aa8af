"""Attacker-side reconstruction of victim durations from probe timestamps.

The attacker sees only its own jobs' start/end times, an (n, 2) array;
victim execution time is the gap between the end of one probe and the
start of the next. A view computes those intervals once, and a `Trace`
holds what the attacker measured, one row per interval: its length
(`sums`) and the int count of victim runs inferred in it (`counts`).
`Trace.durations` is the derived per-run view, each interval split evenly
over its count, so a count-k interval contributes k equal durations: the
sample mean is unbiased but the sample variance shrinks by roughly a
factor of k. Power planning on such traces must budget by intervals, not
executions. No gap is subtracted and no interval is dropped.

`reconstruct` is the entry point: it runs the whole chain on a job log.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

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
    """Probe intervals as two 1-d columns of equal length: `sums`, each
    interval's length, and `counts`, the non-negative int count of victim
    runs in it; a count-0 interval has length 0. `len` is the number of
    runs. `inferred_counts` is `counts` as Python ints, for perfbench's
    tracer, which writes their sums to JSON; `dropped_intervals` is a
    class constant, 0, since no interval is dropped. Known per-run
    durations `x` are count-1 intervals: `Trace(x, np.ones(len(x), int))`."""

    sums: np.ndarray
    counts: np.ndarray
    dropped_intervals: ClassVar[int] = 0

    def __post_init__(self):
        sums = np.asarray(self.sums, dtype=float)
        counts = np.asarray(self.counts) if np.size(self.counts) else np.zeros(0, int)
        if counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        if np.any(counts < 0):
            raise ValueError("counts must not be negative")
        object.__setattr__(self, "sums", sums)
        object.__setattr__(self, "counts", counts)
        if not np.all(np.isfinite(sums)):
            raise ValueError("durations must be finite")
        if sums.ndim != 1 or sums.shape != counts.shape:
            raise ValueError("sums and counts must be 1-d columns of equal length")
        if np.any(sums[counts == 0]):
            raise ValueError("an interval with count 0 must have length 0")

    def __len__(self):
        return int(self.counts.sum())

    @property
    def inferred_counts(self) -> list[int]:
        return self.counts.tolist()

    @cached_property
    def _per_run(self) -> np.ndarray:
        return self.sums / np.maximum(self.counts, 1)

    @cached_property
    def durations(self) -> np.ndarray:
        """Each interval split evenly over its runs, one value per run."""
        return np.repeat(self._per_run, self.counts)

    @cached_property
    def moments(self) -> tuple[int, float, float]:
        """(n, mean, unbiased variance) of the durations, computed once from
        the columns; one duration has variance 0. With every count 1 the
        steps are numpy's own, so they keep `durations.mean()`'s and
        `durations.var(ddof=1)`'s bits."""
        n = len(self)
        if n < 1:
            raise ValueError("empty trace")
        mean = self.sums.sum() / n
        if n == 1:
            return n, float(mean), 0.0
        deviations = self._per_run - mean
        # weigh by count before squaring: a count-0 row adds 0, never inf * 0
        deviations *= deviations * self.counts
        return n, float(mean), float(deviations.sum() / (n - 1))


def infer_execution_count(interval, avg_victim: float) -> np.ndarray:
    """Number of victim executions inside each interval, as numpy ints of
    the interval's shape (shape () for a scalar interval).

    Nearest-integer count, half-way cases rounding down (a phantom extra
    execution is worse than a missed one); floored at 1 for any positive
    interval. A zero interval means no victim ran (count 0).
    """
    if not avg_victim > 0:
        raise ValueError("avg_victim must be positive")
    intervals = np.asarray(interval, dtype=float)
    if not np.all(np.isfinite(intervals) & (intervals >= 0)):
        raise ValueError("interval must be finite and non-negative")
    runs = np.maximum(np.ceil(intervals / avg_victim - 0.5), 1)
    return np.where(intervals == 0, 0, runs).astype(int)


def estimate_victim_mean(view: AttackerView) -> float:
    """Bootstrap estimate of the victim's average duration from intervals
    assumed to hold one execution each (k=1 warmup)."""
    return float(np.mean(view.intervals))


def assemble_trace(view: AttackerView, avg_victim: float) -> Trace:
    """The trace of a view's intervals, as they are, with their inferred
    counts; an interval with no execution is kept at count 0 and none is
    dropped (`Trace.dropped_intervals` is 0)."""
    return Trace(view.intervals, infer_execution_count(view.intervals, avg_victim))


def reconstruct(log: JobLog) -> Trace:
    """Victim trace from a job log: the attacker's view of its probes, the
    victim mean estimated from it, then `assemble_trace`."""
    # both steps are looked up at call time and given the log and the view
    # positionally, which is where perfbench/tracer.py's wrappers read them
    view = AttackerView.from_log(log)
    return assemble_trace(view, estimate_victim_mean(view))
