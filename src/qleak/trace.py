"""Attacker-side reconstruction of victim durations from probe timestamps.

The attacker sees only its own jobs' start/end times, an (n, 2) array;
victim execution time is the gap between the end of one probe and the
start of the next, and all gaps are reconstructed at once as arrays.
When several victim runs fall inside one gap, the per-execution values are
the interval split evenly, so a count-k interval contributes k correlated
durations: the sample mean is unbiased but the sample variance shrinks by
roughly a factor of k. Power planning on such traces must budget by
intervals, not executions.

`reconstruct` is the entry point: it runs the whole chain on a job log.
"""
from __future__ import annotations

from dataclasses import dataclass

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
        if np.any(probes[1:, 0] < probes[:-1, 1]):
            raise ValueError("probe intervals overlap or are unordered")
        if np.any(probes[:, 1] <= probes[:, 0]):
            raise ValueError("probe with non-positive duration")

    @classmethod
    def from_log(cls, log: JobLog) -> "AttackerView":
        probe = ~log.victim
        return cls(np.column_stack((log.started_at[probe], log.ended_at[probe])))


@dataclass
class Trace:
    """Inferred victim durations plus per-interval bookkeeping."""

    durations: np.ndarray
    inferred_counts: list[int]
    dropped_intervals: int = 0

    def __post_init__(self):
        self.durations = np.asarray(self.durations, dtype=float)
        if len(self.durations) != sum(self.inferred_counts):
            raise ValueError("durations length must equal the summed counts")

    def __len__(self):
        return len(self.durations)

    @classmethod
    def from_durations(cls, durations) -> "Trace":
        durations = np.asarray(durations, dtype=float)
        return cls(durations, [1] * len(durations))


def extract_intervals(view: AttackerView) -> np.ndarray:
    """Gap between consecutive probes: next start minus previous end."""
    probes = view.probe_records
    if len(probes) < 2:
        raise ValueError("need at least two probes to measure an interval")
    return probes[1:, 0] - probes[:-1, 1]


def infer_execution_count(interval, avg_victim: float):
    """Number of victim executions inside each interval and their implied
    per-execution duration: (int, float) for a scalar interval, an int
    and a float array for an array of them.

    Nearest-integer count, half-way cases rounding down (a phantom extra
    execution is worse than a missed one); floored at 1 for any positive
    interval. A zero interval means no victim ran (count and duration 0).
    """
    if not avg_victim > 0:
        raise ValueError("avg_victim must be positive")
    intervals = np.asarray(interval, dtype=float)
    if not np.all(np.isfinite(intervals) & (intervals >= 0)):
        raise ValueError("interval must be finite and non-negative")
    counts = np.where(
        intervals == 0, 0, np.maximum(1, np.ceil(intervals / avg_victim - 0.5))
    ).astype(int)
    per = intervals / np.maximum(counts, 1)
    if intervals.ndim == 0:
        return int(counts), float(per)
    return counts, per


def estimate_victim_mean(view: AttackerView) -> float:
    """Bootstrap estimate of the victim's average duration from intervals
    assumed to hold one execution each (k=1 warmup)."""
    return float(np.mean(extract_intervals(view)))


def assemble_trace(
    view: AttackerView, avg_victim: float, gap_correction: float = 0.0
) -> Trace:
    """Turn probe intervals into per-execution victim durations.

    Each interval's inferred count of executions is subtracted
    `gap_correction` seconds of overhead apiece before splitting evenly.
    Intervals the correction would exhaust are dropped and counted;
    intervals with no execution keep their zero count.
    """
    intervals = extract_intervals(view)
    counts, _ = infer_execution_count(intervals, avg_victim)
    corrected = intervals - gap_correction * counts
    kept = (counts == 0) | (corrected > 0)
    counts = counts[kept]
    per_execution = corrected[kept] / np.maximum(counts, 1)
    return Trace(
        np.repeat(per_execution, counts), counts.tolist(), int((~kept).sum())
    )


def reconstruct(log: JobLog) -> Trace:
    """Victim trace from a job log: the attacker's view of its probes, the
    victim mean estimated from it, then `assemble_trace`."""
    # both steps are looked up at call time and given the log and the view
    # positionally, which is where perfbench/tracer.py's wrappers read them
    view = AttackerView.from_log(log)
    return assemble_trace(view, estimate_victim_mean(view))
