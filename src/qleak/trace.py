"""Attacker-side reconstruction of victim durations from probe timestamps.

The attacker sees only its own jobs' start/end times; victim execution
time is the gap between the end of one probe and the start of the next.
When several victim runs fall inside one gap, the per-execution values are
the interval split evenly, so a count-k interval contributes k correlated
durations: the sample mean is unbiased but the sample variance shrinks by
roughly a factor of k. Power planning on such traces must budget by
intervals, not executions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloudsim import ATTACKER, JobLog


@dataclass(frozen=True)
class AttackerView:
    """Ordered, disjoint (started_at, ended_at) intervals of probe jobs."""

    probe_records: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_end = -math.inf
        for start, end in self.probe_records:
            if start < prev_end:
                raise ValueError("probe intervals overlap or are unordered")
            if end <= start:
                raise ValueError("probe with non-positive duration")
            prev_end = end

    @classmethod
    def from_log(cls, log: JobLog) -> "AttackerView":
        return cls(
            tuple(
                (r.started_at, r.ended_at) for r in log.by_owner(ATTACKER)
            )
        )


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
    if len(view.probe_records) < 2:
        raise ValueError("need at least two probes to measure an interval")
    starts = np.array([s for s, _ in view.probe_records])
    ends = np.array([e for _, e in view.probe_records])
    return starts[1:] - ends[:-1]


def infer_execution_count(
    interval: float, avg_victim: float
) -> tuple[int, float]:
    """Number of victim executions inside one interval and their implied
    per-execution duration.

    Nearest-integer count, half-way cases rounding down (a phantom extra
    execution is worse than a missed one); floored at 1 for any positive
    interval. A zero interval means no victim ran.
    """
    if avg_victim <= 0:
        raise ValueError("avg_victim must be positive")
    if interval < 0:
        raise ValueError("negative interval")
    if interval == 0:
        return 0, 0.0
    count = max(1, math.ceil(interval / avg_victim - 0.5))
    return count, interval / count


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
    Intervals the correction would exhaust are dropped and counted.
    """
    durations: list[float] = []
    counts: list[int] = []
    dropped = 0
    for interval in extract_intervals(view):
        count, _ = infer_execution_count(interval, avg_victim)
        if count == 0:
            counts.append(0)
            continue
        corrected = interval - gap_correction * count
        if corrected <= 0:
            dropped += 1
            continue
        per_execution = corrected / count
        durations.extend([per_execution] * count)
        counts.append(count)
    return Trace(np.array(durations), counts, dropped)
