"""Benchmark latency database: per-circuit timing baselines, CSV
persistence, pairwise required-measurement matrices, and the Grover
variant catalog.
"""
from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .csvout import write_csv
from .stats import (
    PowerSpec,
    TimingDistribution,
    effect_size,
    ovl,
    required_sample_size,
)

SIMULATOR = "simulator"
HARDWARE = "hardware"
BACKENDS = (SIMULATOR, HARDWARE)

DEFAULT_SIM_VARIANCE = 0.003
DEFAULT_QC_VARIANCE = 0.3

_CSV_HEADER = ["name", "sim_latency_s", "qc_latency_s", "sim_required", "qc_required"]


class TableFormatError(ValueError):
    """Malformed baseline CSV: bad header, row shape, or field values."""


@dataclass(frozen=True)
class BaselineEntry:
    name: str
    sim_latency: float
    qc_latency: float
    sim_required: Optional[float] = None
    qc_required: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise TableFormatError("empty circuit name")
        if self.sim_latency <= 0 or self.qc_latency <= 0:
            raise TableFormatError(
                f"{self.name}: latencies must be positive "
                f"({self.sim_latency}, {self.qc_latency})"
            )
        for req in (self.sim_required, self.qc_required):
            if req is not None and req < 1:
                raise TableFormatError(
                    f"{self.name}: required measurements below 1 ({req})"
                )

    def latency(self, backend: str) -> float:
        _check_backend(backend)
        return self.sim_latency if backend == SIMULATOR else self.qc_latency

    def required(self, backend: str) -> Optional[float]:
        _check_backend(backend)
        return self.sim_required if backend == SIMULATOR else self.qc_required


@dataclass(frozen=True)
class BaselineTable:
    entries: tuple[BaselineEntry, ...]
    sim_variance: float = DEFAULT_SIM_VARIANCE
    qc_variance: float = DEFAULT_QC_VARIANCE

    def __post_init__(self):
        if self.sim_variance <= 0 or self.qc_variance <= 0:
            raise TableFormatError("backend variances must be positive")
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise TableFormatError(f"duplicate circuit names: {dupes}")
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def entry(self, name: str) -> BaselineEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"unknown circuit {name!r}")

    def variance(self, backend: str) -> float:
        _check_backend(backend)
        return self.sim_variance if backend == SIMULATOR else self.qc_variance

    def timing(self, name: str, backend: str) -> TimingDistribution:
        return TimingDistribution(
            self.entry(name).latency(backend), self.variance(backend)
        )


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")


def _parse_optional(raw: str, name: str, col: str) -> Optional[float]:
    raw = raw.strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise TableFormatError(f"{name}: bad {col} value {raw!r}") from exc


def load_table(path: str | Path) -> BaselineTable:
    """Read a baseline table from CSV (header required, UTF-8)."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TableFormatError(f"{path}: empty file") from None
        if [h.strip() for h in header] != _CSV_HEADER:
            raise TableFormatError(
                f"{path}: expected header {','.join(_CSV_HEADER)}"
            )
        entries = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(_CSV_HEADER):
                raise TableFormatError(
                    f"{path}:{lineno}: expected {len(_CSV_HEADER)} fields, "
                    f"got {len(row)}"
                )
            name = row[0].strip()
            try:
                sim_lat = float(row[1])
                qc_lat = float(row[2])
            except ValueError as exc:
                raise TableFormatError(
                    f"{path}:{lineno}: bad latency in row {name!r}"
                ) from exc
            entries.append(
                BaselineEntry(
                    name=name,
                    sim_latency=sim_lat,
                    qc_latency=qc_lat,
                    sim_required=_parse_optional(row[3], name, "sim_required"),
                    qc_required=_parse_optional(row[4], name, "qc_required"),
                )
            )
    if not entries:
        raise TableFormatError(f"{path}: no data rows")
    return BaselineTable(tuple(entries))


def save_table(table: BaselineTable, path: str | Path) -> None:
    """Write a baseline table as CSV with 12 significant digits, lossless
    for the published 10-digit values; absent requirements stay empty."""
    write_csv(
        path,
        _CSV_HEADER,
        (
            [e.name, e.sim_latency, e.qc_latency, e.sim_required, e.qc_required]
            for e in table.entries
        ),
        digits=12,
    )


def bundled_table_path() -> Path:
    return Path(resources.files("qleak").joinpath("data/table1.csv"))


def bundled_table() -> BaselineTable:
    """The packaged 26-circuit benchmark table."""
    return load_table(bundled_table_path())


def _pairwise(timings: list, cell, diagonal: float) -> np.ndarray:
    """Symmetric matrix of cell(timings[i], timings[j]) over every pair,
    with `diagonal` on the diagonal."""
    out = np.full((len(timings), len(timings)), diagonal)
    for i, j in itertools.combinations(range(len(timings)), 2):
        out[i, j] = out[j, i] = cell(timings[i], timings[j])
    return out


def _requirements(timings: list, spec: PowerSpec) -> np.ndarray:
    """Planning n of every pair: NaN diagonal, inf for identical means."""
    return _pairwise(
        timings, lambda p, q: required_sample_size(effect_size(p, q), spec), np.nan
    )


def pairwise_matrix(
    table: BaselineTable, backend: str, spec: PowerSpec = PowerSpec()
) -> np.ndarray:
    """Symmetric matrix of per-group required measurements.

    Cell (i, j) holds the planning n for distinguishing entries i and j on
    the given backend; the diagonal is NaN, identical means give inf.
    """
    if len(table) < 2:
        raise ValueError("need at least two entries")
    return _requirements([table.timing(name, backend) for name in table.names], spec)


#: distance below which two candidate means are treated as tied
AMBIGUITY_EPS = 1e-12


def _nearest(mu: float, means: list[float]) -> tuple[int, bool]:
    """Index of the first mean closest to mu, and whether another mean
    lies within AMBIGUITY_EPS of that distance."""
    dist = [abs(m - mu) for m in means]
    ranked = sorted(dist)
    tie = len(ranked) > 1 and ranked[1] - ranked[0] < AMBIGUITY_EPS
    return dist.index(ranked[0]), tie


def _rival(candidates: list[tuple[str, TimingDistribution]], label: str,
           mu: float) -> tuple[str, TimingDistribution]:
    """The (label, model) candidate labelled other than `label` whose mean
    lies nearest mu, the first in list order on ties."""
    others = [c for c in candidates if c[0] != label]
    if not others:
        raise ValueError(f"every candidate is {label!r}: no rival to plan against")
    return others[_nearest(mu, [m.mean for _, m in others])[0]]


@lru_cache(maxsize=8)
def _column(table: BaselineTable, backend: str) -> tuple:
    """(name, timing model) of every entry on one backend, in table order;
    memoised per (table, backend), as a tuple so no caller can change it."""
    var = table.variance(backend)
    return tuple((e.name, TimingDistribution(e.latency(backend), var))
                 for e in table.entries)


def nearest_neighbor_requirement(
    table: BaselineTable,
    name: str,
    backend: str,
    spec: PowerSpec = PowerSpec(),
) -> tuple[str, float]:
    """Name and planning n of the minimum-|delta-mean| other entry.

    The nearest-mean neighbor maximizes the pairwise requirement, so this
    is the budget that distinguishes the entry from every other circuit.
    """
    model = table.timing(name, backend)
    neighbor, rival = _rival(_column(table, backend), name, model.mean)
    return neighbor, required_sample_size(effect_size(model, rival), spec)


# ---------------------------------------------------------------------------
# Grover variant catalog

GROVER_KEYS = [format(k, "03b") for k in range(8)]

# Calibrated so that with the default backend variance the 24x24
# requirement matrix stays inside [500, 2e7] and every same-iteration
# overlap exceeds 0.99. See grover_catalog for the structure.
DEFAULT_GROVER_BASE = 1.8
DEFAULT_GROVER_PER_ITERATION = 0.046
DEFAULT_GROVER_SPREAD = 0.0035
DEFAULT_GROVER_VARIANCE = 0.3


@dataclass(frozen=True)
class GroverVariant:
    key: str
    iterations: int
    timing: TimingDistribution

    def __post_init__(self):
        if self.key not in GROVER_KEYS:
            raise ValueError(f"key must be a 3-bit string, got {self.key!r}")
        if not 1 <= self.iterations <= 3:
            raise ValueError(f"iterations must be 1..3, got {self.iterations}")

    @property
    def index(self) -> int:
        """Catalog position: 1-8 one iteration in key order 000..111,
        9-16 two, 17-24 three."""
        return (self.iterations - 1) * 8 + GROVER_KEYS.index(self.key) + 1


def grover_key_offset(key: str, per_oracle_spread: float) -> float:
    """Per-key latency offset, eight evenly spaced values spanning
    +-per_oracle_spread/2 in key order 000..111."""
    return (GROVER_KEYS.index(key) - 3.5) * per_oracle_spread / 7.0


def grover_catalog(
    base_latency: float = DEFAULT_GROVER_BASE,
    per_iteration: float = DEFAULT_GROVER_PER_ITERATION,
    per_oracle_spread: float = DEFAULT_GROVER_SPREAD,
    variance: float = DEFAULT_GROVER_VARIANCE,
) -> list[GroverVariant]:
    """All 24 Grover timing variants: 3 iteration counts x 8 hidden keys.

    mean = base + iterations * per_iteration + key_offset(key), listed in
    index order (see GroverVariant.index).
    """
    if base_latency <= 0 or per_iteration <= 0 or variance <= 0:
        raise ValueError("catalog parameters must be positive")
    if per_oracle_spread < 0:
        raise ValueError("per_oracle_spread must not be negative")
    return [
        GroverVariant(key, it, TimingDistribution(
            base_latency + it * per_iteration
            + grover_key_offset(key, per_oracle_spread),
            variance,
        ))
        for it in (1, 2, 3)
        for key in GROVER_KEYS
    ]


def catalog_matrices(
    catalog: list[GroverVariant], spec: PowerSpec = PowerSpec()
) -> tuple[np.ndarray, np.ndarray]:
    """24x24 (ovl, required n) matrices over the catalog, index order.

    Requirement cells use the pooled standard deviation of the pair;
    identical means give inf, the requirement diagonal is NaN.
    """
    timings = [v.timing for v in sorted(catalog, key=lambda v: v.index)]
    return _pairwise(timings, ovl, 1.0), _requirements(timings, spec)
