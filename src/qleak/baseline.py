"""Benchmark latency database: per-circuit timing baselines read from
CSV, pairwise required-measurement matrices, and the Grover variant
catalog.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

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


def _backend_index(backend: str) -> int:
    """Position of `backend` in BACKENDS, which orders each (sim, qc) pair."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return BACKENDS.index(backend)


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
        if self.name.splitlines() != [self.name]:
            raise TableFormatError(f"circuit name {self.name!r} holds a line break")
        if not all(0 < x < math.inf for x in (self.sim_latency, self.qc_latency)):
            raise TableFormatError(f"{self.name}: latencies must be positive and finite "
                                   f"({self.sim_latency}, {self.qc_latency})")
        for req in (self.sim_required, self.qc_required):
            if req is not None and not 1 <= req < math.inf:
                raise TableFormatError(f"{self.name}: required measurements must be "
                                       f"finite and at least 1 ({req})")

    def latency(self, backend: str) -> float:
        return (self.sim_latency, self.qc_latency)[_backend_index(backend)]

    def required(self, backend: str) -> Optional[float]:
        return (self.sim_required, self.qc_required)[_backend_index(backend)]


@dataclass(frozen=True)
class BaselineTable:
    entries: tuple[BaselineEntry, ...]
    sim_variance: float = DEFAULT_SIM_VARIANCE
    qc_variance: float = DEFAULT_QC_VARIANCE

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.sim_variance, self.qc_variance)):
            raise TableFormatError("backend variances must be positive and finite")
        object.__setattr__(self, "entries", tuple(self.entries))
        names = self.names
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise TableFormatError(f"duplicate circuit names: {dupes}")
        # derived state, outside the fields: equality and repr ignore it
        object.__setattr__(self, "_position", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_columns", tuple(
            tuple((e.name, TimingDistribution(e.latency(b), self.variance(b)))
                  for e in self.entries)
            for b in BACKENDS
        ))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def _index(self, name: str) -> int:
        if name not in self._position:
            raise ValueError(f"unknown circuit {name!r}")
        return self._position[name]

    def entry(self, name: str) -> BaselineEntry:
        return self.entries[self._index(name)]

    def variance(self, backend: str) -> float:
        return (self.sim_variance, self.qc_variance)[_backend_index(backend)]

    def column(self, backend: str) -> tuple[tuple[str, TimingDistribution], ...]:
        """`(name, TimingDistribution(latency, variance))` of every entry on
        `backend`, in table order: built once with the table, and a tuple so
        no caller can change it. `timing` returns these same models."""
        return self._columns[_backend_index(backend)]

    def timing(self, name: str, backend: str) -> TimingDistribution:
        return self.column(backend)[self._index(name)][1]


def load_table(path: str | Path) -> BaselineTable:
    """Read a baseline table from CSV (header required, UTF-8). A rejected
    row raises TableFormatError as `<path>:<line>: <reason>`."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows, line = [], 1  # each record with the line it starts on
        try:
            for row in reader:
                rows.append((line, row))
                line = reader.line_num + 1
        except csv.Error as exc:  # a field past csv's size limit, say
            raise TableFormatError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise TableFormatError(f"{path}: empty file")
    if [h.strip() for h in rows[0][1]] != _CSV_HEADER:
        raise TableFormatError(f"{path}: expected header {','.join(_CSV_HEADER)}")
    entries, first_line = [], {}
    for lineno, row in rows[1:]:
        cells = [c.strip() for c in row]
        if not any(cells):
            continue
        try:
            if len(cells) != len(_CSV_HEADER):
                raise TableFormatError(
                    f"expected {len(_CSV_HEADER)} fields, got {len(cells)}")
            values = []
            for col, cell in zip(_CSV_HEADER[1:], cells[1:]):
                try:  # an empty requirement cell is an absent requirement
                    values.append(None if not cell and col.endswith("_required")
                                  else float(cell))
                except ValueError:
                    raise TableFormatError(f"bad {col} value {cell!r}") from None
            entries.append(BaselineEntry(cells[0], *values))
            first = first_line.setdefault(cells[0], lineno)
            if first != lineno:
                raise TableFormatError(
                    f"duplicate circuit name {cells[0]!r} (first on line {first})")
        except TableFormatError as exc:
            raise TableFormatError(f"{path}:{lineno}: {exc}") from None
    if not entries:
        raise TableFormatError(f"{path}: no data rows")
    return BaselineTable(tuple(entries))


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


def pairwise_matrix(table: BaselineTable, backend: str) -> np.ndarray:
    """Symmetric matrix of per-group required measurements.

    Cell (i, j) holds the planning n at `PowerSpec()` for distinguishing
    entries i and j on the given backend; the diagonal is NaN, identical
    means give inf.
    """
    if len(table) < 2:
        raise ValueError("need at least two entries")
    return _requirements([m for _, m in table.column(backend)], PowerSpec())


def _nearest(mu: float, means: list[float]) -> int:
    """Index of the first mean closest to mu."""
    dist = [abs(m - mu) for m in means]
    return dist.index(min(dist))


def _rival(candidates: list[tuple[str, TimingDistribution]], label: str,
           mu: float) -> tuple[str, TimingDistribution]:
    """The (label, model) candidate labelled other than `label` whose mean
    lies nearest mu, the first in list order on ties."""
    others = [c for c in candidates if c[0] != label]
    if not others:
        raise ValueError(f"every candidate is {label!r}: no rival to plan against")
    return others[_nearest(mu, [m.mean for _, m in others])]


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
    neighbor, rival = _rival(table.column(backend), name, model.mean)
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


def grover_catalog() -> list[GroverVariant]:
    """All 24 Grover timing variants: 3 iteration counts x 8 hidden keys.

    mean = DEFAULT_GROVER_BASE + iterations * DEFAULT_GROVER_PER_ITERATION
    + grover_key_offset(key, DEFAULT_GROVER_SPREAD), variance
    DEFAULT_GROVER_VARIANCE, listed in index order (see GroverVariant.index).
    """
    return [
        GroverVariant(key, it, TimingDistribution(
            DEFAULT_GROVER_BASE + it * DEFAULT_GROVER_PER_ITERATION
            + grover_key_offset(key, DEFAULT_GROVER_SPREAD),
            DEFAULT_GROVER_VARIANCE,
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
