"""The CSV writer behind every table qleak writes, to stdout or to files.

Fields are formatted one way everywhere: None and NaN as empty, bools as
0/1, other floats at `digits` significant digits (9 unless the caller
asks for more, inf as "inf"), and everything else with str().
"""
from __future__ import annotations

import csv
import math
from dataclasses import fields
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np


def _field(value, digits: int) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "" if math.isnan(value) else f"{value:.{digits}g}"
    return str(value)


def _write(writer, header: Sequence[str], rows: Iterable[Sequence], digits: int):
    writer.writerow(header)
    writer.writerows([_field(v, digits) for v in row] for row in rows)


def write_csv(
    target: str | Path | IO[str],
    header: Sequence[str],
    rows: Iterable[Sequence],
    digits: int = 9,
) -> None:
    """Write a header line and rows. A path becomes a UTF-8 file with the
    csv module's CRLF line ends; an open text stream gets LF line ends."""
    if isinstance(target, (str, Path)):
        with Path(target).open("w", newline="", encoding="utf-8") as fh:
            _write(csv.writer(fh), header, rows, digits)
    else:
        _write(csv.writer(target, lineterminator="\n"), header, rows, digits)


def write_records(target: str | Path | IO[str], cls: type, records: Iterable) -> None:
    """One row per dataclass record, headed by the field names of `cls`."""
    names = [f.name for f in fields(cls)]
    write_csv(target, names, ([getattr(r, n) for n in names] for r in records))
