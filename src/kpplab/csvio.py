"""CSV export: comma-separated, '.' decimal, 17 significant digits, LF endings."""
from __future__ import annotations

from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

# The one spelling of a float in every CSV artifact; 17 significant digits
# round-trip any double, and inf, -inf and nan come out as those words.
FLOAT = "%.17g"


def fmt(value) -> str:
    if isinstance(value, float):
        return FLOAT % value
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def format_floats(values: np.ndarray) -> np.ndarray:
    """The FLOAT spelling of each element of the 1D float64 array ``values``, as
    an object array in the same order. Each distinct bit pattern is formatted
    once, so -0 and 0, and NaNs with different payloads, are each spelled from
    their own bits."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    spelled = np.array([FLOAT % v for v in bits.view(np.float64).tolist()], dtype=object)
    return spelled[inverse]


def open_csv(path, header: Sequence[str]) -> TextIO:
    """Create ``path`` (and its directory), write the header line, return the open file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", newline="\n")
    fh.write(",".join(header) + "\n")
    return fh


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    with open_csv(path, header) as fh:
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")
    return Path(path)


def records(cls, items: Iterable) -> tuple[list[str], list[tuple]]:
    """The table of the dataclass instances ``items``: the field names of
    ``cls``, in order, as the header, and one row of their values per item,
    for ``write_csv(path, *records(cls, items))``."""
    header = [f.name for f in fields(cls)]
    get = attrgetter(*header)
    return header, [get(item) for item in items]
