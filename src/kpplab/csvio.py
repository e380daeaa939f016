"""CSV export: comma-separated, '.' decimal, 17 significant digits, LF endings."""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence, TextIO

# The one spelling of a float in every CSV artifact; 17 significant digits
# round-trip any double, and inf, -inf and nan come out as those words.
FLOAT = "%.17g"


def fmt(value) -> str:
    if isinstance(value, float):
        return FLOAT % value
    return str(value)


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
