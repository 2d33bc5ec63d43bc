""".pwl map files: one "X Y" pair per line, rationals as "a/b" or bare integers.

Lines starting with '#' and blank lines are ignored. Writing always emits
the canonical form, so write(read(file)) is a bit-exact fixed point.
"""

from __future__ import annotations

from pathlib import Path

from .core import PLMap, _checked_points, _read_rational
from .errors import DomainError, ParseError


def parse_map_text(text: str) -> PLMap:
    """The map in a .pwl text. Each token is read as integers, and the map
    is checked and merged on them as `PLMap(...)` checks it: only the kept
    points become Fractions."""
    quads = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 'X Y', got {line!r}", lineno)
        try:
            quads.append((*_read_rational(tokens[0]),
                          *_read_rational(tokens[1])))
        except DomainError as exc:
            raise ParseError(str(exc), lineno) from None
    if not quads:
        raise ParseError("no data lines")
    return PLMap._trusted(_checked_points(quads))


def read_map(path) -> PLMap:
    return parse_map_text(Path(path).read_text(encoding="utf-8"))


def dump_map_text(f: PLMap) -> str:
    return "".join(f"{x} {y}\n" for x, y in f.points)


def write_map(f: PLMap, path) -> None:
    Path(path).write_text(dump_map_text(f), encoding="utf-8")
