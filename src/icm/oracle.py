"""Brute-force cross-checks, independent of the geometric arrangement code.

These routines only use evaluation and pointwise preimages, so a bug in the
segment arithmetic cannot hide in both paths at once. They are slow by
design and exposed to the test suite and `icm verify --oracle`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .core import PLMap, Point, _check_cap
from .errors import DomainError


class GridSample(NamedTuple):
    """Exact rational grid points satisfying a predicate."""

    resolution: int
    points: frozenset[Point]


def _check_grid(n: int) -> None:
    """An integer n >= 2 whose n + 1 grid points fit in the cap."""
    if not isinstance(n, int) or n < 2:
        raise DomainError("grid resolution must be an integer >= 2")
    _check_cap(n + 1, f"grid resolution {n} needs {n + 1} points")


def sample_pullback(f: PLMap, g: PLMap, n: int) -> GridSample:
    """All grid points (i/n, j/n) with g(j/n) = f(i/n), by direct evaluation."""
    _check_grid(n)
    by_value: dict[Fraction, list[Fraction]] = {}
    for j in range(n + 1):
        y = Fraction(j, n)
        by_value.setdefault(g(y), []).append(y)
    points: set[Point] = set()
    for i in range(n + 1):
        x = Fraction(i, n)
        for y in by_value.get(f(x), ()):
            points.add((x, y))
    return GridSample(n, frozenset(points))


def brute_force_strong_commute(f: PLMap, g: PLMap, n: int) -> bool:
    """Compare the exact finite sets f(g⁻¹(x)) and g⁻¹(f(x)) at every x = i/n.

    A necessary condition for strong commutation; returns False at the first
    witness of inequality.
    """
    _check_grid(n)
    for i in range(n + 1):
        x = Fraction(i, n)
        forward = {f(y) for y in g.preimage_point(x)}
        pullback = set(g.preimage_point(f(x)))
        if forward != pullback:
            return False
    return True
