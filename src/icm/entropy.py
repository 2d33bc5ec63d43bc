"""Topological entropy of piecewise-linear maps.

Lap counts of iterates grow like e^(k*h); for maps whose breakpoint orbit is
finite the entropy is log of the Perron root of an exact integer cover-count
matrix. All combinatorics stays exact; floating point enters only at the
final logarithm, and the Perron root carries a certified rational bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import DEFAULT_BREAKPOINT_CAP, PLMap, compose
from .errors import DomainError, InternalInvariantError, PreconditionError
from .setvalued import strongly_commute

PERRON_TOLERANCE = Fraction(1, 10**12)


def lap(f: PLMap) -> int:
    """Number of maximal monotone branches."""
    return len(f.critical_points()) + 1


@dataclass(frozen=True)
class LapSequence:
    """Lap counts of the first iterates and the resulting growth estimate."""

    laps: tuple[tuple[int, int], ...]  # (k, lap(f^k))
    estimate: float                    # log(lap(f^k_max)) / k_max

    def lap_at(self, k: int) -> int:
        for kk, count in self.laps:
            if kk == k:
                return count
        raise DomainError(f"no lap count recorded for k={k}")


def entropy_lap(f: PLMap, k_max: int,
                cap: int | None = DEFAULT_BREAKPOINT_CAP) -> LapSequence:
    """Exact lap counts of f, f^2, ..., f^k_max and the entropy upper bound
    log(lap(f^k_max))/k_max."""
    if not isinstance(k_max, int) or k_max < 1:
        raise DomainError("k_max must be a positive integer")
    acc = f
    laps = [(1, lap(f))]
    for k in range(2, k_max + 1):
        acc = compose(f, acc, cap=cap)
        laps.append((k, lap(acc)))
    estimate = math.log(laps[-1][1]) / k_max
    return LapSequence(tuple(laps), estimate)


@dataclass(frozen=True)
class MarkovData:
    """Markov partition with its cover-count matrix and certified Perron root."""

    partition: tuple[Fraction, ...]
    matrix: tuple[tuple[int, ...], ...]
    spectral_radius: float
    radius_error: float  # half-width of the certified bracket

    def __post_init__(self):
        for row in self.matrix:
            if sum(row) < 1:
                raise DomainError("each cell of an onto map must cover a cell")


def markov_partition(f: PLMap, max_points: int = 256) -> MarkovData | None:
    """Partition induced by the forward orbit of the breakpoints, if finite.

    Returns None when the orbit closure exceeds ``max_points`` (the map is
    then not Markov within the configured bound).
    """
    pts = set(f.xs)
    while True:
        new = {f(x) for x in pts} - pts
        if not new:
            break
        pts |= new
        if len(pts) > max_points:
            return None
    partition = sorted(pts)
    cells = list(zip(partition, partition[1:]))
    matrix = []
    for a, b in cells:
        lo, hi = sorted((f(a), f(b)))
        matrix.append(tuple(1 if lo <= c and d <= hi else 0
                            for c, d in cells))
    rho_lo, rho_hi = _perron_bracket(tuple(matrix))
    mid = (rho_lo + rho_hi) / 2
    return MarkovData(tuple(partition), tuple(matrix),
                      float(mid), float((rho_hi - rho_lo) / 2))


def entropy_markov(data: MarkovData) -> float:
    """log of the Perron root of the cover-count matrix (certified to 1e-9)."""
    if data.radius_error > 1e-9:
        raise InternalInvariantError("Perron bracket wider than the tolerance")
    return math.log(data.spectral_radius)


def entropy_setvalued(f: PLMap, g: PLMap, k_max: int = 12,
                      cap: int | None = DEFAULT_BREAKPOINT_CAP) -> float:
    """Entropy of the set-valued composition g∘f⁻¹ of a strongly commuting
    pair: the maximum of the two individual entropies."""
    if not strongly_commute(f, g):
        raise PreconditionError("the entropy formula needs strong commutation")
    return max(_entropy_of(f, k_max, cap), _entropy_of(g, k_max, cap))


def _entropy_of(f: PLMap, k_max: int, cap: int | None) -> float:
    data = markov_partition(f)
    if data is not None:
        return entropy_markov(data)
    return entropy_lap(f, k_max, cap=cap).estimate


# -- Perron root with certified bracket ------------------------------------------

def _strong_components(adj: list[list[int]]) -> list[list[int]]:
    """Tarjan's strongly connected components, iteratively."""
    n = len(adj)
    index: list[int | None] = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(ptr, len(adj[v])):
                w = adj[v][k]
                if index[w] is None:
                    work[-1][1] = k + 1
                    work.append([w, 0])
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _perron_bracket(matrix: tuple[tuple[int, ...], ...],
                    tol: Fraction = PERRON_TOLERANCE) -> tuple[Fraction, Fraction]:
    """Certified rational bracket for the spectral radius of a nonnegative
    integer matrix.

    The radius is the maximum over strongly connected components; on each
    component the identity is added (making it primitive), and power
    iteration with exact min/max row quotients gives valid bounds for any
    positive vector, so the bracket is sound by construction.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(0), Fraction(0)
    adj = [[j for j in range(n) if matrix[i][j]] for i in range(n)]
    best_lo, best_hi = Fraction(0), Fraction(0)
    for comp in _strong_components(adj):
        m = len(comp)
        block = [[matrix[v][w] + (1 if v == w else 0) for w in comp]
                 for v in comp]
        lo, hi = _collatz_bracket(block, tol)
        best_lo = max(best_lo, lo - 1)
        best_hi = max(best_hi, hi - 1)
    return best_lo, best_hi


def _collatz_bracket(block: list[list[int]],
                     tol: Fraction) -> tuple[Fraction, Fraction]:
    m = len(block)
    # Collatz-Wielandt bounds are valid for every positive vector, so
    # denominator trimming between rounds cannot invalidate them
    xr = [Fraction(1)] * m
    best_lo, best_hi = Fraction(0), None
    for _ in range(256):
        yr = [sum(block[i][j] * xr[j] for j in range(m)) for i in range(m)]
        quots = [yi / xi for yi, xi in zip(yr, xr)]
        best_lo = max(best_lo, min(quots))
        best_hi = min(best_hi, max(quots)) if best_hi is not None else max(quots)
        if best_hi - best_lo < tol:
            break
        top = max(yr)
        xr = [max((v / top).limit_denominator(10**24), Fraction(1, 10**30))
              for v in yr]
    if best_hi is None or best_hi - best_lo >= tol:
        raise InternalInvariantError("Perron bracket failed to converge")
    return best_lo, best_hi
