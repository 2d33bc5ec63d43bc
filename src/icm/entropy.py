"""Topological entropy of piecewise-linear maps.

Lap counts of iterates grow like e^(k*h); for maps whose breakpoint orbit is
finite the entropy is log of the Perron root of an exact integer cover-count
matrix. All combinatorics stays exact; floating point enters only at the
final logarithm, and the Perron root carries a certified rational bracket.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Callable, NamedTuple, Sequence

from .core import PLMap, _check_cap
from .errors import DomainError, InternalInvariantError, PreconditionError
from .setvalued import strongly_commute

PERRON_TOLERANCE = Fraction(1, 10**12)


def lap(f: PLMap) -> int:
    """Number of maximal monotone branches."""
    return len(f.critical_points()) + 1


class LapSequence(NamedTuple):
    """Lap counts of the first iterates and the resulting growth estimate."""

    laps: tuple[tuple[int, int], ...]  # (k, lap(f^k))
    estimate: float                    # log(lap(f^k_max)) / k_max


def entropy_lap(f: PLMap, k_max: int) -> LapSequence:
    """Exact lap counts of f, f^2, ..., f^k_max and the entropy upper bound
    log(lap(f^k_max))/k_max, without building any iterate.

    Every lap J of f^k maps monotonically onto the interval I = f^k(J), so
    the laps of f^(k+1) inside J are the pieces of I cut at the critical
    points of f, and each piece maps onto its f-image. The images are kept
    with their multiplicities; lap(f^k) is the sum of the multiplicities.
    Laps never merge: at a turning point t of f^k both sides of t map into
    the same side of f^k(t), where f is monotone because it has no constant
    piece, so f^(k+1) turns at t as well. The image endpoints are f^k(0),
    f^k(1) and values f^i(c), i <= k, at critical points c of f: at most
    V = 2 + k_max * #critical points values, so at most V(V - 1)/2 images
    however many laps there are. The cap bounds that count and the k_max
    rounds, of a lap each at least, before the first round; k_max = 1 checks
    neither, as f itself holds its laps.

    Points are coprime integer pairs (p, q) for p/q, mapped by `_orbit_step`,
    and an image (lo, hi) has lo < hi by one cross product. below[i] counts
    the critical points among the breakpoints xs[:i]. With i the rank
    `_rank_pq` gives lo, and (j, hit) the one it gives hi, the critical
    points strictly between them are crit[below[i]:below[j - hit]].
    """
    if not isinstance(k_max, int) or k_max < 1:
        raise DomainError("k_max must be a positive integer")
    crit = f.critical_points()
    if k_max > 1:
        _check_cap(k_max, f"{k_max} rounds count at least {k_max} laps")
        v = 2 + k_max * len(crit)
        _check_cap(v * (v - 1) // 2,
                   f"{k_max} rounds keep up to {v * (v - 1) // 2} lap images")
    step, rank = _orbit_step(f), f._rank_pq
    below = list(accumulate((x in crit for x in f.xs), initial=0))
    crit_values = [step((c.numerator, c.denominator)) for c in crit.xs]
    images = {((0, 1), (1, 1)): 1}  # the one lap of f^0, the identity
    laps = []
    for k in range(1, k_max + 1):
        cut: dict[tuple[tuple[int, int], tuple[int, int]], int] = {}
        for (lo, hi), mult in images.items():
            i, (j, hit) = rank(*lo)[0], rank(*hi)
            values = [step(lo), *crit_values[below[i]:below[j - hit]],
                      step(hi)]
            for a, b in zip(values, values[1:]):
                key = (a, b) if a[0] * b[1] < b[0] * a[1] else (b, a)
                cut[key] = cut.get(key, 0) + mult
        images = cut
        laps.append((k, sum(images.values())))
    return LapSequence(tuple(laps), math.log(laps[-1][1]) / k_max)


class MarkovData(NamedTuple("_MarkovData", [
        ("partition", tuple[Fraction, ...]),
        ("runs", tuple[tuple[int, int], ...]),
        ("rho_lo", Fraction), ("rho_hi", Fraction)])):
    """Markov partition, the run runs[i] = (lo, hi) of cells lo <= j < hi
    that cell i covers (row i of the 0/1 cover matrix), and a certified
    bracket [rho_lo, rho_hi] of the Perron root of that matrix."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "MarkovData":
        data = super().__new__(cls, *args, **kwargs)
        if any(hi <= lo for lo, hi in data.runs):
            raise DomainError("each cell of an onto map must cover a cell")
        return data

    @property
    def spectral_radius(self) -> float:
        return float((self.rho_lo + self.rho_hi) / 2)

    @property
    def radius_error(self) -> float:
        return float((self.rho_hi - self.rho_lo) / 2)


def markov_partition(f: PLMap, max_points: int = 256) -> MarkovData | None:
    """Partition induced by the forward orbit of the breakpoints, if finite.

    Returns None when the orbit closure exceeds ``max_points`` (the map is
    then not Markov within the configured bound). The breakpoint cap bounds
    the n^2 bits of the bracket's reach sets for n cells before they exist.
    The orbit is a set of coprime integer pairs (p, q) for p/q, mapped by
    `_orbit_step`; only the partition of a finite orbit becomes Fractions.
    """
    step = _orbit_step(f)
    pts = {(x.numerator, x.denominator) for x in f.xs}
    # f maps every older point into the set already, so only the points the
    # last round added can have images outside it
    frontier = pts
    while True:
        frontier = {step(x) for x in frontier} - pts
        if not frontier:
            break
        pts |= frontier
        if len(pts) > max_points:
            return None
    # segment_set's exact order: with Q the largest denominator and
    # k = 2·bitlength(Q), distinct points differ by more than 2^-k, so their
    # keys floor(p·2^k/q) differ, in the same order
    k = 2 * max(q for _, q in pts).bit_length()
    order = sorted(pts, key=lambda x: (x[0] << k) // x[1])
    rank = {x: i for i, x in enumerate(order)}
    n = len(order) - 1
    _check_cap(n * n, f"Markov matrix needs {n * n} entries")
    # f(a), f(b) are partition points; the cells between them are covered
    images = [rank[step(x)] for x in order]
    runs = tuple((a, b) if a < b else (b, a)
                 for a, b in zip(images, images[1:]))
    return MarkovData(tuple(Fraction(p, q) for p, q in order), runs,
                      *_perron_bracket(runs))


def _orbit_step(f: PLMap) -> Callable[[tuple[int, int]], tuple[int, int]]:
    """f on points p/q of [0, 1] given as coprime integers (p, q), q > 0,
    with the image in the same form.

    Each piece of f is x -> (A·x + B)/C for integers A, B and C > 0, read
    once here. A breakpoint, found by `PLMap._rank_pq`, maps to its stored
    value. Inside a piece f(p/q) = N/D with N = A·p + B·q and D = C·q, and
    gcd(N, D) divides A·C. For a prime r let r^e be its power in gcd(N, D)
    and r^k its power in q. Then r^min(e, k) divides N and B·q, so A·p; it
    is 1, or r divides q and so not p, as gcd(p, q) = 1: it divides A. If
    e > k, r^(e - k) divides C, as r^e divides C·q. So r^e divides A·C, and
    gcd(N, D) = gcd(gcd(N, A·C), D): two gcds, each of a big number with a
    small one. N > 0 makes N/D canonical: the piece's values lie in [0, 1]
    and it is not constant, so it reaches 0 only at an end, and p/q is none.
    """
    values = [(y.numerator, y.denominator) for _, y in f.points]
    forms = []
    for (x0, y0), (x1, y1) in f.segments():
        slope = (y1 - y0) / (x1 - x0)
        cut = y0 - slope * x0
        c = lcm(slope.denominator, cut.denominator)
        a = slope.numerator * (c // slope.denominator)
        forms.append((a, cut.numerator * (c // cut.denominator), c, a * c))
    rank = f._rank_pq

    def step(x: tuple[int, int]) -> tuple[int, int]:
        p, q = x
        i, hit = rank(p, q)
        if hit:
            return values[i - 1]
        a, b, c, ac = forms[i - 1]
        n, d = a * p + b * q, c * q
        g = gcd(gcd(n, ac), d)
        return n // g, d // g
    return step


def entropy_markov(data: MarkovData) -> float:
    """log of the Perron root, whose exact half-width must be <= 10^-9."""
    if data.rho_hi - data.rho_lo > Fraction(2, 10**9):
        raise InternalInvariantError("Perron bracket wider than the tolerance")
    return math.log(data.spectral_radius)


def entropy_setvalued(f: PLMap, g: PLMap, k_max: int = 12) -> float:
    """Entropy of the set-valued composition g∘f⁻¹ of a strongly commuting
    pair: the maximum of the two individual entropies."""
    if not strongly_commute(f, g):
        raise PreconditionError("the entropy formula needs strong commutation")
    return max(entropy_markov(r) if isinstance(r, MarkovData) else r.estimate
               for r in (_route(m, "auto", k_max) for m in (f, g)))


def _route(f: PLMap, method: str, k_max: int) -> MarkovData | LapSequence:
    """The one choice of entropy route: the Markov partition of f, unless
    ``method`` is "lap" or f has none, then its lap counts up to k_max;
    "markov" insists on the partition. k_max is checked first, whichever
    route is taken."""
    if not isinstance(k_max, int) or k_max < 1:
        raise DomainError("k_max must be a positive integer")
    data = None if method == "lap" else markov_partition(f)
    if data is None and method == "markov":
        raise PreconditionError("map is not Markov within the configured bound")
    return entropy_lap(f, k_max) if data is None else data


# -- Perron root with certified bracket ------------------------------------------

def _perron_bracket(
        runs: Sequence[tuple[int, int]]) -> tuple[Fraction, Fraction]:
    """Certified rational bracket for the spectral radius of a 0/1 matrix
    whose row i is one run of ones, in the columns lo <= j < hi of
    runs[i] = (lo, hi).

    The radius is the maximum over strongly connected components. Warshall's
    closure on bitsets finds them: bit j of reach[i] is set when a path leads
    from i to j. Two vertices on cycles share a component exactly when they
    reach the same set; a vertex on no cycle is a zero block, of root 0. On
    each component the identity is added (making it primitive), and power
    iteration with exact min/max row quotients gives valid bounds for any
    positive vector, so the bracket is sound by construction.
    """
    reach = [(1 << hi) - (1 << lo) for lo, hi in runs]
    for k in range(len(reach)):
        rk, bit = reach[k], 1 << k
        reach = [r | rk if r & bit else r for r in reach]
    blocks: dict[int, list[int]] = {}
    for v, r in enumerate(reach):
        if r >> v & 1:
            blocks.setdefault(r, []).append(v)
    best_lo, best_hi = Fraction(0), Fraction(0)
    for members in blocks.values():
        lo, hi = _collatz_bracket([(bisect_left(members, a),
                                    bisect_left(members, b))
                                   for a, b in (runs[v] for v in members)])
        best_lo = max(best_lo, lo - 1)
        best_hi = max(best_hi, hi - 1)
    return best_lo, best_hi


def _collatz_bracket(
        spans: list[tuple[int, int]]) -> tuple[Fraction, Fraction]:
    """Bracket for the Perron root of I + B, where B is an irreducible 0/1
    block whose row v is one run of ones, in the columns a <= j < b of
    spans[v] = (a, b). One round y = (I + B)x is a prefix sum.

    Power iteration runs on positive integer vectors, cut back to about 96
    bits between rounds and floored at 1. The min and max of the exact
    quotients (Bx + x)_i / x_i are Collatz-Wielandt bounds for every positive
    x, so the cut cannot invalidate them.
    """
    x = [1] * len(spans)
    best_lo, best_hi = Fraction(0), None
    for _ in range(256):
        pre = list(accumulate(x, initial=0))
        y = [xv + pre[b] - pre[a] for xv, (a, b) in zip(x, spans)]
        # argmin / argmax of y_i / x_i by cross-multiplication
        i_lo = i_hi = 0
        for i in range(1, len(y)):
            if y[i] * x[i_lo] < y[i_lo] * x[i]:
                i_lo = i
            if y[i] * x[i_hi] > y[i_hi] * x[i]:
                i_hi = i
        lo, hi = Fraction(y[i_lo], x[i_lo]), Fraction(y[i_hi], x[i_hi])
        best_lo = max(best_lo, lo)
        best_hi = hi if best_hi is None else min(best_hi, hi)
        if best_hi - best_lo < PERRON_TOLERANCE:
            return best_lo, best_hi
        shift = max(max(y).bit_length() - 96, 0)
        x = [max(v >> shift, 1) for v in y]
    raise InternalInvariantError("Perron bracket failed to converge")
