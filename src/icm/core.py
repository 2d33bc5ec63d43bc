"""Exact piecewise-linear self-maps of the unit interval.

Every coordinate is a `fractions.Fraction` and every decision below is exact;
floats never appear. Maps are kept in canonical form (strictly increasing
abscissas spanning [0,1], no zero-slope segment, collinear neighbours merged)
so structural equality of two `PLMap`s coincides with pointwise equality.
"""

from __future__ import annotations

import bisect
import os
import re
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, ResourceError

Rational = Fraction
Point = tuple[Fraction, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)

#: Default ceiling on the breakpoints, laps and pullback cells one call may
#: build. `iterate(tent(3), k)` peaks at 306-324 bytes per breakpoint under
#: tracemalloc for k = 7..9, so a budget of 1 GiB allows about 3.3 * 10^6.
DEFAULT_BREAKPOINT_CAP = 3 * 10**6

#: A rational of the .pwl grammar: its signed numerator and its denominator.
_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?")


def _check_cap(count: int, needs: str) -> None:
    """Raise ResourceError ("<needs>, above the cap C") when ``count``
    exceeds the cap: ICM_BREAKPOINT_CAP, read at each call, else the default.
    Called only where a size is known before anything is built: breakpoints
    in `tent`, `compose` and `iterate`, rounds and lap images in
    `entropy_lap`, cells in `pullback_graph`, matrix entries in
    `markov_partition`, hats in `hats`, segment pairs in
    `parametrization_coincidences` and grid points in the oracle.
    """
    raw = os.environ.get("ICM_BREAKPOINT_CAP")
    try:
        cap = DEFAULT_BREAKPOINT_CAP if raw is None else int(raw)
    except ValueError:
        raise DomainError(f"ICM_BREAKPOINT_CAP must be an integer, got {raw!r}")
    if cap < 1:
        raise DomainError(f"ICM_BREAKPOINT_CAP must be positive, got {cap}")
    if count > cap:
        raise ResourceError(f"{needs}, above the cap {cap}")


def _read_rational(text: str) -> tuple[int, int]:
    """The numerator and denominator of a string ``-?digits(/digits)?``
    (the .pwl grammar), as integers that need not be coprime; the
    denominator is positive. Both map files and `rat` read tokens here."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise DomainError(f"not an integer or a/b rational: {text!r}")
    num, den = m.groups()
    try:
        n, d = int(num), int(den) if den else 1
    except ValueError:  # past Python's limit on integer string digits
        raise DomainError(
            f"too many digits: a {len(text)}-character rational") from None
    if not d:
        raise DomainError(f"zero denominator: {text!r}")
    return n, d


def rat(value) -> Fraction:
    """Coerce an int, a Fraction, or a string ``-?digits(/digits)?`` (the
    .pwl grammar) to a Fraction.

    Floats and decimals are rejected: the library is exact end to end.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(*_read_rational(value))
    raise DomainError(f"not an exact rational: {value!r}")


class Interval(NamedTuple("_Interval", [("lo", Fraction), ("hi", Fraction)])):
    """Closed subinterval of [0, 1]; degenerate (lo == hi) is allowed."""

    __slots__ = ()

    def __new__(cls, lo, hi) -> "Interval":
        lo, hi = rat(lo), rat(hi)
        if not (ZERO <= lo <= hi <= ONE):
            raise DomainError(f"invalid interval [{lo}, {hi}]")
        return tuple.__new__(cls, (lo, hi))

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_inside(self, x: Fraction) -> bool:
        return self.lo < x < self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


FULL = Interval(ZERO, ONE)


interval = Interval


def _interpolate(s0: Fraction, t0: Fraction, s1: Fraction, t1: Fraction,
                 s: Fraction) -> Fraction:
    """t at s on the line through (s0, t0) and (s1, t1); an end comes back
    as it is. Called with (x, y) it evaluates a linear piece, with (y, x)
    it inverts one.

    With s = a/b, s0 = a0/b0, s1 = a1/b1 and t0 = p0/q0, t1 = p1/q1, the
    value t0 + (t1 - t0)(s - s0)/(s1 - s0) is one integer fraction, reduced
    once, with no intermediate Fraction. The s values may be ints, as the
    pullback graph's values are: a scale common to all three cancels.
    """
    a, b = s.numerator, s.denominator
    a0, b0 = s0.numerator, s0.denominator
    n = a * b0 - a0 * b  # (s - s0)·b·b0
    if not n:
        return t0
    a1, b1 = s1.numerator, s1.denominator
    if a * b1 == a1 * b:
        return t1
    p0, q0 = t0.numerator, t0.denominator
    p1, q1 = t1.numerator, t1.denominator
    d = (a1 * b0 - a0 * b1) * b  # (s1 - s0)·b·b0·b1
    return Fraction(p0 * q1 * d + (p1 * q0 - p0 * q1) * n * b1, q0 * q1 * d)


class CriticalSet(tuple):
    """Interior local extrema of a map: ordered (point, 'max'|'min') pairs."""

    __slots__ = ()

    entries = property(tuple)

    @property
    def xs(self) -> tuple[Fraction, ...]:
        return tuple([x for x, _ in self])

    def __contains__(self, x) -> bool:
        # the points increase, and (x,) sorts just before (x, kind)
        i = bisect.bisect_left(self, (x,))
        return i < len(self) and self[i][0] == x

    def __repr__(self) -> str:
        return f"CriticalSet(entries={tuple(self)!r})"


class FixedSet(NamedTuple):
    """Exact solution set of f(x) = x: isolated points plus diagonal segments."""

    isolated: tuple[Fraction, ...]
    segments: tuple[Interval, ...]

    @property
    def empty(self) -> bool:
        return not self.isolated and not self.segments

    def contains(self, x: Fraction) -> bool:
        return x in self.isolated or any(s.contains(x) for s in self.segments)

    def least(self) -> Fraction:
        candidates = list(self.isolated) + [s.lo for s in self.segments]
        if not candidates:
            raise DomainError("empty fixed set has no least element")
        return min(candidates)

    def intersect(self, other: "FixedSet") -> "FixedSet":
        """One merge walk. The components of a fixed set are closed,
        pairwise apart and sorted: advancing the side whose component ends
        first meets the pairwise overlaps, which are the components of the
        intersection, in order."""
        mine, theirs = (sorted([(x, x) for x in fs.isolated]
                               + list(fs.segments))
                        for fs in (self, other))
        overlaps = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            (a0, a1), (b0, b1) = mine[i], theirs[j]
            if a0 <= b1 and b0 <= a1:
                overlaps.append((max(a0, b0), min(a1, b1)))
            if a1 < b1:
                i += 1
            else:
                j += 1
        return _fixed_set(overlaps)


def _fixed_set(pairs: Iterable[tuple[Fraction, Fraction]]) -> FixedSet:
    """The fixed set of the closed components [lo, hi] among these sorted,
    pairwise apart pairs; a pair with lo > hi is empty and left out."""
    isolated: list[Fraction] = []
    segments: list[Interval] = []
    for lo, hi in pairs:
        if lo < hi:
            segments.append(Interval(lo, hi))
        elif lo == hi:
            isolated.append(lo)
    return FixedSet(tuple(isolated), tuple(segments))


#: A point as integers: (x numerator, x denominator, y numerator, y
#: denominator), the denominators positive and the pairs not always coprime.
_Quad = tuple[int, int, int, int]


def _quad(p: Point) -> _Quad:
    x, y = p
    return x.numerator, x.denominator, y.numerator, y.denominator


def _straight(p: _Quad, q: _Quad, r: _Quad) -> bool:
    """Whether the pieces p-q and q-r run the same way along one line, so
    that q is no breakpoint of a map through them. No piece of a map is
    constant, so a turn is never collinear: the cross product is needed
    only where the direction holds.

    (y1 - y0)(x2 - x1) = (y2 - y1)(x1 - x0) is compared times the six
    denominators, and each y difference carries the sign of the direction.
    """
    a0, b0, c0, e0 = p
    a1, b1, c1, e1 = q
    a2, b2, c2, e2 = r
    up = c1 * e0 - c0 * e1  # (y1 - y0)·e0·e1
    on = c2 * e1 - c1 * e2  # (y2 - y1)·e1·e2
    return (up > 0) == (on > 0) and \
        up * (a2 * b1 - a1 * b2) * e2 * b0 == on * (a1 * b0 - a0 * b1) * e0 * b2


def _checked_points(quads: list[_Quad]) -> list[Point]:
    """The canonical points of the map through these integer points, checked
    in this order: at least two points, abscissas from 0 to 1, then piece by
    piece a larger abscissa and another value, then every value in [0, 1].
    A straight point is merged into its piece, and only the kept points
    become Fractions.
    """
    if len(quads) < 2:
        raise DomainError("a map needs at least the two endpoint breakpoints")
    if quads[0][0] != 0 or quads[-1][0] != quads[-1][1]:
        raise DomainError("breakpoint abscissas must span exactly [0, 1]")
    for (a0, b0, c0, e0), (a1, b1, c1, e1) in zip(quads, quads[1:]):
        if a1 * b0 <= a0 * b1:
            raise DomainError("breakpoint abscissas must strictly increase")
        if c0 * e1 == c1 * e0:
            raise DomainError(f"constant piece on [{Fraction(a0, b0)}, "
                              f"{Fraction(a1, b1)}] is not allowed")
    for _, _, c, e in quads:
        if not (0 <= c <= e):
            raise DomainError(f"value {Fraction(c, e)} outside [0, 1]")
    merged = quads[:2]
    for q in quads[2:]:
        if _straight(merged[-2], merged[-1], q):
            merged[-1] = q
        else:
            merged.append(q)
    return [(Fraction(a, b), Fraction(c, e)) for a, b, c, e in merged]


def _turns(vertices: Sequence[Point]) -> Iterator[tuple[Fraction, Fraction, str]]:
    """The interior vertices above or below both neighbours, in order, as
    (x, value, 'max' | 'min')."""
    for (_, before), (x, y), (_, after) in zip(
            vertices, vertices[1:], vertices[2:]):
        if before < y > after:
            yield x, y, "max"
        elif before > y < after:
            yield x, y, "min"


# A region piece is an x-interval with endpoint-inclusion flags, used to
# represent preimages of open value bands exactly.
_Piece = tuple[Fraction, Fraction, bool, bool]


def _level_pieces(points: Sequence[Point], lo: Fraction, hi: Fraction,
                  strict: bool) -> list[_Piece]:
    """Connected components of {x : lo <= v(x) <= hi}, or of
    {x : lo < v(x) < hi} when ``strict``, for the PL function v with these
    (x, value) vertices.

    Components come back sorted, as (a, b, a_included, b_included): the
    piece a segment contributes lies inside it, so the pieces come out in x
    order, and a piece that touches the last one where either includes the
    shared point joins it. A constant segment lies in the band whole or not
    at all; only f(x) - x has such segments (where f has slope 1), and only
    with a closed band.
    """
    out: list[list] = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        wlo, whi = max(lo, min(y0, y1)), min(hi, max(y0, y1))
        if wlo > whi:
            continue
        if y0 == y1:
            xa, xb = x0, x1
        else:
            xa = _interpolate(y0, x0, y1, x1, wlo)
            xb = _interpolate(y0, x0, y1, x1, whi)
        incl_a = not strict or lo < wlo < hi
        incl_b = not strict or lo < whi < hi
        if xa > xb:
            xa, xb, incl_a, incl_b = xb, xa, incl_b, incl_a
        if xa == xb and not (incl_a and incl_b):
            continue
        if out and xa == out[-1][1] and (out[-1][3] or incl_a):
            out[-1][1], out[-1][3] = xb, incl_b
        else:
            out.append([xa, xb, incl_a, incl_b])
    return [tuple(p) for p in out]


class PLMap:
    """Piecewise-linear map [0,1] -> [0,1] given by its breakpoints.

    Construction validates and canonicalizes: the abscissas must strictly
    increase from 0 to 1, ordinates stay in [0,1], no segment may have zero
    slope (the map is nowhere constant), and collinear consecutive segments
    are merged. Two maps are equal when their breakpoints are.
    """

    # _keys: floor(x·2^64) per breakpoint, built by the first `_rank`
    __slots__ = ("points", "_xs", "_keys")

    def __init__(self, points: Iterable[Point]):
        pts = [(rat(x), rat(y)) for x, y in points]
        self._set(_checked_points([_quad(p) for p in pts]))

    def _set(self, points: list[Point]) -> None:
        self.points = tuple(points)
        # A list, not a generator: tuple(generator) is resized from length
        # 10, and CPython's tuple free lists then grow by one block per map.
        self._xs = tuple([x for x, _ in points])
        self._keys = None

    @classmethod
    def _trusted(cls, points: list[Point]) -> "PLMap":
        """The map on points that are canonical already, checking nothing.

        Only the library calls it, on points it has built from canonical
        maps or checked with `_checked_points`: `Fraction` coordinates,
        abscissas strictly increasing from 0 to 1, values in [0, 1], no
        constant piece and no straight point. User input goes through the
        validating constructor or the .pwl parser, which both check it
        there.
        """
        m = object.__new__(cls)
        m._set(points)
        return m

    def __eq__(self, other) -> bool:
        return (self.points == other.points if isinstance(other, PLMap)
                else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.points,))

    def __repr__(self) -> str:
        return f"PLMap(points={self.points!r})"

    def __reduce__(self):
        return PLMap, (self.points,)

    # -- basic queries ------------------------------------------------------

    @property
    def xs(self) -> tuple[Fraction, ...]:
        return self._xs

    def segments(self) -> Iterator[tuple[Point, Point]]:
        return zip(self.points, self.points[1:])

    def _rank(self, y: Fraction) -> tuple[int, bool]:
        """(bisect_right(xs, y), whether y is a breakpoint), exactly and in
        integers."""
        return self._rank_pq(y.numerator, y.denominator)

    def _rank_pq(self, p: int, q: int) -> tuple[int, bool]:
        """`_rank` of y = p/q, for integers q > 0 and p.

        y's key floor(y·2^64) places it by one `bisect` over the keys of the
        breakpoints. A breakpoint with another key lies on the same side of
        y as its key; those with y's own key are compared with y by one
        integer cross product each, from the right, until one is at most y.
        """
        keys = self._keys
        if keys is None:
            keys = self._keys = [(x.numerator << 64) // x.denominator
                                 for x in self._xs]
        key = (p << 64) // q
        i = bisect.bisect_right(keys, key)
        while i and keys[i - 1] == key:
            x = self._xs[i - 1]
            side = p * x.denominator - x.numerator * q  # the sign of y - x
            if side >= 0:
                return i, not side
            i -= 1
        return i, False

    def _value(self, x: Fraction) -> Fraction:
        """f(x) for a Fraction x in [0, 1], which is not checked."""
        return self._value_ranked(x, *self._rank(x))

    def _value_ranked(self, x: Fraction, i: int, hit: bool) -> Fraction:
        """f(x) from (i, hit) = self._rank(x): the value stored at a hit,
        else the piece between breakpoints i - 1 and i at x."""
        if hit:
            return self.points[i - 1][1]
        return _interpolate(*self.points[i - 1], *self.points[i], x)

    def __call__(self, x) -> Fraction:
        x = rat(x)
        if not (ZERO <= x <= ONE):
            raise DomainError(f"argument {x} outside [0, 1]")
        return self._value(x)

    def _window(self, J: Interval) -> list[Point]:
        """f on J as vertices of its own: (J.lo, f(J.lo)), the breakpoints
        strictly inside J, (J.hi, f(J.hi)). J.lo and J.hi lie on the pieces
        of f next to the first and last of these breakpoints, so the window
        turns and rises exactly where f does on J."""
        i, hit_i = self._rank(J.lo)
        j, hit_j = self._rank(J.hi)
        return [(J.lo, self._value_ranked(J.lo, i, hit_i)),
                *self.points[i:j - hit_j],
                (J.hi, self._value_ranked(J.hi, j, hit_j))]

    def critical_points(self) -> CriticalSet:
        return CriticalSet(tuple([(x, kind)
                                  for x, _, kind in _turns(self.points)]))

    def is_onto(self) -> bool:
        return self.image(FULL) == FULL

    # -- images and preimages -----------------------------------------------

    def image(self, J: Interval) -> Interval:
        values = [y for _, y in self._window(J)]
        return Interval(min(values), max(values))

    def preimage_point(self, y) -> list[Fraction]:
        """The sorted solutions of f(x) = y: a closed band of width zero."""
        y = rat(y)
        if not (ZERO <= y <= ONE):
            raise DomainError(f"value {y} outside [0, 1]")
        return [a for a, _, _, _ in
                _level_pieces(self.points, y, y, strict=False)]

    def preimage_interval(self, J: Interval) -> list[Interval]:
        pieces = _level_pieces(self.points, J.lo, J.hi, strict=False)
        return [Interval(a, b) for a, b, _, _ in pieces]

    def band_components(self, lo, hi) -> list[_Piece]:
        """Components of {x : lo < f(x) < hi} (relatively open in [0,1])."""
        return _level_pieces(self.points, rat(lo), rat(hi), strict=True)

    # -- shape predicates -----------------------------------------------------

    def is_monotone_on(self, J: Interval) -> bool:
        if J.degenerate:
            raise DomainError("monotonicity is undefined on a degenerate interval")
        return next(_turns(self._window(J)), None) is None

    def is_open_on(self, J: Interval, K: Interval) -> bool:
        """Decide whether the restriction f|J : J -> K is an open map.

        Exact criterion: interior local maxima of f|J attain max K, interior
        local minima attain min K, and at each endpoint of J the value is
        min K when the adjacent branch rises away from the boundary and max K
        when it falls (mirrored on the right).
        """
        if J.degenerate:
            raise DomainError("openness is undefined on a degenerate interval")
        img = self.image(J)
        if not K.contains_interval(img):
            raise DomainError(f"image {img} not contained in codomain {K}")
        window = self._window(J)
        if any(v != (K.hi if kind == "max" else K.lo)
               for _, v, kind in _turns(window)):
            return False
        (_, first), (_, second) = window[:2]
        (_, before), (_, last) = window[-2:]
        return (first == (K.lo if first < second else K.hi)
                and last == (K.hi if before < last else K.lo))

    # -- fixed points ---------------------------------------------------------

    def fixed_points(self, within: Interval = FULL) -> FixedSet:
        """The closed zero set of f(x) - x, cut to ``within``."""
        zeros = _level_pieces([(x, y - x) for x, y in self.points],
                              ZERO, ZERO, strict=False)
        return _fixed_set((max(a, within.lo), min(b, within.hi))
                          for a, b, _, _ in zeros)

    # -- restriction ----------------------------------------------------------

    def restrict_to_unit(self, J: Interval) -> "PLMap":
        """Affinely rescale f|J to a self-map of [0,1]; requires f(J) within J."""
        if J.degenerate:
            raise DomainError("cannot rescale a degenerate interval")
        if not J.contains_interval(self.image(J)):
            raise DomainError(f"{J} is not invariant, restriction does not self-map")
        w = J.length
        pts = [((x - J.lo) / w, (y - J.lo) / w) for x, y in self._window(J)]
        # An affine rescaling of canonical pieces, cut at J's ends: canonical.
        return PLMap._trusted(pts)

    def __str__(self) -> str:
        return " ".join(f"({x},{y})" for x, y in self.points)


def make_plmap(points: Iterable) -> PLMap:
    """Build a canonical PLMap from (x, y) pairs of ints, strings, or Fractions."""
    return PLMap(points)


def identity_map() -> PLMap:
    return PLMap(((ZERO, ZERO), (ONE, ONE)))


def tent(n: int) -> PLMap:
    """Symmetric n-tent map: breakpoints at i/n alternating between 0 and 1.

    Its n + 1 breakpoints are checked against the cap before any is built.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError("tent maps need an integer number of branches >= 2")
    _check_cap(n + 1, f"tent {n} needs {n + 1} breakpoints")
    return PLMap(tuple((Fraction(i, n), ZERO if i % 2 == 0 else ONE)
                       for i in range(n + 1)))


def compose(f: PLMap, g: PLMap) -> PLMap:
    """Exact composition f ∘ g, built canonical in one ordered walk along g.

    Each vertex (x, y) of g is ranked among f's breakpoints once, which
    gives f(y). Each piece (x0, y0) -> (x1, y1) of g gives its left end
    (x0, f(y0)), then one point for every breakpoint b of f strictly
    between y0 and y1: the x where the piece takes the value b, with value
    f(b). These b are a run of f's breakpoints, read backwards on a falling
    piece, so the points come out sorted; they are distinct, since a point
    inside a piece is no breakpoint of g and a piece is injective. f is
    canonical, so inside a piece of g the composite turns wherever f does:
    only an interior breakpoint x of g can be straight, and only where g(x)
    is a breakpoint of f. Elsewhere f is affine around g(x) with a slope
    that is not zero, and g's slopes differ on the two sides of x, so the
    composite's do too. Each such x is tested once, with the points emitted
    either side of it, and the straight ones are left out.

    The breakpoint count comes from the run bounds alone and is checked
    against the cap before any breakpoint is built.
    """
    fpts = f.points
    ranks = [f._rank(y) for _, y in g.points]
    fracs = [(y.numerator, y.denominator) for _, y in g.points]
    runs = []
    for (r0, hit0), (r1, hit1), (p0, q0), (p1, q1) in zip(
            ranks, ranks[1:], fracs, fracs[1:]):
        # f's breakpoints strictly between the ends: those above y0 and
        # below y1 on a rising piece, the reverse on a falling one
        runs.append(range(r0, r1 - hit1) if p0 * q1 < p1 * q0
                    else range(r0 - hit0 - 1, r1 - 1, -1))
    count = len(g.points) + sum([len(run) for run in runs])
    _check_cap(count, f"composition needs {count} breakpoints")
    values = [f._value_ranked(y, *rank)
              for (_, y), rank in zip(g.points, ranks)]
    out: list[Point] = []
    starts: list[int] = []  # where the pieces of g start in out
    for ((x0, y0), (x1, y1)), v0, run in zip(g.segments(), values, runs):
        starts.append(len(out))
        out.append((x0, v0))
        for j in run:
            b, v = fpts[j]
            out.append((_interpolate(y0, x0, y1, x1, b), v))
    out.append((g.points[-1][0], values[-1]))
    # A straight point left of k lies on the line through out[k - 1] and
    # out[k], so the test with the emitted neighbours is the merge test.
    straight = {k for k, (_, hit) in zip(starts[1:], ranks[1:])
                if hit and _straight(*map(_quad, out[k - 1:k + 2]))}
    if straight:
        out = [p for k, p in enumerate(out) if k not in straight]
    return PLMap._trusted(out)


def iterate(f: PLMap, k: int) -> PLMap:
    """k-fold composition of f with itself, exact; `compose` caps each step.

    The k - 1 compositions build at least two breakpoints each, a count
    checked against the cap before the first one.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError("iteration count must be a positive integer")
    if k > 1:
        _check_cap(2 * (k - 1), f"{k - 1} compositions build at least "
                   f"{2 * (k - 1)} breakpoints")
    acc = f
    for _ in range(k - 1):
        acc = compose(f, acc)
    return acc


def is_homeomorphism(h: PLMap) -> bool:
    ys = [y for _, y in h.points]
    if all(a < b for a, b in zip(ys, ys[1:])):
        return ys[0] == ZERO and ys[-1] == ONE
    if all(a > b for a, b in zip(ys, ys[1:])):
        return ys[0] == ONE and ys[-1] == ZERO
    return False


def invert_homeomorphism(h: PLMap) -> PLMap:
    if not is_homeomorphism(h):
        raise DomainError("inverse requires a PL homeomorphism of [0, 1]")
    # The mirror image of a canonical homeomorphism in the diagonal is one.
    return PLMap._trusted(sorted([(y, x) for x, y in h.points]))


def conjugate(f: PLMap, h: PLMap) -> PLMap:
    """Exact conjugation h⁻¹ ∘ f ∘ h by a PL homeomorphism h."""
    h_inv = invert_homeomorphism(h)
    return compose(h_inv, compose(f, h))
