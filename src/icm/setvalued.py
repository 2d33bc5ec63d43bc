"""Exact graphs of the set-valued compositions f∘g⁻¹ and g⁻¹∘f.

The forward graph {(g(t), f(t)) : t in [0,1]} is a polyline; the pullback
graph {(x, y) : g(y) = f(x)} is built from the common value range of each
pair of linear pieces, so it is a finite union of closed segments, possibly
with isolated points. Commutation and strong commutation are decided with
rational predicates only, no epsilons anywhere.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import Iterable, NamedTuple

from .core import (Interval, PLMap, Point, ZERO, ONE, _check_cap,
                   _interpolate, compose, rat)
from .errors import DomainError, PreconditionError
from .report import Report


def _line_key(p0: int, q0: int, r0: int, s0: int,
              p1: int, q1: int, r1: int, s1: int) -> tuple[int, int, int] | None:
    """Canonical integers (A, B, C) of the line Ax + By + C = 0 through the
    points (p0/q0, r0/s0) and (p1/q1, r1/s1), given as numerators and
    positive denominators: coprime, with A > 0, or A == 0 and B > 0. None
    when the two points are one.

    The line's (y1 - y0, x0 - x1) times q0·q1·s0·s1 is integral, so the key
    needs no Fraction division; that raw A is 0 exactly when y0 == y1 and
    that raw B exactly when x0 == x1.
    """
    A = (r1 * s0 - r0 * s1) * q0 * q1
    B = (p0 * q1 - p1 * q0) * s0 * s1
    if not (A or B):
        return None
    C = -((A // q0) * p0 + (B // s0) * r0)
    d = math.gcd(A, B, C)
    if A < 0 or (A == 0 and B < 0):
        d = -d
    return (A // d, B // d, C // d)


def _ratios(s: Segment) -> tuple[int, ...]:
    """The numerators and denominators of s's ends, as `_line_key` takes
    them."""
    (x0, y0), (x1, y1) = s
    return (*x0.as_integer_ratio(), *y0.as_integer_ratio(),
            *x1.as_integer_ratio(), *y1.as_integer_ratio())


class Segment(tuple):
    """Closed segment in [0,1]^2: the pair (a, b) of its ends in
    lexicographic order, so it compares, sorts and hashes as that pair.

    A degenerate segment (a == b) represents an isolated point of a graph.
    """

    __slots__ = ()

    a = property(itemgetter(0))
    b = property(itemgetter(1))

    def __new__(cls, a: Point, b: Point) -> "Segment":
        a = (rat(a[0]), rat(a[1]))
        b = (rat(b[0]), rat(b[1]))
        return tuple.__new__(cls, (a, b) if a <= b else (b, a))

    def __getnewargs__(self) -> tuple[Point, Point]:
        return tuple(self)

    @property
    def is_point(self) -> bool:
        return self[0] == self[1]

    def line_key(self) -> tuple[int, int, int]:
        """The integer key of the supporting line; see `_line_key`."""
        key = _line_key(*_ratios(self))
        if key is None:
            raise DomainError("a point has no supporting line")
        return key

    def contains_point(self, p: Point) -> bool:
        """The points of a line are in lexicographic order along it, so p is
        on the segment when it lies between the ends and on their line."""
        a, b = self
        return (a <= p <= b and (p[0] - a[0]) * (b[1] - a[1])
                == (p[1] - a[1]) * (b[0] - a[0]))


#: A Segment from the pair of its ends, built by the library from Fractions
#: in lexicographic order: nothing is coerced or compared. User input goes
#: through Segment.
_segment = partial(tuple.__new__, Segment)


def _ordered(a: Point, b: Point) -> Segment:
    """The library-built segment between two points in either order."""
    return _segment((a, b) if a < b else (b, a))


def _on_keyed(keyed: list[tuple[Segment, tuple[int, int, int]]],
              p: Point) -> bool:
    """Whether p lies on one of the keyed segments: the integer side value
    A·x + B·y + C of its line is 0 at p, and p lies between its ends."""
    (a, q), (r, t) = p[0].as_integer_ratio(), p[1].as_integer_ratio()
    return any(A * a * t + B * r * q + C * q * t == 0 and s[0] <= p <= s[1]
               for s, (A, B, C) in keyed)


class SegmentSet(tuple):
    """Canonical arrangement of closed segments representing a closed set:
    the tuple of its segments.

    Every SegmentSet the library builds comes out of ``segment_set``
    (``reflected`` included), so ``==`` is point-set equality.
    """

    __slots__ = ()

    segments = property(tuple)

    def __repr__(self) -> str:
        return f"SegmentSet(segments={tuple(self)!r})"

    def contains_point(self, p: Point) -> bool:
        return any(s.contains_point(p) for s in self)

    def proper_segments(self) -> list[Segment]:
        return [s for s in self if not s.is_point]

    def isolated_points(self) -> list[Point]:
        return [s.a for s in self if s.is_point]

    def _keyed(self) -> list[tuple[Segment, tuple[int, int, int]]]:
        """The proper segments, each with its line key."""
        return [(t, t.line_key()) for t in self.proper_segments()]

    def covers_segment(self, s: Segment, keyed: list | None = None) -> bool:
        """Exact containment of one segment in this set.

        The segment is split at every intersection with the supporting lines
        of this set; each sub-piece lies inside or outside as a whole, so a
        rational midpoint test per piece decides containment. This is the
        subset relation and an independent reference for ``==``; no decision
        procedure calls it. ``keyed`` is ``_keyed()``, when the caller has
        it already.

        A line's side value A·x + B·y + C at a point (p/q, r/t) is kept as
        the integer A·p·t + B·r·q + C·q·t over q·t; the crossing parameter
        is the exact ratio of the two ends' values, brought to one scale.
        A midpoint, and each end, is on the set when that value is 0 for
        some line of a proper segment and the point lies between that
        segment's ends; an isolated point covers no piece of positive length.
        """
        if s.is_point:
            return self.contains_point(s.a)
        if keyed is None:
            keyed = self._keyed()
        if not (_on_keyed(keyed, s.a) and _on_keyed(keyed, s.b)):
            return False
        key = s.line_key()
        pa, qa, ra, ta, pb, qb, rb, tb = _ratios(s)
        (ax, ay), (bx, by) = s
        dx, dy = bx - ax, by - ay
        cuts: set[Fraction] = {ZERO, ONE}
        for t, (A, B, C) in keyed:
            if (A, B, C) == key:
                # the parameter u of p = a + u·(b − a) on the common line
                for px, py in t:
                    u = (px - ax) / dx if dx else (py - ay) / dy
                    if ZERO < u < ONE:
                        cuts.add(u)
                continue
            da = (A * pa * ta + B * ra * qa + C * qa * ta) * qb * tb
            db = (A * pb * tb + B * rb * qb + C * qb * tb) * qa * ta
            if da == db:
                continue
            u = Fraction(da, da - db)
            if ZERO < u < ONE:
                cuts.add(u)
        grid = sorted(cuts)
        mids = ((u0 + u1) / 2 for u0, u1 in zip(grid, grid[1:]))
        return all(_on_keyed(keyed, (ax + u * dx, ay + u * dy)) for u in mids)

    def covers(self, other: "SegmentSet") -> bool:
        keyed = self._keyed()
        return all(self.covers_segment(s, keyed) for s in other)

    def reflected(self) -> "SegmentSet":
        return segment_set(_ordered((s.a[1], s.a[0]), (s.b[1], s.b[0]))
                           for s in self)


def segment_set(raw: Iterable[Segment]) -> SegmentSet:
    """Canonicalize: merge touching collinear segments, drop covered points.
    Only user input brings covered points: `pullback_graph` emits none,
    and the mirror image of a canonical set has none.

    The result depends only on the point set X that the input covers, so two
    canonical sets are equal as sets exactly when they are equal as tuples.
    A segment on another line meets a line L in at most one point, so it
    cannot cover a positive-length piece of L; the union of the input
    segments on L is therefore the closure of the relative interior of
    X ∩ L, fixed by X. Its maximal touching runs (the merged segments) are
    fixed with it, and so are the isolated points: the points of X on no run.

    Coordinates are compared through integer keys. With Q the largest
    denominator of any input coordinate and k = 2·bitlength(Q), p/q has the
    key floor(p·2^k / q). Two distinct rationals with denominators at most Q
    differ by at least 1/Q² > 2^-k, so their keys differ, in the same order:
    on the input the key is exact, and its size is bounded by Q alone.
    """
    lines: dict[tuple[int, int, int], list[tuple]] = {}
    points: list[tuple] = []
    Q = 0  # the bitwise or of the denominators has Q's bit length
    for seg in raw:
        ints = _ratios(seg)
        Q |= ints[1] | ints[3] | ints[5] | ints[7]
        key = _line_key(*ints)
        if key is None:
            points.append((seg, ints))
        else:
            lines.setdefault(key, []).append((seg, ints))
    k = 2 * Q.bit_length()
    # a row is the keys (x0, y0, x1, y1) of a segment's ends, and the segment
    runs: list[tuple] = []  # (line key, c, first row, the row ending the run)
    for key, group in lines.items():
        # one coordinate orders a line's points: y on a vertical line, else x
        c = 0 if key[1] else 1
        rows = sorted([((p0 << k) // q0, (r0 << k) // s0,
                        (p1 << k) // q1, (r1 << k) // s1, seg)
                       for seg, (p0, q0, r0, s0, p1, q1, r1, s1) in group],
                      key=itemgetter(c))
        first = last = rows[0]
        for row in rows[1:]:
            if row[c] > last[c + 2]:
                runs.append((key, c, first, last))
                first = last = row
            elif row[c + 2] > last[c + 2]:
                last = row
        runs.append((key, c, first, last))
    out = [(first[:2] + last[2:4], _segment((first[4][0], last[4][1])))
           for _, _, first, last in runs]
    isolated: dict[tuple[int, int], Segment] = {}
    for seg, (p, q, r, s, *_) in points:
        kp = (p << k) // q, (r << k) // s
        if kp not in isolated and not any(
                A * p * s + B * r * q + C * q * s == 0
                and first[c] <= kp[c] <= last[c + 2]
                for (A, B, C), c, first, last in runs):
            isolated[kp] = seg
    out += [(kp + kp, seg) for kp, seg in isolated.items()]
    out.sort(key=itemgetter(0))
    return SegmentSet([seg for _, seg in out])


def graphs_equal(first: SegmentSet, second: SegmentSet) -> bool:
    """Point-set equality of two canonical segment arrangements."""
    return first == second


# -- the two graphs ----------------------------------------------------------

def forward_polyline(f: PLMap, g: PLMap) -> list[tuple[Fraction, Point]]:
    """The parametrized curve t -> (g(t), f(t)) sampled at all breakpoints;
    linear in the size of the two maps, so the cap does not bound it.

    One merged walk along both breakpoint lists: a breakpoint of one map
    that is none of the other is interpolated on the other's current piece.
    """
    fp, gp = f.points, g.points
    last = len(fp) - 1
    out: list[tuple[Fraction, Point]] = []
    i = j = 0
    while True:
        (xf, yf), (xg, yg) = fp[i], gp[j]
        if xf == xg:
            out.append((xf, (yg, yf)))
            if i == last:  # both maps end at 1
                return out
            i += 1
            j += 1
        elif xf < xg:
            x0, y0 = gp[j - 1]
            out.append((xf, (_interpolate(x0, y0, xg, yg, xf), yf)))
            i += 1
        else:
            x0, y0 = fp[i - 1]
            out.append((xg, (yg, _interpolate(x0, y0, xf, yf, xg))))
            j += 1


def forward_graph(f: PLMap, g: PLMap) -> SegmentSet:
    """Graph of the set-valued map f∘g⁻¹ as the polyline {(g(t), f(t))}."""
    vertices = [p for _, p in forward_polyline(f, g)]
    return segment_set(_ordered(a, b) for a, b in zip(vertices, vertices[1:]))


def _value_pieces(m: PLMap, scale: int) -> list[tuple]:
    """m's pieces as (lo, x_lo, hi, x_hi, rises, stop_lo, stop_hi): the end
    values times ``scale`` in increasing order, integers, with their
    abscissas, whether the piece rises, and whether each end is a stop of
    m. ``scale`` is a multiple of every value's denominator. A stop is 0, 1
    or a turn: a breakpoint where every piece of m leaves the value the
    same way."""
    pts = m.points
    vals = [y.numerator * (scale // y.denominator) for _, y in pts]
    rises = [v0 < v1 for v0, v1 in zip(vals, vals[1:])]
    stops = [True, *[r != s for r, s in zip(rises, rises[1:])], True]
    return [(v0, x0, v1, x1, True, stops[i], stops[i + 1]) if r
            else (v1, x1, v0, x0, False, stops[i + 1], stops[i])
            for i, (r, v0, v1, (x0, _), (x1, _))
            in enumerate(zip(rises, vals, vals[1:], pts, pts[1:]))]


def pullback_graph(f: PLMap, g: PLMap) -> SegmentSet:
    """Graph of g⁻¹∘f: the exact zero set of g(y) - f(x) in the unit square.

    On a piece of f times a piece of g both maps are linear and strictly
    monotone, so the zero set there is {(f⁻¹(w), g⁻¹(w))} for w in the common
    value range [lo, hi] of the two pieces, lo the larger of their minima
    and hi the smaller of their maxima. When lo < hi it is the segment from
    (f⁻¹(lo), g⁻¹(lo)) to (f⁻¹(hi), g⁻¹(hi)), whose ends come in
    lexicographic order when f's piece rises and in reverse when it falls.

    When lo == hi = w the ranges touch, at an end x of f's piece and an end
    u of g's piece, which leave w one upward and one downward. Every cell
    through (x, u) pairs a piece of f at x with a piece of g at u and ends
    at (x, u), so the point lies on a segment exactly when two such pieces
    leave w the same way. At a breakpoint that is no stop the two pieces
    leave it opposite ways, so the point is isolated, and is emitted,
    exactly when x is a stop of f and u a stop of g.

    The values of both maps are compared as integers over L, the lcm of
    their denominators. Its (|f| - 1)(|g| - 1) cells are checked against
    the cap first.
    """
    cells = (len(f.points) - 1) * (len(g.points) - 1)
    _check_cap(cells, f"pullback graph needs {cells} cells")
    L = math.lcm(*[y.denominator for m in (f, g) for _, y in m.points])
    g_pieces = _value_pieces(g, L)
    pieces: list[Segment] = []
    for f_lo, xa, f_hi, xb, rises, f_stop_a, f_stop_b in _value_pieces(f, L):
        for g_lo, ua, g_hi, ub, _, g_stop_a, g_stop_b in g_pieces:
            # lo and hi are each an end of the piece that the comparison
            # picks, and of the other piece too when the two ends are equal;
            # only a crossing inside the other piece is interpolated.
            lo_on_f, hi_on_f = f_lo >= g_lo, f_hi <= g_hi
            lo = f_lo if lo_on_f else g_lo
            hi = f_hi if hi_on_f else g_hi
            if lo < hi:
                if lo_on_f:
                    p = (xa, ua if lo == g_lo
                         else _interpolate(g_lo, ua, g_hi, ub, lo))
                else:
                    p = (_interpolate(f_lo, xa, f_hi, xb, lo), ua)
                if hi_on_f:
                    q = (xb, ub if hi == g_hi
                         else _interpolate(g_lo, ua, g_hi, ub, hi))
                else:
                    q = (_interpolate(f_lo, xa, f_hi, xb, hi), ub)
                pieces.append(_segment((p, q) if rises else (q, p)))
            elif lo == hi:
                # f's minimum is g's maximum, or f's maximum is g's minimum
                if lo_on_f:
                    if f_stop_a and g_stop_b:
                        pieces.append(_segment(((xa, ub), (xa, ub))))
                elif f_stop_b and g_stop_a:
                    pieces.append(_segment(((xb, ua), (xb, ua))))
    return segment_set(pieces)


# -- decision procedures ------------------------------------------------------

def commute(f: PLMap, g: PLMap) -> bool:
    """Pointwise commutation: f∘g = g∘f as canonical maps."""
    return compose(f, g) == compose(g, f)


def strongly_commute(f: PLMap, g: PLMap) -> bool:
    """Set equality f∘g⁻¹(x) = g⁻¹∘f(x) for every x, decided on the graphs.

    Equality of the graphs alone decides it, with no commutation precheck:
    if the forward graph equals the pullback graph, each (g(t), f(t)) lies
    in the zero set of g(y) - f(x), so g(f(t)) = f(g(t)) for every t.
    """
    return graphs_equal(forward_graph(f, g), pullback_graph(f, g))


# -- hats, endpoints, counting ------------------------------------------------

class GraphFeature(NamedTuple):
    """A distinguished point of the graph of g⁻¹∘f."""

    location: Point
    kind: str  # "hat" | "end-hat" | "endpoint-a" | "endpoint-b"


def hats(f: PLMap, g: PLMap) -> list[GraphFeature]:
    """Hats of the graph of g⁻¹∘f: (c, y) with c critical for f, y not for g.

    Their bound, |C_f| times the |g| - 1 pieces of g, is checked against the
    cap first: a piece takes each value at most once.
    """
    crit_f = f.critical_points()
    crit_g = frozenset(g.critical_points().xs)
    bound = len(crit_f) * (len(g.points) - 1)
    _check_cap(bound, f"hats need up to {bound} points")
    end_image = (g(ZERO), f(ZERO))
    is_closed_loop = end_image == (g(ONE), f(ONE))
    out = []
    for c, _ in crit_f:
        for y in g.preimage_point(f(c)):
            if y in crit_g:
                continue
            kind = "end-hat" if (is_closed_loop and (c, y) == end_image) else "hat"
            out.append(GraphFeature((c, y), kind))
    return sorted(out)


def endpoints(f: PLMap, g: PLMap) -> list[GraphFeature]:
    """Endpoints of the graph of g⁻¹∘f.

    Type (a): first coordinate 0 or 1 and second non-critical for g.
    Type (b): first coordinate interior non-critical for f, second 0 or 1.
    Corner points qualify for both clauses and are classified type (a).
    """
    crit_f = frozenset(f.critical_points().xs)
    crit_g = frozenset(g.critical_points().xs)
    out: dict[Point, GraphFeature] = {}
    for x in (ZERO, ONE):
        for y in g.preimage_point(f(x)):
            if y not in crit_g:
                out[(x, y)] = GraphFeature((x, y), "endpoint-a")
    for y in (ZERO, ONE):
        for x in f.preimage_point(g(y)):
            if ZERO < x < ONE and x not in crit_f and (x, y) not in out:
                out[(x, y)] = GraphFeature((x, y), "endpoint-b")
    return sorted(out.values())


class Profile(NamedTuple):
    """Hat counts per critical point of f and endpoint counts per gap of C_f."""

    hat_counts: tuple[int, ...]        # h_1 .. h_n
    endpoint_counts: tuple[int, ...]   # e_0 .. e_n
    total_hats: int
    total_endpoints: int
    has_end_hat: bool
    chain_sums: tuple[int, ...]
    chain_holds: bool            # every chain sum >= 2
    count_bound_holds: bool      # total hats + endpoints <= n + 2
    parity_bound_holds: bool     # sum e + 2 sum h >= 2(n + 1)


def profile(f: PLMap, g: PLMap) -> Profile:
    return _profile_with_features(f, g)[0]


def _profile_with_features(f: PLMap, g: PLMap) -> tuple[
        Profile, list[GraphFeature], list[GraphFeature]]:
    """profile(f, g) together with the hats and endpoints it counted."""
    if not f.is_onto() or not g.is_onto():
        raise PreconditionError("profile requires both maps onto [0, 1]")
    crit = f.critical_points().xs
    n = len(crit)
    hat_list = hats(f, g)
    end_list = endpoints(f, g)
    h = [0] * n
    for feat in hat_list:
        h[crit.index(feat.location[0])] += 1
    e = [0] * (n + 1)
    for feat in end_list:
        # An endpoint's x is 0, 1 or a point not critical for f, so it never
        # equals a critical point: the critical points below it number its gap.
        e[bisect.bisect_left(crit, feat.location[0])] += 1
    total_h, total_e = len(hat_list), len(end_list)
    has_end_hat = any(feat.kind == "end-hat" for feat in hat_list)
    if n == 0:
        chain = (e[0],)
    else:
        chain = (e[0] + h[0],
                 *(h[i - 1] + e[i] + h[i] for i in range(1, n)),
                 h[n - 1] + e[n])
    prof = Profile(
        hat_counts=tuple(h),
        endpoint_counts=tuple(e),
        total_hats=total_h,
        total_endpoints=total_e,
        has_end_hat=has_end_hat,
        chain_sums=chain,
        chain_holds=all(s >= 2 for s in chain),
        count_bound_holds=total_h + total_e <= n + 2,
        parity_bound_holds=sum(e) + 2 * sum(h) >= 2 * (n + 1),
    )
    return prof, hat_list, end_list


# -- coincidences of the parametrization ---------------------------------------

def _segment_pair_intersection(p: Segment, q: Segment, kp: tuple, kq: tuple):
    """Intersection of two proper closed segments with line keys kp and kq:
    None, ("point", P), or ("overlap", P, Q).

    On one line the intersection is [max(a), min(b)] in lexicographic order;
    two lines that are not parallel cross at the point Cramer's rule gives.
    """
    if kp == kq:
        lo, hi = max(p.a, q.a), min(p.b, q.b)
        if lo > hi:
            return None
        return ("point", lo) if lo == hi else ("overlap", lo, hi)
    (A1, B1, C1), (A2, B2, C2) = kp, kq
    det = A1 * B2 - A2 * B1
    if det == 0:
        return None
    cross = (Fraction(B1 * C2 - B2 * C1, det), Fraction(C1 * A2 - C2 * A1, det))
    if p.a <= cross <= p.b and q.a <= cross <= q.b:
        return ("point", cross)
    return None


def parametrization_coincidences(f: PLMap, g: PLMap):
    """Self-intersections of the curve t -> (g(t), f(t)) at distinct parameters.

    Returns (points, overlaps): coincidence points hit by two different
    parameters, and collinear retraced portions (which a locally one-to-one
    parametrization never has). The n(n - 1)/2 pairs of its n pieces are
    checked against the cap first.
    """
    vertices = [p for _, p in forward_polyline(f, g)]
    n = len(vertices) - 1
    pairs = n * (n - 1) // 2
    _check_cap(pairs, f"coincidences need {pairs} segment pairs")
    pieces = [_ordered(a, b) for a, b in zip(vertices, vertices[1:])]
    keys = [s.line_key() for s in pieces]
    points: set[Point] = set()
    overlaps: list[tuple[Point, Point]] = []
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            hit = _segment_pair_intersection(pieces[i], pieces[j],
                                             keys[i], keys[j])
            if hit is None:
                continue
            if hit[0] == "overlap":
                overlaps.append((hit[1], hit[2]))
                continue
            point = hit[1]
            if j == i + 1 and point == vertices[i + 1]:
                continue  # shared vertex reached at the same parameter
            points.add(point)
    return sorted(points), overlaps


# -- consequence verification ---------------------------------------------------

def verify_strong_consequences(f: PLMap, g: PLMap) -> Report:
    """Check the structural consequences of strong commutation, one by one.

    Requires strongly_commute(f, g); raises PreconditionError otherwise.
    """
    if not strongly_commute(f, g):
        raise PreconditionError("maps do not strongly commute")
    report = Report()
    crit_f = f.critical_points().xs
    crit_g = g.critical_points().xs
    in_f, in_g = frozenset(crit_f), frozenset(crit_g)
    n = len(crit_f)

    prof, hat_list, end_list = _profile_with_features(f, g)
    hat_set = {feat.location for feat in hat_list}
    expected_hats = {(g(c), f(c)) for c in crit_f}
    report.add("hat-count-and-positions",
               prof.total_hats == n and hat_set == expected_hats,
               f"hats={sorted(hat_set)}")
    end_set = {feat.location for feat in end_list}
    expected_ends = {(g(ZERO), f(ZERO)), (g(ONE), f(ONE))}
    report.add("two-endpoints",
               prof.total_endpoints == 2 and end_set == expected_ends,
               f"endpoints={sorted(end_set)}")

    common = in_f & in_g
    report.add("disjoint-critical-sets", not common,
               f"common={sorted(common)}" if common else "")

    gaps = [ZERO, *crit_f, ONE]
    connected = True
    witness = ""
    for lo, hi in zip(gaps, gaps[1:]):
        comps = g.preimage_interval(f.image(Interval(lo, hi)))
        if len(comps) > 1:
            connected = False
            witness = f"g-preimage of f([{lo}, {hi}]) has {len(comps)} components"
            break
    report.add("preimage-connectivity", connected, witness)

    prop_ok = all(f(d) in in_g for d in crit_g) and \
        all(g(c) in in_f for c in crit_f)
    report.add("critical-value-propagation", prop_ok)

    coincidence_pts, overlaps = parametrization_coincidences(f, g)
    cross_ok = not overlaps and all(
        x in in_f and y in in_g for (x, y) in coincidence_pts)
    detail = "retraced segment" if overlaps else f"points={coincidence_pts}"
    report.add("coincidences-at-critical-pairs", cross_ok,
               detail if not cross_ok else "")

    report.add("endpoint-total-is-two", sum(prof.endpoint_counts) == 2)
    report.add("hat-total-is-critical-count", sum(prof.hat_counts) == n)
    report.add("hat-pattern-chain-equalities",
               all(s == 2 for s in prof.chain_sums),
               f"chain={prof.chain_sums}")
    return report
