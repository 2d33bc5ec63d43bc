"""Exact graphs of the set-valued compositions f∘g⁻¹ and g⁻¹∘f.

The forward graph {(g(t), f(t)) : t in [0,1]} is a polyline; the pullback
graph {(x, y) : g(y) = f(x)} is computed cell by cell as the zero set of a
bilinear-free (both maps linear per cell) equation, so it is a finite union
of closed segments, possibly with isolated points. Commutation and strong
commutation are decided with rational predicates only, no epsilons anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .core import Interval, PLMap, Point, ZERO, ONE, compose, rat
from .errors import PreconditionError
from .report import Report


def _cross(o: Point, p: Point, q: Point) -> Fraction:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


@dataclass(frozen=True, order=True)
class Segment:
    """Closed segment in [0,1]^2, endpoints stored in lexicographic order.

    A degenerate segment (a == b) represents an isolated point of a graph.
    """

    a: Point
    b: Point

    def __post_init__(self):
        a = (rat(self.a[0]), rat(self.a[1]))
        b = (rat(self.b[0]), rat(self.b[1]))
        if b < a:
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def is_point(self) -> bool:
        return self.a == self.b

    def line_key(self) -> tuple[Fraction, Fraction, Fraction]:
        """Canonical (A, B, C) of the supporting line Ax + By + C = 0."""
        A = self.b[1] - self.a[1]
        B = self.a[0] - self.b[0]
        C = -(A * self.a[0] + B * self.a[1])
        if A != 0:
            return (Fraction(1), B / A, C / A)
        return (Fraction(0), Fraction(1), C / B)

    def contains_point(self, p: Point) -> bool:
        if self.is_point:
            return p == self.a
        if _cross(self.a, self.b, p) != 0:
            return False
        return (min(self.a[0], self.b[0]) <= p[0] <= max(self.a[0], self.b[0])
                and min(self.a[1], self.b[1]) <= p[1] <= max(self.a[1], self.b[1]))

    def param_of(self, p: Point) -> Fraction:
        """Parameter t with a + t*(b-a) = p, assuming p on the supporting line."""
        dx, dy = self.b[0] - self.a[0], self.b[1] - self.a[1]
        if dx != 0:
            return (p[0] - self.a[0]) / dx
        return (p[1] - self.a[1]) / dy

    def at(self, t: Fraction) -> Point:
        return (self.a[0] + t * (self.b[0] - self.a[0]),
                self.a[1] + t * (self.b[1] - self.a[1]))


@dataclass(frozen=True)
class SegmentSet:
    """Canonical arrangement of closed segments representing a closed set.

    Every SegmentSet the library builds comes out of ``segment_set``
    (``reflected`` included), so ``==`` is point-set equality.
    """

    segments: tuple[Segment, ...]

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def contains_point(self, p: Point) -> bool:
        return any(s.contains_point(p) for s in self.segments)

    def proper_segments(self) -> list[Segment]:
        return [s for s in self.segments if not s.is_point]

    def isolated_points(self) -> list[Point]:
        return [s.a for s in self.segments if s.is_point]

    def covers_segment(self, s: Segment) -> bool:
        """Exact containment of one segment in this set.

        The segment is split at every intersection with the supporting lines
        of this set; each sub-piece lies inside or outside as a whole, so a
        rational midpoint test per piece decides containment. This is the
        subset relation and an independent reference for ``==``; no decision
        procedure calls it.
        """
        if s.is_point:
            return self.contains_point(s.a)
        if not (self.contains_point(s.a) and self.contains_point(s.b)):
            return False
        key = s.line_key()
        cuts: set[Fraction] = {ZERO, ONE}
        for t in self.proper_segments():
            if t.line_key() == key:
                for p in (t.a, t.b):
                    u = s.param_of(p)
                    if ZERO < u < ONE:
                        cuts.add(u)
                continue
            A, B, C = t.line_key()
            da = A * s.a[0] + B * s.a[1] + C
            db = A * s.b[0] + B * s.b[1] + C
            if da == db:
                continue
            u = da / (da - db)
            if ZERO < u < ONE:
                cuts.add(u)
        grid = sorted(cuts)
        for u0, u1 in zip(grid, grid[1:]):
            if not self.contains_point(s.at((u0 + u1) / 2)):
                return False
        return True

    def covers(self, other: "SegmentSet") -> bool:
        return all(self.covers_segment(s) for s in other.segments)

    def reflected(self) -> "SegmentSet":
        return segment_set(Segment((s.a[1], s.a[0]), (s.b[1], s.b[0]))
                           for s in self.segments)


def segment_set(raw: Iterable[Segment]) -> SegmentSet:
    """Canonicalize: merge touching collinear segments, drop covered points.

    The result depends only on the point set X that the input covers, so two
    canonical sets are equal as sets exactly when they are equal as tuples.
    A segment on another line meets a line L in at most one point, so it
    cannot cover a positive-length piece of L; the union of the input
    segments on L is therefore the closure of the relative interior of
    X ∩ L, fixed by X. Its maximal touching runs (the merged segments) are
    fixed with it, and so are the isolated points: the points of X on no run.
    """
    proper: dict[tuple, list[Segment]] = {}
    points: set[Point] = set()
    for s in raw:
        if s.is_point:
            points.add(s.a)
        else:
            proper.setdefault(s.line_key(), []).append(s)
    merged: list[Segment] = []
    for group in proper.values():
        group.sort()
        cur = group[0]
        for nxt in group[1:]:
            if nxt.a <= cur.b:
                if nxt.b > cur.b:
                    cur = Segment(cur.a, nxt.b)
            else:
                merged.append(cur)
                cur = nxt
        merged.append(cur)
    kept_points = [Segment(p, p) for p in points
                   if not any(s.contains_point(p) for s in merged)]
    return SegmentSet(tuple(sorted(merged + kept_points)))


def graphs_equal(first: SegmentSet, second: SegmentSet) -> bool:
    """Point-set equality of two canonical segment arrangements."""
    return first == second


# -- the two graphs ----------------------------------------------------------

def forward_polyline(f: PLMap, g: PLMap) -> list[tuple[Fraction, Point]]:
    """The parametrized curve t -> (g(t), f(t)) sampled at all breakpoints."""
    grid = sorted(set(f.xs) | set(g.xs))
    return [(t, (g(t), f(t))) for t in grid]


def forward_graph(f: PLMap, g: PLMap) -> SegmentSet:
    """Graph of the set-valued map f∘g⁻¹ as the polyline {(g(t), f(t))}."""
    vertices = [p for _, p in forward_polyline(f, g)]
    return segment_set(Segment(a, b) for a, b in zip(vertices, vertices[1:]))


def pullback_graph(f: PLMap, g: PLMap) -> SegmentSet:
    """Graph of g⁻¹∘f: the exact zero set of g(y) - f(x) in the unit square."""
    pieces: list[Segment] = []
    for (x0, y0f), (x1, y1f) in f.segments():
        af = (y1f - y0f) / (x1 - x0)
        bf = y0f - af * x0
        for (u0, v0), (u1, v1) in g.segments():
            ag = (v1 - v0) / (u1 - u0)
            bg = v0 - ag * u0
            # g(y) = f(x) on the cell: y = (af*x + bf - bg)/ag, clipped.
            slope = af / ag
            inter = (bf - bg) / ag
            ya, yb = slope * x0 + inter, slope * x1 + inter
            lo, hi = (ya, yb) if ya <= yb else (yb, ya)
            wlo, whi = max(lo, u0), min(hi, u1)
            if wlo > whi:
                continue
            xa = (wlo - inter) / slope
            xb = (whi - inter) / slope
            pieces.append(Segment((xa, wlo), (xb, whi)))
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

@dataclass(frozen=True, order=True)
class GraphFeature:
    """A distinguished point of the graph of g⁻¹∘f."""

    location: Point
    kind: str  # "hat" | "end-hat" | "endpoint-a" | "endpoint-b"


def hats(f: PLMap, g: PLMap) -> list[GraphFeature]:
    """Hats of the graph of g⁻¹∘f: (c, y) with c critical for f, y not for g."""
    crit_g = g.critical_points()
    end_image = (g(ZERO), f(ZERO))
    is_closed_loop = end_image == (g(ONE), f(ONE))
    out = []
    for c, _ in f.critical_points():
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
    crit_f = f.critical_points()
    crit_g = g.critical_points()
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


@dataclass(frozen=True)
class Profile:
    """Hat counts per critical point of f and endpoint counts per gap of C_f."""

    hat_counts: tuple[int, ...]        # h_1 .. h_n
    endpoint_counts: tuple[int, ...]   # e_0 .. e_n
    total_hats: int
    total_endpoints: int
    has_end_hat: bool
    chain_sums: tuple[int, ...]
    chain_holds: bool            # every chain sum >= 2
    count_bound_holds: bool      # total hats + endpoints <= n + 2
    end_hat_bound_holds: bool    # with an end-hat, total <= n + 1
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
    gaps = [ZERO, *crit, ONE]
    e = [0] * (n + 1)
    for feat in end_list:
        x = feat.location[0]
        for j in range(n + 1):
            left_ok = gaps[j] <= x if j == 0 else gaps[j] < x
            right_ok = x <= gaps[j + 1] if j == n else x < gaps[j + 1]
            if left_ok and right_ok:
                e[j] += 1
                break
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
        end_hat_bound_holds=(not has_end_hat) or (total_h + total_e <= n + 1),
        parity_bound_holds=sum(e) + 2 * sum(h) >= 2 * (n + 1),
    )
    return prof, hat_list, end_list


# -- coincidences of the parametrization ---------------------------------------

def _segment_pair_intersection(p: Segment, q: Segment):
    """Intersection of two closed segments: None, ("point", P), or ("overlap", P, Q)."""
    d1 = (p.b[0] - p.a[0], p.b[1] - p.a[1])
    d2 = (q.b[0] - q.a[0], q.b[1] - q.a[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        if _cross(p.a, p.b, q.a) != 0:
            return None
        t0, t1 = sorted((p.param_of(q.a), p.param_of(q.b)))
        lo, hi = max(t0, ZERO), min(t1, ONE)
        if lo > hi:
            return None
        if lo == hi:
            return ("point", p.at(lo))
        return ("overlap", p.at(lo), p.at(hi))
    rx, ry = q.a[0] - p.a[0], q.a[1] - p.a[1]
    t = (rx * d2[1] - ry * d2[0]) / denom
    u = (rx * d1[1] - ry * d1[0]) / denom
    if ZERO <= t <= ONE and ZERO <= u <= ONE:
        return ("point", p.at(t))
    return None


def parametrization_coincidences(f: PLMap, g: PLMap):
    """Self-intersections of the curve t -> (g(t), f(t)) at distinct parameters.

    Returns (points, overlaps): coincidence points hit by two different
    parameters, and collinear retraced portions (which a locally one-to-one
    parametrization never has).
    """
    poly = forward_polyline(f, g)
    pieces = []
    for (t0, a), (t1, b) in zip(poly, poly[1:]):
        pieces.append((t0, t1, Segment(a, b), a, b))
    points: set[Point] = set()
    overlaps: list[tuple[Point, Point]] = []
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            _, _, si, ai, bi = pieces[i]
            _, _, sj, aj, bj = pieces[j]
            hit = _segment_pair_intersection(si, sj)
            if hit is None:
                continue
            if hit[0] == "overlap":
                overlaps.append((hit[1], hit[2]))
                continue
            point = hit[1]
            if j == i + 1 and point == bi and point == aj:
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
    crit_f = f.critical_points()
    crit_g = g.critical_points()
    n = len(crit_f)

    prof, hat_list, end_list = _profile_with_features(f, g)
    hat_set = {feat.location for feat in hat_list}
    expected_hats = {(g(c), f(c)) for c in crit_f.xs}
    report.add("hat-count-and-positions",
               prof.total_hats == n and hat_set == expected_hats,
               f"hats={sorted(hat_set)}")
    end_set = {feat.location for feat in end_list}
    expected_ends = {(g(ZERO), f(ZERO)), (g(ONE), f(ONE))}
    report.add("two-endpoints",
               prof.total_endpoints == 2 and end_set == expected_ends,
               f"endpoints={sorted(end_set)}")

    common = set(crit_f.xs) & set(crit_g.xs)
    report.add("disjoint-critical-sets", not common,
               f"common={sorted(common)}" if common else "")

    gaps = [ZERO, *crit_f.xs, ONE]
    connected = True
    witness = ""
    for lo, hi in zip(gaps, gaps[1:]):
        comps = g.preimage_interval(f.image(Interval(lo, hi)))
        if len(comps) > 1:
            connected = False
            witness = f"g-preimage of f([{lo}, {hi}]) has {len(comps)} components"
            break
    report.add("preimage-connectivity", connected, witness)

    prop_ok = all(f(d) in crit_g for d in crit_g.xs) and \
        all(g(c) in crit_f for c in crit_f.xs)
    report.add("critical-value-propagation", prop_ok)

    coincidence_pts, overlaps = parametrization_coincidences(f, g)
    cross_ok = not overlaps and all(
        x in crit_f and y in crit_g for (x, y) in coincidence_pts)
    detail = "retraced segment" if overlaps else f"points={coincidence_pts}"
    report.add("coincidences-at-critical-pairs", cross_ok,
               detail if not cross_ok else "")

    report.add("endpoint-total-is-two", sum(prof.endpoint_counts) == 2)
    report.add("hat-total-is-critical-count", sum(prof.hat_counts) == n)
    report.add("hat-pattern-chain-equalities",
               all(s == 2 for s in prof.chain_sums),
               f"chain={prof.chain_sums}")
    return report
