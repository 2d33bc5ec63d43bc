"""Set-valued composition graphs, commutation decisions, hats and endpoints."""

import collections
import copy
import math
import pickle
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import pytest

import icm
from icm import (DomainError, PLMap, PreconditionError, ResourceError,
                 Segment, commute, compose, conjugate, decompose, endpoints,
                 entropy_lap, forward_graph, forward_polyline, graphs_equal,
                 hats, identity_map, interval, make_plmap, markov_partition,
                 orientation, primary_critical_values, profile, pullback_graph,
                 sample_pullback, segment_set, strongly_commute, tent,
                 verify_decomposition, verify_strong_consequences)
from icm import setvalued
from icm.core import _interpolate
from icm.report import Report
from icm.setvalued import (SegmentSet, _segment, _segment_pair_intersection,
                           parametrization_coincidences)
from conftest import (alternating_map, block_swap_pair, conjugated_tent_pair,
                      coprime_pair, double_reversal_pair, hat_demo_pair,
                      invariant_chain_pair, random_homeo, random_into_map,
                      random_onto_map)

F = Fraction


def polyline_set(coords):
    pts = [(F(a), F(b)) for a, b in coords]
    return segment_set(Segment(a, b) for a, b in zip(pts, pts[1:]))


def grid_points(graph, n):
    """The points (i/n, j/n) of a segment arrangement, found by walking each
    segment along both axes (a vertical segment has a single x)."""
    found = set()
    for s in graph:
        for axis in (0, 1):
            (u0, v0), (u1, v1) = ((p[axis], p[1 - axis]) for p in (s.a, s.b))
            lo, hi = min(u0, u1), max(u0, u1)
            for i in range(math.ceil(lo * n), math.floor(hi * n) + 1):
                u = F(i, n)
                v = v0 if u0 == u1 else v0 + (v1 - v0) * (u - u0) / (u1 - u0)
                if (v * n).denominator == 1:
                    found.add((u, v) if axis == 0 else (v, u))
    return found


def squeezed(f, lo, hi):
    """f with its values moved affinely from [0, 1] onto [lo, hi]."""
    return PLMap(tuple((x, lo + (hi - lo) * y) for x, y in f.points))


def fraction_line_key(s):
    """Reference line key in Fractions: (1, B/A, C/A), or (0, 1, C/B)."""
    A = s.b[1] - s.a[1]
    B = s.a[0] - s.b[0]
    C = -(A * s.a[0] + B * s.a[1])
    if A != 0:
        return (F(1), B / A, C / A)
    return (F(0), F(1), C / B)


def grid_polyline(f, g):
    """Reference forward polyline: both maps evaluated on the merged grid."""
    grid = sorted(set(f.xs) | set(g.xs))
    return [(t, (g(t), f(t))) for t in grid]


def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def box_contains_point(s, p):
    """Reference incidence: a cross product and the min/max box."""
    if s.is_point:
        return p == s.a
    if _cross(s.a, s.b, p) != 0:
        return False
    return (min(s.a[0], s.b[0]) <= p[0] <= max(s.a[0], s.b[0])
            and min(s.a[1], s.b[1]) <= p[1] <= max(s.a[1], s.b[1]))


def parametric_intersection(p, q):
    """Reference intersection of two proper segments, by their parameters."""
    d1 = (p.b[0] - p.a[0], p.b[1] - p.a[1])
    d2 = (q.b[0] - q.a[0], q.b[1] - q.a[1])

    def param_of(point):  # t with p.a + t*d1 = point, on p's line
        if d1[0]:
            return (point[0] - p.a[0]) / d1[0]
        return (point[1] - p.a[1]) / d1[1]

    def at(t):
        return (p.a[0] + t * d1[0], p.a[1] + t * d1[1])

    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        if _cross(p.a, p.b, q.a) != 0:
            return None
        t0, t1 = sorted((param_of(q.a), param_of(q.b)))
        lo, hi = max(t0, F(0)), min(t1, F(1))
        if lo > hi:
            return None
        if lo == hi:
            return ("point", at(lo))
        return ("overlap", at(lo), at(hi))
    rx, ry = q.a[0] - p.a[0], q.a[1] - p.a[1]
    t = (rx * d2[1] - ry * d2[0]) / denom
    u = (rx * d1[1] - ry * d1[0]) / denom
    if 0 <= t <= 1 and 0 <= u <= 1:
        return ("point", at(t))
    return None


def reference_line_key(a, b):
    """The integer line key of two distinct Fraction points, read through
    the numerator and denominator properties, as it was before `_line_key`
    took integers."""
    (x0, y0), (x1, y1) = a, b
    p0, q0 = x0.numerator, x0.denominator
    r0, s0 = y0.numerator, y0.denominator
    p1, q1 = x1.numerator, x1.denominator
    r1, s1 = y1.numerator, y1.denominator
    A = (r1 * s0 - r0 * s1) * q0 * q1
    B = (p0 * q1 - p1 * q0) * s0 * s1
    C = -((A // q0) * p0 + (B // s0) * r0)
    d = math.gcd(A, B, C)
    if A < 0 or (A == 0 and B < 0):
        d = -d
    return (A // d, B // d, C // d)


def reference_segment_set(raw):
    """segment_set as it was before it compared integer keys: the point
    test, the per-line sort and merge, the point dedup and the final sort
    all compare or hash Fractions, and each point is tested against every
    merged segment."""
    proper, points = {}, set()
    for s in raw:
        a, b = s
        if a == b:
            points.add(a)
        else:
            proper.setdefault(reference_line_key(a, b), []).append(s)
    merged = []
    for (_, B, _), group in proper.items():
        c = 0 if B else 1
        group.sort(key=lambda s: s[0][c])
        (a, b), *rest = group
        for lo, hi in rest:
            if lo[c] <= b[c]:
                if hi[c] > b[c]:
                    b = hi
            else:
                merged.append(_segment((a, b)))
                a, b = lo, hi
        merged.append(_segment((a, b)))
    kept_points = [_segment((p, p)) for p in points
                   if not any(s.contains_point(p) for s in merged)]
    return SegmentSet(sorted(merged + kept_points))


def shape(graph):
    """The types of the set, each segment and each coordinate."""
    return [type(graph), *((type(s), *(type(c) for p in s for c in p))
                           for s in graph)]


def assert_same_canonical(raw):
    """segment_set(raw) equals reference_segment_set(raw) as a tuple, with
    the same types for the set, each segment, end and coordinate. The
    reference assumes ordered ends, so it is given each piece as a
    Segment."""
    new = segment_set(raw)
    old = reference_segment_set([Segment(a, b) for a, b in raw])
    assert tuple(new) == tuple(old) and shape(new) == shape(old), raw
    return new


def captured_raw_lists(*calls):
    """The raw lists that the library hands to segment_set while the calls
    run, each kept as a list."""
    raws, original = [], setvalued.segment_set

    def spy(raw):
        raws.append(list(raw))
        return original(raws[-1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(setvalued, "segment_set", spy)
        for call in calls:
            call()
    return raws


@dataclass(frozen=True, order=True)
class DataclassSegment:
    """Segment as a frozen dataclass, as it was before it became the tuple of
    its ends: the reference for its order, equality, hash and incidence."""

    a: tuple
    b: tuple

    def __post_init__(self):
        a = (F(self.a[0]), F(self.a[1]))
        b = (F(self.b[0]), F(self.b[1]))
        if b < a:
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def is_point(self):
        return self.a == self.b

    def line_key(self):
        return reference_line_key(self.a, self.b)

    def contains_point(self, p):
        a, b = self.a, self.b
        return (a <= p <= b and (p[0] - a[0]) * (b[1] - a[1])
                == (p[1] - a[1]) * (b[0] - a[0]))


def hash_classes(items):
    """The partition of the indices of items by hash value."""
    classes = {}
    for i, item in enumerate(items):
        classes.setdefault(hash(item), []).append(i)
    return sorted(classes.values())


def reference_coincidences(f, g):
    """parametrization_coincidences with the parametric intersection."""
    vertices = [p for _, p in forward_polyline(f, g)]
    pieces = [Segment(a, b) for a, b in zip(vertices, vertices[1:])]
    points, overlaps = set(), []
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            hit = parametric_intersection(pieces[i], pieces[j])
            if hit is None:
                continue
            if hit[0] == "overlap":
                overlaps.append((hit[1], hit[2]))
            elif j > i + 1 or hit[1] != vertices[i + 1]:
                points.add(hit[1])
    return sorted(points), overlaps


def reference_pullback_graph(f, g):
    """pullback_graph as it was before the turn rule: every cell whose value
    ranges meet gives a segment or a point, its ends ordered by comparison,
    and segment_set drops the points that a segment covers."""
    g_pieces = [(v0, u0, v1, u1) if v0 < v1 else (v1, u1, v0, u0)
                for (u0, v0), (u1, v1) in g.segments()]
    pieces = []
    for (x0, y0), (x1, y1) in f.segments():
        f_lo, xa, f_hi, xb = (y0, x0, y1, x1) if y0 < y1 else (y1, x1, y0, x0)
        for g_lo, ua, g_hi, ub in g_pieces:
            lo_on_f, hi_on_f = f_lo >= g_lo, f_hi <= g_hi
            lo = f_lo if lo_on_f else g_lo
            hi = f_hi if hi_on_f else g_hi
            if lo <= hi:
                pieces.append(Segment(
                    (xa, _interpolate(g_lo, ua, g_hi, ub, lo)) if lo_on_f
                    else (_interpolate(f_lo, xa, f_hi, xb, lo), ua),
                    (xb, _interpolate(g_lo, ua, g_hi, ub, hi)) if hi_on_f
                    else (_interpolate(f_lo, xa, f_hi, xb, hi), ub)))
    return segment_set(pieces)


def brute_isolated_points(f, g):
    """The breakpoint pairs (x, u) with f(x) = g(u) at which no piece of f
    at x and piece of g at u leave the common value the same way, read off
    the neighbouring breakpoints' values."""
    def leaving(points):
        """(x, value, the directions in which the pieces at x leave it)."""
        out = []
        for i, (x, y) in enumerate(points):
            near = points[max(i - 1, 0):i] + points[i + 1:i + 2]
            out.append((x, y, {v > y for _, v in near}))
        return out
    return {(x, u) for x, w, ways_f in leaving(f.points)
            for u, v, ways_g in leaving(g.points)
            if w == v and not ways_f & ways_g}


@pytest.fixture(scope="module")
def turn_rule_pairs():
    """2,088 pairs for the pullback turn rule: the tents T2..T9 squared; the
    chain, swap and reversal pairs, each way and conjugated; two pairs with
    isolated points; 2,000 seeded pairs of onto, into and touching maps
    with denominators 2, 3, 4, 6 and 12; and T_d with itself and with the
    identity for each of those denominators d."""
    pairs = [(tent(n), tent(m)) for n in range(2, 10) for m in range(2, 10)]
    rng = random.Random(20261020)
    for f, g in (invariant_chain_pair(), block_swap_pair(),
                 double_reversal_pair()):
        pairs += [(f, g), (g, f)]
        for decreasing in (False, True):
            h = random_homeo(rng, decreasing=decreasing)
            pairs.append((conjugate(f, h), conjugate(g, h)))
    pairs += [hat_demo_pair(),
              (make_plmap([(0, 0), ("1/2", "1/2"), (1, 0)]),
               make_plmap([(0, 1), ("1/2", "1/2"), (1, 1)]))]
    draws = (random_onto_map, random_into_map)
    for denom in (2, 3, 4, 6, 12):
        size = min(5, denom - 1)
        for _ in range(80):
            for draw_f in draws:
                for draw_g in draws:
                    pairs.append((draw_f(rng, size, denom),
                                  draw_g(rng, size, denom)))
            c = F(rng.randint(1, denom - 1), denom)
            pairs.append((squeezed(random_onto_map(rng, size, denom), F(0), c),
                          squeezed(random_onto_map(rng, size, denom), c, F(1))))
        pairs.append((tent(denom), tent(denom)))
        pairs.append((identity_map(), tent(denom)))
    assert len(pairs) == 2088
    return pairs


def big_denominator_pair(rng):
    """f with values over 2^61 - 1 and g with each value either one of f's
    or over 2^67 + 3, on the 1/12 grid: their common value denominator L
    exceeds 2^64, and their pieces still share end values."""
    def draw(values):
        while True:
            k = rng.randint(1, 5)
            xs = [0, *sorted(rng.sample(range(1, 12), k)), 12]
            ys = [rng.choice(values) for _ in xs]
            if all(a != b for a, b in zip(ys, ys[1:])):
                return PLMap(tuple((F(x, 12), y) for x, y in zip(xs, ys)))
    p, q = 2**61 - 1, 2**67 + 3
    while True:
        f = draw([F(0), F(1), *(F(rng.randint(1, p - 1), p)
                                for _ in range(4))])
        f_values = [y for _, y in f.points]
        g = draw([*f_values, *f_values,
                  *(F(rng.randint(1, q - 1), q) for _ in range(3))])
        if math.lcm(*[y.denominator for m in (f, g)
                      for _, y in m.points]) > 2**64:
            return f, g


@pytest.fixture(scope="module")
def integer_scale_pairs(strongly_commuting_corpus):
    """Pairs for the pullback cells compared over L: 120 pairs conjugated
    by homeomorphisms on the 1/17 grid (tents T2..T7 squared, the named
    pairs, seeded onto maps), the pairs of squares that `decompose` builds
    for the corpus pairs with a reversing map, both ways round, and 200
    pairs whose L exceeds 2^64, both ways round."""
    rng = random.Random(20261022)
    bases = [(tent(n), tent(m)) for n in range(2, 8) for m in range(2, 8)]
    bases += [invariant_chain_pair(), block_swap_pair(),
              double_reversal_pair(), hat_demo_pair()]
    bases += [(random_onto_map(rng), random_onto_map(rng)) for _ in range(80)]
    pairs = []
    for f, g in bases:
        h = random_homeo(rng, denom=17, decreasing=rng.random() < 0.3)
        pairs.append((conjugate(f, h), conjugate(g, h)))
    squares = 0
    for _, f, g in strongly_commuting_corpus:
        maps = [compose(m, m) if orientation(m) == "reversing" else m
                for m in (f, g)]
        if maps != [f, g]:
            pairs += [tuple(maps), tuple(reversed(maps))]
            squares += 2
    for _ in range(100):
        f, g = big_denominator_pair(rng)
        pairs += [(f, g), (g, f)]
    assert len(pairs) == 120 + squares + 200 and squares >= 20
    return pairs


@pytest.fixture(scope="module")
def differential_mix():
    """(f, g, forward graph, pullback graph) on 1156 seeded pairs: all tent
    pairs T2..T15 squared, 300 onto maps each with another onto map, with
    its square and with itself, and 60 conjugated coprime tent pairs."""
    rng = random.Random(20261018)
    pairs = [(tent(n), tent(m)) for n in range(2, 16) for m in range(2, 16)]
    for _ in range(300):
        f = random_onto_map(rng)
        pairs += [(f, random_onto_map(rng)), (f, compose(f, f)), (f, f)]
    pairs += [conjugated_tent_pair(rng, *coprime_pair(rng))
              for _ in range(60)]
    assert len(pairs) == 1156
    return [(f, g, forward_graph(f, g), pullback_graph(f, g))
            for f, g in pairs]


class TestForwardGraph:
    def test_tent34_vertices(self):
        poly = forward_polyline(tent(3), tent(4))
        assert [p for _, p in poly] == [
            (F(0), F(0)), (F(1), F(3, 4)), (F(2, 3), F(1)), (F(0), F(1, 2)),
            (F(2, 3), F(0)), (F(1), F(1, 4)), (F(0), F(1))]

    def test_forward_with_identity_right_is_graph(self):
        f, _ = invariant_chain_pair()
        expected = polyline_set([(str(x), str(y)) for x, y in f.points])
        assert graphs_equal(forward_graph(f, identity_map()), expected)

    def test_forward_with_identity_left_is_reflection(self):
        f, _ = invariant_chain_pair()
        assert graphs_equal(forward_graph(identity_map(), f),
                            forward_graph(f, identity_map()).reflected())


class TestPullbackGraph:
    def test_coprime_tents_equal_forward(self):
        assert graphs_equal(pullback_graph(tent(3), tent(4)),
                            forward_graph(tent(3), tent(4)))

    def test_common_factor_tents_strictly_contain(self):
        pull = pullback_graph(tent(4), tent(6))
        fwd = forward_graph(tent(4), tent(6))
        assert pull.covers(fwd)
        assert not fwd.covers(pull)

    def test_identity_pair_is_diagonal(self):
        pull = pullback_graph(identity_map(), identity_map())
        assert pull.segments == (Segment((F(0), F(0)), (F(1), F(1))),)

    def test_isolated_point_is_kept(self):
        f, g = hat_demo_pair()
        pull = pullback_graph(f, g)
        assert (F(1, 3), F(0)) in pull.isolated_points()

    def test_grid_points_match_sample_both_ways(self):
        rng = random.Random(60612)
        pairs, touching = [], []
        for denom in (6, 12):
            draws = (random_onto_map, random_into_map)
            for draw_f in draws:
                for draw_g in draws:
                    pairs += [(draw_f(rng, denom=denom),
                               draw_g(rng, denom=denom)) for _ in range(12)]
            # The ranges meet only in c, so the graph is {f = c} x {g = c}:
            # isolated points, each from a cell whose value ranges touch.
            for _ in range(6):
                c = F(rng.randint(1, denom - 1), denom)
                touching.append((
                    squeezed(random_onto_map(rng, denom=denom), F(0), c),
                    squeezed(random_onto_map(rng, denom=denom), c, F(1))))
        for f, g in pairs + touching:
            for p, q in ((f, g), (g, f)):
                sample = sample_pullback(p, q, 24).points
                assert grid_points(pullback_graph(p, q), 24) == sample
        for f, g in touching:
            graph = pullback_graph(f, g)
            assert graph.segments and not graph.proper_segments()

    def test_reflection_swaps_roles(self):
        rng = random.Random(11)
        for _ in range(25):
            f, g = random_onto_map(rng), random_onto_map(rng)
            assert graphs_equal(pullback_graph(f, g).reflected(),
                                pullback_graph(g, f))


class TestPullbackTurnRule:
    """pullback_graph emits a touching cell's point only where the turn rule
    keeps it."""

    def test_matches_reference(self, turn_rule_pairs):
        with_points = 0
        for f, g in turn_rule_pairs:
            graph = pullback_graph(f, g)
            assert graph.segments == reference_pullback_graph(f, g).segments, (
                f, g)
            with_points += bool(graph.isolated_points())
        assert with_points >= 800

    def test_every_emitted_point_is_isolated(self, turn_rule_pairs,
                                             monkeypatch):
        import icm.setvalued
        raw = []

        def spy(pieces):
            raw[:] = pieces
            return segment_set(raw)

        monkeypatch.setattr(icm.setvalued, "segment_set", spy)
        emitted = 0
        for f, g in turn_rule_pairs:
            graph = pullback_graph(f, g)
            points = {a for a, b in raw if a == b}
            assert points == set(graph.isolated_points()), (f, g)
            emitted += len(points)
        assert emitted >= 1200

    def test_isolated_points_match_brute_force(self, turn_rule_pairs):
        found = 0
        for f, g in turn_rule_pairs:
            isolated = brute_isolated_points(f, g)
            assert set(pullback_graph(f, g).isolated_points()) == isolated, (
                f, g)
            found += len(isolated)
        assert found >= 1200


class TestIntegerCells:
    """The cell tests compare values as integers over the pair's common
    denominator L, and interpolate only crossings inside a piece."""

    def test_matches_reference(self, integer_scale_pairs):
        big = with_points = 0
        for f, g in integer_scale_pairs:
            graph = pullback_graph(f, g)
            assert graph.segments == reference_pullback_graph(f, g).segments, (
                f, g)
            L = math.lcm(*[y.denominator for m in (f, g) for _, y in m.points])
            big += L > 2**64
            with_points += bool(graph.isolated_points())
        assert big == 200 and with_points >= 60

    def test_only_crossings_inside_a_piece_are_interpolated(self,
                                                            monkeypatch):
        """On T4 and T2 every cell's lo and hi are ends of both pieces, so
        nothing is interpolated; against T2 squeezed onto [1/4, 3/4], only
        the values strictly inside T4's pieces are."""
        import icm.setvalued
        calls = []

        def spy(*args):
            calls.append(args)
            return _interpolate(*args)

        monkeypatch.setattr(icm.setvalued, "_interpolate", spy)
        for g in (tent(2), squeezed(tent(2), F(1, 4), F(3, 4))):
            assert pullback_graph(tent(4), g) == reference_pullback_graph(
                tent(4), g)
            assert all(s0 < s < s1 for s0, _, s1, _, s in calls)
            assert len(calls) == (0 if g == tent(2) else 16)


class TestGraphsEqual:
    def test_reflexive(self):
        a = pullback_graph(tent(4), tent(6))
        assert graphs_equal(a, a)

    def test_distinguishes_diagonal_from_cross(self):
        diag = polyline_set([(0, 0), (1, 1)])
        cross = segment_set([Segment((F(0), F(0)), (F(1), F(1))),
                             Segment((F(0), F(1)), (F(1), F(0)))])
        assert not graphs_equal(diag, cross)
        assert cross.covers(diag)

    def test_canonical_equality_agrees_with_two_way_covers(
            self, differential_mix):
        equal = 0
        for f, g, fwd, pull in differential_mix:
            same = graphs_equal(fwd, pull)
            assert same == (fwd.covers(pull) and pull.covers(fwd)), (f, g)
            assert strongly_commute(f, g) == same, (f, g)
            assert not same or commute(f, g), (f, g)
            equal += same
        assert equal >= 150

    def test_vertical_and_level_runs_merge(self):
        # y orders a vertical line's points and x a level line's; the
        # pieces come in no order, and one point lies on a vertical run
        half, third = F(1, 2), F(1, 3)
        raw = [Segment((half, F(3, 4)), (half, F(1))),
               Segment((F(1, 8), third), (F(1), third)),
               Segment((half, F(1, 4)), (half, half)),
               Segment((half, F(7, 8)), (half, F(7, 8))),
               Segment((half, F(0)), (half, F(1, 4))),
               Segment((F(0), third), (F(1, 4), third))]
        assert segment_set(raw).segments == (
            Segment((F(0), third), (F(1), third)),
            Segment((half, F(0)), (half, half)),
            Segment((half, F(3, 4)), (half, F(1))))

    def test_covers_segment_matches_run_containment(self):
        """A canonical set covers a proper segment exactly when one of its
        runs on the segment's line holds both ends, since other lines meet
        that line in single points; here the set is canonicalised from
        every other raw segment of a random raw list, and the segments
        come from the whole list."""
        rng = random.Random(20261024)
        outcomes = collections.Counter()
        for _ in range(600):
            raw = random_raw_list(rng)
            whole, part = segment_set(raw), segment_set(raw[::2])
            keyed = part._keyed()
            for s in whole:
                if s.is_point:
                    expected = part.contains_point(s.a)
                else:
                    expected = any(t.line_key() == s.line_key()
                                   and t.a <= s.a and s.b <= t.b
                                   for t in part.proper_segments())
                assert part.covers_segment(s, keyed) == expected, (part, s)
                outcomes[s.is_point, expected] += 1
            assert whole.covers(part)
        assert min(outcomes.values()) >= 100 and len(outcomes) == 4, outcomes

    def test_isolated_point_covers_no_gap(self):
        # the gap (10/7, 11/7) between two runs has its midpoint at an
        # isolated point of the set, which covers no piece of the gap
        level = F(4, 7)
        part = segment_set([Segment((F(2, 7), level), (F(10, 7), level)),
                            Segment((F(11, 7), level), (F(2), level)),
                            Segment((F(3, 2), level), (F(3, 2), level))])
        assert len(part.isolated_points()) == 1
        assert not part.covers_segment(Segment((F(1), level), (F(2), level)))
        assert part.covers_segment(Segment((F(3, 2), level), (F(3, 2), level)))

    def test_covers_segment_finds_its_own_keys(self):
        pull = pullback_graph(tent(4), tent(6))
        fwd = forward_graph(tent(4), tent(6))
        assert all(pull.covers_segment(s) for s in fwd)
        assert not all(fwd.covers_segment(s) for s in pull)


class TestIntegerGraphLayer:
    """The graph layer in integers and library-built segments, against the
    Fraction keys, grid polyline and coercing constructor it replaced."""

    def test_line_keys_match_fraction_keys(self, differential_mix):
        new_of_old, old_of_new = {}, {}
        for f, g, fwd, pull in differential_mix:
            vertices = [p for _, p in forward_polyline(f, g)]
            pieces = [Segment(a, b) for a, b in zip(vertices, vertices[1:])]
            for s in (*pieces, *fwd, *pull, *pull.reflected()):
                if s.is_point:
                    continue
                key, old = s.line_key(), fraction_line_key(s)
                assert all(type(c) is int for c in key), s
                assert math.gcd(*key) == 1, s
                assert key[0] > 0 or (key[0] == 0 and key[1] > 0), s
                # equal integer keys exactly when equal Fraction keys
                assert new_of_old.setdefault(old, key) == key, s
                assert old_of_new.setdefault(key, old) == old, s
        assert len(old_of_new) > 1000

    def test_merge_walk_polyline_matches_grid(self, differential_mix):
        for f, g, _, _ in differential_mix:
            for p, q in ((f, g), (g, f)):
                assert forward_polyline(p, q) == grid_polyline(p, q), (p, q)

    def test_library_segments_equal_public_ones(self, differential_mix):
        for _, _, fwd, pull in differential_mix:
            for s in (*fwd, *pull, *pull.reflected()):
                assert s == Segment(s.a, s.b) and s.a <= s.b, s
                assert all(type(c) is F for c in (*s.a, *s.b)), s


#: denominators for the random raw lists, from 1 to past 2^64 and 10^30
RAW_DENOMINATORS = (1, 2, 3, 4, 7, 12, 60, 2**31 - 1, 2**61 - 1,
                    10**20 + 39, 10**30 + 57)


def random_raw_list(rng):
    """A raw list built through Segment, in shuffled order: one to four
    lines (sloped, vertical or level), each with its own denominator d
    from RAW_DENOMINATORS and coordinates on the 1/d grid in [-1, 2], with
    one to five segments at whole steps along it, so that they overlap,
    touch, nest or lie apart, some of them twice; points at whole steps
    along the lines, on the runs or in their gaps, and off every line, some
    of them twice."""
    raw, points = [], []
    for _ in range(rng.randint(1, 4)):
        d = rng.choice(RAW_DENOMINATORS)
        grid = lambda lo, hi: F(rng.randint(lo * d, hi * d), d)
        x, y = grid(-1, 2), grid(-1, 2)
        shape = rng.randrange(4)  # sloped twice as often
        dx = F(0) if shape == 1 else F(rng.choice((-1, 1)) * rng.randint(1, 3), d)
        dy = F(0) if shape == 2 else F(rng.randint(-3, 3) or 1, d)
        at = lambda t: (x + t * dx, y + t * dy)
        for _ in range(rng.randint(1, 5)):
            t0, t1 = rng.sample(range(-4, 9), 2)
            raw += [Segment(at(t0), at(t1))] * rng.choice((1, 1, 2))
        points += [at(rng.randint(-6, 10)) for _ in range(rng.randint(0, 3))]
        points += [(grid(-1, 2), grid(-1, 2)) for _ in range(rng.randint(0, 1))]
    raw += [Segment(p, p) for p in points for _ in range(rng.choice((1, 1, 2)))]
    rng.shuffle(raw)
    return raw


def farey_neighbours(Q):
    """Two pairs of neighbours a/q < a'/q' in the Farey sequence of odd
    order Q, with a'q - aq' = 1, so that they differ by 1/(q·q') < 1/Q(Q-2):
    m/(2m + 1) < (m + 1)/(2m + 3) near 1/2 with 2m + 3 = Q, and
    1/Q < 1/(Q - 1) near 0."""
    m = (Q - 3) // 2
    pairs = [(F(m, Q - 2), F(m + 1, Q)), (F(1, Q), F(1, Q - 1))]
    for lo, hi in pairs:
        assert hi - lo == F(1, lo.denominator * hi.denominator)
    return pairs


@pytest.fixture(scope="module")
def tent_raw_lists():
    """The raw lists that forward_graph and pullback_graph hand to
    segment_set on all 169 tent pairs T2..T14 squared."""
    pairs = [(tent(n), tent(m)) for n in range(2, 15) for m in range(2, 15)]
    return captured_raw_lists(*(partial(build, f, g) for f, g in pairs
                                for build in (forward_graph, pullback_graph)))


class TestIntegerOrderKey:
    """segment_set on integer keys against the Fraction canonicalisation it
    replaced, at the bound of the key, and without Fraction comparisons."""

    def test_tent_pairs_match_reference(self, tent_raw_lists):
        assert len(tent_raw_lists) == 2 * 169
        for raw in tent_raw_lists:
            assert_same_canonical(raw)

    def test_differential_mix_matches_reference(self, differential_mix):
        for f, g, fwd, pull in differential_mix:
            raws = captured_raw_lists(partial(forward_graph, f, g),
                                      partial(pullback_graph, f, g),
                                      pull.reflected)
            assert len(raws) == 3
            for raw in (*raws, list(fwd), list(pull)):
                assert_same_canonical(raw)

    def test_random_raw_lists_match_reference(self):
        rng = random.Random(20261023)
        seen = collections.Counter()
        for _ in range(3000):
            raw = random_raw_list(rng)
            out = assert_same_canonical(raw)
            distinct = set(raw)
            points = {s for s in distinct if s.is_point}
            kept = {s for s in out if s.is_point}
            seen["uncovered points"] += len(kept)
            seen["covered points"] += len(points - kept)
            seen["repeats"] += len(raw) - len(distinct)
            seen["merges"] += len(distinct - points) > len(out) - len(kept)
            seen["vertical"] += any(s.a[0] == s.b[0] for s in out
                                    if not s.is_point)
            seen["level"] += any(s.a[1] == s.b[1] for s in out
                                 if not s.is_point)
            seen["outside"] += any(not 0 <= c <= 1 for s in raw
                                   for p in s for c in p)
            seen["huge"] += any(c.denominator == 10**30 + 57 for s in raw
                                for p in s for c in p)
        assert min(seen.values()) >= 300, seen

    @pytest.mark.parametrize("Q", [2**61 - 1, 10**30 + 57])
    def test_farey_neighbours_at_the_largest_denominator(self, Q):
        """Runs that end and start at neighbours, points at them, and a run
        against a point at its neighbouring end, along x (a level line),
        along y (a vertical line, whose x has denominator 3) and along both
        (the diagonal): every input is kept apart and in order."""
        third = F(1, 3)
        for lo, hi in farey_neighbours(Q):
            for at in (lambda u: (u, third), lambda u: (third, u),
                       lambda u: (u, u)):
                run_lo, run_hi = Segment(at(F(0)), at(lo)), Segment(at(hi),
                                                                    at(F(1)))
                point_lo, point_hi = (Segment(at(u), at(u)) for u in (lo, hi))
                for raw, expected in (
                        ([run_hi, run_lo], (run_lo, run_hi)),
                        ([point_hi, point_lo, point_hi], (point_lo, point_hi)),
                        ([point_hi, run_lo, point_lo], (run_lo, point_hi)),
                        ([run_hi, point_lo, point_hi], (point_lo, run_hi))):
                    assert segment_set(raw).segments == expected, (lo, raw)
                    assert_same_canonical(raw)

    def test_either_end_order_gives_the_same_set(self, tent_raw_lists,
                                                 differential_mix):
        """segment_set orients each piece itself: with the ends of every
        piece swapped, as a plain pair, a raw list gives the same tuple,
        with the same types, as it does as emitted."""
        raws = list(tent_raw_lists)
        for f, g, _, pull in differential_mix:
            raws += captured_raw_lists(partial(forward_graph, f, g),
                                       partial(pullback_graph, f, g),
                                       pull.reflected)
        rng = random.Random(20261025)
        raws += [random_raw_list(rng) for _ in range(3000)]
        descending = 0
        for raw in raws:
            emitted, swapped = segment_set(raw), segment_set(
                [(b, a) for a, b in raw])
            assert tuple(swapped) == tuple(emitted), raw
            assert shape(swapped) == shape(emitted), raw
            descending += sum(a > b for a, b in raw)
        assert len(raws) == 2 * 169 + 3 * 1156 + 3000
        assert descending > 10000, descending

    def test_no_fraction_comparison_or_hash(self, tent_raw_lists, monkeypatch):
        calls = collections.Counter()
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__",
                     "_richcmp", "__hash__"):
            def counted(*args, _name=name, _method=getattr(F, name)):
                calls[_name] += 1
                return _method(*args)
            monkeypatch.setattr(F, name, counted)
        assert F(1, 2) < F(2, 3) and hash(F(1, 2)) == hash(F(2, 4))
        assert calls == {"__lt__": 1, "_richcmp": 1, "__hash__": 2}
        calls.clear()
        for raw in tent_raw_lists:
            segment_set(raw)
        assert not calls, calls


class TestIncidence:
    """Incidence by lexicographic order along a line and integer line keys,
    against the box, cross-product and parametric rules it replaced."""

    def test_contains_point_matches_box_rule(self):
        rng = random.Random(1414)
        grid = lambda: F(rng.randint(0, 6), 6)
        seen = dict.fromkeys(["end", "inside", "on the line, outside",
                              "off the line"], 0)
        for _ in range(1500):
            shape = rng.randrange(4)  # any, vertical, horizontal, a point
            a = (grid(), grid())
            b = (a[0] if shape in (1, 3) else grid(),
                 a[1] if shape in (2, 3) else grid())
            s = Segment(a, b)
            d = (s.b[0] - s.a[0], s.b[1] - s.a[1])
            tries = [s.a, s.b, (grid(), grid())]
            for t in (F(-1, 2), F(1, 3), F(3, 2)):
                on = (s.a[0] + t * d[0], s.a[1] + t * d[1])
                # on the line, and just above it and just left of it
                tries += [on, (on[0], on[1] + F(1, 997)),
                          (on[0] - F(1, 991), on[1])]
            for p in tries:
                got = s.contains_point(p)
                assert got == box_contains_point(s, p), (s, p)
                seen["end" if p in (s.a, s.b) else "inside" if got
                     else "on the line, outside" if _cross(s.a, s.b, p) == 0
                     and not s.is_point else "off the line"] += 1
        assert all(count > 500 for count in seen.values()), seen

    def test_pair_intersection_matches_parametric_rule(self):
        rng = random.Random(1415)
        grid = lambda: F(rng.randint(0, 4), 4)
        seen = dict.fromkeys(["overlap", "touching", "collinear disjoint",
                              "parallel", "crossing", "T-junction",
                              "shared vertex", "apart"], 0)
        for _ in range(6000):
            a, b, c, d = ((grid(), grid()) for _ in range(4))
            on_ab = lambda t: (a[0] + t * (b[0] - a[0]),
                               a[1] + t * (b[1] - a[1]))
            if rng.random() < 0.5:  # d, and maybe c, on the line ab
                d = on_ab(F(rng.randint(-4, 8), 4))
                if rng.random() < 0.5:
                    c = on_ab(F(rng.randint(-4, 8), 4))
            if a == b or c == d:
                continue
            p, q = Segment(a, b), Segment(c, d)
            kp, kq = p.line_key(), q.line_key()
            got = _segment_pair_intersection(p, q, kp, kq)
            assert got == parametric_intersection(p, q), (p, q)
            assert got is None or all(type(v) is F
                                      for pt in got[1:] for v in pt)
            ends = {p.a, p.b} & {q.a, q.b}
            if kp == kq:
                kind = ("overlap" if got and got[0] == "overlap"
                        else "touching" if got else "collinear disjoint")
            elif kp[0] * kq[1] == kp[1] * kq[0]:
                kind = "parallel"
            elif got is None:
                kind = "apart"
            elif got[1] in ends:
                kind = "shared vertex"
            elif got[1] in (p.a, p.b, q.a, q.b):
                kind = "T-junction"
            else:
                kind = "crossing"
            seen[kind] += 1
        assert all(count > 100 for count in seen.values()), seen

    def test_coincidences_match_parametric_reference(self, differential_mix):
        compared = 0
        for f, g, _, _ in differential_mix:
            if len(f.points) < 20:
                assert parametrization_coincidences(f, g) == \
                    reference_coincidences(f, g), (f, g)
                compared += 1
        assert compared > 1000


class TestTupleSegment:
    """Segment as the tuple of its ends, against the frozen dataclass it was."""

    def test_matches_dataclass_segment(self):
        rng = random.Random(2020)
        grid = lambda: F(rng.randint(0, 6), 6)
        ends = []
        for _ in range(300):
            shape = rng.randrange(4)  # any, vertical, horizontal, a point
            a = (grid(), grid())
            ends.append((a, (a[0] if shape in (1, 3) else grid(),
                             a[1] if shape in (2, 3) else grid())))
        new = [Segment(a, b) for a, b in ends]
        old = [DataclassSegment(a, b) for a, b in ends]
        for s, r in zip(new, old):
            assert (s.a, s.b, s.is_point) == (r.a, r.b, r.is_point), s
            assert s == (r.a, r.b) and len(s) == 2 and list(s) == [r.a, r.b]
            if not r.is_point:
                assert s.line_key() == r.line_key(), s
            mid = ((r.a[0] + r.b[0]) / 2, (r.a[1] + r.b[1]) / 2)
            for p in (r.a, r.b, mid, (grid(), grid()),
                      (F(rng.randint(0, 12), 12), F(rng.randint(0, 12), 12))):
                assert s.contains_point(p) == r.contains_point(p), (s, p)
        for s, r in zip(new, old):
            for t, q in zip(new, old):
                assert (s == t, s < t) == (r == q, r < q), (s, t)
        assert [(s.a, s.b) for s in sorted(new)] == \
            [(r.a, r.b) for r in sorted(old)]
        classes = hash_classes(new)
        assert classes == hash_classes(old)
        assert len(classes) < len(new)  # some segments repeat
        assert sum(s.is_point for s in new) > 50
        # a canonical set is sorted in the dataclass order
        canonical = [DataclassSegment(s.a, s.b) for s in segment_set(new)]
        assert canonical == sorted(canonical)

    def test_point_has_no_line_key(self):
        with pytest.raises(DomainError, match="no supporting line"):
            Segment((0, 0), (0, 0)).line_key()
        with pytest.raises(DomainError):
            Segment((F(1, 3), 1), ("1/3", F(1))).line_key()

    def test_copy_and_pickle_round_trip(self):
        """Every public value type, built by the library, comes back equal
        and of its own type from copy, deepcopy and every pickle protocol,
        with its repr, equality and hash pinned."""
        s = Segment((F(1, 2), 1), (0, F(1, 3)))
        graph = pullback_graph(*hat_demo_pair())
        assert graph.isolated_points() and graph.proper_segments()
        clones = [copy.copy, copy.deepcopy]
        clones += [lambda x, p=p: pickle.loads(pickle.dumps(x, p))
                   for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            t = clone(s)
            assert type(t) is Segment and t == s, t
            assert (t.a, t.b) == ((0, F(1, 3)), (F(1, 2), 1)), t
            h = clone(graph)
            assert h == graph and all(type(u) is Segment for u in h), h
        values = value_types()
        exported = {t.__name__ for t in map(icm.__dict__.get, icm.__all__)
                    if isinstance(t, type)
                    and not issubclass(t, (Exception, Fraction))}
        assert exported <= {type(v).__name__ for v, _ in values}
        for v, expected in values:
            assert repr(v) == expected
            # a record or sequence equals and hashes as the plain tuple of
            # its fields or items, a map hashes as the one-tuple of its
            # breakpoints and equals no tuple
            fields = (v.points,) if isinstance(v, PLMap) else tuple(v)
            assert (v == fields) is not isinstance(v, PLMap)
            assert hash(v) == hash(fields), v
            for clone in clones:
                w = clone(v)
                assert type(w) is type(v) and w == v and hash(w) == hash(v)
                # a frozenset's repr follows the order its items came in
                assert repr(w) == expected or type(w).__name__ == "GridSample"
        for (v, _), (w, _) in zip(values, values[1:]):
            assert v != w
        assert tent(3) != tent(5) and tent(3) == make_plmap(tent(3).points)
        f, g = invariant_chain_pair()
        report = verify_decomposition(f, g, decompose(f, g))
        for clone in clones:
            copied = clone(report)
            assert type(copied) is Report and copied.checks == report.checks


def value_types():
    """One value of each public value type from a library call, with the
    repr it has."""
    fr = "Fraction({}, {})".format
    unit = f"Interval(lo={fr(0, 1)}, hi={fr(1, 1)})"
    info = (f"RestrictionInfo(tag='open-non-monotone', image={unit}, "
            f"codomain={unit})")
    block = (f"BlockInfo(interval={unit}, restrictions=(('f', {info}), "
             f"('g', {info})))")
    glued = make_plmap([(0, 0), ("1/2", "1/2"), ("2/3", 1), ("5/6", "1/2"),
                        (1, 1)])
    D = decompose(tent(3), tent(4))
    sample = sample_pullback(tent(2), tent(3), 2)
    return [
        (interval("1/3", "1/2"), f"Interval(lo={fr(1, 3)}, hi={fr(1, 2)})"),
        (tent(3).critical_points(),
         f"CriticalSet(entries=(({fr(1, 3)}, 'max'), ({fr(2, 3)}, 'min')))"),
        (glued.fixed_points(),
         f"FixedSet(isolated=({fr(3, 4)}, {fr(1, 1)}), segments=("
         f"Interval(lo={fr(0, 1)}, hi={fr(1, 2)}),))"),
        (Segment((1, "2/3"), (0, 0)),
         f"(({fr(0, 1)}, {fr(0, 1)}), ({fr(1, 1)}, {fr(2, 3)}))"),
        (pullback_graph(tent(2), tent(3)),
         f"SegmentSet(segments=((({fr(0, 1)}, {fr(0, 1)}), "
         f"({fr(1, 1)}, {fr(2, 3)})), (({fr(0, 1)}, {fr(2, 3)}), "
         f"({fr(1, 2)}, {fr(1, 1)})), (({fr(0, 1)}, {fr(2, 3)}), "
         f"({fr(1, 1)}, {fr(0, 1)})), (({fr(1, 2)}, {fr(1, 1)}), "
         f"({fr(1, 1)}, {fr(2, 3)}))))"),
        (hats(*hat_demo_pair())[0],
         f"GraphFeature(location=({fr(1, 3)}, {fr(0, 1)}), kind='hat')"),
        (profile(tent(2), tent(3)),
         "Profile(hat_counts=(1,), endpoint_counts=(1, 1), total_hats=1, "
         "total_endpoints=2, has_end_hat=False, chain_sums=(2, 2), "
         "chain_holds=True, count_bound_holds=True, "
         "parity_bound_holds=True)"),
        (primary_critical_values(tent(3)),
         f"PrimaryValues(values=({fr(0, 1)}, {fr(1, 1)}), start_index=1, "
         f"exacting=({fr(0, 1)}, {fr(1, 1)}), orientation='preserving')"),
        (D.blocks[0].get("f"), info),
        (D.blocks[0], block),
        (D, f"Decomposition(points=({fr(0, 1)}, {fr(1, 1)}), case='a', "
            f"reverser=None, blocks=({block},))"),
        (entropy_lap(tent(3), 3),
         "LapSequence(laps=((1, 3), (2, 9), (3, 27)), "
         "estimate=1.0986122886681098)"),
        (markov_partition(tent(3)),
         f"MarkovData(partition=({fr(0, 1)}, {fr(1, 3)}, {fr(2, 3)}, "
         f"{fr(1, 1)}), matrix=((1, 1, 1), (1, 1, 1), (1, 1, 1)), "
         f"spectral_radius=3.0, radius_error=0.0)"),
        (sample, f"GridSample(resolution=2, points={sample.points!r})"),
        (verify_decomposition(tent(3), tent(4), D).checks[0],
         "Check(name='partition', passed=True, detail=\"points=['0', '1']\")"),
        (tent(3), f"PLMap(points=(({fr(0, 1)}, {fr(0, 1)}), "
                  f"({fr(1, 3)}, {fr(1, 1)}), ({fr(2, 3)}, {fr(0, 1)}), "
                  f"({fr(1, 1)}, {fr(1, 1)})))"),
    ]


class TestCommutation:
    def test_tents_commute(self):
        assert commute(tent(2), tent(3))

    def test_non_commuting_witness(self):
        g = make_plmap([(0, 0), ("1/2", 1), (1, "1/2")])
        assert not commute(tent(2), g)
        assert compose(tent(2), g)(1) != compose(g, tent(2))(1)

    def test_self_commutes(self):
        f, _ = invariant_chain_pair()
        assert commute(f, f)

    def test_strong_goldens(self):
        assert strongly_commute(tent(3), tent(4))
        assert not strongly_commute(tent(2), tent(2))
        assert strongly_commute(*invariant_chain_pair())
        assert strongly_commute(*block_swap_pair())
        assert strongly_commute(*double_reversal_pair())
        # non-commuting pairs, decided by the graphs alone
        assert not strongly_commute(*hat_demo_pair())
        assert not strongly_commute(
            tent(2), make_plmap([(0, 0), ("1/2", 1), (1, "1/2")]))

    def test_forward_inside_pullback_for_commuting(self, commuting_corpus):
        for name, f, g in commuting_corpus:
            assert commute(f, g), name
            assert pullback_graph(f, g).covers(forward_graph(f, g)), name


class TestHats:
    def test_hat_demo_contains_known_hat(self):
        f, g = hat_demo_pair()
        locations = {h.location for h in hats(f, g)}
        assert (F(1, 3), F(1, 3)) in locations
        assert locations == {(F(1, 3), F(1, 3)), (F(1, 3), F(0))}

    def test_tent34(self):
        assert {h.location for h in hats(tent(3), tent(4))} == {
            (F(2, 3), F(0)), (F(2, 3), F(1))}

    def test_monotone_first_map_has_none(self):
        assert hats(identity_map(), tent(2)) == []

    def test_end_hat_detected(self):
        f = make_plmap([(0, "1/8"), ("1/2", "1/4"), (1, "1/8")])
        g = make_plmap([(0, "1/2"), ("1/4", 0), ("1/2", 1), ("3/4", 0),
                        (1, "1/2")])
        found = hats(f, g)
        end_hats = [h for h in found if h.kind == "end-hat"]
        assert [h.location for h in end_hats] == [(F(1, 2), F(1, 8))]
        assert all(h.kind == "hat" for h in found if h not in end_hats)

    def test_hats_lie_on_pullback_graph(self):
        rng = random.Random(12)
        for _ in range(20):
            f, g = random_onto_map(rng), random_onto_map(rng)
            graph = pullback_graph(f, g)
            for h in hats(f, g):
                assert graph.contains_point(h.location)

    def test_bounded_by_cap(self, monkeypatch):
        # 2 critical points of T3 times 4 pieces of T4: at most 8 hats
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "8")
        assert len(hats(tent(3), tent(4))) == 2
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "7")
        with pytest.raises(ResourceError,
                           match="hats need up to 8 points, above the cap 7"):
            hats(tent(3), tent(4))

    def test_many_hats_raise_before_building(self, monkeypatch):
        # 100 critical values, each with 101 non-critical T101-preimages
        f, g = alternating_map(100), tent(101)
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "1000")
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="10100 points"):
                hats(f, g)
            with pytest.raises(ResourceError, match="10100 points"):
                profile(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10

    def test_hat_second_coordinate_is_strict_extremum(self):
        rng = random.Random(13)
        cases = [hat_demo_pair(), (tent(3), tent(4)), invariant_chain_pair()]
        cases += [(random_onto_map(rng), random_onto_map(rng))
                  for _ in range(25)]
        for f, g in cases:
            graph = pullback_graph(f, g)
            for h in hats(f, g):
                x, y = h.location
                signs = set()
                for s in graph.proper_segments():
                    if not s.contains_point(h.location):
                        continue
                    for end in (s.a, s.b):
                        if end == h.location:
                            continue
                        mid_y = (y + end[1]) / 2
                        signs.add(1 if mid_y > y else (-1 if mid_y < y else 0))
                assert signs <= {1} or signs <= {-1}


class TestEndpoints:
    def test_hat_demo_exact(self):
        f, g = hat_demo_pair()
        assert {e.location for e in endpoints(f, g)} == {
            (F(1, 6), F(1)), (F(1, 2), F(1)), (F(7, 9), F(1)), (F(8, 9), F(0))}

    def test_tent34(self):
        feats = endpoints(tent(3), tent(4))
        assert {e.location for e in feats} == {(F(0), F(0)), (F(0), F(1))}
        assert all(e.kind == "endpoint-a" for e in feats)

    def test_identity_pair_corners(self):
        feats = endpoints(identity_map(), identity_map())
        assert {e.location for e in feats} == {(F(0), F(0)), (F(1), F(1))}
        assert all(e.kind == "endpoint-a" for e in feats)


class TestProfile:
    def test_tent34(self):
        prof = profile(tent(3), tent(4))
        assert prof.hat_counts == (0, 2)
        assert prof.endpoint_counts == (2, 0, 0)
        assert prof.total_endpoints == 2
        assert prof.total_hats == 2

    def test_hat_demo_counts(self):
        f, g = hat_demo_pair()
        prof = profile(f, g)
        assert prof.total_hats == 2
        assert prof.total_endpoints == 4

    def test_requires_onto(self):
        narrow = make_plmap([(0, 0), (1, "1/2")])
        with pytest.raises(PreconditionError):
            profile(narrow, tent(2))

    def test_counting_chain_for_random_onto_pairs(self):
        rng = random.Random(14)
        for _ in range(100):
            f, g = random_onto_map(rng), random_onto_map(rng)
            prof = profile(f, g)
            assert prof.chain_holds, (f, g, prof.chain_sums)
            assert prof.parity_bound_holds


class TestCoincidences:
    def test_tent32_crossing(self):
        pts, overlaps = parametrization_coincidences(tent(3), tent(2))
        assert pts == [(F(1, 3), F(1, 2))]
        assert overlaps == []

    def test_self_pair_retraces(self):
        _, overlaps = parametrization_coincidences(tent(2), tent(2))
        assert overlaps

    def test_bounded_by_cap(self, monkeypatch):
        # the polyline of T3, T4 has 6 pieces: 15 pairs
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "15")
        pts, overlaps = parametrization_coincidences(tent(3), tent(4))
        assert (len(pts), overlaps) == (3, [])
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "14")
        with pytest.raises(ResourceError,
                           match="15 segment pairs, above the cap 14"):
            parametrization_coincidences(tent(3), tent(4))


class TestStrongConsequences:
    def test_corpus_passes(self, strongly_commuting_corpus):
        for name, f, g in strongly_commuting_corpus:
            report = verify_strong_consequences(f, g)
            assert report.passed, f"{name}: {report.failures()}"

    def test_rejects_weakly_commuting(self):
        with pytest.raises(PreconditionError):
            verify_strong_consequences(tent(2), tent(2))

    def test_swapped_roles_count_other_critical_set(self, strongly_commuting_corpus):
        for name, f, g in strongly_commuting_corpus[:12]:
            assert len(hats(f, g)) == len(f.critical_points()), name
            assert len(hats(g, f)) == len(g.critical_points()), name
