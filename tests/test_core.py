"""PL map construction, evaluation, composition, preimages, fixed points."""

import bisect
import importlib
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icm import (DEFAULT_BREAKPOINT_CAP, FULL, DomainError, FixedSet,
                 Interval, PLMap, ResourceError, compose, conjugate,
                 identity_map, interval, iterate, make_plmap, rat, tent)
from icm.core import (CriticalSet, _interpolate, _turns,
                      invert_homeomorphism)
from conftest import (conjugated_tent_pair, fraction_straight, hat_demo_pair,
                      invariant_chain_pair, lap_growth_giveup_maps,
                      random_diagonal_map, random_homeo, random_into_map,
                      random_onto_map)

F = Fraction
decompose_module = importlib.import_module("icm.decompose")
core_module = importlib.import_module("icm.core")


@st.composite
def plmaps(draw, max_interior=4, denom=24):
    k = draw(st.integers(0, max_interior))
    xs = sorted(draw(st.lists(st.integers(1, denom - 1), min_size=k,
                              max_size=k, unique=True)))
    ys = draw(st.lists(st.integers(0, denom), min_size=k + 2, max_size=k + 2))
    for i in range(1, len(ys)):
        if ys[i] == ys[i - 1]:
            ys[i] = (ys[i] + 1) % (denom + 1)
            if ys[i] == ys[i - 1]:
                ys[i] = (ys[i] + 2) % (denom + 1)
    points = [(F(0), F(ys[0], denom))]
    points += [(F(x, denom), F(y, denom)) for x, y in zip(xs, ys[1:-1])]
    points.append((F(1), F(ys[-1], denom)))
    return PLMap(tuple(points))


class TestConstruction:
    def test_interval_coerces_and_checks(self):
        for J in (Interval("1/3", 1), Interval(hi=1, lo=F(1, 3)),
                  interval("1/3", "1")):
            assert J == (F(1, 3), F(1)) and type(J) is Interval
            assert all(type(end) is F for end in J)
        for lo, hi in ((1, 0), (-1, 0), (0, 2), (0.5, 1)):
            with pytest.raises(DomainError):
                Interval(lo, hi)

    def test_tent_two(self):
        assert tent(2).points == ((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0)))

    def test_tent_three_breakpoints(self):
        assert tent(3) == make_plmap([(0, 0), ("1/3", 1), ("2/3", 0), (1, 1)])

    def test_tent_needs_two_branches(self):
        with pytest.raises(DomainError):
            tent(1)

    def test_tent_cap_checked_before_building(self, monkeypatch):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                tent(DEFAULT_BREAKPOINT_CAP + 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "6")
        assert len(tent(5).points) == 6
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "5")
        with pytest.raises(ResourceError):
            tent(5)

    def test_collinear_merge_gives_identity(self):
        merged = make_plmap([(0, 0), ("1/2", "1/2"), (1, 1)])
        assert merged == identity_map()
        assert len(merged.points) == 2

    def test_constant_piece_rejected(self):
        with pytest.raises(DomainError):
            make_plmap([(0, 0), ("1/2", 0), (1, 1)])

    def test_bad_range_rejected(self):
        with pytest.raises(DomainError):
            make_plmap([(0, 0), ("1/2", 1)])
        with pytest.raises(DomainError):
            make_plmap([(0, 0), (1, 2)])
        with pytest.raises(DomainError):
            make_plmap([(0, 0), ("1/2", 1), ("1/2", 0), (1, 1)])

    def test_floats_rejected(self):
        with pytest.raises(DomainError):
            rat(0.5)

    def test_strings_follow_the_pwl_grammar(self):
        assert [rat(s) for s in ("2/3", "-4", "0", "6/4")] == [
            F(2, 3), F(-4), F(0), F(3, 2)]
        for text in ("0.5", "1e-1", " 1/2", "1/2\n", "+1", "1/-2", "1 / 2",
                     "", "a/b"):
            with pytest.raises(DomainError, match="not an integer or a/b"):
                rat(text)
        with pytest.raises(DomainError, match="zero denominator"):
            rat("1/0")
        # Python 3.11+ refuses to convert longer digit strings to int.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            digits = "7" * (limit + 1)
            for text in (digits, "-" + digits, "1/" + digits, digits + "/3"):
                with pytest.raises(DomainError, match="too many digits"):
                    rat(text)

    def test_merge_matches_cross_product_reference(self):
        # Values on a coarse grid, so that collinear runs, turns and
        # same-direction bends all occur.
        def reference(points):
            merged = list(points[:2])
            for p in points[2:]:
                (x0, y0), (x1, y1) = merged[-2], merged[-1]
                if (y1 - y0) * (p[0] - x1) == (p[1] - y1) * (x1 - x0):
                    merged[-1] = p
                else:
                    merged.append(p)
            return tuple(merged)

        rng = random.Random(880)
        merges = bends = 0
        for _ in range(4000):
            k = rng.randint(1, 8)
            xs = [0, *sorted(rng.sample(range(1, 12), k)), 12]
            ys = [rng.randint(0, 4)]
            while len(ys) < len(xs):
                y = rng.randint(0, 4)
                if y != ys[-1]:
                    ys.append(y)
            points = tuple((F(x, 12), F(y, 4)) for x, y in zip(xs, ys))
            expected = reference(points)
            assert PLMap(points).points == expected
            merges += len(points) - len(expected)
            bends += sum((a[1] < b[1]) == (b[1] < c[1])
                         for a, b, c in zip(expected, expected[1:],
                                            expected[2:]))
        assert merges > 500 and bends > 500


class TestEval:
    def test_tent4_off_grid(self):
        assert tent(4)(rat("1/3")) == F(2, 3)

    def test_tent3_right_endpoint(self):
        assert tent(3)(1) == 1

    def test_identity(self):
        assert identity_map()(rat("7/13")) == F(7, 13)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            tent(2)(rat("3/2"))


class TestCriticalPoints:
    def test_tent4_alternating(self):
        assert tent(4).critical_points().entries == (
            (F(1, 4), "max"), (F(1, 2), "min"), (F(3, 4), "max"))

    def test_identity_has_none(self):
        assert len(identity_map().critical_points()) == 0

    def test_hat_demo_f(self):
        f, _ = hat_demo_pair()
        assert f.critical_points().entries == ((F(1, 3), "max"), (F(2, 3), "min"))

    def test_tent6_count(self):
        assert len(tent(6).critical_points()) == 5

    def test_membership_by_value(self):
        crit = tent(6).critical_points()
        for i in range(13):
            x = F(i, 12)
            assert (x in crit) == any(x == p for p, _ in crit.entries), x
        assert 1 not in crit and F(1, 6) in crit
        assert crit == type(crit)(crit.entries)
        assert repr(crit) == f"CriticalSet(entries={crit.entries!r})"

    def test_noncritical_breakpoints_ignored(self):
        f = make_plmap([(0, 0), ("1/4", "1/2"), (1, 1)])
        assert len(f.critical_points()) == 0


def _reference_grid(f, g):
    """The sorted set of g's breakpoints and the g-preimages of f's
    interior breakpoints."""
    xs = set(g.xs)
    for b in f.xs[1:-1]:
        xs.update(g.preimage_point(b))
    return sorted(xs)


def _compose_reference(f, g, cap=None):
    """f ∘ g on the reference grid, each point evaluated through both maps."""
    grid = _reference_grid(f, g)
    if cap is not None and len(grid) > cap:
        raise ResourceError(
            f"composition needs {len(grid)} breakpoints, above the cap {cap}")
    return PLMap(tuple((x, f(g(x))) for x in grid))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).points
    except ResourceError as err:
        return str(err)


def _walk_corpus(rng):
    """Tents, onto and into maps on four grids, and conjugated tents."""
    maps = [tent(n) for n in range(2, 10)]
    for denom in (6, 7, 12, 30):
        maps += [random_onto_map(rng, denom=denom) for _ in range(5)]
        maps += [random_into_map(rng, denom=denom) for _ in range(5)]
    maps += [conjugated_tent_pair(rng, rng.randint(2, 5),
                                  rng.randint(2, 5))[i % 2]
             for i in range(8)]
    return maps


def _grid_map(rng, denom):
    """A map on the 1/denom grid with up to 5 interior breakpoints, drawn
    from points that may be straight; homeomorphisms occur too."""
    while True:
        xs = sorted(rng.sample(range(1, denom), rng.randint(0, 5)))
        ys = [rng.randint(0, denom) for _ in range(len(xs) + 2)]
        if all(a != b for a, b in zip(ys, ys[1:])):
            return PLMap(tuple((F(x, denom), F(y, denom))
                               for x, y in zip([0, *xs, denom], ys)))


def _assert_canonical(m):
    """m is what the validating constructor makes of its own points."""
    ref = PLMap(m.points)
    assert m.points == ref.points and m._xs == ref._xs
    assert type(m.points) is tuple and type(m._xs) is tuple
    assert all(type(v) is F for p in m.points for v in p)


class TestCompose:
    def test_matches_reference_walk(self, monkeypatch):
        rng = random.Random(4410)
        maps = _walk_corpus(rng)
        for _ in range(8):
            f, k = random_onto_map(rng, max_interior=2, denom=6), rng.randint(2, 4)
            fk = f
            for _ in range(k - 1):
                fk = _compose_reference(f, fk)
            assert iterate(f, k).points == fk.points
            maps.append(fk)
        for case in range(600):
            f, g = rng.choice(maps), rng.choice(maps)
            expected = _compose_reference(f, g)
            assert compose(f, g).points == expected.points
            if case % 3 == 0:
                for cap in range(1, len(_reference_grid(f, g)) + 1):
                    monkeypatch.setenv("ICM_BREAKPOINT_CAP", str(cap))
                    assert (_outcome(compose, f, g)
                            == _outcome(_compose_reference, f, g, cap=cap))
                monkeypatch.delenv("ICM_BREAKPOINT_CAP")

    def test_cap_checked_before_building(self, monkeypatch):
        f = tent(100)
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "1000")
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="needs 10001 breakpoints"):
                compose(f, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10

    def test_tent_product_law(self):
        assert compose(tent(2), tent(2)) == tent(4)
        assert compose(tent(2), tent(3)) == tent(6)
        assert compose(tent(3), tent(2)) == tent(6)

    def test_tent_product_law_full_range(self):
        for n in range(2, 11):
            for m in range(2, 11):
                assert compose(tent(n), tent(m)) == tent(n * m)

    def test_identity_neutral(self):
        f, _ = invariant_chain_pair()
        assert compose(identity_map(), f) == f
        assert compose(f, identity_map()) == f

    @settings(max_examples=40, deadline=None)
    @given(plmaps(), plmaps(), plmaps())
    def test_associative(self, f, g, h):
        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    @settings(max_examples=40, deadline=None)
    @given(plmaps(), plmaps())
    def test_pointwise(self, f, g):
        fg = compose(f, g)
        for i in range(0, 25):
            x = F(i, 24)
            assert fg(x) == f(g(x))


class TestLibraryBuiltMaps:
    """Maps that the library builds skip validation; each must be exactly
    what the validating constructor makes of its points."""

    def test_compose_iterate_conjugate_on_the_walk_corpus(self):
        rng = random.Random(4410)
        maps = _walk_corpus(rng)
        for m in maps:
            _assert_canonical(m)
        for _ in range(300):
            _assert_canonical(compose(rng.choice(maps), rng.choice(maps)))
        for f in maps[8:48:4]:
            for k in (2, 3):
                _assert_canonical(iterate(f, k))
        for _ in range(20):
            h = random_homeo(rng, decreasing=rng.random() < 0.5)
            _assert_canonical(conjugate(rng.choice(maps), h))

    def test_compose_on_random_grid_pairs(self):
        rng = random.Random(1313)
        for _ in range(5000):
            f = _grid_map(rng, rng.choice((6, 7, 8, 12, 16)))
            g = _grid_map(rng, rng.choice((6, 7, 8, 12, 16)))
            _assert_canonical(compose(f, g))

    def test_compose_drops_straight_breakpoints_of_g(self):
        # Every breakpoint of h is straight in (f ∘ h⁻¹) ∘ h = f, and f's
        # own breakpoints come in as points inside the pieces of h.
        rng = random.Random(1314)
        dropped = 0
        for _ in range(400):
            f = _grid_map(rng, rng.choice((6, 8, 12)))
            h = random_homeo(rng, max_interior=4, decreasing=rng.random() < 0.5)
            f_h = compose(f, invert_homeomorphism(h))
            back = compose(f_h, h)
            _assert_canonical(back)
            assert back == f
            dropped += len(_reference_grid(f_h, h)) - len(back.points)
        assert dropped > 600

    def test_inverse_restriction_and_mirror(self, monkeypatch):
        rng = random.Random(7)
        for i in range(200):
            h = random_homeo(rng, max_interior=5, decreasing=i % 2 == 1)
            inverse = invert_homeomorphism(h)
            _assert_canonical(inverse)
            assert compose(inverse, h) == identity_map()
        mirrored = []
        monkeypatch.setattr(decompose_module, "_has_invariant_prefix",
                            lambda m: mirrored.append(m) or False)
        restricted = 0
        for _ in range(200):
            f = random_onto_map(rng, denom=rng.choice((6, 8, 12)))
            decompose_module._has_invariant_suffix(f)
            for a in range(12):
                for b in range(a + 1, 13):
                    J = interval(F(a, 12), F(b, 12))
                    if J.contains_interval(f.image(J)):
                        _assert_canonical(f.restrict_to_unit(J))
                        restricted += 1
        assert restricted > 200
        assert len(mirrored) == 200
        for m in mirrored:
            _assert_canonical(m)


# -- the exact rank ---------------------------------------------------------------
# The Fraction-`bisect` search that `PLMap._rank` replaced, kept as the
# reference for it: the segment lookups, `__call__`, `compose` (with its
# merge test at every interior breakpoint of g) and `is_open_on`.

def _segment_right_reference(f, x):
    """Index of the segment covering [x, x+eps)."""
    i = bisect.bisect_right(f.xs, x) - 1
    return min(max(i, 0), len(f.points) - 2)


def _segment_left_reference(f, x):
    """Index of the segment covering (x-eps, x]."""
    i = bisect.bisect_left(f.xs, x) - 1
    return min(max(i, 0), len(f.points) - 2)


def _call_reference(f, x):
    x = rat(x)
    if not (0 <= x <= 1):
        raise DomainError(f"argument {x} outside [0, 1]")
    i = _segment_right_reference(f, x)
    (x0, y0), (x1, y1) = f.points[i], f.points[i + 1]
    return _interpolate(x0, y0, x1, y1, x)


def _compose_bisect_reference(f, g):
    fxs, fpts = f.xs, f.points
    runs = []
    for (_, y0), (_, y1) in g.segments():
        j0 = bisect.bisect_right(fxs, min(y0, y1))
        j1 = bisect.bisect_left(fxs, max(y0, y1))
        runs.append((j0 - 1, range(j0, j1)) if y0 < y1
                    else (j1 - 1, range(j1 - 1, j0 - 1, -1)))
    out, starts = [], []
    for ((x0, y0), (x1, y1)), (i, run) in zip(g.segments(), runs):
        (u0, v0), (u1, v1) = fpts[i], fpts[i + 1]
        starts.append(len(out))
        out.append((x0, _interpolate(u0, v0, u1, v1, y0)))
        for j in run:
            b, v = fpts[j]
            out.append((_interpolate(y0, x0, y1, x1, b), v))
    x, y = g.points[-1]
    out.append((x, _call_reference(f, y)))
    straight = {k for k in starts[1:]
                if fraction_straight(out[k - 1], out[k], out[k + 1])}
    return [p for k, p in enumerate(out) if k not in straight]


def _is_open_on_reference(f, J, K):
    for c, kind in f.critical_points():
        if J.lo < c < J.hi:
            v = _call_reference(f, c)
            if v != (K.hi if kind == "max" else K.lo):
                return False
    i = _segment_right_reference(f, J.lo)
    first_up = f.points[i][1] < f.points[i + 1][1]
    if _call_reference(f, J.lo) != (K.lo if first_up else K.hi):
        return False
    i = _segment_left_reference(f, J.hi)
    last_up = f.points[i][1] < f.points[i + 1][1]
    return _call_reference(f, J.hi) == (K.hi if last_up else K.lo)


TINY = F(1, 2**70)  # 64 times closer than the keys resolve
DYADIC = F(2**62 + 5, 2**64)  # a breakpoint whose key is exact


def _clustered_maps():
    """Maps with runs of breakpoints closer than 2^-64: four sharing one
    key at 1/3, and three across the key boundary at DYADIC."""
    third = F(1, 3)
    near = [third + k * TINY for k in range(4)]
    edge = [DYADIC - TINY, DYADIC, DYADIC + TINY]
    maps = []
    for run, lo, hi in ((near, F(1, 5), F(1, 2)), (edge, F(1, 8), F(1, 2))):
        for ys in ([0, *(F(k + 1, 7) for k in range(len(run))), 1],
                   [1, *(F(1 - k % 2, 2) + F(k, 9) for k in range(len(run))),
                    0]):
            maps.append(PLMap(tuple(zip([F(0), *run, F(1)], map(F, ys)))))
        maps.append(PLMap(((F(0), F(0)), (lo, run[0]), (hi, run[-1]),
                           (F(1), F(1)))))
    # values at the clustered breakpoints, between them and around them
    values = [*near, *edge, third + TINY / 2, third + 5 * TINY / 2,
              DYADIC - TINY / 3, DYADIC + TINY / 2, third - TINY,
              third + 9 * TINY]
    for k in range(0, len(values) - 2, 3):
        ys = [F(0), values[k], values[k + 2], values[k + 1], F(1), values[k]]
        maps.append(PLMap(tuple((F(i, 5), y) for i, y in enumerate(ys))))
    return maps, values


def _rank_corpus(rng):
    maps = [tent(n) for n in range(2, 10)] + [identity_map()]
    for denom in (6, 7, 12, 17):
        maps += [random_onto_map(rng, denom=denom) for _ in range(6)]
        maps += [random_into_map(rng, denom=denom) for _ in range(6)]
        maps += [random_diagonal_map(rng, denom=denom) for _ in range(6)]
    clustered, values = _clustered_maps()
    return maps + clustered, clustered, values


def _probes(f, extra):
    """0, 1, each breakpoint and its neighbours 2^-70 away, the midpoints
    between breakpoints, a grid and the extra points, all within [0, 1]."""
    xs = f.xs
    pts = {F(k, 60) for k in range(61)} | set(extra) | set(xs)
    pts |= {x + d for x in xs for d in (TINY, -TINY)}
    pts |= {(a + b) / 2 for a, b in zip(xs, xs[1:])}
    return sorted(p for p in pts if 0 <= p <= 1)


class TestRank:
    def test_rank_and_value_match_fraction_bisect(self):
        maps, _, values = _rank_corpus(random.Random(1616))
        hits = near = 0
        for f in maps:
            assert f._keys is None
            for y in _probes(f, values):
                expected = (bisect.bisect_right(f.xs, y), y in f.xs)
                assert f._rank(y) == expected, (f, y)
                v = f(y)
                assert v == _call_reference(f, y) and type(v) is F
                assert f._value(y) == v
                hits += expected[1]
                near += any(0 < abs(x - y) < F(1, 2**64) for x in f.xs)
            assert len(f._keys) == len(f.points)
        assert hits > 400 and near > 700
        for bad in (F(-1, 2**70), 1 + TINY):
            with pytest.raises(DomainError):
                maps[0](bad)

    def test_compose_and_iterate_match_bisect_reference(self):
        rng = random.Random(1617)
        maps, clustered, _ = _rank_corpus(rng)
        pairs = [(rng.choice(maps), rng.choice(maps)) for _ in range(800)]
        pairs += [(f, g) for f in clustered for g in clustered]
        for f, g in pairs:
            fg = compose(f, g)
            assert list(fg.points) == _compose_bisect_reference(f, g)
            assert all(type(v) is F for p in fg.points for v in p)
        for f in maps[::3]:
            fk = f
            for _ in range(2):
                fk = PLMap._trusted(_compose_bisect_reference(f, fk))
            assert iterate(f, 3).points == fk.points

    def test_is_open_on_matches_bisect_reference(self):
        maps, _, values = _rank_corpus(random.Random(1618))
        ends = sorted({F(k, 12) for k in range(13)} | set(values))
        opens = 0
        for f in maps:
            for a, b in zip(ends, ends[3:]):
                J = Interval(a, b)
                for K in (f.image(J), FULL):
                    result = f.is_open_on(J, K)
                    assert result == _is_open_on_reference(f, J, K)
                    opens += result
        assert 1500 < opens < 2500  # of 4004

    def test_keys_are_built_once_and_only_for_the_left_operand(self):
        f, g = tent(3), random_onto_map(random.Random(5))
        fg = compose(f, g)
        assert g._keys is None and fg._keys is None
        keys = f._keys
        assert keys == [(x.numerator << 64) // x.denominator for x in f.xs]
        compose(f, fg)
        f(F(1, 7))
        assert f._keys is keys


class TestComposeMergeAtHits:
    """Only where g's vertex value is a breakpoint of f can the composite
    be straight; there the merge test runs and decides."""

    def test_inverse_after_homeomorphism_is_the_two_point_identity(self):
        rng = random.Random(1619)
        for i in range(100):
            h = random_homeo(rng, max_interior=4, decreasing=i % 2 == 1)
            h_inv = invert_homeomorphism(h)
            # every interior vertex value of h is a breakpoint of h⁻¹
            assert all(h_inv._rank(y)[1] for _, y in h.points)
            assert compose(h_inv, h).points == ((F(0), F(0)), (F(1), F(1)))

    def test_conjugation_round_trip(self):
        rng = random.Random(1620)
        for _ in range(60):
            f = random_onto_map(rng, denom=rng.choice((6, 12)))
            h = random_homeo(rng, max_interior=4, decreasing=rng.random() < 0.5)
            there = conjugate(f, h)
            back = conjugate(there, invert_homeomorphism(h))
            assert back.points == f.points

    def test_hit_that_cancels_is_merged(self):
        # kink has slopes 1/2, 3/2 either side of 1/2 and g slopes 1, 1/3:
        # both sides of g's vertex at 1/2 have slope 1/2 in the composite
        kink = make_plmap([(0, 0), ("1/2", "1/4"), (1, 1)])
        g = make_plmap([(0, 0), ("1/2", "1/2"), (1, "2/3")])
        assert kink._rank(F(1, 2)) == (2, True)
        assert compose(kink, g).points == ((F(0), F(0)), (F(1), F(1, 2)))

    def test_hit_that_is_a_turn_is_kept(self):
        # g(1/2) = 1/2 is a breakpoint of f in each case: the tent turns
        # there, and the kink bends with slopes that do not cancel h's
        g = make_plmap([(0, 0), ("1/2", "1/2"), (1, "3/4")])
        assert tent(2)._rank(F(1, 2)) == (2, True)
        assert compose(tent(2), g).points == (
            (F(0), F(0)), (F(1, 2), F(1)), (F(1), F(1, 2)))
        kink = make_plmap([(0, 0), ("1/2", "1/4"), (1, 1)])
        h = make_plmap([(0, 0), ("1/2", "1/2"), ("3/4", "5/8"), (1, 1)])
        assert compose(kink, h).points == (
            (F(0), F(0)), (F(1, 2), F(1, 4)), (F(3, 4), F(7, 16)),
            (F(1), F(1)))


class TestInterpolate:
    @staticmethod
    def _formula(s0, t0, s1, t1, s):
        return t0 + (t1 - t0) * (s - s0) / (s1 - s0)

    def test_matches_the_fraction_formula(self):
        rng = random.Random(2024)
        for _ in range(4000):
            s0, s1, s, t0, t1 = (F(rng.randint(-40, 40), rng.randint(1, 36))
                                 for _ in range(5))
            if s0 == s1:
                continue
            for args in ((s0, t0, s1, t1, s), (s1, t1, s0, t0, s)):
                value = _interpolate(*args)
                assert type(value) is F
                assert value == self._formula(*args)

    def test_ends_come_back_as_they_are(self):
        s0, t0, s1, t1 = F(-1, 3), F(2, 7), F(5, 6), F(-4, 9)
        assert _interpolate(s0, t0, s1, t1, F(-2, 6)) is t0
        assert _interpolate(s0, t0, s1, t1, F(10, 12)) is t1


class TestIterate:
    def test_tent_powers(self):
        assert iterate(tent(2), 3) == tent(8)
        assert iterate(identity_map(), 5) == identity_map()

    def test_breakpoint_count(self):
        assert len(iterate(tent(3), 4).points) == 82

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "1000")
        with pytest.raises(ResourceError):
            iterate(tent(3), 9)

    def test_bad_count(self):
        with pytest.raises(DomainError):
            iterate(tent(2), 0)

    def test_step_count_checked_before_the_first_step(self, monkeypatch):
        # 500 compositions of the identity build 1000 breakpoints at least
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "1000")
        assert iterate(identity_map(), 501) == identity_map()
        calls = []
        monkeypatch.setattr(core_module, "compose",
                            lambda f, g: calls.append(1) or g)
        with pytest.raises(ResourceError, match="501 compositions build at "
                           "least 1002 breakpoints, above the cap 1000"):
            iterate(identity_map(), 502)
        assert calls == []
        # one step composes nothing, so an invalid cap is not read
        t3 = tent(3)
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "0")
        assert iterate(t3, 1) is t3


class TestIterateDifferential:
    """Binary powering against the one-step chain f^(j + 1) = f ∘ f^j: the
    canonical form is unique, so both give the same points."""

    @staticmethod
    def assert_matches_chain(f, ks):
        chain = [f]  # chain[j] = f^(j + 1)
        while len(chain) < max(ks):
            chain.append(compose(f, chain[-1]))
        for k in ks:
            assert iterate(f, k).points == chain[k - 1].points, (f, k)

    def test_random_onto_maps(self):
        rng = random.Random(30)
        for _ in range(400):
            self.assert_matches_chain(random_onto_map(rng, max_interior=2),
                                      range(1, 10))

    def test_tents(self):
        # n^k laps: T4 and T5 stop where T4^9 and T5^9, with 2.6 * 10^5 and
        # 2.0 * 10^6 breakpoints, would take seconds and hundreds of MB
        for n, k_max in ((2, 9), (3, 9), (4, 7), (5, 6)):
            self.assert_matches_chain(tent(n), range(1, k_max + 1))

    def test_identity_and_an_involution(self):
        self.assert_matches_chain(identity_map(), range(1, 10))
        # a falling map symmetric in the diagonal: f^2 is the identity, so
        # the breakpoint count falls from 4 to 2 at the first square
        f = make_plmap([(0, 1), ("1/4", "1/2"), ("1/2", "1/4"), (1, 0)])
        assert iterate(f, 2) == identity_map()
        self.assert_matches_chain(f, range(1, 10))

    def test_lap_growth_maps(self):
        for f in lap_growth_giveup_maps():
            self.assert_matches_chain(f, (4, 5, 6))

    def test_one_step_is_f_itself(self):
        rng = random.Random(31)
        for f in [tent(3), identity_map()] + [random_onto_map(rng)
                                              for _ in range(10)]:
            assert iterate(f, 1) is f


class TestPreimages:
    def test_point_goldens(self):
        assert tent(2).preimage_point(rat("1/2")) == [F(1, 4), F(3, 4)]
        assert tent(3).preimage_point(0) == [F(0), F(2, 3)]
        assert tent(4).preimage_point(1) == [F(1, 4), F(3, 4)]

    def test_point_sorted_and_exact(self):
        rng = random.Random(7)
        for _ in range(50):
            f = random_onto_map(rng)
            y = F(rng.randint(0, 24), 24)
            pre = f.preimage_point(y)
            assert pre == sorted(pre)
            assert all(f(x) == y for x in pre)

    def test_point_parity(self):
        rng = random.Random(8)
        checked = 0
        for _ in range(80):
            f = random_onto_map(rng)
            y = F(rng.randint(1, 47), 48)
            crit_values = {f(c) for c, _ in f.critical_points()}
            if y in crit_values or y in (f(0), f(1)):
                continue
            odd = len(f.preimage_point(y)) % 2 == 1
            opposite = (f(0) - y) * (f(1) - y) < 0
            assert odd == opposite
            checked += 1
        assert checked >= 30

    def test_interval_goldens(self):
        assert tent(3).preimage_interval(interval(0, "1/2")) == [
            interval(0, "1/6"), interval("1/2", "5/6")]
        assert tent(2).preimage_interval(interval(0, 1)) == [interval(0, 1)]
        assert identity_map().preimage_interval(interval("1/4", "3/4")) == [
            interval("1/4", "3/4")]

    def test_interval_components_cover_exactly(self):
        rng = random.Random(9)
        for _ in range(40):
            f = random_onto_map(rng)
            a, b = sorted(F(rng.randint(0, 24), 24) for _ in range(2))
            comps = f.preimage_interval(Interval(a, b))
            assert all(x.hi < y.lo for x, y in zip(comps, comps[1:]))
            for i in range(0, 49):
                x = F(i, 48)
                inside = any(c.contains(x) for c in comps)
                assert inside == (a <= f(x) <= b)


class TestImage:
    def test_goldens(self):
        assert tent(2).image(interval(0, "1/4")) == interval(0, "1/2")
        f, _ = invariant_chain_pair()
        assert f.image(interval("1/3", "2/3")) == interval("1/3", "2/3")
        assert tent(3).image(interval("1/3", "2/3")) == interval(0, 1)


class TestShapePredicates:
    def test_monotone(self):
        _, g = invariant_chain_pair()
        assert g.is_monotone_on(interval("1/3", "2/3"))
        assert not tent(2).is_monotone_on(interval(0, 1))
        assert tent(2).is_monotone_on(interval(0, "1/2"))

    def test_open_full_tent(self):
        assert tent(3).is_open_on(interval(0, 1), interval(0, 1))

    def test_open_fails_on_low_peak(self):
        f, _ = hat_demo_pair()
        assert not f.is_open_on(interval(0, 1), interval(0, 1))

    def test_open_valley_block(self):
        f, _ = invariant_chain_pair()
        assert f.is_open_on(interval(0, "1/3"), interval(0, "1/3"))

    def test_open_codomain_mismatch(self):
        with pytest.raises(DomainError):
            tent(2).is_open_on(interval(0, 1), interval(0, "1/2"))

    def test_decreasing_homeomorphism_is_open(self):
        flip = make_plmap([(0, 1), (1, 0)])
        assert flip.is_open_on(interval(0, 1), interval(0, 1))


class TestFixedPoints:
    def test_goldens(self):
        assert tent(2).fixed_points().isolated == (F(0), F(2, 3))
        assert tent(3).fixed_points().isolated == (F(0), F(1, 2), F(1))
        fixed = identity_map().fixed_points()
        assert fixed.isolated == () and fixed.segments == (interval(0, 1),)

    def test_mixed_segments_and_points(self):
        f, _ = invariant_chain_pair()
        fixed = f.fixed_points()
        assert fixed.segments == (interval("2/3", 1),)
        assert fixed.isolated == (F(1, 9), F(1, 3), F(1, 2))

    def test_gaps_between_components_are_not_fixed(self):
        rng = random.Random(10)
        for _ in range(40):
            f = random_onto_map(rng)
            fixed = f.fixed_points()
            marks = sorted(list(fixed.isolated)
                           + [s.lo for s in fixed.segments]
                           + [s.hi for s in fixed.segments])
            for a, b in zip(marks, marks[1:]):
                mid = (a + b) / 2
                if not fixed.contains(mid):
                    assert f(mid) != mid


# -- references for the band walk: the code it replaced -----------------------

def _region_pieces_reference(f, lo, hi, strict):
    """Per-segment pieces of {lo <= f <= hi} (or the open band), sorted,
    then merged."""
    pieces = []
    for (x0, y0), (x1, y1) in f.segments():
        wlo, whi = max(lo, min(y0, y1)), min(hi, max(y0, y1))
        if wlo > whi:
            continue
        xa = _interpolate(y0, x0, y1, x1, wlo)
        xb = _interpolate(y0, x0, y1, x1, whi)
        incl_a = not strict or lo < wlo < hi
        incl_b = not strict or lo < whi < hi
        if xa > xb:
            xa, xb, incl_a, incl_b = xb, xa, incl_b, incl_a
        if xa == xb and not (incl_a and incl_b):
            continue
        pieces.append((xa, xb, incl_a, incl_b))
    pieces.sort(key=lambda p: (p[0], p[1]))
    merged = []
    for a, b, ia, ib in pieces:
        if merged:
            pa, pb, pia, pib = merged[-1]
            if a < pb or (a == pb and (pib or ia)):
                if b > pb:
                    merged[-1][1], merged[-1][3] = b, ib
                elif b == pb:
                    merged[-1][3] = pib or ib
                continue
        merged.append([a, b, ia, ib])
    return [tuple(m) for m in merged]


def _fixed_set_reference(points, segs):
    """Merge overlapping segments, then drop the points they cover."""
    merged = []
    for s in sorted(segs, key=lambda s: (s.lo, s.hi)):
        if merged and s.lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], s.hi)
        else:
            merged.append([s.lo, s.hi])
    seg_ivs = tuple(Interval(a, b) for a, b in merged)
    iso = tuple(sorted(p for p in set(points)
                       if not any(iv.contains(p) for iv in seg_ivs)))
    return FixedSet(iso, seg_ivs)


def _fixed_points_reference(f, within=FULL):
    """A root search on each piece, cut to ``within``."""
    points, segs = set(), []
    for (x0, y0), (x1, y1) in f.segments():
        a, b = max(x0, within.lo), min(x1, within.hi)
        if a > b:
            continue
        d0, d1 = y0 - x0, y1 - x1
        if d0 == d1 == 0:
            if a < b:
                segs.append(Interval(a, b))
            else:
                points.add(a)
        elif min(d0, d1) <= 0 <= max(d0, d1):
            root = _interpolate(d0, x0, d1, x1, F(0))
            if a <= root <= b:
                points.add(root)
    return _fixed_set_reference(points, segs)


def _intersect_reference(A, B):
    """Every pair of components, merged again."""
    points, segs = set(), []
    points.update(x for x in A.isolated if B.contains(x))
    points.update(x for x in B.isolated if A.contains(x))
    for a in A.segments:
        for b in B.segments:
            lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
            if lo < hi:
                segs.append(Interval(lo, hi))
            elif lo == hi:
                points.add(lo)
    return _fixed_set_reference(points, segs)


def _band_walk_corpus(rng):
    """Tents, onto and into maps, and maps with diagonal pieces."""
    maps = [tent(n) for n in range(2, 7)] + [identity_map(),
                                             *invariant_chain_pair()]
    for denom in (6, 7, 12, 24):
        maps += [random_onto_map(rng, denom=denom) for _ in range(10)]
        maps += [random_into_map(rng, denom=denom) for _ in range(10)]
        maps += [random_diagonal_map(rng, denom=denom) for _ in range(30)]
    return maps


def _cuts(f):
    """Closed cuts, degenerate ones included, whose ends are the map's
    breakpoints and the points of the 1/12 grid."""
    ends = sorted({x for x, _ in f.points} | {F(i, 12) for i in range(13)})
    return [Interval(a, b) for i, a in enumerate(ends) for b in ends[i::3]]


class TestBandWalk:
    """The band walk against the code it replaced: a per-segment scan with a
    sort for preimages and bands, a per-piece root search merged again for
    fixed points, and a pairwise intersection merged again."""

    def test_preimages_and_bands_match_sorted_reference(self):
        rng = random.Random(151)
        for f in _band_walk_corpus(rng):
            values = sorted({y for _, y in f.points}
                            | {F(0), F(1, 3), F(1, 2), F(1)})
            for lo in values:
                for hi in values:
                    expected = _region_pieces_reference(f, lo, hi, True)
                    assert f.band_components(lo, hi) == expected, (f, lo, hi)
                    if lo <= hi:
                        expected = _region_pieces_reference(f, lo, hi, False)
                        assert f.preimage_interval(Interval(lo, hi)) == [
                            Interval(a, b) for a, b, _, _ in expected]

    def test_fixed_points_match_root_search(self):
        rng = random.Random(152)
        with_segments = cut_differs = 0
        for f in _band_walk_corpus(rng):
            whole = f.fixed_points()
            assert whole == _fixed_points_reference(f), f
            with_segments += bool(whole.segments)
            for J in _cuts(f):
                cut = f.fixed_points(J)
                assert cut == _fixed_points_reference(f, J), (f, J)
                cut_differs += cut != whole
        assert with_segments >= 40 and cut_differs >= 1000

    def test_intersections_match_pairwise_reference(self):
        rng = random.Random(153)
        maps = _band_walk_corpus(rng)
        kinds = set()
        for f in maps:
            for g in rng.sample(maps, 6):
                for J in (FULL, *rng.sample(_cuts(f), 4)):
                    A, B = f.fixed_points(J), g.fixed_points(J)
                    both = A.intersect(B)
                    assert both == _intersect_reference(A, B), (f, g, J)
                    assert both == B.intersect(A)
                    kinds.add((bool(both.isolated), bool(both.segments)))
        assert kinds == {(False, False), (False, True), (True, False),
                         (True, True)}


# -- references for the window: the reads of f on an interval it replaced -------
# A scan of every breakpoint for the image and the restriction (with one
# evaluation per inner breakpoint), the critical points rebuilt for
# monotonicity and openness with rank arithmetic for the end pieces, and a
# set and a sort for the preimage of a point.

def _critical_points_reference(f):
    entries = []
    for (_, before), (x, y), (_, after) in zip(
            f.points, f.points[1:], f.points[2:]):
        if before < y > after:
            entries.append((x, "max"))
        elif before > y < after:
            entries.append((x, "min"))
    return CriticalSet(tuple(entries))


def _image_reference(f, J):
    values = [f._value(J.lo), f._value(J.hi)]
    values += [y for x, y in f.points if J.lo < x < J.hi]
    return Interval(min(values), max(values))


def _preimage_point_reference(f, y):
    y = rat(y)
    if not (0 <= y <= 1):
        raise DomainError(f"value {y} outside [0, 1]")
    found = set()
    for (x0, y0), (x1, y1) in f.segments():
        if min(y0, y1) <= y <= max(y0, y1):
            found.add(_interpolate(y0, x0, y1, x1, y))
    return sorted(found)


def _is_monotone_on_reference(f, J):
    if J.degenerate:
        raise DomainError("monotonicity is undefined on a degenerate interval")
    return not any(J.lo < c < J.hi for c, _ in _critical_points_reference(f))


def _is_open_on_rank_reference(f, J, K):
    if J.degenerate:
        raise DomainError("openness is undefined on a degenerate interval")
    img = _image_reference(f, J)
    if not K.contains_interval(img):
        raise DomainError(f"image {img} not contained in codomain {K}")
    for c, kind in _critical_points_reference(f):
        if J.lo < c < J.hi:
            v = f._value(c)
            if kind == "max" and v != K.hi:
                return False
            if kind == "min" and v != K.lo:
                return False
    i = f._rank(J.lo)[0] - 1
    first_up = f.points[i][1] < f.points[i + 1][1]
    if f._value(J.lo) != (K.lo if first_up else K.hi):
        return False
    i, hit = f._rank(J.hi)
    i -= hit + 1
    last_up = f.points[i][1] < f.points[i + 1][1]
    return f._value(J.hi) == (K.hi if last_up else K.lo)


def _restrict_to_unit_reference(f, J):
    if J.degenerate:
        raise DomainError("cannot rescale a degenerate interval")
    if not J.contains_interval(_image_reference(f, J)):
        raise DomainError(f"{J} is not invariant, restriction does not self-map")
    w = J.length
    inner = [x for x in f.xs if J.lo < x < J.hi]
    return tuple(((x - J.lo) / w, (f._value(x) - J.lo) / w)
                 for x in [J.lo, *inner, J.hi])


def _result(fn, *args):
    """What fn returns, or the type of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError:
        return DomainError


def _window_corpus(rng):
    maps = [tent(n) for n in range(2, 8)] + [identity_map(),
                                             *invariant_chain_pair()]
    for denom in (6, 7, 12, 17):
        maps += [random_onto_map(rng, denom=denom) for _ in range(4)]
        maps += [random_into_map(rng, denom=denom) for _ in range(4)]
        maps += [random_diagonal_map(rng, denom=denom) for _ in range(4)]
    return maps


def _window_ends(f):
    """0, 1, each breakpoint, its neighbours 2^-70 away and the midpoints."""
    xs = f.xs
    pts = set(xs) | {x + d for x in xs for d in (TINY, -TINY)}
    pts |= {(a + b) / 2 for a, b in zip(xs, xs[1:])}
    return sorted(p for p in pts if 0 <= p <= 1)


class TestWindow:
    """`PLMap._window` and `_turns` against the reads they replaced."""

    def test_image_monotone_and_critical_points(self):
        monotone = 0
        for f in _window_corpus(random.Random(181)):
            assert f.critical_points() == _critical_points_reference(f)
            ends = _window_ends(f)
            for i, a in enumerate(ends):
                assert f.image(Interval(a, a)) == Interval(f(a), f(a))
                for b in ends[i:]:
                    J = Interval(a, b)
                    img = f.image(J)
                    assert img == _image_reference(f, J), (f, J)
                    assert type(img.lo) is F and type(img.hi) is F
                    mono = _result(f.is_monotone_on, J)
                    assert mono == _result(_is_monotone_on_reference, f, J)
                    monotone += mono is True
        assert monotone > 2000

    def test_is_open_on_matches_rank_reference(self):
        counts = {True: 0, False: 0, DomainError: 0}
        for f in _window_corpus(random.Random(182)):
            ends = _window_ends(f)
            for i, a in enumerate(ends):
                for b in ends[i::2]:
                    J = Interval(a, b)
                    img = f.image(J)
                    mid = (img.lo + img.hi) / 2
                    for K in (J, img, Interval(img.lo / 2, (img.hi + 1) / 2),
                              Interval(img.lo, mid)):
                        result = _result(f.is_open_on, J, K)
                        expected = _result(_is_open_on_rank_reference, f, J, K)
                        assert result == expected, (f, J, K)
                        counts[result] += 1
        assert min(counts.values()) > 1000, counts

    def test_restrict_to_unit_matches_scan(self):
        restricted = 0
        for f in _window_corpus(random.Random(183)):
            ends = _window_ends(f)
            for i, a in enumerate(ends):
                for b in ends[i:]:
                    J = Interval(a, b)
                    expected = _result(_restrict_to_unit_reference, f, J)
                    if expected is DomainError:
                        with pytest.raises(DomainError):
                            f.restrict_to_unit(J)
                        continue
                    m = f.restrict_to_unit(J)
                    assert m.points == expected, (f, J)
                    _assert_canonical(m)
                    restricted += 1
        assert restricted > 200

    def test_preimage_point_matches_set_and_sort(self):
        for f in _window_corpus(random.Random(184)):
            ys = {y for _, y in f.points} | {F(k, 24) for k in range(25)}
            ys |= {y + d for y in list(ys) for d in (TINY, -TINY)}
            for y in sorted(y for y in ys if 0 <= y <= 1):
                pre = f.preimage_point(y)
                assert pre == _preimage_point_reference(f, y), (f, y)
                assert all(type(x) is F for x in pre)
            for bad in (-TINY, 1 + TINY):
                with pytest.raises(DomainError):
                    f.preimage_point(bad)

    def test_turns_are_strict(self):
        # a vertex level with a neighbour is no turn
        v = [(F(k), F(y)) for k, y in enumerate([0, 2, 2, 1, 1, 3])]
        assert list(_turns(v)) == []
        v = [(F(k), F(y)) for k, y in enumerate([0, 2, 1, 3])]
        assert list(_turns(v)) == [(F(1), F(2), "max"), (F(2), F(1), "min")]


class TestConjugate:
    def test_identity_conjugation(self):
        f, _ = invariant_chain_pair()
        assert conjugate(f, identity_map()) == f

    def test_flip_conjugation(self):
        flip = make_plmap([(0, 1), (1, 0)])
        assert conjugate(tent(2), flip) == make_plmap(
            [(0, 1), ("1/2", 0), (1, 1)])

    def test_round_trip(self):
        h = make_plmap([(0, 0), ("1/2", "1/4"), (1, 1)])
        h_inv = make_plmap([(0, 0), ("1/4", "1/2"), (1, 1)])
        assert conjugate(conjugate(tent(3), h), h_inv) == tent(3)

    def test_critical_points_move_through_h(self):
        h = make_plmap([(0, 0), ("1/2", "1/4"), (1, 1)])
        conj = conjugate(tent(3), h)
        expected = [h.preimage_point(rat("1/3"))[0], h.preimage_point(rat("2/3"))[0]]
        assert list(conj.critical_points().xs) == expected
        assert conj.is_open_on(interval(0, 1), interval(0, 1))

    def test_non_homeomorphism_rejected(self):
        with pytest.raises(DomainError):
            conjugate(tent(2), tent(2))


class TestRestriction:
    def test_rescale_matches_values(self):
        f, _ = invariant_chain_pair()
        r = f.restrict_to_unit(interval("1/3", "2/3"))
        assert r(0) == 0 and r(1) == 1
        third = F(1, 3)
        assert r(rat("1/3")) == (f(third + F(1, 9)) - third) * 3

    def test_non_invariant_rejected(self):
        with pytest.raises(DomainError):
            tent(2).restrict_to_unit(interval(0, "1/2"))
