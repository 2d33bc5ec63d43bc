"""Primary critical values, orientation, splitting, and the decomposition."""

import bisect
import importlib
import random
from fractions import Fraction

import pytest

from icm import (FULL, Decomposition, Interval, InternalInvariantError,
                 NotFoundError, PLMap, PreconditionError,
                 brute_force_strong_commute, common_fixed_point, compose,
                 conjugate, decompose, identity_map, interval, lap,
                 make_plmap, orientation, primary_critical_values,
                 split_common_fixed, strongly_commute, tent,
                 verify_decomposition)
from icm.core import _interpolate
from icm.decompose import (REVERSING, _case_a_points, _halves_invariant,
                           _has_invariant_prefix, _has_invariant_suffix,
                           _is_primary, _running_max_vertices)
from conftest import (block_swap_pair, double_reversal_pair, glued_pair,
                      invariant_chain_pair, random_diagonal_map, random_homeo,
                      random_into_map, random_onto_map, wiggly_staircase_map)

F = Fraction


class TestPrimaryValues:
    def test_staircase_goldens(self):
        pv = primary_critical_values(wiggly_staircase_map())
        assert pv.interior_values == (F(1, 11), F(3, 11), F(4, 11),
                                      F(6, 11), F(7, 11), F(10, 11))
        assert pv.values[0] == 0 and pv.values[-1] == 1
        assert pv.start_index == 0
        assert pv.exacting == (F(0), F(1, 33), F(5, 22), F(1, 4),
                               F(31, 55), F(32, 55), F(43, 44), F(1))
        assert pv.orientation == "preserving"
        assert pv.exacting_complete

    def test_tent3(self):
        pv = primary_critical_values(tent(3))
        assert pv.values == (F(0), F(1))
        assert pv.start_index == 1
        assert pv.exacting == (F(0), F(1))
        assert pv.orientation == "preserving"

    def test_tent2_degenerate(self):
        pv = primary_critical_values(tent(2))
        assert pv.values == (F(0), F(1))
        assert pv.start_index == 0
        assert pv.orientation == "degenerate"

    def test_identity_conventions(self):
        pv = primary_critical_values(identity_map())
        assert pv.values == (F(0), F(1))
        assert pv.start_index == 0
        assert pv.orientation == "degenerate"

    def test_requires_onto(self):
        with pytest.raises(PreconditionError):
            primary_critical_values(make_plmap([(0, 0), (1, "1/2")]))

    def test_interior_values_are_critical_and_clause_checked(self):
        f = wiggly_staircase_map()
        pv = primary_critical_values(f)
        crit_values = {f(c) for c, _ in f.critical_points()}
        for v in pv.interior_values:
            assert v in crit_values

    def test_primary_rule_against_component_counts(self):
        def connected(components):
            return len(components) <= 1

        def reference(f, v):
            below_closed = connected(f.preimage_interval(Interval(F(0), v)))
            above_closed = connected(f.preimage_interval(Interval(v, F(1))))
            below_open = connected(f.band_components(-1, v))
            above_open = connected(f.band_components(v, 2))
            return ((below_open and above_closed)
                    or (below_closed and above_open))

        rng = random.Random(71)
        maps = [tent(n) for n in range(2, 7)] + [wiggly_staircase_map()]
        for denom in (6, 12):
            maps += [random_onto_map(rng, denom=denom) for _ in range(40)]
            maps += [random_into_map(rng, denom=denom) for _ in range(40)]
        outcomes = set()
        for f in maps:
            values = {y for _, y in f.points} | {F(1, 3), F(1, 2), F(5, 7)}
            for v in sorted(values):
                expected = reference(f, v)
                assert _is_primary(f, v) == expected, (f, v)
                outcomes.add(expected)
        assert outcomes == {True, False}


class TestOrientation:
    def test_goldens(self):
        f9, g9 = invariant_chain_pair()
        f10, g10 = block_swap_pair()
        _, g11 = double_reversal_pair()
        assert orientation(f9) == "preserving"
        assert orientation(g9) == "preserving"
        assert orientation(f10) == "reversing"
        assert orientation(g10) == "preserving"
        assert orientation(g11) == "reversing"
        assert orientation(tent(2)) == "degenerate"
        assert orientation(tent(3)) == "preserving"
        assert orientation(tent(4)) == "degenerate"
        assert orientation(identity_map()) == "degenerate"
        # no invariant prefix: the invariant suffix [1/2, 1] decides
        assert orientation(make_plmap([(0, 0), ("1/2", 1), (1, "1/2")])) \
            == "preserving"

    def test_pure_flip_not_preserving(self):
        flip = make_plmap([(0, 1), (1, 0)])
        assert orientation(flip) in ("reversing", "degenerate")


def _nonpositive_somewhere_reference(verts):
    """Whether the PL function with these (x, value) vertices is <= 0 at
    some point of (0, 1): a scan of its vertices and its segments."""
    for x, d in verts:
        if 0 < x < 1 and d <= 0:
            return True
    for (x0, d0), (x1, d1) in zip(verts, verts[1:]):
        if d0 <= 0 and d1 <= 0:
            if 0 < (x0 + x1) / 2 < 1:
                return True
        elif min(d0, d1) < 0 < max(d0, d1):
            if 0 < _interpolate(d0, x0, d1, x1, F(0)) < 1:
                return True
    return False


def _prefix_reference(f):
    return _nonpositive_somewhere_reference(
        [(x, m - x) for x, m in _running_max_vertices(f)])


class TestPrefixRule:
    def test_interior_vertices_decide_as_the_segment_scan(self):
        # The rule's precondition: onto, with two or more pieces.
        rng = random.Random(154)
        maps = [tent(n) for n in range(2, 7)] + [wiggly_staircase_map(),
                                                 *invariant_chain_pair(),
                                                 *block_swap_pair()]
        for denom in (6, 7, 12):
            maps += [random_onto_map(rng, denom=denom) for _ in range(60)]
            maps += [random_diagonal_map(rng, denom=denom) for _ in range(200)]
        maps = [f for f in maps if f.is_onto() and len(f.points) > 2]
        outcomes = set()
        for f in maps:
            mirror = make_plmap([(1 - x, 1 - y) for x, y in reversed(f.points)])
            expected = (_prefix_reference(f), _prefix_reference(mirror))
            assert (_has_invariant_prefix(f), _has_invariant_suffix(f)) \
                == expected, f
            outcomes.add(expected)
        assert len(maps) >= 250
        assert outcomes == {(False, False), (False, True), (True, False),
                            (True, True)}


class TestSplit:
    def test_chain_pair_splits(self):
        f, g = invariant_chain_pair()
        assert split_common_fixed(f, g, FULL) == F(1, 3)
        assert split_common_fixed(f, g, interval("1/3", 1)) == F(2, 3)

    def test_open_restriction_rejected(self):
        with pytest.raises(PreconditionError):
            split_common_fixed(tent(3), tent(4), FULL)

    def test_non_onto_restriction_rejected(self):
        f, g = invariant_chain_pair()
        with pytest.raises(PreconditionError):
            split_common_fixed(f, g, interval(0, "1/2"))

    def test_fixed_segment_at_the_left_end_splits_at_its_right_end(self):
        # the identity on [0, 1/2] glued to T3 and to T5 on [1/2, 1]: the
        # split points of the fixed segment form (0, 1/2], with no least one
        f = make_plmap([(0, 0), ("1/2", "1/2"), ("2/3", 1), ("5/6", "1/2"),
                        (1, 1)])
        g = make_plmap([(0, 0), ("1/2", "1/2"), ("3/5", 1), ("7/10", "1/2"),
                        ("4/5", 1), ("9/10", "1/2"), (1, 1)])
        assert split_common_fixed(f, g, FULL) == F(1, 2)
        assert decompose(f, g).points == (F(0), F(1, 2), F(1))

    def test_split_point_keeps_halves_invariant(self):
        f, g = invariant_chain_pair()
        p = split_common_fixed(f, g, FULL)
        left, right = Interval(F(0), p), Interval(p, F(1))
        for m in (f, g):
            assert left.contains_interval(m.image(left))
            assert right.contains_interval(m.image(right))
            assert m(p) == p


def reference_split_point(f, g, J):
    """_split_point as it was, with its midpoint clamped to J and re-checked."""
    common = f.fixed_points(J).intersect(g.fixed_points(J))
    candidates = []
    for p in common.isolated:
        if J.strictly_inside(p) and _halves_invariant(f, g, J, p):
            candidates.append(p)
    for seg in common.segments:
        a, b = seg.lo, seg.hi
        lo_need = max(a,
                      f.image(Interval(J.lo, a)).hi,
                      g.image(Interval(J.lo, a)).hi)
        hi_allow = min(b,
                       f.image(Interval(b, J.hi)).lo,
                       g.image(Interval(b, J.hi)).lo)
        if lo_need > hi_allow:
            continue
        if J.strictly_inside(lo_need):
            candidates.append(lo_need)
        else:
            lo_cl = max(lo_need, J.lo)
            hi_cl = min(hi_allow, J.hi)
            if lo_cl < hi_cl:
                mid = (lo_cl + hi_cl) / 2
                if J.strictly_inside(mid):
                    candidates.append(mid)
    if not candidates:
        raise NotFoundError(
            f"no common fixed point splits {J} into invariant halves")
    best = min(candidates)
    if not _halves_invariant(f, g, J, best):
        raise InternalInvariantError("candidate split point failed validation")
    return best


def reference_case_a_points(F, G, split=reference_split_point):
    """_case_a_points as it was: after each split, every block is scanned
    again from the left for the first one with no open restriction."""
    points = [Fraction(0), Fraction(1)]
    max_splits = len(F.critical_points()) + len(G.critical_points()) + 1
    splits = 0
    while True:
        target = None
        for lo, hi in zip(points, points[1:]):
            J = Interval(lo, hi)
            if not F.is_open_on(J, J) and not G.is_open_on(J, J):
                target = J
                break
        if target is None:
            return points
        p = split(F, G, target)
        splits += 1
        if splits > max_splits:
            raise InternalInvariantError(
                "splitting loop exceeded the critical-point budget")
        bisect.insort(points, p)


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestCaseAPoints:
    """The left-first worklist of _case_a_points against the loop that
    scanned every block again after each split."""

    def test_matches_reference(self, strongly_commuting_corpus):
        rng = random.Random(2024)
        pairs = [(f, g) for _, f, g in strongly_commuting_corpus]
        for _, f, g in strongly_commuting_corpus:
            h = random_homeo(rng, decreasing=rng.random() < 0.5)
            pairs.append((conjugate(f, h), conjugate(g, h)))
        pairs.append(invariant_chain_pair())
        split_twice = failed = 0
        for f, g in pairs:
            # the pair itself, and the pair decompose hands over: each
            # reversing map replaced by its square
            squared = [compose(m, m) if orientation(m) == REVERSING else m
                       for m in (f, g)]
            for p, q in ((f, g), squared):
                got = outcome(_case_a_points, p, q)
                assert got == outcome(reference_case_a_points, p, q), (p, q)
                split_twice += type(got) is list and len(got) > 3
                failed += type(got) is tuple
        assert split_twice >= 30 and failed >= 10, (split_twice, failed)

    def test_budget_raise_matches_reference(self, monkeypatch):
        split = []

        def midpoint(f, g, J):
            split.append(J)
            return (J.lo + J.hi) / 2

        monkeypatch.setattr(PLMap, "is_open_on", lambda f, J, K: False)
        # the package's `decompose` is the function, not the module
        monkeypatch.setattr(importlib.import_module("icm.decompose"),
                            "_split_point", midpoint)
        f, g = invariant_chain_pair()
        with pytest.raises(InternalInvariantError, match="budget"):
            reference_case_a_points(f, g, split=midpoint)
        expected, split[:] = split[:], []
        with pytest.raises(InternalInvariantError, match="budget"):
            _case_a_points(f, g)
        assert split == expected
        budget = len(f.critical_points()) + len(g.critical_points()) + 1
        assert len(split) == budget + 1


class TestDecompose:
    def test_chain_pair_case_a(self):
        f, g = invariant_chain_pair()
        D = decompose(f, g)
        assert D.case == "a"
        assert D.points == (F(0), F(1, 3), F(2, 3), F(1))
        assert [[k for k, _ in b.restrictions] for b in D.blocks] == \
            [["f", "g"]] * 3
        tags = [(b.get("f").tag, b.get("g").tag) for b in D.blocks]
        assert tags == [
            ("open-non-monotone", "open-non-monotone"),
            ("non-open-non-monotone", "monotone"),
            ("monotone", "non-open-non-monotone")]
        assert verify_decomposition(f, g, D).passed

    def test_block_swap_case_b(self):
        f, g = block_swap_pair()
        D = decompose(f, g)
        assert D.case == "b"
        assert D.reverser == "f"
        assert D.points == (F(0), F(1, 2), F(3, 4), F(1))
        assert f.image(interval(0, "1/2")) == interval("3/4", 1)
        assert D.blocks[0].get("f").image == interval("3/4", 1)
        assert [[k for k, _ in b.restrictions] for b in D.blocks] == \
            [["f", "g", "f2"]] * 3
        assert verify_decomposition(f, g, D).passed

    def test_block_swap_roles_swapped(self):
        f, g = block_swap_pair()
        D = decompose(g, f)
        assert D.case == "b"
        assert D.reverser == "g"
        assert D.points == (F(0), F(1, 2), F(3, 4), F(1))
        assert [[k for k, _ in b.restrictions] for b in D.blocks] == \
            [["f", "g", "g2"]] * 3
        assert verify_decomposition(g, f, D).passed
        first = D.as_dict()["intervals"][0]
        assert list(first["maps"]) == ["f", "g", "g2"]
        assert first["maps"]["g"]["codomain"] == ["3/4", "1"]
        assert first["maps"]["f"]["codomain"] == ["0", "1/2"]
        assert first["maps"]["g2"]["codomain"] == ["0", "1/2"]

    def test_double_reversal_case_c(self):
        f, g = double_reversal_pair()
        D = decompose(f, g)
        assert D.case == "c"
        assert [[k for k, _ in b.restrictions] for b in D.blocks] == \
            [["f", "g", "f2", "g2"]] * len(D.blocks)
        assert verify_decomposition(f, g, D).passed
        l = len(D.points) - 1
        for i, block in enumerate(D.blocks):
            opp = Interval(D.points[l - i - 1], D.points[l - i])
            assert f.image(block.interval) == opp
            assert g.image(block.interval) == opp

    def test_open_pair_trivial_case_a(self):
        D = decompose(tent(3), tent(4))
        assert D.case == "a"
        assert D.points == (F(0), F(1))
        assert D.blocks[0].get("f").tag == "open-non-monotone"
        assert D.blocks[0].get("g").tag == "open-non-monotone"

    def test_requires_strong_commutation(self):
        with pytest.raises(PreconditionError):
            decompose(tent(4), tent(6))

    def test_case_a_invariants_on_corpus(self, strongly_commuting_corpus):
        for name, f, g in strongly_commuting_corpus:
            D = decompose(f, g)
            report = verify_decomposition(f, g, D)
            assert report.passed, f"{name}: {report.failures()}"
            if D.case == "a":
                for block in D.blocks:
                    J = block.interval
                    assert J.contains_interval(f.image(J)), name
                    assert J.contains_interval(g.image(J)), name
                    assert not (block.get("f").tag == "non-open-non-monotone"
                                and block.get("g").tag
                                == "non-open-non-monotone"), name

    def test_glued_pairs_decompose(self):
        rng = random.Random(20261020)
        most_splits = 0
        for i in range(60):
            f, g = glued_pair(rng)
            assert strongly_commute(f, g), (i, f, g)
            if i < 8:
                assert brute_force_strong_commute(f, g, 480), (i, f, g)
            D = decompose(f, g)
            assert D.case == "a", (i, f, g)
            report = verify_decomposition(f, g, D)
            assert report.passed, (i, f, g, report.failures())
            p = common_fixed_point(f, g)
            assert f(p) == g(p) == p
            budget = len(f.critical_points()) + len(g.critical_points()) + 1
            splits = len(D.points) - 2
            assert splits <= budget, (i, f, g)
            most_splits = max(most_splits, splits)
        assert most_splits >= 2

    def test_tampered_decomposition_fails(self):
        f, g = invariant_chain_pair()
        D = decompose(f, g)
        tampered = Decomposition(
            points=(F(0), F(1, 3), F(1)), case=D.case,
            reverser=D.reverser, blocks=D.blocks)
        assert not verify_decomposition(f, g, tampered).passed

    def test_as_dict_schema(self):
        f, g = block_swap_pair()
        payload = decompose(f, g).as_dict()
        assert payload["case"] == "b"
        assert payload["points"] == ["0", "1/2", "3/4", "1"]
        assert payload["reverser"] == "f"
        first = payload["intervals"][0]
        assert first["interval"] == ["0", "1/2"]
        assert first["maps"]["f"]["image"] == ["3/4", "1"]


class TestCommonFixedPoint:
    def test_goldens(self):
        f, g = invariant_chain_pair()
        assert common_fixed_point(tent(2), tent(3)) == 0
        assert common_fixed_point(tent(3), tent(4)) == 0
        assert common_fixed_point(f, g) == F(1, 3)

    def test_exactness_on_corpus(self, strongly_commuting_corpus):
        nonzero = 0
        for name, f, g in strongly_commuting_corpus:
            x = common_fixed_point(f, g)
            assert f(x) == x and g(x) == x, name
            if x != 0:
                nonzero += 1
        assert nonzero >= 1

    def test_requires_hypotheses(self):
        with pytest.raises(PreconditionError):
            common_fixed_point(tent(2), tent(2))
        with pytest.raises(PreconditionError):
            common_fixed_point(make_plmap([(0, 0), (1, "1/2")]), tent(2))


class TestStructuralConsequences:
    def test_band_invariance_under_partner(self, strongly_commuting_corpus):
        """On odd primary-value gaps of an order-preserving f, the partner g
        fixes the band setwise."""
        checked = 0
        for name, f, g in strongly_commuting_corpus:
            pv = primary_critical_values(f)
            if pv.orientation != "preserving":
                continue
            for j in range(len(pv.values) - 1):
                if pv.gap_parity(j) != 1:
                    continue
                band = Interval(pv.values[j], pv.values[j + 1])
                assert g.preimage_interval(band) == [band], name
                checked += 1
        assert checked >= 40

    def test_proper_subbands_have_disconnected_preimage(self):
        rng = random.Random(15)
        maps = [wiggly_staircase_map(), tent(3), tent(5),
                block_swap_pair()[1], double_reversal_pair()[1]]
        rng2 = random.Random(16)
        for i in range(10):
            h = random_homeo(rng2)
            maps.append(conjugate(tent(rng2.choice([3, 5, 7])), h))
        checked = 0
        for f in maps:
            pv = primary_critical_values(f)
            if not (pv.exacting_complete
                    and pv.orientation in ("preserving", "reversing")):
                continue
            for j in range(len(pv.values) - 1):
                if pv.gap_parity(j) != 1:
                    continue
                lo, hi = pv.values[j], pv.values[j + 1]
                for _ in range(4):
                    width = hi - lo
                    p = lo + width * F(rng.randint(0, 6), 8)
                    q = p + width * F(rng.randint(1, 2), 8)
                    if (p, q) == (lo, hi) or q > hi:
                        continue
                    comps = f.preimage_interval(Interval(p, q))
                    assert len(comps) >= 2, (f, p, q)
                    checked += 1
        assert checked >= 50

    def test_band_restriction_dichotomy(self, strongly_commuting_corpus):
        """On each odd gap, either both band restrictions are open and f's is
        non-monotone, or g's is monotone."""
        checked = 0
        for name, f, g in strongly_commuting_corpus:
            pv = primary_critical_values(f)
            if pv.orientation != "preserving" or not pv.exacting_complete:
                continue
            for j in range(len(pv.values) - 1):
                if pv.gap_parity(j) != 1:
                    continue
                band = Interval(pv.values[j], pv.values[j + 1])
                dom_f = f.preimage_interval(band)
                if len(dom_f) != 1 or dom_f[0].degenerate:
                    continue
                f_open = f.is_open_on(dom_f[0], band)
                f_mono = f.is_monotone_on(dom_f[0])
                g_mono = band.degenerate or g.is_monotone_on(band)
                g_open = g.is_open_on(band, band)
                assert (f_open and not f_mono and g_open) or g_mono, name
                checked += 1
        assert checked >= 30

    def test_full_two_fold_partner_is_open_with_odd_laps(self):
        for m in range(2, 16):
            if strongly_commute(tent(2), tent(m)):
                assert tent(m).is_open_on(FULL, FULL)
                assert lap(tent(m)) % 2 == 1
        rng = random.Random(17)
        for _ in range(8):
            h = random_homeo(rng)
            m = rng.choice([3, 5, 7, 9])
            f, g = conjugate(tent(2), h), conjugate(tent(m), h)
            assert strongly_commute(f, g)
            assert g.is_open_on(FULL, FULL)
            assert lap(g) % 2 == 1
