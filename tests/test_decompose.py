"""Primary critical values, orientation, splitting, and the decomposition."""

import random
from fractions import Fraction

import pytest

from icm import (FULL, Decomposition, Interval, PreconditionError,
                 common_fixed_point, conjugate, decompose, identity_map,
                 interval, lap, make_plmap, orientation,
                 primary_critical_values, split_common_fixed,
                 strongly_commute, tent, verify_decomposition)
from conftest import (block_swap_pair, double_reversal_pair,
                      invariant_chain_pair, random_homeo,
                      wiggly_staircase_map)

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

    def test_split_point_keeps_halves_invariant(self):
        f, g = invariant_chain_pair()
        p = split_common_fixed(f, g, FULL)
        left, right = Interval(F(0), p), Interval(p, F(1))
        for m in (f, g):
            assert left.contains_interval(m.image(left))
            assert right.contains_interval(m.image(right))
            assert m(p) == p


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
