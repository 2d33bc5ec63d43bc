"""Set-valued composition graphs, commutation decisions, hats and endpoints."""

import random
from fractions import Fraction

import pytest

from icm import (PreconditionError, Segment, commute, compose, endpoints,
                 forward_graph, forward_polyline, graphs_equal, hats,
                 identity_map, make_plmap, profile, pullback_graph,
                 segment_set, strongly_commute, tent,
                 verify_strong_consequences)
from icm.setvalued import parametrization_coincidences
from conftest import (block_swap_pair, conjugated_tent_pair, coprime_pair,
                      double_reversal_pair, hat_demo_pair,
                      invariant_chain_pair, random_onto_map)

F = Fraction


def polyline_set(coords):
    pts = [(F(a), F(b)) for a, b in coords]
    return segment_set(Segment(a, b) for a, b in zip(pts, pts[1:]))


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

    def test_reflection_swaps_roles(self):
        rng = random.Random(11)
        for _ in range(25):
            f, g = random_onto_map(rng), random_onto_map(rng)
            assert graphs_equal(pullback_graph(f, g).reflected(),
                                pullback_graph(g, f))


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

    def test_canonical_equality_agrees_with_two_way_covers(self):
        rng = random.Random(20261018)
        pairs = [(tent(n), tent(m)) for n in range(2, 16) for m in range(2, 16)]
        for _ in range(300):
            f = random_onto_map(rng)
            pairs += [(f, random_onto_map(rng)), (f, compose(f, f)), (f, f)]
        pairs += [conjugated_tent_pair(rng, *coprime_pair(rng))
                  for _ in range(60)]
        equal = 0
        for f, g in pairs:
            fwd, pull = forward_graph(f, g), pullback_graph(f, g)
            same = graphs_equal(fwd, pull)
            assert same == (fwd.covers(pull) and pull.covers(fwd)), (f, g)
            assert strongly_commute(f, g) == same, (f, g)
            assert not same or commute(f, g), (f, g)
            equal += same
        assert len(pairs) >= 1000 and equal >= 150


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
