"""Grid-based cross-checks against the geometric decision procedures."""

import random
from fractions import Fraction

import pytest

from icm import (DomainError, ResourceError, brute_force_strong_commute,
                 identity_map, pullback_graph, sample_pullback,
                 strongly_commute, tent)
from conftest import random_onto_map

F = Fraction


class TestSamplePullback:
    def test_identity_diagonal(self):
        sample = sample_pullback(identity_map(), identity_map(), 4)
        assert sample.points == frozenset(
            (F(i, 4), F(i, 4)) for i in range(5))

    def test_tent2_symmetry_points(self):
        pts = sample_pullback(tent(2), tent(2), 4).points
        assert (F(1, 2), F(1, 2)) in pts
        assert (F(1, 4), F(3, 4)) in pts

    def test_dense_grid_lies_on_geometric_graph(self):
        graph = pullback_graph(tent(3), tent(4))
        sample = sample_pullback(tent(3), tent(4), 1000)
        assert sample.points
        for point in sample.points:
            assert graph.contains_point(point)

    def test_resolution_validated(self):
        with pytest.raises(DomainError):
            sample_pullback(tent(2), tent(2), 1)

    @pytest.mark.parametrize("oracle", [sample_pullback,
                                        brute_force_strong_commute])
    def test_grid_bounded_by_cap(self, monkeypatch, oracle):
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "1000")
        oracle(identity_map(), identity_map(), 999)
        with pytest.raises(ResourceError, match="grid resolution 1000 needs "
                           "1001 points, above the cap 1000"):
            oracle(identity_map(), identity_map(), 1000)


class TestBruteForce:
    def test_goldens(self):
        assert brute_force_strong_commute(tent(3), tent(4), 240)
        assert not brute_force_strong_commute(tent(4), tent(6), 240)
        assert brute_force_strong_commute(identity_map(), identity_map(), 8)

    def test_soundness_at_several_resolutions(self):
        for n in (120, 360, 1000):
            assert brute_force_strong_commute(tent(3), tent(4), n)

    def test_agrees_with_geometry_on_random_pairs(self):
        rng = random.Random(21)
        for _ in range(25):
            f, g = random_onto_map(rng), random_onto_map(rng)
            geometric = strongly_commute(f, g)
            if geometric:
                assert brute_force_strong_commute(f, g, 360)
