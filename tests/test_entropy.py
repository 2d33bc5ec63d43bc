"""Lap counts, Markov partitions, Perron roots, and the set-valued formula."""

import math
import random
from fractions import Fraction

import pytest

from icm import (PreconditionError, ResourceError, compose, conjugate,
                 entropy_lap, entropy_markov, entropy_setvalued, identity_map,
                 iterate, lap, make_plmap, markov_partition, tent)
from icm.entropy import PERRON_TOLERANCE, _perron_bracket
from conftest import invariant_chain_pair, random_homeo, random_onto_map

F = Fraction


class TestLap:
    def test_goldens(self):
        assert lap(tent(6)) == 6
        assert lap(identity_map()) == 1
        assert lap(iterate(tent(3), 2)) == 9

    def test_matches_critical_count_of_iterates(self):
        f, _ = invariant_chain_pair()
        for k in (1, 2, 3):
            fk = iterate(f, k)
            assert len(fk.critical_points()) + 1 == lap(fk)

    def test_submultiplicative(self):
        rng = random.Random(18)
        for _ in range(100):
            f, g = random_onto_map(rng), random_onto_map(rng)
            assert lap(compose(f, g)) <= lap(f) * lap(g)


class TestEntropyLap:
    def test_tent_growth_exact(self):
        for n in range(2, 7):
            seq = entropy_lap(tent(n), 6)
            assert [count for _, count in seq.laps] == [n ** k
                                                        for k in range(1, 7)]

    def test_tent3_estimate_is_log3(self):
        assert entropy_lap(tent(3), 6).estimate == pytest.approx(
            math.log(3), abs=1e-12)

    def test_identity_estimate_zero(self):
        assert entropy_lap(identity_map(), 10).estimate == 0.0

    def test_conjugation_invariance(self):
        rng = random.Random(19)
        for _ in range(10):
            h = random_homeo(rng)
            plain = entropy_lap(tent(2), 8)
            conj = entropy_lap(conjugate(tent(2), h), 8)
            assert [c for _, c in plain.laps] == [c for _, c in conj.laps]
            assert plain.estimate == conj.estimate

    def test_resource_cap_propagates(self):
        with pytest.raises(ResourceError):
            entropy_lap(tent(3), 20, cap=1000)


class TestMarkov:
    def test_tent2_structure(self):
        data = markov_partition(tent(2))
        assert data.partition == (F(0), F(1, 2), F(1))
        assert data.matrix == ((1, 1), (1, 1))
        assert data.spectral_radius == pytest.approx(2, abs=1e-9)

    def test_identity_structure(self):
        data = markov_partition(identity_map())
        assert data.partition == (F(0), F(1))
        assert data.matrix == ((1,),)
        assert entropy_markov(data) == pytest.approx(0, abs=1e-12)

    def test_tent_family_radius(self):
        for n in range(2, 11):
            data = markov_partition(tent(n))
            assert data.spectral_radius == pytest.approx(n, abs=1e-9)
            assert entropy_markov(data) == pytest.approx(math.log(n), abs=1e-9)

    def test_reducible_blocks(self):
        f, g = invariant_chain_pair()
        assert entropy_markov(markov_partition(f)) == pytest.approx(
            math.log(2), abs=1e-9)
        assert entropy_markov(markov_partition(g)) == pytest.approx(
            math.log(3), abs=1e-9)

    def test_non_markov_returns_none(self):
        f = make_plmap([(0, 0), ("1/3", "5/7"), (1, 1)])
        assert markov_partition(f) is None

    def test_markov_agrees_with_lap_growth(self):
        k = 6
        for n in range(2, 6):
            data = markov_partition(tent(n))
            est = entropy_lap(tent(n), k).estimate
            assert abs(entropy_markov(data) - est) <= 2 * math.log(lap(tent(n))) / k


class TestPerronBracket:
    def test_golden_mean_exact(self):
        lo, hi = _perron_bracket(((1, 1), (1, 0)))
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
        assert lo * lo - lo - 1 <= 0 <= hi * hi - hi - 1
        assert hi - lo < PERRON_TOLERANCE

    def test_reducible_takes_largest_component(self):
        # components {0, 1} with root 2 and {2, 3} (a 2-cycle) with root 1
        lo, hi = _perron_bracket(((1, 1, 1, 0), (1, 1, 0, 0),
                                  (0, 0, 0, 1), (0, 0, 1, 0)))
        assert lo <= 2 <= hi
        assert hi - lo < PERRON_TOLERANCE


class TestSetValued:
    def test_tent_pairs(self):
        assert entropy_setvalued(tent(3), tent(4)) == pytest.approx(
            math.log(4), abs=1e-9)
        assert entropy_setvalued(tent(2), tent(3)) == pytest.approx(
            math.log(3), abs=1e-9)

    def test_chain_pair_takes_maximum(self):
        f, g = invariant_chain_pair()
        value = entropy_setvalued(f, g)
        each = [entropy_markov(markov_partition(m)) for m in (f, g)]
        assert value == pytest.approx(max(each), abs=1e-12)
        assert value == pytest.approx(math.log(3), abs=1e-9)

    def test_requires_strong_commutation(self):
        with pytest.raises(PreconditionError):
            entropy_setvalued(tent(4), tent(6))
