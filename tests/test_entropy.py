"""Lap counts, Markov partitions, Perron roots, and the set-valued formula."""

import importlib.util
import math
import random
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from icm import (DomainError, InternalInvariantError, MarkovData, PLMap,
                 PreconditionError, ResourceError, compose, conjugate,
                 entropy_lap, entropy_markov, entropy_setvalued, identity_map,
                 iterate, lap, make_plmap, markov_partition, tent)
from icm.entropy import PERRON_TOLERANCE, _orbit_step, _perron_bracket
from conftest import invariant_chain_pair, random_homeo, random_onto_map
from perron_reference import _perron_bracket as reference_bracket
from perron_reference import _strong_components

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

    def test_resource_cap_propagates(self, monkeypatch):
        # 20 rounds of T3 keep up to 861 lap images
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "800")
        with pytest.raises(ResourceError):
            entropy_lap(tent(3), 20)

    def test_cap_bounds_the_lap_images(self, monkeypatch):
        # T3 has 2 critical points, so the images of 4 rounds have their
        # ends among 2 + 4 * 2 = 10 values: up to 45 images
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "45")
        assert entropy_lap(tent(3), 4).laps[-1] == (4, 81)
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "44")
        with pytest.raises(ResourceError, match="4 rounds keep up to 45 lap "
                                                "images, above the cap 44"):
            entropy_lap(tent(3), 4)

    def test_lap_counts_are_not_capped(self):
        # 3^14 laps, far above the default cap, from 435 images at most
        assert entropy_lap(tent(3), 14).laps[-1] == (14, 3 ** 14)

    def test_image_ends_are_orbit_values(self):
        # the premise of the bound: each image f^k(J) of a lap J of f^k has
        # its ends among f^k(0), f^k(1) and the f^j(c), j <= k, at the
        # critical points c of f, at most 2 + k * #critical points values
        rng = random.Random(63)
        for f in [tent(5)] + [random_onto_map(rng) for _ in range(20)]:
            crit = f.critical_points().xs
            orbit, values, fk = list(crit), set(), identity_map()
            for k in range(1, 7):
                fk = compose(f, fk)
                orbit = [f(c) for c in orbit]
                values.update(orbit)
                ends = values | {fk(F(0)), fk(F(1))}
                assert len(ends) <= 2 + k * len(crit)
                laps = [F(0), *fk.critical_points().xs, F(1)]
                assert {fk(x) for x in laps} <= ends, (f, k)

    def test_round_count_checked_before_the_first_round(self, monkeypatch):
        # the identity has one lap in each of its k_max rounds
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "1000")
        assert entropy_lap(identity_map(), 1000).laps[-1] == (1000, 1)
        with pytest.raises(ResourceError,
                           match="1001 rounds count at least 1001 laps"):
            entropy_lap(identity_map(), 1001)
        t3 = tent(3)
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "0")
        assert entropy_lap(t3, 1).laps == ((1, 3),)

    def test_recursion_matches_materialised_iterates(self):
        rng = random.Random(61)
        maps = [tent(n) for n in range(2, 6)]
        maps += [random_onto_map(rng, max_interior=3) for _ in range(30)]
        maps += [_random_map_not_onto(rng) for _ in range(30)]
        for f in maps:
            seq = entropy_lap(f, 6)
            acc = f
            for k in range(1, 7):
                if k > 1:
                    acc = compose(f, acc)
                assert dict(seq.laps)[k] == lap(acc), (f, k)


def _random_map_not_onto(rng: random.Random, denom: int = 12) -> PLMap:
    """A map with 1 to 3 interior breakpoints whose image misses 0 or 1."""
    while True:
        k = rng.randint(1, 3)
        xs = [0, *sorted(rng.sample(range(1, denom), k)), denom]
        ys = [rng.randint(0, denom) for _ in xs]
        if all(a != b for a, b in zip(ys, ys[1:])) and (
                min(ys) > 0 or max(ys) < denom):
            return make_plmap([(F(x, denom), F(y, denom))
                               for x, y in zip(xs, ys)])


def _whole_set_closure(f: PLMap, max_points: int):
    """Orbit closure that maps the whole point set every round."""
    pts = set(f.xs)
    while True:
        new = {f(x) for x in pts} - pts
        if not new:
            return sorted(pts)
        pts |= new
        if len(pts) > max_points:
            return None


class TestMarkov:
    def test_every_row_must_cover_a_cell(self):
        data = MarkovData(partition=(F(0), F(1)), runs=((0, 1),),
                          rho_lo=F(1), rho_hi=F(1))
        assert data == markov_partition(identity_map())
        for empty in ((1, 1), (1, 0)):
            with pytest.raises(DomainError, match="must cover a cell"):
                MarkovData((F(0), F(1, 2), F(1)), ((0, 2), empty), F(1), F(1))

    def test_floats_derive_from_the_bracket(self):
        data = MarkovData((F(0), F(1)), ((0, 1),), F(1, 3), F(2, 3))
        assert data.spectral_radius == float(F(1, 2)) == 0.5
        assert data.radius_error == float(F(1, 6))

    def test_entropy_compares_the_exact_width(self):
        # a half-width of 10^-9 passes; one 10^-30 wider fails, though it
        # rounds to the same float
        lo = F(2)
        for width, ok in ((F(2, 10**9), True),
                          (F(2, 10**9) + F(1, 10**30), False)):
            data = MarkovData((F(0), F(1)), ((0, 1),), lo, lo + width)
            assert data.radius_error == 1e-9
            if ok:
                assert entropy_markov(data) == math.log(data.spectral_radius)
            else:
                with pytest.raises(InternalInvariantError,
                                   match="wider than the tolerance"):
                    entropy_markov(data)

    def test_tent2_structure(self):
        data = markov_partition(tent(2))
        assert data.partition == (F(0), F(1, 2), F(1))
        assert data.runs == ((0, 2), (0, 2))
        assert (data.rho_lo, data.rho_hi) == (2, 2)
        assert data.spectral_radius == pytest.approx(2, abs=1e-9)

    def test_identity_structure(self):
        data = markov_partition(identity_map())
        assert data.partition == (F(0), F(1))
        assert data.runs == ((0, 1),)
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

    def test_frontier_closure_matches_whole_set_closure(self):
        rng = random.Random(62)
        maps = [random_onto_map(rng) for _ in range(40)]
        maps += _lap_growth_giveup_maps()
        for f in maps:
            for max_points in (16, 64):
                data = markov_partition(f, max_points)
                partition = _whole_set_closure(f, max_points)
                assert (data is None) == (partition is None), f
                if data is None:
                    continue
                assert data.partition == tuple(partition)
                cells = list(zip(partition, partition[1:]))
                images = [sorted((f(a), f(b))) for a, b in cells]
                assert _dense(data.runs) == tuple(
                    tuple(int(lo <= c and d <= hi) for c, d in cells)
                    for lo, hi in images)

    @pytest.mark.parametrize("f", [tent(20), iterate(tent(3), 3)],
                             ids=["T20", "T3^3"])
    def test_closed_breakpoints_above_max_points(self, f):
        # f maps its breakpoints into themselves, so no round adds a point
        # and the bound is never checked
        data = markov_partition(f, max_points=16)
        assert data is not None
        assert list(data.partition) == _whole_set_closure(f, 16) == list(f.xs)

    def test_matrix_bounded_by_cap(self, monkeypatch):
        # T12's 13 breakpoints are closed under it: 12 cells, 144 entries
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "143")
        with pytest.raises(ResourceError,
                           match="needs 144 entries, above the cap 143"):
            markov_partition(tent(12))
        monkeypatch.setenv("ICM_BREAKPOINT_CAP", "144")
        assert len(markov_partition(tent(12)).runs) == 12

    def test_markov_agrees_with_lap_growth(self):
        k = 6
        for n in range(2, 6):
            data = markov_partition(tent(n))
            est = entropy_lap(tent(n), k).estimate
            assert abs(entropy_markov(data) - est) <= 2 * math.log(lap(tent(n))) / k


def _runs(matrix) -> list[tuple[int, int]]:
    """The (lo, hi) run of ones of each row of a 0/1 matrix."""
    runs = []
    for row in matrix:
        lo = row.index(1)
        hi = lo + row[lo:].index(0) if 0 in row[lo:] else len(row)
        assert not any(row[hi:]), "a row that is not one run"
        runs.append((lo, hi))
    return runs


def _dense(runs) -> tuple[tuple[int, ...], ...]:
    n = len(runs)
    return tuple(tuple(int(lo <= j < hi) for j in range(n)) for lo, hi in runs)


class TestPerronBracket:
    def test_golden_mean_exact(self):
        lo, hi = _perron_bracket([(0, 2), (0, 1)])
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
        assert lo * lo - lo - 1 <= 0 <= hi * hi - hi - 1
        assert hi - lo < PERRON_TOLERANCE

    def test_reducible_takes_largest_component(self):
        # components {0, 1} with root 2 and {2, 3} (a 2-cycle) with root 1
        lo, hi = _perron_bracket([(0, 3), (0, 2), (3, 4), (2, 3)])
        assert lo <= 2 <= hi
        assert hi - lo < PERRON_TOLERANCE

    @pytest.mark.xfail(strict=True, raises=InternalInvariantError,
                       reason="ROADMAP item 2: 256 rounds leave the width of "
                              "this cycle's bracket above the tolerance")
    def test_cycle_with_a_chord_converges(self):
        # the cycle 0 -> 1 -> ... -> 7 -> 0 plus the chord 0 -> 2
        runs = [(1, 3), *((i + 1, i + 2) for i in range(1, 7)), (0, 1)]
        lo, hi = _perron_bracket(runs)
        assert hi - lo < PERRON_TOLERANCE


def _det(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in rows]
    n, det = len(a), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    return det


def _char_poly_at(matrix, lam: Fraction) -> Fraction:
    n = len(matrix)
    return _det([[(lam if i == j else 0) - matrix[i][j] for j in range(n)]
                 for i in range(n)])


class TestPerronBracketExact:
    """The characteristic polynomial of an irreducible matrix changes sign
    at its Perron root, so det(lo*I - B) <= 0 <= det(hi*I - B)."""

    PLASTIC = ((0, 1, 0), (0, 0, 1), (1, 1, 0))  # root: the plastic number

    @pytest.mark.parametrize("n", [2, 3, 4, 5, None])
    def test_bracket_encloses_a_sign_change(self, n):
        runs = (_runs(self.PLASTIC) if n is None
                else markov_partition(tent(n)).runs)
        lo, hi = _perron_bracket(runs)
        matrix = _dense(runs)
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
        assert _char_poly_at(matrix, lo) <= 0 <= _char_poly_at(matrix, hi)
        assert hi - lo < PERRON_TOLERANCE


@cache
def _workloads():
    """The benchmark's input generators, perfbench/workloads.py, read-only."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("corpus_workloads", path)
    wl = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)  # its dataclasses look themselves up there
    return wl


@cache
def _lap_growth_giveup_maps() -> tuple[PLMap, ...]:
    """The 12 non-Markov maps of the benchmark's lap-growth workload, drawn
    as the benchmark draws them: their breakpoint orbits pass 256 points."""
    wl = _workloads()
    draw, need = random.Random(wl.LAP_CATALOGUE_SEED), dict(wl.LAP_QUOTA)
    maps = []
    while any(need.values()):
        f = PLMap(tuple(wl.random_onto_map(draw)))
        escaping = wl._escaping_orbits(f.points)
        if need.get(escaping):
            need[escaping] -= 1
            maps.append(f)
    assert len(maps) == 12
    return tuple(maps)


@cache
def _corpus_pairs_maps() -> tuple[PLMap, ...]:
    """The 48 maps of the benchmark's corpus-pairs workload: each base pair
    conjugated by three homeomorphisms, drawn as the benchmark draws them."""
    wl = _workloads()
    draw = random.Random(wl.CORPUS_CATALOGUE_SEED)
    bases = [(tent(n), tent(m)) for n, m in wl.CORPUS_TENTS]
    bases += [tuple(map(make_plmap, pair)) for pair in wl.NAMED_PAIRS.values()]
    maps = []
    for f, g in bases:
        for interior in range(3):
            h = PLMap(tuple(wl.random_homeo(draw, interior, interior == 2)))
            maps += [conjugate(f, h), conjugate(g, h)]
    assert len(maps) == 48
    return tuple(maps)


def _random_runs(rng: random.Random) -> list[tuple[int, int]]:
    """Up to 10 rows, each one run of ones, mostly short ones."""
    n = rng.randint(1, 10)
    runs = []
    for _ in range(n):
        lo = rng.randrange(n)
        runs.append((lo, rng.randint(lo + 1, min(n, lo + 3))))
    return runs


def _reference_markov(f: PLMap):
    """The partition, the cover matrix and its Perron bracket as the dense
    route builds them: the whole-set closure, the matrix entry by entry and
    the reference bracket. None when the closure exceeds 256 points."""
    partition = _whole_set_closure(f, 256)
    if partition is None:
        return None
    cells = list(zip(partition, partition[1:]))
    images = [sorted((f(a), f(b))) for a, b in cells]
    matrix = tuple(tuple(int(lo <= c and d <= hi) for c, d in cells)
                   for lo, hi in images)
    return tuple(partition), matrix, reference_bracket(matrix)


class TestPerronDifferential:
    """The run bracket against the dense reference (Tarjan's components and
    (column, entry) rows): the same Fractions, or the same exception."""

    @staticmethod
    def _outcome(bracket, matrix):
        try:
            return bracket(matrix)
        except InternalInvariantError as exc:
            return type(exc)

    def test_matches_dense_reference(self):
        rng = random.Random(24)
        maps = [tent(n) for n in range(2, 15)] + list(_corpus_pairs_maps())
        cases = [markov_partition(f).runs for f in maps]
        cases += [[(0, 2), (0, 1)], [(0, 3), (0, 2), (3, 4), (2, 3)],
                  _runs(TestPerronBracketExact.PLASTIC), [],
                  [(1, 2), (1, 2)]]  # 0 lies on no cycle, a zero block
        cases += [_random_runs(rng) for _ in range(3000)]
        reducible = 0
        for runs in cases:
            dense = _dense(runs)
            adj = [[j for j, e in enumerate(row) if e] for row in dense]
            reducible += len(_strong_components(adj)) > 1
            got = self._outcome(_perron_bracket, runs)
            assert got == self._outcome(reference_bracket, dense), runs
            assert isinstance(got, type) or all(
                type(v) is Fraction for v in got)
        assert reducible >= 300

    def test_markov_data_matches_dense_route(self, strongly_commuting_corpus):
        maps = [tent(n) for n in range(2, 15)] + list(_corpus_pairs_maps())
        maps += [m for _, f, g in strongly_commuting_corpus for m in (f, g)]
        for f in maps:
            data, ref = markov_partition(f), _reference_markov(f)
            assert (data is None) == (ref is None), f
            if data is None:
                continue
            partition, matrix, bracket = ref
            assert data.partition == partition, f
            assert data.runs == tuple(_runs(matrix)), f
            assert (data.rho_lo, data.rho_hi) == bracket, f
            assert all(type(v) is Fraction
                       for v in (*data.partition, data.rho_lo, data.rho_hi))


TINY = F(1, 2**70)  # 64 times closer than PLMap's 64-bit keys resolve


def _key(x: Fraction) -> int:
    return (x.numerator << 64) // x.denominator


def _value_by_bisect(f: PLMap, x: Fraction) -> Fraction:
    """f(x) by a Fraction `bisect` over the breakpoints and the line through
    the piece's ends: a reference that shares no code with `PLMap._rank`."""
    i = bisect_right(f.xs, x)
    (x0, y0), (x1, y1) = f.points[i - 1], f.points[min(i, len(f.xs) - 1)]
    return y0 if x == x0 else y0 + (y1 - y0) * (x - x0) / (x1 - x0)


class TestOrbitStep:
    """The integer step against `PLMap._value` and `_value_by_bisect` along
    whole orbits: the same point each time, as its coprime pair with a
    positive denominator."""

    @staticmethod
    def _follow(f: PLMap, starts, steps: int) -> set[tuple[int, int]]:
        step, seen = _orbit_step(f), set()
        for x in starts:
            pair = (x.numerator, x.denominator)
            for _ in range(steps):
                y, pair = f._value(x), step(pair)
                assert y == _value_by_bisect(f, x), (f, x)
                assert pair == (y.numerator, y.denominator), (f, x)
                x = y
                seen.add(pair)
        return seen

    def test_lap_growth_orbits_past_the_bound(self):
        # 300 steps from each breakpoint pass the 256 points at which the
        # closure gives up, with denominators of up to 950 bits
        bits = []
        for f in _lap_growth_giveup_maps():
            seen = self._follow(f, f.xs, 300)
            assert len(seen) > 256
            bits.append(max(q for _, q in seen).bit_length())
        assert min(bits) > 200 and max(bits) > 900

    def test_random_onto_maps(self):
        rng = random.Random(2801)
        ends = 0
        for denom in (6, 7, 12, 17):
            for _ in range(30):
                f = random_onto_map(rng, denom=denom)
                grid = [F(k, 3 * denom) for k in range(3 * denom + 1)]
                seen = self._follow(f, grid, 25)
                ends += (0, 1) in seen and (1, 1) in seen
        assert ends == 120  # an onto map takes the values 0 and 1

    def test_points_sharing_a_breakpoints_key(self):
        # x ± 2^-70 share the key of a breakpoint x that is not a multiple
        # of 2^-58, so only the exact tie-break places them on its two sides
        rng = random.Random(2802)
        maps = [random_onto_map(rng, denom=denom)
                for denom in (7, 12, 17) for _ in range(20)]
        maps += _lap_growth_giveup_maps() + (tent(3), tent(5))
        shared = 0
        for f in maps:
            near = [x + d for x in f.xs[1:-1] for d in (-TINY, TINY)
                    if _key(x + d) == _key(x)]
            shared += len(near)
            self._follow(f, [*f.xs, *near], 4)
        assert shared > 300


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

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_k_max_checked_on_the_markov_route(self, k_max):
        # both maps are Markov, so no lap count would check it
        with pytest.raises(DomainError, match="k_max must be a positive"):
            entropy_setvalued(tent(3), tent(4), k_max=k_max)

    def test_requires_strong_commutation(self):
        with pytest.raises(PreconditionError):
            entropy_setvalued(tent(4), tent(6))

    def test_lap_route_for_a_non_markov_map(self):
        # Its breakpoint orbit escapes the 256-point bound; it strongly
        # commutes with the identity, whose entropy is 0.
        f = make_plmap([(0, 0), ("1/2", 1), (1, "1/3")])
        assert markov_partition(f) is None
        value = entropy_setvalued(f, identity_map(), k_max=8)
        assert value == entropy_lap(f, 8).estimate == 0.5274384631470134
