"""Shared fixtures: the named example maps and deterministic map generators."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from icm import (PLMap, compose, conjugate, identity_map, iterate, make_plmap,
                 tent)


@pytest.fixture(autouse=True)
def _default_breakpoint_cap(monkeypatch):
    """The library reads ICM_BREAKPOINT_CAP at call time: every test starts
    from the default cap, whatever the environment it runs in."""
    monkeypatch.delenv("ICM_BREAKPOINT_CAP", raising=False)


# -- named example maps -----------------------------------------------------

def hat_demo_pair() -> tuple[PLMap, PLMap]:
    """A non-commuting pair whose pullback graph shows a hat and an isolated
    point: f peaks at 1/3 then rises, g drifts down from 2/3."""
    f = make_plmap([(0, 0), ("1/3", "2/3"), ("2/3", 0), (1, 1)])
    g = make_plmap([(0, "2/3"), ("1/6", 1), ("1/3", "2/3"),
                    ("2/3", "1/3"), ("5/6", 0), (1, "1/3")])
    return f, g


def invariant_chain_pair() -> tuple[PLMap, PLMap]:
    """Strongly commuting pair with the common invariant blocks
    [0,1/3], [1/3,2/3], [2/3,1]."""
    f = make_plmap([(0, "1/3"), ("1/6", 0), ("1/3", "1/3"), ("4/9", "5/9"),
                    ("5/9", "4/9"), ("2/3", "2/3"), (1, 1)])
    g = make_plmap([(0, 0), ("1/9", "1/3"), ("2/9", 0), ("1/3", "1/3"),
                    ("2/3", "2/3"), ("5/6", 1), ("11/12", "5/6"), (1, 1)])
    return f, g


def block_swap_pair() -> tuple[PLMap, PLMap]:
    """Strongly commuting pair where f exchanges [0,1/2] and [3/4,1] while
    g keeps every block invariant."""
    f = make_plmap([(0, "3/4"), ("1/4", 1), ("1/2", "3/4"), ("3/4", "1/2"),
                    ("7/8", 0), (1, "1/2")])
    g = make_plmap([(0, 0), ("1/6", "1/2"), ("1/3", 0), ("1/2", "1/2"),
                    ("7/12", "2/3"), ("2/3", "7/12"), ("3/4", "3/4"),
                    ("5/6", 1), ("11/12", "3/4"), (1, 1)])
    return f, g


def double_reversal_pair() -> tuple[PLMap, PLMap]:
    """Strongly commuting pair where both maps exchange the outer blocks."""
    f = block_swap_pair()[0]
    g = make_plmap([(0, 1), ("1/6", "3/4"), ("1/3", 1), ("1/2", "3/4"),
                    ("7/12", "7/12"), ("2/3", "2/3"), ("3/4", "1/2"),
                    ("5/6", 0), ("11/12", "1/2"), (1, 0)])
    return f, g


def wiggly_staircase_map() -> PLMap:
    """An increasing-on-average map with three folding bands, whose primary
    critical values are 1/11, 3/11, 4/11, 6/11, 7/11, 10/11."""
    return make_plmap([(0, 0), ("1/11", "3/11"), ("2/11", "1/11"),
                       ("3/11", "5/11"), ("4/11", "4/11"), ("5/11", "6/11"),
                       ("6/11", "5/11"), ("7/11", "10/11"), ("8/11", "8/11"),
                       ("9/11", "9/11"), ("10/11", "7/11"), (1, 1)])


def alternating_map(n: int = 100) -> PLMap:
    """An onto map with n (even) critical points, whose values alternate
    1/4, 3/4: each is a non-critical value of every tent map, taken once
    per branch."""
    ys = [Fraction(1), *(Fraction(1 + 2 * (i % 2), 4) for i in range(n)),
          Fraction(0)]
    return PLMap(tuple((Fraction(i, n + 1), y) for i, y in enumerate(ys)))


# -- references -----------------------------------------------------------------

def fraction_straight(p, q, r) -> bool:
    """The straightness test on Fraction points that the integer
    `_straight` replaced, kept as its reference: the pieces p-q and q-r
    run the same way along one line."""
    (x0, y0), (x1, y1) = p, q
    return (y0 < y1) == (y1 < r[1]) and \
        (y1 - y0) * (r[0] - x1) == (r[1] - y1) * (x1 - x0)


# -- deterministic generators -------------------------------------------------

def random_onto_map(rng: random.Random, max_interior: int = 5,
                    denom: int = 12) -> PLMap:
    while True:
        k = rng.randint(1, max_interior)
        xs = sorted(rng.sample(range(1, denom), k))
        ys = [rng.randint(0, denom) for _ in range(k + 2)]
        hit = rng.sample(range(k + 2), 2)
        ys[hit[0]], ys[hit[1]] = 0, denom
        if any(a == b for a, b in zip(ys, ys[1:])):
            continue
        points = [(Fraction(0), Fraction(ys[0], denom))]
        points += [(Fraction(x, denom), Fraction(y, denom))
                   for x, y in zip(xs, ys[1:-1])]
        points.append((Fraction(1), Fraction(ys[-1], denom)))
        return PLMap(tuple(points))


def random_into_map(rng: random.Random, max_interior: int = 5,
                    denom: int = 12) -> PLMap:
    """A map whose values lie in a band [a/denom, b/denom] other than [0, 1]."""
    while True:
        k = rng.randint(1, max_interior)
        a = rng.randint(0, denom - 1)
        b = rng.randint(a + 1, denom)
        ys = [rng.randint(a, b) for _ in range(k + 2)]
        if (a, b) == (0, denom) or any(p == q for p, q in zip(ys, ys[1:])):
            continue
        xs = [0, *sorted(rng.sample(range(1, denom), k)), denom]
        return PLMap(tuple((Fraction(x, denom), Fraction(y, denom))
                           for x, y in zip(xs, ys)))


def random_diagonal_map(rng: random.Random, max_interior: int = 6,
                        denom: int = 12) -> PLMap:
    """A map whose breakpoints lie on the diagonal about half the time, so
    that fixed points come in segments as well as alone; onto or not."""
    while True:
        k = rng.randint(1, max_interior)
        xs = [0, *sorted(rng.sample(range(1, denom), min(k, denom - 1))),
              denom]
        ys = [x if rng.random() < 0.5 else rng.randint(0, denom) for x in xs]
        if all(a != b for a, b in zip(ys, ys[1:])):
            return PLMap(tuple((Fraction(x, denom), Fraction(y, denom))
                               for x, y in zip(xs, ys)))


def random_homeo(rng: random.Random, max_interior: int = 3,
                 denom: int = 16, decreasing: bool = False) -> PLMap:
    k = rng.randint(0, max_interior)
    xs = sorted(rng.sample(range(1, denom), k)) if k else []
    ys = sorted(rng.sample(range(1, denom), k)) if k else []
    points = [(Fraction(0), Fraction(0))]
    points += [(Fraction(x, denom), Fraction(y, denom)) for x, y in zip(xs, ys)]
    points.append((Fraction(1), Fraction(1)))
    h = PLMap(tuple(points))
    if decreasing:
        flip = make_plmap([(0, 1), (1, 0)])
        h = compose(flip, h)
    return h


def conjugated_tent_pair(rng: random.Random, n: int, m: int) -> tuple[PLMap, PLMap]:
    h = random_homeo(rng, decreasing=rng.random() < 0.25)
    return conjugate(tent(n), h), conjugate(tent(m), h)


def coprime_pair(rng: random.Random, lo: int = 2, hi: int = 7) -> tuple[int, int]:
    while True:
        n, m = rng.randint(lo, hi), rng.randint(lo, hi)
        if math.gcd(n, m) == 1:
            return n, m


def mirror(f: PLMap) -> PLMap:
    """The half-turn x -> 1 - f(1 - x) of f."""
    return PLMap(tuple((1 - x, 1 - y) for x, y in reversed(f.points)))


def glued_pair(rng: random.Random, denom: int = 24) -> tuple[PLMap, PLMap]:
    """A strongly commuting pair glued from block pairs on 1 to 3 cuts of
    the 1/denom grid.

    Both maps send every block onto itself, so they fix every cut, and the
    two sides of f∘g⁻¹ = g⁻¹∘f can differ only where f(x) is a cut. Every
    cut has the identity pair on one side, which takes the cut's value only
    at the cut, so the glued pair strongly commutes. The other blocks carry
    coprime tents T_n, T_m, conjugated by a random increasing homeomorphism:
    as they are where the block's left end must be fixed, mirrored where
    only its right end must be, both odd where both must be. Half of the
    glued pairs are conjugated once more as a whole.
    """
    cuts = [0, *sorted(rng.sample(range(1, denom), rng.randint(1, 3))), denom]
    k = len(cuts) - 1
    tents = [False] * k
    while not any(tents):
        for i in range(k):
            tents[i] = not (i and tents[i - 1]) and rng.random() < 0.6
    f_pts, g_pts = [], []
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        f = g = identity_map()
        if tents[i]:
            fix_lo, fix_hi = i > 0, i < k - 1
            while True:
                n, m = coprime_pair(rng, hi=9)
                if not (fix_lo and fix_hi) or n % 2 == m % 2 == 1:
                    break
            f, g = tent(n), tent(m)
            if fix_hi and not fix_lo:
                f, g = mirror(f), mirror(g)
            h = random_homeo(rng)
            f, g = conjugate(f, h), conjugate(g, h)
        w, c = Fraction(hi - lo, denom), Fraction(lo, denom)
        for out, m in ((f_pts, f), (g_pts, g)):
            out += [(c + w * x, c + w * y) for x, y in m.points[bool(i):]]
    f, g = PLMap(tuple(f_pts)), PLMap(tuple(g_pts))
    if rng.random() < 0.5:
        h = random_homeo(rng, decreasing=rng.random() < 0.5)
        f, g = conjugate(f, h), conjugate(g, h)
    return f, g


# -- corpora -------------------------------------------------------------------

@pytest.fixture(scope="session")
def strongly_commuting_corpus() -> list[tuple[str, PLMap, PLMap]]:
    corpus: list[tuple[str, PLMap, PLMap]] = []
    for n in range(2, 11):
        for m in range(2, 11):
            if math.gcd(n, m) == 1:
                corpus.append((f"tent({n}),tent({m})", tent(n), tent(m)))
    corpus.append(("invariant-chain", *invariant_chain_pair()))
    corpus.append(("block-swap", *block_swap_pair()))
    corpus.append(("double-reversal", *double_reversal_pair()))
    rng = random.Random(20260811)
    for i in range(20):
        n, m = coprime_pair(rng)
        f, g = conjugated_tent_pair(rng, n, m)
        corpus.append((f"conj#{i}(T{n},T{m})", f, g))
    rng = random.Random(5551212)
    for i in range(4):
        h = random_homeo(rng, decreasing=i == 3)
        for label, (f, g) in (("chain", invariant_chain_pair()),
                              ("swap", block_swap_pair()),
                              ("reversal", double_reversal_pair())):
            corpus.append((f"conj-{label}#{i}",
                           conjugate(f, h), conjugate(g, h)))
    return corpus


@pytest.fixture(scope="session")
def commuting_corpus(strongly_commuting_corpus) -> list[tuple[str, PLMap, PLMap]]:
    """Commuting (not necessarily strongly) pairs: tents with any gcd,
    iterate pairs, and the strongly commuting corpus."""
    corpus = list(strongly_commuting_corpus)
    for n in range(2, 9):
        for m in range(2, 9):
            if math.gcd(n, m) != 1:
                corpus.append((f"tent({n}),tent({m})", tent(n), tent(m)))
    rng = random.Random(424242)
    for i in range(15):
        f = random_onto_map(rng, max_interior=3)
        corpus.append((f"self-iterate#{i}", f, iterate(f, 2)))
    return corpus
