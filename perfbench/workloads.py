"""Inputs, CLI call schedules and output checks of the three workloads.

A workload is a fixed list of op groups (one tent pair, one map's calls, one
pair's four verbs); a pass runs every group once, in an order drawn from the
seed. The maps are drawn from fixed generator seeds, so every seed measures
the same inputs, and a run measures whole passes only. Checks use the
benchmark's own evaluation of the generated maps and never the answer of
the timed call.
"""

from __future__ import annotations

import bisect
import collections
import json
import math
import random
import re
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ZERO, ONE = Fraction(0), Fraction(1)
ORBIT_BOUND = 256  # the default `max_points` of `markov_partition`


def laps(points) -> int:
    """Monotone branches of a canonical PL map given by its breakpoints."""
    ups = [y1 > y0 for (_, y0), (_, y1) in zip(points, points[1:])]
    return 1 + sum(a != b for a, b in zip(ups, ups[1:]))


# -- maps as plain breakpoint lists, evaluated without `icm` ------------------

class Pl:
    """A PL self-map of [0,1] from canonical breakpoints, for checking."""

    def __init__(self, points):
        self.points = [(Fraction(x), Fraction(y)) for x, y in points]
        self.xs = [x for x, _ in self.points]

    def __call__(self, x: Fraction) -> Fraction:
        i = min(max(bisect.bisect_right(self.xs, x) - 1, 0),
                len(self.xs) - 2)
        (x0, y0), (x1, y1) = self.points[i], self.points[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def orbit_closure(self):
        """Breakpoint orbit closure as `icm.entropy.markov_partition` builds
        it: (sorted points, None) when finite, else (None, iterations to
        exceed its bound of ORBIT_BOUND points)."""
        pts = set(self.xs)
        frontier = list(pts)
        rounds = 0
        while True:
            rounds += 1
            new = {self(x) for x in frontier} - pts
            if not new:
                return sorted(pts), None
            pts |= new
            if len(pts) > ORBIT_BOUND:
                return None, rounds
            frontier = list(new)


def parse_pwl(text: str) -> list[tuple[Fraction, Fraction]]:
    points = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            x, y = line.split()
            points.append((Fraction(x), Fraction(y)))
    return points


def perron_log_bracket(f: Pl) -> tuple[float, float]:
    """Float bracket [log lo, log hi] of the Perron root of the 0/1 cover
    matrix of the orbit-closure partition of a Markov map.

    Collatz-Wielandt bounds of B + I on each strongly connected block are
    valid for every positive vector, so the bracket holds even if the power
    iteration stops before converging.
    """
    partition, _ = f.orbit_closure()
    cells = list(zip(partition, partition[1:]))
    n = len(cells)
    images = [sorted((f(a), f(b))) for a, b in cells]
    adj = [[j for j, (c, d) in enumerate(cells) if lo <= c and d <= hi]
           for lo, hi in images]
    reach = []
    for i in range(n):
        seen, stack = {i}, [i]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    best_lo = best_hi = 0.0
    done: set[int] = set()
    for i in range(n):
        if i in done:
            continue
        block = sorted(j for j in reach[i] if i in reach[j])
        done.update(block)
        index = {v: k for k, v in enumerate(block)}
        rows = [[index[j] for j in adj[v] if j in index] for v in block]
        x = [1.0] * len(block)
        lo = hi = 1.0
        for _ in range(20000):
            y = [xi + sum(x[j] for j in row) for xi, row in zip(x, rows)]
            quotients = [yi / xi for yi, xi in zip(y, x)]
            lo, hi = max(lo, min(quotients)), max(quotients)
            if hi - lo <= 1e-13 * hi:
                break
            top = max(y)
            x = [v / top for v in y]
        best_lo, best_hi = max(best_lo, lo - 1), max(best_hi, hi - 1)
    return math.log(best_lo), math.log(best_hi)


def write_map(workdir: Path, name: str, points) -> str:
    path = workdir / f"{name}.pwl"
    path.write_text("".join(f"{x} {y}\n" for x, y in points), encoding="utf-8")
    return str(path)


def _value_after_tilde(out: str) -> float:
    return float(out.strip().rsplit("~=", 1)[1])


@dataclass
class Op:
    """One CLI call, the check of its (exit code, stdout), and how often the
    timed loop saw each distinct (exit code, stdout)."""

    argv: list[str]
    check: Callable[[int, str], bool]
    seen: collections.Counter = field(default_factory=collections.Counter,
                                      repr=False)

    def accepts(self, code: int | None, out: str) -> bool:
        if code is None:  # the call raised
            return False
        try:
            return bool(self.check(code, out))
        except Exception:  # a check that cannot read the output fails the op
            traceback.print_exc()
            return False


@dataclass
class Pool:
    groups: list[list[Op]]
    properties: dict[str, float]


# -- tent-pairs -----------------------------------------------------------------

TENT_MAX = 14


def build_tent_pairs(icm, workdir: Path) -> Pool:
    """Every (n, m) in [2, TENT_MAX]^2."""
    paths = {n: write_map(workdir, f"T{n}", icm.tent(n).points)
             for n in range(2, TENT_MAX + 1)}
    grid = [(n, m) for n in paths for m in paths]

    def op(n, m):
        want = math.gcd(n, m) == 1
        text = "true" if want else "false"
        return Op(["strong-commute", paths[n], paths[m]],
                  lambda code, out: code == (0 if want else 1)
                  and out.strip() == text)

    coprime = sum(math.gcd(n, m) == 1 for n, m in grid) / len(grid)
    return Pool([[op(n, m)] for n, m in grid], {"coprime_share": coprime})


# -- lap-growth -----------------------------------------------------------------

LAP_K = 6
LAP_LADDER = (4, 5, 6)
# The maps are drawn once from this fixed seed: their lap growth and orbit
# lengths set the cost of each call, so the run seed only orders them.
LAP_CATALOGUE_SEED = 1
# Non-Markov maps by the number of breakpoint orbits that escape, read off
# the iterations the orbit closure takes to pass 256 points (about 256, 128
# and fewer). The class sets the cost of giving up. Among 302 non-Markov
# maps of this generator the shares were 59%, 33% and 8%, so 7:4:1 of 12.
LAP_QUOTA = {1: 7, 2: 4, 3: 1}


def random_onto_map(rng):
    """Onto map on the 1/12 grid with 1 to 4 interior breakpoints, drawn as
    in the test-suite generator."""
    denom = 12
    while True:
        k = rng.randint(1, 4)
        xs = sorted(rng.sample(range(1, denom), k))
        ys = [rng.randint(0, denom) for _ in range(k + 2)]
        hit = rng.sample(range(k + 2), 2)
        ys[hit[0]], ys[hit[1]] = 0, denom
        if any(a == b for a, b in zip(ys, ys[1:])):
            continue
        return ([(ZERO, Fraction(ys[0], denom))]
                + [(Fraction(x, denom), Fraction(y, denom))
                   for x, y in zip(xs, ys[1:-1])]
                + [(ONE, Fraction(ys[-1], denom))])


def _iterate_check(f: Pl, j: int, seen: dict, expect_laps: int | None):
    def check(code, out):
        g = Pl(parse_pwl(out))
        if code != 0 or g.xs[0] != 0 or g.xs[-1] != 1:
            return False
        if any(a >= b for a, b in zip(g.xs, g.xs[1:])):
            return False
        probes = g.xs + [(a + b) / 2 for a, b in zip(g.xs, g.xs[1:])]
        for x in probes:
            y = x
            for _ in range(j):
                y = f(y)
            if y != g(x):
                return False
        if expect_laps is not None and laps(g.points) != expect_laps:
            return False
        seen[j] = laps(g.points)
        return True
    return check


def _lap_entropy_check(seen: dict, k: int):
    pattern = re.compile(rf"log\((\d+)\)/{k} ~= (\S+)")

    def check(code, out):
        match = pattern.fullmatch(out.strip())
        if code != 0 or match is None:
            return False
        count = int(match.group(1))
        return (count == seen.get(k)
                and abs(float(match.group(2)) - math.log(count) / k) <= 1e-9)
    return check


def _t3_entropy_check(code, out):
    return (code == 0 and out.startswith("log 3 ~= ")
            and abs(_value_after_tilde(out) - math.log(3)) <= 1e-9)


def _escaping_orbits(points) -> int | None:
    """1, 2 or 3 (3 or more) escaping orbits; None for a Markov map, on
    which `entropy` would not take the lap route."""
    _, rounds = Pl(points).orbit_closure()
    return None if rounds is None else min(3, ORBIT_BOUND // rounds)


def build_lap_growth(icm, workdir: Path) -> Pool:
    groups, escapes = [], []

    def map_ops(path, points, markov):
        f, seen = Pl(points), {}
        ops = [Op(["iterate", path, str(j)],
                  _iterate_check(f, j, seen, 3 ** j if markov else None))
               for j in LAP_LADDER]
        check = _t3_entropy_check if markov else _lap_entropy_check(seen, LAP_K)
        ops.append(Op(["entropy", path, "--iters", str(LAP_K)], check))
        return ops

    draw, need = random.Random(LAP_CATALOGUE_SEED), dict(LAP_QUOTA)
    while any(need.values()):
        points = icm.PLMap(tuple(random_onto_map(draw))).points
        escaping = _escaping_orbits(points)
        if need.get(escaping):
            need[escaping] -= 1
            escapes.append(escaping)
            path = write_map(workdir, f"L{len(escapes)}", points)
            groups.append(map_ops(path, points, markov=False))
    t3 = icm.tent(3).points
    groups.append(map_ops(write_map(workdir, "T3", t3), t3, markov=True))
    return Pool(groups, {"giveup_share": len(escapes) / len(groups),
                         "escaping_orbits_mean": sum(escapes) / len(escapes)})


# -- corpus-pairs ----------------------------------------------------------------

CORPUS_TENTS = [(n, m) for n in range(2, 6) for m in range(n + 1, 6)
                if math.gcd(n, m) == 1]
# Homeomorphisms live on the 1/17 grid. They are drawn once from a fixed
# seed, because the size of a conjugated pair sets its cost; the run seed
# only orders the pairs.
HOMEO_DENOM = 17
CORPUS_CATALOGUE_SEED = 1

# The named strongly commuting pairs of the test suite: an invariant chain,
# a block swap and a double reversal.
_SWAP_F = [(0, "3/4"), ("1/4", 1), ("1/2", "3/4"), ("3/4", "1/2"),
           ("7/8", 0), (1, "1/2")]
NAMED_PAIRS = {
    "chain": ([(0, "1/3"), ("1/6", 0), ("1/3", "1/3"), ("4/9", "5/9"),
               ("5/9", "4/9"), ("2/3", "2/3"), (1, 1)],
              [(0, 0), ("1/9", "1/3"), ("2/9", 0), ("1/3", "1/3"),
               ("2/3", "2/3"), ("5/6", 1), ("11/12", "5/6"), (1, 1)]),
    "swap": (_SWAP_F,
             [(0, 0), ("1/6", "1/2"), ("1/3", 0), ("1/2", "1/2"),
              ("7/12", "2/3"), ("2/3", "7/12"), ("3/4", "3/4"),
              ("5/6", 1), ("11/12", "3/4"), (1, 1)]),
    "reversal": (_SWAP_F,
                 [(0, 1), ("1/6", "3/4"), ("1/3", 1), ("1/2", "3/4"),
                  ("7/12", "7/12"), ("2/3", "2/3"), ("3/4", "1/2"),
                  ("5/6", 0), ("11/12", "1/2"), (1, 0)]),
}


def random_homeo(rng, interior: int, decreasing: bool):
    """PL homeomorphism with `interior` breakpoints on the 1/HOMEO_DENOM grid."""
    denom = HOMEO_DENOM
    xs = sorted(rng.sample(range(1, denom), interior))
    ys = sorted(rng.sample(range(1, denom), interior))
    points = [(0, 0)] + list(zip(xs, ys)) + [(denom, denom)]
    if decreasing:
        points = [(x, denom - y) for x, y in points]
    return [(Fraction(x, denom), Fraction(y, denom)) for x, y in points]


class _Pair:
    """Checks shared by the four verbs called on one pair."""

    def __init__(self, icm, f, g, entropy_bracket):
        self.icm, self.f, self.g = icm, f, g
        self.pf, self.pg = Pl(f.points), Pl(g.points)
        self.entropy_bracket = entropy_bracket
        self._oracle = None

    def oracle(self) -> bool:
        if self._oracle is None:
            self._oracle = self.icm.oracle.brute_force_strong_commute(
                self.f, self.g, 360)
        return self._oracle

    def verify(self, code, out):
        lines = out.strip().splitlines()
        return (code == 0 and lines and all(l.startswith("ok") for l in lines)
                and self.oracle())

    def decompose(self, code, out):
        icm = self.icm
        data = json.loads(out)
        blocks = tuple(
            icm.BlockInfo(icm.Interval(*map(Fraction, b["interval"])), tuple(
                (key, icm.RestrictionInfo(
                    info["tag"], icm.Interval(*map(Fraction, info["image"])),
                    icm.Interval(*map(Fraction, info["codomain"]))))
                for key, info in b["maps"].items()))
            for b in data["intervals"])
        decomposition = icm.Decomposition(
            tuple(map(Fraction, data["points"])), data["case"],
            data["reverser"], blocks)
        return (code == 0 and icm.verify_decomposition(
            self.f, self.g, decomposition).passed)

    def common_fixed_point(self, code, out):
        p = Fraction(out.strip())
        return code == 0 and self.pf(p) == p and self.pg(p) == p

    def entropy(self, code, out):
        lo, hi, tol = self.entropy_bracket(self)
        return code == 0 and lo - tol <= float(out) <= hi + tol


def build_corpus_pairs(icm, workdir: Path) -> Pool:
    """Every base pair conjugated by homeomorphisms with 0, 1 and 2 interior
    breakpoints; the one with 2 is decreasing."""
    draw = random.Random(CORPUS_CATALOGUE_SEED)
    groups, breakpoints = [], []
    bases = [(icm.tent(n), icm.tent(m), math.log(max(n, m)))
             for n, m in CORPUS_TENTS]
    bases += [(*(icm.make_plmap(p) for p in pair), None)
              for pair in NAMED_PAIRS.values()]
    for base_f, base_g, value in bases:
        for interior in range(3):
            h = icm.PLMap(tuple(random_homeo(draw, interior, interior == 2)))
            f, g = icm.conjugate(base_f, h), icm.conjugate(base_g, h)
            breakpoints.append(len(f.points) + len(g.points))
            name = f"C{len(breakpoints)}"
            pf = write_map(workdir, name + "f", f.points)
            pg = write_map(workdir, name + "g", g.points)
            bracket = (_named_entropy_bracket if value is None
                       else lambda pair, v=value: (v, v, 1e-9))
            pair = _Pair(icm, f, g, bracket)
            groups.append([
                Op(["verify", pf, pg], pair.verify),
                Op(["decompose", pf, pg, "--format", "json"], pair.decompose),
                Op(["common-fixed-point", pf, pg], pair.common_fixed_point),
                Op(["entropy", pf, pg], pair.entropy),
            ])
    return Pool(groups, {
        "breakpoints_mean": sum(breakpoints) / len(breakpoints)})


def _named_entropy_bracket(pair: _Pair):
    """max of the two entropies, from the benchmark's own Perron bracket."""
    (flo, fhi), (glo, ghi) = (perron_log_bracket(pair.pf),
                              perron_log_bracket(pair.pg))
    return max(flo, glo), max(fhi, ghi), 1e-6


WORKLOADS = {
    "tent-pairs": build_tent_pairs,
    "lap-growth": build_lap_growth,
    "corpus-pairs": build_corpus_pairs,
}
