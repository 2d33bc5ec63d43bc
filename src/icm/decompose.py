"""Invariant-interval decompositions of strongly commuting pairs.

The pipeline: primary critical values and their exacting points classify a
map as order preserving, order reversing, or degenerate on its macro blocks;
preserving pairs are split at common fixed points until every block carries
an open restriction; reversing maps are handled through their squares and a
final refinement that pairs each block with its mirror image.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (FULL, Interval, PLMap, ZERO, ONE, compose)
from .errors import (DomainError, InternalInvariantError, NotFoundError,
                     PreconditionError)
from .report import Report
from .setvalued import strongly_commute

PRESERVING = "preserving"
REVERSING = "reversing"
DEGENERATE = "degenerate"

MONOTONE = "monotone"
OPEN = "open-non-monotone"
NONOPEN = "non-open-non-monotone"


# -- primary critical values ----------------------------------------------------

@dataclass(frozen=True)
class PrimaryValues:
    """Primary critical values with boundary conventions and exacting points.

    ``values`` always starts at 0 and ends at 1; ``start_index`` records the
    index of ``values[0]`` in the customary numbering (0 when 0 is only a
    convention, 1 when 0 is itself a critical value). ``exacting`` is aligned
    with ``values``; entries are None where no exacting point is determined
    (open maps collapse the machinery).
    """

    values: tuple[Fraction, ...]
    start_index: int
    exacting: tuple[Optional[Fraction], ...]
    orientation: str

    @property
    def interior_values(self) -> tuple[Fraction, ...]:
        return tuple(v for v in self.values if ZERO < v < ONE)

    @property
    def exacting_points(self) -> tuple[Fraction, ...]:
        return tuple(t for t in self.exacting if t is not None)

    @property
    def exacting_complete(self) -> bool:
        return all(t is not None for t in self.exacting)

    def gap_parity(self, j: int) -> int:
        """Parity of the gap between values[j] and values[j+1]."""
        return (self.start_index + j) % 2


def _is_primary(f: PLMap, v: Fraction) -> bool:
    below_open = f.sublevel_connected(v, strict=True)
    above_closed = f.superlevel_connected(v, strict=False)
    below_closed = f.sublevel_connected(v, strict=False)
    above_open = f.superlevel_connected(v, strict=True)
    return (below_open and above_closed) or (below_closed and above_open)


def primary_critical_values(f: PLMap) -> PrimaryValues:
    """Critical values whose sub/superlevel preimages split connectedly.

    Empty preimages count as connected, which makes 0 and 1 automatically
    primary whenever they are critical values; otherwise they are appended
    as boundary conventions.
    """
    if not f.is_onto():
        raise PreconditionError("primary critical values require an onto map")
    crit = f.critical_points()
    crit_values = sorted({f(c) for c in crit.xs})
    values = [v for v in crit_values if _is_primary(f, v)]
    start_index = 1
    if ZERO not in crit_values:
        values.insert(0, ZERO)
        start_index = 0
    if ONE not in crit_values:
        values.append(ONE)
    values = tuple(values)
    exacting, odd_ok, pairs = _extract_exacting(f, values, start_index, crit)
    orient = _classify_orientation(f, exacting, odd_ok, pairs)
    return PrimaryValues(values, start_index, exacting, orient)


def _extract_exacting(f: PLMap, values: tuple[Fraction, ...], start: int,
                      crit) -> tuple[tuple[Optional[Fraction], ...], bool, int]:
    k = len(values)
    t: list[Optional[Fraction]] = [None] * k
    odd_ok = True
    pairs = 0
    for j in range(k - 1):
        if (start + j) % 2 != 1:
            continue
        comps = f.preimage_interval(Interval(values[j], values[j + 1]))
        if len(comps) != 1:
            odd_ok = False
            continue
        a, b = comps[0].lo, comps[0].hi
        fa, fb = f(a), f(b)
        if a in crit or b in crit:
            odd_ok = False
            continue
        if fa == values[j] and fb == values[j + 1]:
            t[j], t[j + 1] = a, b
            pairs += 1
        elif fa == values[j + 1] and fb == values[j]:
            t[j], t[j + 1] = b, a
            pairs += 1
        else:
            odd_ok = False
    # Boundary points of the sequence sit on even edge gaps, where the map
    # crosses the band monotonically; recover them from the open band.
    for j_gap, idx in ((0, 0), (k - 2, k - 1)):
        if k < 2 or (start + j_gap) % 2 == 1 or t[idx] is not None:
            continue
        comps = f.band_components(values[j_gap], values[j_gap + 1])
        if len(comps) != 1:
            continue
        a, b = comps[0][0], comps[0][1]
        fa, fb = f(a), f(b)
        lo_v, hi_v = values[j_gap], values[j_gap + 1]
        if {fa, fb} != {lo_v, hi_v}:
            continue
        cand = a if fa == values[idx] else b
        if cand in crit:
            continue
        other = b if cand == a else a
        other_idx = j_gap + 1 if idx == j_gap else j_gap
        if t[other_idx] is not None and t[other_idx] != other:
            continue
        t[idx] = cand
    return tuple(t), odd_ok, pairs


def _running_max_vertices(f: PLMap) -> list[tuple[Fraction, Fraction]]:
    cur = f(ZERO)
    verts = [(ZERO, cur)]
    for (x0, y0), (x1, y1) in f.segments():
        if y1 <= cur:
            verts.append((x1, cur))
            continue
        xc = x0 if y0 == cur else x0 + (cur - y0) * (x1 - x0) / (y1 - y0)
        if xc > verts[-1][0]:
            verts.append((xc, cur))
        verts.append((x1, y1))
        cur = y1
    return verts


def _pl_nonpositive_somewhere(verts: list[tuple[Fraction, Fraction]]) -> bool:
    """Whether the PL function with these (x, value) vertices is <= 0 at some
    interior point of (0, 1)."""
    for x, d in verts:
        if ZERO < x < ONE and d <= 0:
            return True
    for (x0, d0), (x1, d1) in zip(verts, verts[1:]):
        if d0 <= 0 and d1 <= 0:
            mid = (x0 + x1) / 2
            if ZERO < mid < ONE:
                return True
        elif min(d0, d1) < 0 < max(d0, d1):
            r = x0 + (x1 - x0) * d0 / (d0 - d1)
            if ZERO < r < ONE:
                return True
    return False


def _has_invariant_prefix(f: PLMap) -> bool:
    verts = [(x, m - x) for x, m in _running_max_vertices(f)]
    return _pl_nonpositive_somewhere(verts)


def _has_invariant_suffix(f: PLMap) -> bool:
    """A suffix of f is an invariant prefix of x -> 1 - f(1 - x)."""
    return _has_invariant_prefix(
        PLMap(tuple((ONE - x, ONE - y) for x, y in reversed(f.points))))


def _has_swap_structure(f: PLMap) -> bool:
    """Whether a prefix [0,x] and suffix [y,1] exist that f exchanges."""
    x = ZERO
    for _ in range(2 * len(f.points) + 8):
        y = f.image(Interval(ZERO, x)).lo
        if y <= x:
            return False
        x_new = f.image(Interval(y, ONE)).hi
        if x_new >= y:
            return False
        if x_new == x:
            return ZERO < x < y < ONE
        x = x_new
    return False


def _classify_orientation(f: PLMap, exacting, odd_ok: bool, pairs: int) -> str:
    seq = [t for t in exacting if t is not None]
    if odd_ok and pairs >= 1:
        if all(a < b for a, b in zip(seq, seq[1:])):
            return PRESERVING
        if all(a > b for a, b in zip(seq, seq[1:])):
            return REVERSING
    # The exacting machinery collapses for open maps and for maps whose
    # extreme values are reached only at critical points; classify those by
    # macro block structure instead.
    if f.is_open_on(FULL, FULL):
        return DEGENERATE
    if _has_invariant_prefix(f) or _has_invariant_suffix(f):
        return PRESERVING
    if _has_swap_structure(f):
        return REVERSING
    return DEGENERATE


def orientation(f: PLMap) -> str:
    """Order behaviour of f on its exacting points: preserving, reversing,
    or degenerate (treated as preserving by the decomposition)."""
    return primary_critical_values(f).orientation


# -- split points ---------------------------------------------------------------

def _halves_invariant(f: PLMap, g: PLMap, J: Interval, p: Fraction) -> bool:
    left, right = Interval(J.lo, p), Interval(p, J.hi)
    return (left.contains_interval(f.image(left))
            and left.contains_interval(g.image(left))
            and right.contains_interval(f.image(right))
            and right.contains_interval(g.image(right)))


def _split_point(f: PLMap, g: PLMap, J: Interval) -> Fraction:
    """Least common fixed point splitting J into two invariant halves."""
    common = f.fixed_points(J).intersect(g.fixed_points(J))
    candidates: list[Fraction] = []
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


def split_common_fixed(f: PLMap, g: PLMap, J: Interval) -> Fraction:
    """Common fixed point p in int(J) with [J.lo, p] and [p, J.hi] invariant
    under both maps; the least such point.

    Preconditions: both restrictions are onto J, strongly commute as a pair
    on J, and neither is open.
    """
    if f.image(J) != J or g.image(J) != J:
        raise PreconditionError(f"restrictions to {J} must be onto {J}")
    if f.is_open_on(J, J) or g.is_open_on(J, J):
        raise PreconditionError("an open restriction never needs splitting")
    if not strongly_commute(f.restrict_to_unit(J), g.restrict_to_unit(J)):
        raise PreconditionError(f"restrictions to {J} do not strongly commute")
    return _split_point(f, g, J)


# -- the decomposition ------------------------------------------------------------

@dataclass(frozen=True)
class RestrictionInfo:
    tag: str
    image: Interval
    codomain: Interval


@dataclass(frozen=True)
class BlockInfo:
    interval: Interval
    restrictions: tuple[tuple[str, RestrictionInfo], ...]

    def get(self, name: str) -> RestrictionInfo:
        for key, info in self.restrictions:
            if key == name:
                return info
        raise KeyError(name)


@dataclass(frozen=True)
class Decomposition:
    points: tuple[Fraction, ...]
    case: str  # "a" | "b" | "c"
    reverser: Optional[str]  # "f" or "g" in case b, None otherwise
    blocks: tuple[BlockInfo, ...]

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(Interval(a, b) for a, b in zip(self.points, self.points[1:]))

    def as_dict(self) -> dict:
        return {
            "points": [str(p) for p in self.points],
            "case": self.case,
            "reverser": self.reverser,
            "intervals": [
                {
                    "interval": [str(b.interval.lo), str(b.interval.hi)],
                    "maps": {
                        key: {
                            "tag": info.tag,
                            "image": [str(info.image.lo), str(info.image.hi)],
                            "codomain": [str(info.codomain.lo),
                                         str(info.codomain.hi)],
                        }
                        for key, info in b.restrictions
                    },
                }
                for b in self.blocks
            ],
        }


def _classify(f: PLMap, J: Interval, K: Interval) -> str:
    if f.is_monotone_on(J):
        return MONOTONE
    return OPEN if _safe_open(f, J, K) else NONOPEN


def _safe_open(f: PLMap, J: Interval, K: Interval) -> bool:
    try:
        return f.is_open_on(J, K)
    except DomainError:
        return False


def _require_pair(f: PLMap, g: PLMap) -> None:
    if not f.is_onto() or not g.is_onto():
        raise PreconditionError("both maps must be onto [0, 1]")
    if not strongly_commute(f, g):
        raise PreconditionError("maps do not strongly commute")


def _case_a_points(F: PLMap, G: PLMap) -> list[Fraction]:
    """Split at common fixed points until every block has an open restriction."""
    points: list[Fraction] = [ZERO, ONE]
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
        p = _split_point(F, G, target)
        splits += 1
        if splits > max_splits:
            raise InternalInvariantError(
                "splitting loop exceeded the critical-point budget")
        bisect.insort(points, p)


def decompose(f: PLMap, g: PLMap) -> Decomposition:
    """Partition [0,1] into blocks that are invariant (case a), swapped by f
    or g (case b), or swapped by both maps (case c): a reversing map sends
    each block onto its mirror block, every other map, the squares of the
    reversing maps included, keeps it invariant. The guaranteed openness and
    monotonicity structure is recorded on every block."""
    _require_pair(f, g)
    maps = {"f": f, "g": g}
    reversers = [k for k, m in maps.items() if orientation(m) == REVERSING]
    squares = {k + "2": compose(maps[k], maps[k]) for k in reversers}
    # _case_a_points treats its two maps alike (the block it splits, the
    # common fixed set, the max/min of both images, the split budget), so
    # the order of the pair does not change the points.
    pts = _case_a_points(squares.get("f2", f), squares.get("g2", g))
    for k in reversers:
        pts = sorted(set(pts) | {maps[k](p) for p in pts})
    maps.update(squares)
    blocks = []
    for i, J in enumerate(_intervals_of(pts)):
        opp = Interval(pts[-i - 2], pts[-i - 1])
        restrictions = []
        for k, m in maps.items():
            if k in reversers:
                _check_swap(m, J, opp)
                K = opp
            else:
                _check_invariant(m, J)
                K = J
            restrictions.append(
                (k, RestrictionInfo(_classify(m, J, K), m.image(J), K)))
        blocks.append(BlockInfo(J, tuple(restrictions)))
    case = "abc"[len(reversers)]
    reverser = reversers[0] if case == "b" else None
    return Decomposition(tuple(pts), case, reverser, tuple(blocks))


def _intervals_of(points) -> list[Interval]:
    return [Interval(a, b) for a, b in zip(points, points[1:])]


def _check_invariant(f: PLMap, J: Interval) -> None:
    if not J.contains_interval(f.image(J)):
        raise InternalInvariantError(f"{J} is not invariant: image {f.image(J)}")


def _check_swap(f: PLMap, J: Interval, opp: Interval) -> None:
    if f.image(J) != opp:
        raise InternalInvariantError(
            f"image of {J} is {f.image(J)}, expected the mirror block {opp}")


# -- common fixed points -----------------------------------------------------------

def common_fixed_point(f: PLMap, g: PLMap) -> Fraction:
    """Least point x with f(x) = g(x) = x, exact.

    Strong commutation of onto piecewise monotone maps guarantees existence.
    """
    _require_pair(f, g)
    inter = f.fixed_points().intersect(g.fixed_points())
    if inter.empty:
        raise InternalInvariantError(
            "strongly commuting maps must share a fixed point")
    return inter.least()


# -- verification -------------------------------------------------------------------

def verify_decomposition(f: PLMap, g: PLMap, D: Decomposition) -> Report:
    """Re-derive every invariant of a decomposition from scratch."""
    report = Report()
    pts = D.points
    partition_ok = (len(pts) >= 2 and pts[0] == ZERO and pts[-1] == ONE
                    and all(a < b for a, b in zip(pts, pts[1:])))
    report.add("partition", partition_ok, f"points={[str(p) for p in pts]}")
    if not partition_ok:
        return report

    l = len(pts) - 1
    ivs = [Interval(a, b) for a, b in zip(pts, pts[1:])]

    # The squares are kept for the stored-block check below.
    named_maps = {"f": f, "g": g}
    if D.case != "a":
        reverser = D.reverser if D.case == "b" else "f"
        F, G = (f, g) if reverser == "f" else (g, f)
        F2 = named_maps["f2" if reverser == "f" else "g2"] = compose(F, F)
        if D.case == "c":
            G2 = named_maps["g2"] = compose(G, G)

    for i, J in enumerate(ivs):
        tag = f"block[{i}]={J}"
        opp = Interval(pts[l - i - 1], pts[l - i])
        if D.case == "a":
            ok_f = J.contains_interval(f.image(J))
            ok_g = J.contains_interval(g.image(J))
            report.add(f"{tag} f-invariant", ok_f, f"image={f.image(J)}")
            report.add(f"{tag} g-invariant", ok_g, f"image={g.image(J)}")
            if not (ok_f and ok_g):
                continue
            f_mono, g_mono = f.is_monotone_on(J), g.is_monotone_on(J)
            f_open, g_open = _safe_open(f, J, J), _safe_open(g, J, J)
            if g_open and not g_mono:
                report.add(f"{tag} open g forces open f", f_open)
            if f_open and not f_mono:
                report.add(f"{tag} open f forces open g", g_open)
            if not g_open and not g_mono:
                report.add(f"{tag} folded g forces monotone f", f_mono)
            if not f_open and not f_mono:
                report.add(f"{tag} folded f forces monotone g", g_mono)
            report.add(f"{tag} some restriction open or monotone",
                       f_mono or g_mono or f_open or g_open)
        else:
            swap_ok = F.image(J) == opp
            report.add(f"{tag} block swap", swap_ok,
                       f"image={F.image(J)}, mirror={opp}")
            inv_ok = J.contains_interval(G.image(J)) if D.case == "b" else \
                G.image(J) == opp
            report.add(f"{tag} partner structure", inv_ok,
                       f"image={G.image(J)}")
            sq_ok = J.contains_interval(F2.image(J))
            report.add(f"{tag} square invariance", sq_ok,
                       f"image={F2.image(J)}")
            if D.case == "c":
                report.add(f"{tag} second square invariance",
                           J.contains_interval(G2.image(J)))
            if not (swap_ok and inv_ok and sq_ok):
                continue
            cond = G if D.case == "b" else G2
            c_mono = cond.is_monotone_on(J)
            c_open = _safe_open(cond, J, J)
            if c_open and not c_mono:
                report.add(f"{tag} open partner forces open squares",
                           _safe_open(F2, J, J) and _safe_open(F, J, opp))
            if not c_open and not c_mono:
                report.add(f"{tag} folded partner forces monotone swap",
                           F.is_monotone_on(J) and F.is_monotone_on(opp))

    for i, block in enumerate(D.blocks):
        if i >= len(ivs) or block.interval != ivs[i]:
            report.add(f"stored-block[{i}] matches partition", False)
            continue
        for key, info in block.restrictions:
            if key not in named_maps:
                named_maps[key] = compose(*([f, f] if key == "f2" else [g, g]))
            m = named_maps[key]
            recomputed = RestrictionInfo(
                _classify(m, block.interval, info.codomain),
                m.image(block.interval), info.codomain)
            report.add(f"stored-block[{i}].{key} classification",
                       recomputed == info,
                       f"stored={info.tag}, recomputed={recomputed.tag}")
    return report
