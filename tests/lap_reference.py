"""The Fraction lap counting that `icm.entropy.entropy_lap` used before it
counted on coprime integer pairs, kept verbatim as the reference of the
differential tests in test_entropy.py: two `bisect`s over the critical
points place each lap image's ends, and the images are keyed by Fractions.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from icm.core import ONE, ZERO, PLMap, _check_cap
from icm.entropy import LapSequence
from icm.errors import DomainError


def entropy_lap(f: PLMap, k_max: int) -> LapSequence:
    """Exact lap counts of f, f^2, ..., f^k_max and the entropy upper bound
    log(lap(f^k_max))/k_max, without building any iterate.

    Every lap J of f^k maps monotonically onto the interval I = f^k(J), so
    the laps of f^(k+1) inside J are the pieces of I cut at the critical
    points of f, and each piece maps onto its f-image. The images are kept
    with their multiplicities; lap(f^k) is the sum of the multiplicities.
    Laps never merge: at a turning point t of f^k both sides of t map into
    the same side of f^k(t), where f is monotone because it has no constant
    piece, so f^(k+1) turns at t as well. The image endpoints are f^k(0),
    f^k(1) and values f^i(c), i <= k, at critical points c of f: at most
    V = 2 + k_max * #critical points values, so at most V(V - 1)/2 images
    however many laps there are. The cap bounds that count and the k_max
    rounds, of a lap each at least, before the first round; k_max = 1 checks
    neither, as f itself holds its laps.
    """
    if not isinstance(k_max, int) or k_max < 1:
        raise DomainError("k_max must be a positive integer")
    crit = f.critical_points().xs
    if k_max > 1:
        _check_cap(k_max, f"{k_max} rounds count at least {k_max} laps")
        v = 2 + k_max * len(crit)
        _check_cap(v * (v - 1) // 2,
                   f"{k_max} rounds keep up to {v * (v - 1) // 2} lap images")
    crit_values = [f._value(c) for c in crit]
    images = {(ZERO, ONE): 1}  # the one lap of f^0, the identity
    laps = []
    for k in range(1, k_max + 1):
        cut: dict[tuple[Fraction, Fraction], int] = {}
        for (lo, hi), mult in images.items():
            i, j = bisect_right(crit, lo), bisect_left(crit, hi)
            values = [f._value(lo), *crit_values[i:j], f._value(hi)]
            for a, b in zip(values, values[1:]):
                key = (a, b) if a < b else (b, a)
                cut[key] = cut.get(key, 0) + mult
        images = cut
        laps.append((k, sum(images.values())))
    return LapSequence(tuple(laps), math.log(laps[-1][1]) / k_max)
