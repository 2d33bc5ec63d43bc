"""The dense-matrix Perron bracket that `icm.entropy` used before it read
the cover matrix as row runs, kept verbatim as the reference of the
differential tests in test_entropy.py: Tarjan's components over adjacency
lists, and a power iteration over (column, entry) lists.
"""

from __future__ import annotations

from fractions import Fraction

from icm.entropy import PERRON_TOLERANCE
from icm.errors import InternalInvariantError


def _strong_components(adj: list[list[int]]) -> list[list[int]]:
    """Tarjan's strongly connected components, iteratively."""
    n = len(adj)
    index: list[int | None] = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work: list[list[int]] = [[root, 0]]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(ptr, len(adj[v])):
                w = adj[v][k]
                if index[w] is None:
                    work[-1][1] = k + 1
                    work.append([w, 0])
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _perron_bracket(
        matrix: tuple[tuple[int, ...], ...]) -> tuple[Fraction, Fraction]:
    """Certified rational bracket for the spectral radius of a nonnegative
    integer matrix.

    The radius is the maximum over strongly connected components; on each
    component the identity is added (making it primitive), and power
    iteration with exact min/max row quotients gives valid bounds for any
    positive vector, so the bracket is sound by construction.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(0), Fraction(0)
    adj = [[j for j in range(n) if matrix[i][j]] for i in range(n)]
    best_lo, best_hi = Fraction(0), Fraction(0)
    for comp in _strong_components(adj):
        local = {v: k for k, v in enumerate(comp)}
        rows = [[(local[w], matrix[v][w]) for w in adj[v] if w in local]
                for v in comp]
        lo, hi = _collatz_bracket(rows)
        best_lo = max(best_lo, lo - 1)
        best_hi = max(best_hi, hi - 1)
    return best_lo, best_hi


def _collatz_bracket(
        rows: list[list[tuple[int, int]]]) -> tuple[Fraction, Fraction]:
    """Bracket for the Perron root of I + B, where B is an irreducible block
    given by the (column, entry) pairs of its nonzero entries, row by row.

    Power iteration runs on positive integer vectors, cut back to about 96
    bits between rounds and floored at 1. The min and max of the exact
    quotients (Bx + x)_i / x_i are Collatz-Wielandt bounds for every positive
    x, so the cut cannot invalidate them.
    """
    x = [1] * len(rows)
    best_lo, best_hi = Fraction(0), None
    for _ in range(256):
        y = [xi + sum(w * x[j] for j, w in row) for xi, row in zip(x, rows)]
        # argmin / argmax of y_i / x_i by cross-multiplication
        i_lo = i_hi = 0
        for i in range(1, len(y)):
            if y[i] * x[i_lo] < y[i_lo] * x[i]:
                i_lo = i
            if y[i] * x[i_hi] > y[i_hi] * x[i]:
                i_hi = i
        lo, hi = Fraction(y[i_lo], x[i_lo]), Fraction(y[i_hi], x[i_hi])
        best_lo = max(best_lo, lo)
        best_hi = min(best_hi, hi) if best_hi is not None else hi
        if best_hi - best_lo < PERRON_TOLERANCE:
            break
        shift = max(max(y).bit_length() - 96, 0)
        x = [max(v >> shift, 1) for v in y]
    if best_hi is None or best_hi - best_lo >= PERRON_TOLERANCE:
        raise InternalInvariantError("Perron bracket failed to converge")
    return best_lo, best_hi
