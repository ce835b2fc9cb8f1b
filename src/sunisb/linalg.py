"""Exact linear algebra: fraction-free elimination over the integers.

Callers split their systems into color-weight blocks before coming
here, so the dense matrices below stay small.  Every input matrix has
int entries: callers clear denominators themselves (``irreps.gram_rank``
scales each ket to integer coefficients before forming its Gram
matrix).  Pivoting is first-nonzero, which keeps every result
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["row_echelon", "rank", "nullspace"]


def row_echelon(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Bareiss fraction-free row echelon form.

    Returns (echelon matrix, pivot column indices).  Input entries must
    be ints; all intermediate divisions are exact.
    """
    m = [row[:] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = None
        for i in range(r, nrows):
            if m[i][c]:
                p = i
                break
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
        pivot = m[r][c]
        top = m[r]
        for i in range(r + 1, nrows):
            row = m[i]
            factor = row[c]
            if factor:
                for j in range(c, ncols):
                    row[j] = (pivot * row[j] - factor * top[j]) // prev
            elif prev != 1:
                for j in range(c, ncols):
                    row[j] = (pivot * row[j]) // prev
            elif pivot != 1:
                for j in range(c, ncols):
                    row[j] = pivot * row[j]
        prev = pivot
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows: list[list[int]]) -> int:
    if not rows:
        return 0
    return len(row_echelon(rows)[1])


def _primitive(vec: list[Fraction]) -> tuple[int, ...]:
    scale = lcm(*(f.denominator for f in vec))
    ints = [int(f * scale) for f in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def nullspace(rows: list[list[int]], ncols: int) -> list[tuple[int, ...]]:
    """Basis of {x : M x = 0} as primitive integer vectors.

    One basis vector per free column, in column order; deterministic
    back-substitution over exact rationals.
    """
    if not rows:
        return [tuple(1 if j == f else 0 for j in range(ncols)) for f in range(ncols)]
    ech, pivots = row_echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            row = ech[r]
            s = Fraction(0)
            for j in range(c + 1, ncols):
                if row[j] and x[j]:
                    s += row[j] * x[j]
            x[c] = -s / row[c]
        basis.append(_primitive(x))
    return basis

