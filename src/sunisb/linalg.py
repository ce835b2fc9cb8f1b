"""Exact linear algebra: one incremental sparse fraction-free eliminator.

A vector is a dict from any hashable key to an exact ``int`` or
``Fraction`` (any other entry, ``bool`` and ``float`` included, raises
``ValueError``); absent keys are zero.  Callers inside the package
pass integer vectors: the numerators of a ket, or the images of basis
states, whose span does not depend on a ket's denominator.  A
``Fraction`` entry from an outside caller is accepted.  Callers split
their systems into color-weight blocks before coming here, which
bounds how many pivot rows each vector is reduced against.

Vectors are taken one at a time, in order.  Each is scaled to
integers and reduced against the independent vectors before it; one
that reduces to zero is dependent, and its integer relation over the
earlier vectors is unique up to scale.  So the rank, the set of
dependent vectors and the primitive null vectors do not depend on
which keys serve as pivots: every result is deterministic.
``nullspace`` returns those relations, sparse, as ``{position: int}``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Iterator, Mapping

__all__ = ["rank", "nullspace"]

_EXACT = {int, Fraction}  # the entry types, matched exactly: a bool is not an int here


def _relations(vectors: Iterable[Mapping[Hashable, object]]) -> Iterator[dict[int, int] | None]:
    """Yield, per vector in order, None if it is independent of the vectors before it.

    Otherwise yield its relation: a primitive dict from vector position
    to int, summing the vectors to zero, whose entry at the lowest
    position is positive.
    """
    pivots: list[tuple[Hashable, dict, dict[int, int]]] = []
    for pos, vector in enumerate(vectors):
        if not _EXACT.issuperset(map(type, vector.values())):
            raise ValueError(f"vector {pos} has an entry that is not an int or Fraction")
        scale = lcm(*(c.denominator for c in vector.values()))
        row = {k: c.numerator * (scale // c.denominator) for k, c in vector.items() if c}
        rel = {pos: scale}
        # Each pivot row holds no pivot key of an earlier row, so eliminating
        # the keys in insertion order never brings an eliminated key back.
        for key, prow, prel in pivots:
            b = row.get(key)
            if b is None:
                continue
            a = prow[key]
            g = gcd(a, b)
            a, b = a // g, b // g
            row = _combine(row, a, prow, b)
            rel = _combine(rel, a, prel, b)
        g = gcd(*row.values(), *rel.values())
        if g > 1:
            row = {k: c // g for k, c in row.items()}
            rel = {k: c // g for k, c in rel.items()}
        if row:
            pivots.append((next(iter(row)), row, rel))
            yield None
        else:
            yield {k: -c for k, c in rel.items()} if rel[min(rel)] < 0 else rel


def _combine(x: dict, a: int, y: dict, b: int) -> dict:
    """a*x - b*y, with zero entries dropped; x is consumed."""
    out = x if a == 1 else {k: a * c for k, c in x.items()}
    for k, c in y.items():
        value = out.get(k, 0) - b * c
        if value:
            out[k] = value
        else:
            out.pop(k, None)
    return out


def rank(vectors: Iterable[Mapping[Hashable, object]]) -> int:
    """Dimension of the span of the vectors."""
    return sum(rel is None for rel in _relations(vectors))


def nullspace(vectors: Iterable[Mapping[Hashable, object]]) -> list[dict[int, int]]:
    """Basis of {x : sum_j x_j v_j = 0} as primitive integer relations {position: int}.

    One relation per vector that depends on the vectors before it, in
    order; that vector's position is its highest key, and its entry at
    its lowest key is positive.  Read the vectors as matrix columns:
    each relation is a null vector of that matrix with one free column.
    """
    return [rel for rel in _relations(vectors) if rel is not None]
