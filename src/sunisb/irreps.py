"""Irreducible representations from ordered monomials of dressed bosons.

A representation of su(N) is labeled by a Young diagram with weakly
decreasing row lengths [n_1, ..., n_{N-1}].  A basis state of it is an
ordered monomial: all dressed row-1 creation operators applied to
vacuum first, then row 2, and so on (the order matters; within one row
it does not).

Three dimension computations cross-check the construction:

* ``weyl_dimension``: the Weyl product formula, pure arithmetic;
* ``nullspace_dimension``: brute force, the dimension of the common
  null space of the constraint bilinears a+[i].a[i+1] on the full
  occupation sector;
* ``monomial_rank``: the rank of the monomial family's coefficient
  vectors over the (independent) basis states.

The last two share one sparse exact eliminator, ``linalg``; the Weyl
formula shares nothing with them, so a fault in the eliminator still
breaks the triple.  The constraint bilinears preserve the per-color
totals of a state, so both eliminations split into independent
color-weight blocks, which keeps them small; one walk,
``_weight_blocks``, yields the null-space relations of each constraint
block for both null-space functions.  All block and basis orders are
fixed by the lexicographic state order, so every result is
deterministic.

Every monomial is built by one walk, ``_monomials(label, indices)``.
It applies each index's dressed creations row 1 first, then upward.
Every creation of a row is applied, to a zero ket too, but no creation
follows a row that leaves the zero ket.  Consecutive indices share
prefixes of their (row, color) creations, so the walk keeps the
partial ket after each creation and applies only the creations past
the longest common prefix with the next index.  ``build_monomial`` is
the walk over one index.  ``monomial_rank`` and ``casimir_eigenvalue``
walk ``distinct_multi_indices``: at N=5 (2,2,1,0) that makes 1,220
dressed creations where one build per index makes 5,400.  The
constraints sweep over ``all_multi_indices`` still builds each
monomial on its own.

Shared helper: ``scalar_on(op, kets)`` serves both Casimir eigenvalues
and the ``casimir`` and ``multiplicity`` suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from typing import Callable, Iterable, Iterator

from .algebra import casimir2_op, invariant_action
from .fock import (
    Ket,
    _check_rank,
    _exact_int,
    basis_ket,
    color_totals,
    enumerate_sector,
    vacuum,
)
from .isb import isb_create
from .linalg import nullspace, rank

__all__ = [
    "IrrepLabel",
    "ConstraintReport",
    "AlgebraViolationError",
    "all_multi_indices",
    "distinct_multi_indices",
    "build_monomial",
    "weyl_dimension",
    "constraint_residual",
    "nullspace_dimension",
    "nullspace_basis",
    "monomial_rank",
    "casimir_eigenvalue",
]


@dataclass(frozen=True)
class IrrepLabel:
    """Young-diagram label: N-1 weakly decreasing non-negative row lengths."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(_exact_int(r, "row length") for r in self.rows))
        _check_rank(self.n)
        if len(self.rows) != self.n - 1:
            raise ValueError(f"need {self.n - 1} row lengths for rank {self.n}")
        if any(r < 0 for r in self.rows):
            raise ValueError("row lengths must be non-negative")
        if any(a < b for a, b in zip(self.rows, self.rows[1:])):
            raise ValueError(f"row lengths must be weakly decreasing, got {self.rows}")


class AlgebraViolationError(RuntimeError):
    """An operator that must act as a scalar on an irreducible family did not."""


@dataclass(frozen=True)
class ConstraintReport:
    """Outcome of a constraint check: the (i, j), i < j, whose a+[i].a[j] did not annihilate."""

    satisfied: bool
    violated: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return self.satisfied


def _check_multi_index(label: IrrepLabel, idx) -> tuple[tuple[int, ...], ...]:
    idx = tuple(tuple(_exact_int(a, "color") for a in row) for row in idx)
    if len(idx) != label.n - 1:
        raise ValueError(f"need {label.n - 1} color rows, got {len(idx)}")
    for row, (colors, length) in enumerate(zip(idx, label.rows), start=1):
        if len(colors) != length:
            raise ValueError(f"row {row} needs {length} colors, got {len(colors)}")
        if any(not 1 <= a <= label.n for a in colors):
            raise ValueError(f"colors must lie in 1..{label.n}, got {colors}")
    return idx


def all_multi_indices(label: IrrepLabel) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every color assignment, one tuple of colors per diagram row."""
    colors = range(1, label.n + 1)
    per_row = [product(colors, repeat=r) for r in label.rows]
    return product(*per_row)


def distinct_multi_indices(label: IrrepLabel) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Color assignments deduplicated by the within-row permutation symmetry."""
    colors = range(1, label.n + 1)
    per_row = [combinations_with_replacement(colors, r) for r in label.rows]
    return product(*per_row)


def build_monomial(label: IrrepLabel, idx) -> Ket:
    """The monomial state: dressed creations applied row 1 first, then upward."""
    (psi,) = _monomials(label, [_check_multi_index(label, idx)])
    return psi


def _monomials(label: IrrepLabel, indices: Iterable) -> Iterator[Ket]:
    """The monomial of every index of indices, in order, with creation prefixes shared.

    Each index's creations are applied row 1 first, then upward.  Every
    creation of a row is applied, to a zero ket too, but none follows a
    row that leaves the zero ket.  The indices are trusted to fit label.
    """
    path: list = []  # the creations of the last index
    partial = [vacuum(label.n)]  # partial[s]: the ket after the first s creations of path
    for idx in indices:
        steps = []  # (row, color, where the creations of the row start) per creation
        for row, colors in enumerate(idx, start=1):
            start = len(steps)
            for alpha in colors:
                steps.append((row, alpha, start))
        keep = 0
        while keep < len(path) and path[keep] == steps[keep]:
            keep += 1
        del partial[keep + 1 :]
        for row, alpha, start in steps[keep:]:
            psi = partial[-1]
            partial.append(isb_create(row, alpha, psi) if partial[start].terms else psi)
        path = steps
        yield partial[-1]


def weyl_dimension(label: IrrepLabel) -> int:
    """Weyl product formula in exact integers; ``ArithmeticError`` if it is not an integer."""
    lam = label.rows + (0,)
    n = label.n
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Weyl product {num}/{den} for {label} is not an integer")
    return dim


def constraint_residual(psi: Ket) -> ConstraintReport:
    """Check that every lowering bilinear a+[i].a[j], i < j, annihilates psi.

    The N-2 adjacent bilinears L[i,i+1] decide ``satisfied``: since
    [L[i,k], L[k,j]] = L[i,j], a ket they all annihilate is annihilated
    by every L[i,j], i < j.  Only when one of them fails are all
    (N-1)(N-2)/2 bilinears applied, to name each violated one.
    """
    n = psi.n
    if not any(invariant_action(i, i + 1, psi).terms for i in range(1, n - 1)):
        return ConstraintReport(True, ())
    violated = tuple(
        (i, j) for i in range(1, n) for j in range(i + 1, n) if invariant_action(i, j, psi).terms
    )
    return ConstraintReport(False, violated)


def _weight_blocks(label: IrrepLabel) -> Iterator[tuple[tuple, list, list[dict[int, int]]]]:
    """Per color-weight block of the label's sector, in sorted order: weight, states, null vectors.

    The states keep enumeration order; the null vectors are the ``linalg.nullspace``
    relations ``{position: int}`` among their images keyed by (constraint, image state).
    """
    blocks: dict = {}
    for state in enumerate_sector(label.n, label.rows):
        blocks.setdefault(color_totals(state), []).append(state)
    rows = range(1, label.n - 1)  # the constraints a+[i].a[i+1], i in rows
    for weight, states in sorted(blocks.items()):
        images = (
            {(i, t): c for i in rows for t, c in invariant_action(i, i + 1, psi).terms.items()}
            for psi in map(basis_ket, states)
        )
        yield weight, states, nullspace(images)


def nullspace_dimension(label: IrrepLabel) -> int:
    """Dimension of the common constraint null space on the label's sector."""
    return sum(len(null) for _, _, null in _weight_blocks(label))


def nullspace_basis(label: IrrepLabel) -> list[Ket]:
    """Exact basis of the constraint null space, in deterministic order.

    Vectors are primitive integer combinations of sector basis states,
    grouped by color weight: per block, one per state whose image
    depends on the images of the states before it.
    """
    out = []
    for _, states, null in _weight_blocks(label):
        out += (Ket(label.n, {states[j]: rel[j] for j in sorted(rel)}) for rel in null)
    return out


def monomial_rank(label: IrrepLabel) -> int:
    """Rank of the deduplicated monomial family: the rank of its coefficient vectors.

    The basis states are independent, so this is the dimension of the
    family's span.  Dressed creations move quanta between rows, never
    between colors, so every state of a monomial has its index's color
    weight; monomials of different weight share no state, and the rank
    is a sum of one ``linalg.rank`` per weight block.  Zero monomials
    add nothing to a rank and are left out.
    """
    blocks: dict = {}
    for psi in _monomials(label, distinct_multi_indices(label)):
        terms = psi.terms
        if terms:
            blocks.setdefault(color_totals(next(iter(terms))), []).append(terms)
    return sum(rank(block) for block in blocks.values())


def scalar_on(op: Callable[[Ket], Ket], kets: Iterable[Ket]) -> Fraction:
    """The one scalar by which op acts on every nonzero ket of kets.

    Zero kets are skipped.  Raises ``AlgebraViolationError`` at the
    first ket (counted from 0, zero kets included) on which op is not
    that scalar, and ``ValueError`` when no ket is nonzero.
    """
    scalar = None
    for pos, psi in enumerate(kets):
        if not psi.terms:
            continue
        image = op(psi)
        state, coeff = next(iter(psi.terms.items()))
        value = Fraction(image.terms.get(state, 0)) / Fraction(coeff)
        if image != psi * value:
            raise AlgebraViolationError(f"image of ket {pos} is not proportional to it")
        if scalar is None:
            scalar = value
        elif value != scalar:
            raise AlgebraViolationError(f"scalar {value} on ket {pos} differs from {scalar}")
    if scalar is None:
        raise ValueError("no nonzero ket to take a scalar on")
    return scalar


def casimir_eigenvalue(label: IrrepLabel) -> Fraction:
    """The exact quadratic Casimir scalar on the label's deduplicated monomials.

    Ket positions in an ``AlgebraViolationError`` follow ``distinct_multi_indices``.
    """
    return scalar_on(casimir2_op(label.n), _monomials(label, distinct_multi_indices(label)))
