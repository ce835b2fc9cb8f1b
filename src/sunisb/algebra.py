"""Linear operators on kets: invariant bilinears, su(N) generators, Casimir.

Operators are closures over an action on basis states, extended
linearly; nothing is materialized as a matrix here.  Two families
matter:

* the bilinears a+[i].a[j] built from oscillator types only.  They
  commute with every su(N) generator, close into the u(N-1) algebra

      [L_ij, L_kl] = delta_jk L_il - delta_il L_kj,

  and the pairs with i < j are the constraints whose common null space
  carries the column antisymmetry of a Young diagram;

* the su(N) generators in the Weyl (elementary-matrix) basis

      Q[alpha,beta] = sum_i a+[i]^alpha a[i]_beta
                      - delta(alpha,beta)/N * (total number),

  chosen over the lambda-matrix basis so that all structure constants
  and matrix elements stay rational.  The quadratic Casimir is
  (1/2) sum_ab Q[a,b] Q[b,a].

Shared helpers: ``casimir_op(n, action, label)`` builds that Casimir
from any generator action, here and in ``su3x``, memoizing basis images
per operator; ``LinearOp`` and the Casimir sum use ``fock._accumulate``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .fock import (
    FockState,
    Ket,
    _accumulate,
    _check_color,
    _check_row,
    _moved,
    _raw_ket,
    _recolored,
    basis_ket,
    total_occupations,
)

__all__ = [
    "LinearOp",
    "invariant_action",
    "generator_action",
    "casimir2_op",
]


class LinearOp:
    """A linear map on kets, defined by its action on basis states."""

    __slots__ = ("n", "label", "_on_basis")

    def __init__(self, n: int, on_basis: Callable[[FockState], Ket], label: str | None = None):
        self.n = n
        self._on_basis = on_basis
        self.label = label

    def __call__(self, psi: Ket) -> Ket:
        if psi.n != self.n:
            raise ValueError("operator and ket have different group ranks")
        acc: dict = {}
        for state, coeff in psi.terms.items():
            _accumulate(acc, self._on_basis(state).terms.items(), coeff)
        return _raw_ket(self.n, acc)

    def __repr__(self) -> str:
        name = self.label or "?"
        return f"<LinearOp {name} on rank {self.n}>"


def invariant_action(i: int, j: int, psi: Ket) -> Ket:
    """Apply the invariant bilinear a+[i].a[j] to a ket.

    Moves one quantum from type j to type i, color by color; for i = j
    this is the row-j number operator.
    """
    n = psi.n
    _check_row(n, i)
    _check_row(n, j)
    # summed inline: via fock._accumulate this ran 12-16% slower on single-term kets (Python 3.11)
    acc: dict = {}
    for state, coeff in psi.terms.items():
        row = state.occ[j - 1]
        for alpha in range(1, n + 1):
            m = row[alpha - 1]
            if m:
                s2 = _moved(state, j, i, alpha)
                total = acc.get(s2, 0) + m * coeff
                if total:
                    acc[s2] = total
                elif s2 in acc:
                    del acc[s2]
    return _raw_ket(n, acc)


def generator_action(alpha: int, beta: int, psi: Ket) -> Ket:
    """Apply the Weyl-basis su(N) generator Q[alpha, beta] to a ket."""
    n = psi.n
    _check_color(n, alpha)
    _check_color(n, beta)
    # summed inline: via fock._accumulate this ran 10% slower on single-term kets (Python 3.11)
    acc: dict = {}
    for state, coeff in psi.terms.items():
        for i in range(1, n):
            m = state.occ[i - 1][beta - 1]
            if m:
                s2 = _recolored(state, i, beta, alpha)
                total = acc.get(s2, 0) + m * coeff
                if total:
                    acc[s2] = total
                elif s2 in acc:
                    del acc[s2]
        if alpha == beta:
            quanta = sum(total_occupations(state))
            if quanta:
                total = acc.get(state, 0) - Fraction(quanta, n) * coeff
                if total:
                    acc[state] = total
                elif state in acc:
                    del acc[state]
    return _raw_ket(n, acc)


def casimir_op(n: int, action: Callable[[int, int, Ket], Ket], label: str) -> LinearOp:
    """The quadratic Casimir (1/2) sum over color pairs of Q[a,b] Q[b,a].

    ``action(alpha, beta, psi)`` applies the Weyl-basis generator
    Q[alpha, beta]; both oscillator languages build their Casimir here.
    Each state's image is computed once and kept for the operator's life.
    """
    colors = range(1, n + 1)
    images: dict = {}

    def act(state: FockState) -> Ket:
        image = images.get(state)
        if image is None:
            base = basis_ket(state)
            acc: dict = {}
            for alpha in colors:
                for beta in colors:
                    _accumulate(acc, action(alpha, beta, action(beta, alpha, base)).terms.items())
            image = images[state] = _raw_ket(n, acc) * Fraction(1, 2)
        return image

    return LinearOp(n, act, label)


def casimir2_op(n: int) -> LinearOp:
    """The quadratic Casimir of the su(N) generators ``generator_action``.

    On rank 2 this reproduces j(j+1) with j = (number of quanta)/2.
    """
    return casimir_op(n, generator_action, "C2")
