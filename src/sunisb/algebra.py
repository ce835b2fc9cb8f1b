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

Each bilinear is summed in place by ``fock._bilinear_into``, which adds
its image of a dict of integer numerators straight into an
accumulator, with an integer factor; both dicts are keyed by packed
occupation codes.  ``invariant_action`` sums a ket's numerators, keyed
by code with ``fock._by_code``, into an empty one, turns the image back
into states with ``fock._by_state`` and keeps the ket's denominator;
the nested row sums of the dressed ladders in ``fock._row_sums`` call
the kernel directly.

Each generator is written once, as an integer rule on one basis
state: ``_generator_on_basis(alpha, beta, state)`` returns
``(terms, den)``, the form ``fock._apply_images`` takes, and
``generator_action`` applies it to a ket there.

Shared helpers: ``casimir_op(n, on_basis, label)`` builds that Casimir
from any such rule, here and in ``su3x``, and builds no ket.  It
composes the rule on each basis state alike for every ordered pair
(a, b), a = b included: the terms of Q[b,a] on the state, each mapped
by Q[a,b].  Each basis image is kept as ints over one denominator, in
a memo that lives as long as the operator.  ``LinearOp`` applies such
images through ``fock._apply_images``, the one kernel that maps a ket
by integer basis images, which sums integer products over a running
common denominator and reduces the output ket once.
"""

from __future__ import annotations

from functools import cache
from math import lcm
from typing import Callable

from .fock import (
    FockState,
    Ket,
    _accumulate,
    _apply_images,
    _bilinear_into,
    _by_code,
    _by_state,
    _check_color,
    _check_rank,
    _check_row,
    _numerators,
    _recolored,
    _with_numerators,
)

__all__ = [
    "LinearOp",
    "invariant_action",
    "generator_action",
    "casimir2_op",
]


class LinearOp:
    """A linear map on kets, defined by integer images of basis states.

    ``on_basis(state)`` returns ``(terms, den)``: the image of the state
    is the sum of coeff / den |s> over the (s, coeff) pairs of terms,
    every coeff an ``int``.  A ket is mapped by ``fock._apply_images``,
    which sums over a running common denominator and reduces the ket
    once.
    """

    __slots__ = ("n", "label", "_on_basis")

    def __init__(self, n: int, on_basis: Callable[[FockState], tuple], label: str | None = None):
        self.n = n
        self._on_basis = on_basis
        self.label = label

    def __call__(self, psi: Ket) -> Ket:
        if psi.n != self.n:
            raise ValueError("operator and ket have different group ranks")
        return _apply_images(psi, self._on_basis)

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
    return _with_numerators(psi, _by_state(_bilinear_into({}, _by_code(_numerators(psi)), i, j)))


def _generator_on_basis(alpha: int, beta: int, state: FockState) -> tuple:
    """Q[alpha, beta] on one basis state as ``(terms, den)``, every coeff an ``int``.

    Off the diagonal, one recolor beta -> alpha per row, with that row's
    occupation m of color beta, over 1.  On the diagonal, the state with
    N count_alpha - quanta over N, and no term when that is 0.
    """
    if alpha != beta:
        rows = enumerate(state.occ, start=1)
        return [(_recolored(state, i, beta, alpha), row[beta - 1]) for i, row in rows if row[beta - 1]], 1
    d = state.n * sum(row[alpha - 1] for row in state.occ) - sum(map(sum, state.occ))
    return ([(state, d)] if d else []), state.n


def generator_action(alpha: int, beta: int, psi: Ket) -> Ket:
    """Apply the Weyl-basis su(N) generator Q[alpha, beta] to a ket.

    Q[alpha, alpha] multiplies a basis state by count_alpha - quanta/N.
    Q[alpha, beta], alpha != beta, recolors one quantum per row, so an
    ``int`` ket stays ``int``.  The rule is ``_generator_on_basis``,
    applied by ``fock._apply_images``.
    """
    _check_color(psi.n, alpha)
    _check_color(psi.n, beta)
    return _apply_images(psi, _generator_on_basis, alpha, beta)


def casimir_op(n: int, on_basis: Callable[[int, int, FockState], tuple], label: str) -> LinearOp:
    """The quadratic Casimir (1/2) sum over color pairs of Q[a,b] Q[b,a].

    ``on_basis(alpha, beta, state)`` is the Weyl-basis generator
    Q[alpha, beta] on one basis state, ``(terms, den)`` as ``LinearOp``
    takes it; both oscillator languages build their Casimir here.  A
    state's image is composed from the rule alone, alike for all N^2
    ordered pairs (a, b), a = b included: the terms of Q[b,a] on the
    state are mapped by Q[a,b] term by term, their integer products
    summed per denominator den_1 den_2.  The image is kept as ints over
    twice the lcm of those denominators, computed once per state and
    cached for the operator's life.
    """
    _check_rank(n)
    colors = range(1, n + 1)

    @cache
    def act(state: FockState) -> tuple:
        parts: dict = {}  # denominator -> the int terms over it
        for alpha in colors:
            for beta in colors:
                first, den = on_basis(beta, alpha, state)
                for t, c in first:
                    second, den2 = on_basis(alpha, beta, t)
                    _accumulate(parts.setdefault(den * den2, {}), second, c)
        common = lcm(*parts)
        acc: dict = {}
        for den, part in parts.items():
            _accumulate(acc, part.items(), common // den)
        return acc.items(), 2 * common

    return LinearOp(n, act, label)


def casimir2_op(n: int) -> LinearOp:
    """The quadratic Casimir of the su(N) generators ``generator_action``.

    On rank 2 this reproduces j(j+1) with j = (number of quanta)/2.
    """
    return casimir_op(n, _generator_on_basis, "C2")
