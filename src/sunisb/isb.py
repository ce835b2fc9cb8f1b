"""Irreducible Schwinger bosons: dressed ladder operators.

The plain creation operators a+[k]^alpha do not preserve the null
space of the constraint bilinears a+[i].a[i+1].  The dressed
("irreducible") operators built here add correction chains so that
they do, which is what lets ordered monomials of them generate
irreducible representations directly (see ``irreps``).

Row-k dressed creation is a sum over strictly decreasing row chains
k > i_1 > ... > i_r >= 1:

    A+[k]^a = a+[k]^a
            + sum_chains F(k,i_1) ... F(k,i_r)
              L[k,i_1] L[i_1,i_2] ... L[i_{r-1},i_r] a+[i_r]^a

where L[p,q] is the invariant bilinear a+[p].a[q] and each
F(k,i) = -1 / (n_i - n_k + 1 + k - i) is a rational function of the
row totals.  Dressed annihilation mirrors this with strictly
increasing chains k < i_1 < ... < i_r <= N-1, factors
H(i,k) = -F(i,k), and the transposed bilinears:

    A[k]_a = a[k]_a
           + sum_chains H(i_1,k) ... H(i_r,k)
             L[i_1,k] L[i_2,i_1] ... L[i_r,i_{r-1}] a[i_r]_a

Evaluation convention: a coefficient written to the left of an
operator chain is a function of number operators and therefore acts
after the chain.  Every chain of one dressed operator shifts the row
totals by the same net amount as its leading term, so all factors are
evaluated at the input totals with row k raised (creation) or lowered
(annihilation) by one.  With that convention the dressed operators are
exact rational maps; a vanishing denominator means the totals lie
outside the ordered Young-diagram regime and raises
``SingularCoefficientError`` instead of being skipped.  Every factor
of the operator is evaluated, except that annihilation on a state with
an empty row k is a[k]_a alone: every chain ends in L[i_1,k].

The chain sums are the definition.  Both are evaluated in one nested
row form, the mirror given as data: a direction s, 1 for creation and
-1 for annihilation, and an order of rows that runs toward k, from 1 up
for A+[k]^a and from N-1 (or a lower cap) down for A[k]_a.  With x_i
the bare ladder of row i (a+[i]^a or a[i]_a), M_1[i,j] = L[i,j],
M_{-1}[i,j] = L[j,i] and the dressing denominators

    d_j = n_{min(j,k)} - n_{max(j,k)} + 1 + |j - k|,

at the totals with row k moved by s: d_j = -1/F(k,j) for creation and
1/H(j,k) = -1/F(j,k) for annihilation, both from ``_dressing_den``,

    X_i = x_i - s sum_{j before i} (1/d_j) M_s[i,j] X_j,    the operator = X_k

so each operator takes one bilinear application per pair of rows,
k(k-1)/2 for A+[k]^a, not one for each row of every chain.  The d_j
depend on the row totals alone, so the rows run on ints, on integer
numerators of states that share one row-total vector, over one
denominator, the product of the d_j.  With E_i the product of the d_j
of the rows before i,

    E_i X_i = E_i x_i - s sum_{j before i} (prod_{l between j and i} d_l) M_s[i,j] (E_j X_j)

is an integer sum.  ``_nested_rows`` computes it for both operators:
it evaluates the d_j by the one dressing rule, ``_dressing_den``, and
hands the rows to ``fock._row_sums``.  Only the seed x_i (matrix
element 1 for a+, the occupation m for a), the orientation of M_s and
the sign -s follow the direction.  That kernel runs the nested row form
in ``fock`` on packed occupation codes: each M_s[i,j] (E_j X_j) is
summed in place into the row's accumulator, with its integer factor,
by ``fock._bilinear_into``, no ket is built per bilinear, and only the
last row's terms become states.  The denominator is a product, not an
lcm: at rank 4 and row totals (1, 2, 1), A+[3] takes both d_1 and d_2
as 2, and its two-link chain carries 1/4.

``isb_create`` runs that one kernel by two routes, which give the same
ket and raise the same ``SingularCoefficientError``, pole and text; the
scope of the call picks the cheaper one.  A one-off call, such as
``sunisb build``, runs the rows once per row-total vector of the ket,
on the ket's own numerators (``fock._apply_by_totals``), so terms that
its states share merge and cancel before the next row's bilinears;
A+[1]^a is the bare a+[1]^a and takes no totals.  Inside a sweep the
ket is mapped state by state (``fock._apply_images``) through
``_create_terms``, the image of one basis state memoized for the life
of the process, since a label-family sweep meets the same basis states
again and again.  A sweep is the private scope ``_sweep()``, which
``checks.run_suite``, ``irreps.monomial_rank`` and
``irreps.casimir_eigenvalue`` open; ``isb_create_iterative`` reads the
memo only inside one too.  Annihilation and the gluing route map kets
state by state by ``fock._apply_images``, the one kernel that maps a
ket by integer basis images, which the Casimir of ``algebra`` and the
ladders of ``su3x`` share.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import cache
from typing import Iterable

from .fock import (
    Ket,
    _accumulate,
    _apply_by_totals,
    _apply_images,
    _bilinear_into,
    _bumped,
    _by_code,
    _by_state,
    _check_slot,
    _exact_int,
    _row_sums,
    apply_create,
    total_occupations,
)

__all__ = [
    "SingularCoefficientError",
    "creation_coeff",
    "annihilation_coeff",
    "isb_create",
    "isb_annihilate",
    "isb_create_iterative",
    "verify_recurrence",
]


class SingularCoefficientError(ArithmeticError):
    """A dressing denominator vanished: occupation totals outside the ordered regime."""


def creation_coeff(k: int, i: int, totals: Iterable[int]) -> Fraction:
    """Dressing coefficient of the row-k creation chains passing through row i < k.

    Value: -1 / (n_i - n_k + 1 + k - i) at the given row totals.  A row
    that is not an ``int`` in range (a bool or float one included) raises
    ``IndexError``, as ``fock``'s index checks do; a total that is not an
    ``int`` raises ``ValueError``.
    """
    totals = tuple(_exact_int(t, "row total") for t in totals)
    if not (type(i) is type(k) is int and 1 <= i < k <= len(totals)):
        raise IndexError(f"need int rows 1 <= i < k <= {len(totals)}, got i={i!r}, k={k!r}")
    return Fraction(-1, _dressing_den(k, i, totals))


def _dressing_den(k: int, i: int, totals: tuple) -> int:
    # -1/F(k,i) = n_i - n_k + 1 + k - i for rows i < k, the one dressing rule of both ladders
    den = totals[i - 1] - totals[k - 1] + 1 + (k - i)
    if den == 0:
        raise SingularCoefficientError(
            f"singular dressing coefficient for row pair ({k}, {i}) at totals {totals}"
        )
    return den


def annihilation_coeff(i: int, k: int, totals: Iterable[int]) -> Fraction:
    """Dressing coefficient of the row-k annihilation chains through row i > k.

    Always the exact negative of ``creation_coeff(i, k, totals)``.
    """
    return -creation_coeff(i, k, totals)


def _nested_rows(k: int, alpha: int, rows: range, direction: int, nums: dict) -> tuple:
    # the module docstring's nested row form on nums, state -> int, whose states
    # share one row-total vector: the dressing rule gives the d_j, fock's kernel
    # sums the rows.  Returns the last row's terms and E, its denominator.
    t = total_occupations(next(iter(nums)))
    totals = (*t[: k - 1], t[k - 1] + direction, *t[k:])
    # d_j from the row next to k outward, so of two vanishing ones the nearer is named
    dens = [_dressing_den(max(j, k), min(j, k), totals) for j in rows[-2::-1]]
    return _row_sums(alpha, rows, direction, dens[::-1], nums)


@cache
def _create_terms(k: int, alpha: int, state) -> tuple:
    # the sweep route's rule, memoized: a sweep revisits the same basis states constantly
    terms, den = _nested_rows(k, alpha, range(1, k + 1), 1, {state: 1})
    return tuple(terms), den


# True only inside _sweep(); no public name or option sets it
_IN_SWEEP = ContextVar("sunisb.isb.in_sweep", default=False)


@contextmanager
def _sweep():
    """The scope of a label-family sweep: inside it ``isb_create`` maps kets by ``_create_terms``."""
    token = _IN_SWEEP.set(True)
    try:
        yield
    finally:
        _IN_SWEEP.reset(token)


def isb_create(k: int, alpha: int, psi: Ket) -> Ket:
    """Apply the dressed creation operator of row k, color alpha."""
    _check_slot(psi.n, k, alpha)
    if _IN_SWEEP.get():
        return _apply_images(psi, _create_terms, k, alpha)
    if k == 1:  # A+[1]^a is the bare a+[1]^a
        return apply_create(1, alpha, psi)
    return _apply_by_totals(psi, _nested_rows, k, alpha, range(1, k + 1), 1)


def _annihilate_on_basis(k: int, alpha: int, top: int, state) -> tuple:
    if sum(state.occ[k - 1]) == 0:
        # nothing in row k for the final bilinear to absorb: every chain term vanishes
        top = k
    return _nested_rows(k, alpha, range(top, k - 1, -1), -1, {state: 1})


def isb_annihilate(k: int, alpha: int, psi: Ket) -> Ket:
    """Apply the dressed annihilation operator of row k, color alpha."""
    _check_slot(psi.n, k, alpha)
    return _apply_images(psi, _annihilate_on_basis, k, alpha, psi.n - 1)


def _iterative_on_basis(create, alpha: int, state) -> tuple:
    # isb_create_iterative's formula on a basis state, over ints: G2 = -1/d2 and
    # G1 = -(d1a + 1)/(d1a d1b), A+[2]^a over e2, the a+[3].A[1] images over f
    t = total_occupations(state)
    d2 = t[1] - t[2] + 1
    d1a = t[0] - t[1] + 1
    d1b = t[0] - t[2] + 2
    if d2 == 0 or d1a == 0 or d1b == 0:
        raise SingularCoefficientError(f"singular gluing coefficient at totals {t}")
    terms2, e2 = create(2, alpha, state)
    # (a+[3].A[1]) a+[1]^a, A+[1] being bare; f depends on the row totals alone
    raised = _bumped(state, 1, alpha, 1)
    row1 = [_annihilate_on_basis(1, gamma, 2, raised) for gamma in range(1, 5)]
    f = row1[0][1]
    den = d2 * d1a * d1b * e2 * f
    acc = _by_code({_bumped(state, 3, alpha, 1): den})
    # (a+[3].A[2]) A+[2]^a: A[2] capped at row 2 is the plain a[2], so this is L[3,2]
    _bilinear_into(acc, _by_code(dict(terms2)), 3, 2, -d1a * d1b * f)
    acc = _by_state(acc)
    for gamma, (terms, _) in enumerate(row1, 1):
        _accumulate(acc, ((_bumped(s, 3, gamma, 1), c) for s, c in terms), -(d1a + 1) * d2 * e2)
    return acc.items(), den


def isb_create_iterative(alpha: int, psi: Ket) -> Ket:
    """Row-3 dressed creation at rank 4, assembled from the rank-3 operators.

    Alternative route to ``isb_create(3, alpha, psi)``: the rank-3
    dressed operators (chains capped at row 2) are glued with two
    rational coefficients,

        A+[3]^a = a+[3]^a + G2 (a+[3].A[2]) A+[2]^a
                          + G1 (a+[3].A[1]) A+[1]^a

        G2 = -1 / (n_2 - n_3 + 2)
        G1 = -(n_1 - n_2 + 2) / ((n_1 - n_2 + 1)(n_1 - n_3 + 3))

    both evaluated at the input totals with row 3 raised by one.  On
    constraint-space states this agrees exactly with the closed-form
    chain expansion.  The formula is the definition; it is evaluated
    as ints over one denominator per basis state, like the ladders.
    """
    if psi.n != 4:
        raise ValueError("the iterative construction is specific to rank 4")
    _check_slot(4, 3, alpha)
    # A+[2]^a from the memo only inside a sweep, as isb_create
    create = _create_terms if _IN_SWEEP.get() else _create_terms.__wrapped__
    return _apply_images(psi, _iterative_on_basis, create, alpha)


def verify_recurrence(k_max: int, totals_grid: Iterable[Iterable[int]], coeff=creation_coeff) -> bool:
    """Check the downward recurrence of the creation coefficients on a grid.

    For every totals vector in the grid and every pair p < k - 1 the
    closed form must satisfy

        F(k, p) = F(k, p+1) / (1 - (n_p - n_{p+1} + 1) F(k, p+1)).

    Returns False on the first mismatch.  ``coeff`` exists so a
    deliberately perturbed closed form can serve as a negative control.
    Raises ``ValueError``, never passing vacuously, unless k_max is an
    ``int`` of at least 3 and the grid has totals, all of k_max rows or more.
    """
    grid = [tuple(totals) for totals in totals_grid]
    if _exact_int(k_max, "k_max") < 3 or min(map(len, grid), default=0) < k_max:
        raise ValueError(f"need k_max >= 3 and a grid of totals of k_max+ rows, got k_max={k_max}")
    for totals in grid:
        for k in range(3, k_max + 1):
            for p in range(k - 2, 0, -1):
                f_next = coeff(k, p + 1, totals)
                den = 1 - (totals[p - 1] - totals[p] + 1) * f_next
                if den == 0 or coeff(k, p, totals) != f_next / den:
                    return False
    return True
