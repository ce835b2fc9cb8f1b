"""Independent rank-3 cross-check in the triplet/antitriplet language.

Rank-3 representations (n, m) can be realized on one oscillator
triplet a+ (upper color index) and one antitriplet b+ (lower color
index) instead of two triplets.  This module is that second
realization, used to cross-validate the two-triplet machinery without
sharing any of its operator algebra.

The six oscillators live on the standard 2x3 occupation grid of
``fock``: row 1 holds the a-triplet, row 2 the b-antitriplet.  Only
the operators defined here distinguish the two rows.

Provided:

* the explicit trace-subtracted polynomial states: the bare monomial
  plus its delta-pairings of upper with lower index positions, each
  distinct pairing once, with rational coefficients ``trace_coeff``,
  evaluated with the pair ladders as (a+.b+)^r (a.b)^r / r!;
* the noncompact sp(2,R) triple, three functions on kets:
  ``pair_create`` a+.b+, ``pair_annihilate`` a.b and ``pair_level``
  (N_a + N_b + 3)/2, whose lowest-weight condition a.b |psi> = 0
  selects exactly the traceless states;
* dressed creation operators for both index types, the analogue of
  ``isb.isb_create`` in this language;
* su(3) generators under which a+ transforms as a triplet and b+ as
  an antitriplet, plus the matching Casimir.  The generator is one
  integer rule on a basis state, ``_ab_generator_on_basis``:
  ``ab_generator_action`` applies it to a ket with
  ``fock._apply_images``, and ``algebra.casimir_op`` composes it into
  the Casimir state by state;
* ``compare_languages``: dimension and Casimir computed in both
  realizations at [n_1, n_2] <-> (n, m) = (n_1 - n_2, n_2), compared
  exactly.

Shared generic helpers: ``fock._apply_images``, ``algebra.casimir_op``,
``linalg.rank`` and ``irreps.scalar_on``.  The pair ladders, the pair
level and both dressed creations (one routine, ``_dressed_create``)
keep one integer image per basis state over one denominator, as the
Casimir does; a ket is mapped by ``fock._apply_images``, which sums
over one common denominator and reduces the output ket once.  Both
rank calls hand ``linalg`` the kets' integer numerators: a vector's
rank does not depend on its scale.  The traceless states are
compositions of the pair ladders.  Every map of a ket here takes
rank-3 kets only and raises ``ValueError`` on any other, as
``algebra.LinearOp`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from typing import Callable, Iterator, Sequence

from .algebra import LinearOp, casimir_op
from .fock import (
    FockState,
    Ket,
    _apply_images,
    _bumped,
    _check_color,
    _exact_int,
    _numerators,
    _recolored,
    _unchecked_state,
    apply_create,
    vacuum,
    zero_ket,
)
from .irreps import IrrepLabel, casimir_eigenvalue, nullspace_dimension, scalar_on
from .linalg import rank

__all__ = [
    "A_ROW",
    "B_ROW",
    "bare_state",
    "trace_coeff",
    "traceless_state",
    "trace_contract",
    "pair_create",
    "pair_annihilate",
    "pair_level",
    "dressed_create_a",
    "dressed_create_b",
    "isb_monomial",
    "ab_generator_action",
    "ab_casimir2_op",
    "ab_dimension",
    "ab_casimir_eigenvalue",
    "LanguageComparison",
    "compare_languages",
]

A_ROW = 1
B_ROW = 2
_COLORS = (1, 2, 3)


def bare_state(alphas: Sequence[int], betas: Sequence[int]) -> Ket:
    """The undressed monomial: a+ factors for alphas, b+ factors for betas."""
    psi = vacuum(3)
    for alpha in alphas:
        psi = apply_create(A_ROW, alpha, psi)
    for beta in betas:
        psi = apply_create(B_ROW, beta, psi)
    return psi


def _check_counts(*counts) -> None:
    """``ValueError`` unless every index count is a non-negative ``int``."""
    for count in counts:
        if _exact_int(count, "index count") < 0:
            raise ValueError(f"index count must be non-negative, got {count}")


def trace_coeff(n: int, m: int, r: int) -> Fraction:
    """Coefficient of the r-fold trace subtraction in a traceless (n, m) state.

    Value: (-1)^r / [(n+m+1)(n+m) ... (n+m+2-r)], an r-factor falling
    product in the denominator.
    """
    _check_counts(n, m)
    if not 1 <= _exact_int(r, "subtraction depth") <= min(n, m):
        raise ValueError(f"subtraction depth must lie in 1..min(n, m), got {r}")
    den = 1
    for t in range(r):
        den *= n + m + 1 - t
    return Fraction((-1) ** r, den)


def _paired(state: FockState, g: int, delta: int) -> FockState:
    # one quantum of color g + 1 added to (delta 1) or taken from (delta -1) both rows
    a, b = state.occ
    return _unchecked_state(3, (a[:g] + (a[g] + delta,) + a[g + 1 :], b[:g] + (b[g] + delta,) + b[g + 1 :]))


def _check_rank3(psi: Ket) -> None:
    if psi.n != 3:
        raise ValueError(f"the su(3) operators act on rank-3 kets, got rank {psi.n}")


def _pair_annihilate_on_basis(state: FockState) -> tuple:
    a, b = state.occ
    return [(_paired(state, g, -1), a[g] * b[g]) for g in range(3) if a[g] and b[g]], 1


def pair_create(psi: Ket) -> Ket:
    """Apply the invariant pair creation a+.b+ (color summed)."""
    _check_rank3(psi)
    return _apply_images(psi, lambda s: ([(_paired(s, g, 1), 1) for g in range(3)], 1))


def pair_annihilate(psi: Ket) -> Ket:
    """Apply the invariant pair annihilation a.b (color summed)."""
    _check_rank3(psi)
    return _apply_images(psi, _pair_annihilate_on_basis)


def pair_level(psi: Ket) -> Ket:
    """Apply the level operator (N_a + N_b + 3)/2 of the pair algebra.

    With k_plus = ``pair_create`` and k_minus = ``pair_annihilate`` it
    is k_zero of the noncompact triple: [k_minus, k_plus] = 2 k_zero and
    [k_zero, k_pm] = +-k_pm.  The lowest-weight condition
    k_minus |psi> = 0 picks out the traceless states; each k_plus
    application climbs one rung of a multiplicity tower without
    changing the su(3) content.  On a basis state it is the integer
    N_a + N_b + 3 over 2, so the level of an odd number of quanta is an
    ``int``.
    """
    _check_rank3(psi)
    return _apply_images(psi, lambda s: ([(s, sum(map(sum, s.occ)) + 3)], 2))


def traceless_state(n: int, m: int, alphas: Sequence[int], betas: Sequence[int]) -> Ket:
    """The trace-subtracted polynomial state with the given concrete colors.

    Starting from the bare monomial, every way of pairing r distinct
    upper positions with r distinct lower positions (an l-subset, a
    k-subset, and a bijection between them, each pairing counted once)
    contributes delta factors on the paired colors times the bare
    monomial on the remaining ones, scaled by ``trace_coeff(n, m, r)``
    and r applications of pair creation.  The result is annihilated by
    pair annihilation, which is checked property-by-property in the
    test suite rather than assumed here.

    Evaluated as bare + sum_r trace_coeff(n, m, r)/r! (a+.b+)^r (a.b)^r bare:
    each a.b removes one matched (upper, lower) pair, so (a.b)^r gives
    every r-pairing r! times.  The sum is nested, so a+.b+ is applied
    min(n, m) times.
    """
    _check_counts(n, m)
    alphas = tuple(alphas)
    betas = tuple(betas)
    if len(alphas) != n or len(betas) != m:
        raise ValueError("color lists must match the index counts")
    lowered = [bare_state(alphas, betas)]
    for _ in range(min(n, m)):
        lowered.append(pair_annihilate(lowered[-1]))
    total = zero_ket(3)
    for r in range(min(n, m), 0, -1):
        total = pair_create(total + lowered[r] * (trace_coeff(n, m, r) / factorial(r)))
    return lowered[0] + total


def trace_contract(
    builder: Callable[[Sequence[int], Sequence[int]], Ket],
    alphas: Sequence[int],
    betas: Sequence[int],
    l: int,
    k: int,
) -> Ket:
    """Contract upper position l with lower position k (1-based) over all colors.

    Sums builder(alphas with position l replaced by gamma, betas with
    position k replaced by gamma) over gamma.  For a traceless family
    the result is the zero ket; for the bare family it is not, which
    is the negative control.
    """
    alphas = list(alphas)
    betas = list(betas)
    if type(l) is not int or not 1 <= l <= len(alphas):
        raise IndexError(f"upper position must lie in 1..{len(alphas)}, got {l}")
    if type(k) is not int or not 1 <= k <= len(betas):
        raise IndexError(f"lower position must lie in 1..{len(betas)}, got {k}")
    acc = zero_ket(3)
    for gamma in _COLORS:
        alphas[l - 1] = gamma
        betas[k - 1] = gamma
        acc = acc + builder(alphas, betas)
    return acc


def _dressed_on_basis(row: int, color: int, state: FockState) -> tuple:
    # w a+[row]^c s - m (a+.b+)(s lowered in the other row), over w = N_a + N_b + 2 of s;
    # the pair of color c lands on the bare raise, which so gets w - m
    other = B_ROW if row == A_ROW else A_ROW
    raised = _bumped(state, row, color, 1)
    m = state.occ[other - 1][color - 1]
    if not m:
        return ((raised, 1),), 1
    w = sum(map(sum, state.occ)) + 2
    lowered = _bumped(state, other, color, -1)
    terms = [(_paired(lowered, g, 1), -m) for g in range(3) if g != color - 1]
    return terms + [(raised, w - m)], w


def _dressed_create(row: int, color: int, psi: Ket) -> Ket:
    """Dressed creation on ``row``: the bare creation minus its pair-creation trace.

    The trace lowers the other row in the same color, then applies
    a+.b+.  Its coefficient 1/(N_a + N_b + 1) is a function of number
    operators written left of the operator part, so it is evaluated on
    the totals after the net raise by one quantum; on the lowered state
    that is 1/(N_a + N_b + 3), and on the input state 1/(N_a + N_b + 2).
    Each basis state's image is ints over that one denominator, and the
    images are summed by ``fock._apply_images``.
    """
    _check_rank3(psi)
    _check_color(3, color)
    return _apply_images(psi, _dressed_on_basis, row, color)


def dressed_create_a(alpha: int, psi: Ket) -> Ket:
    """Dressed triplet creation: a+^alpha minus its pair-creation trace."""
    return _dressed_create(A_ROW, alpha, psi)


def dressed_create_b(beta: int, psi: Ket) -> Ket:
    """Dressed antitriplet creation: b+_beta minus its pair-creation trace."""
    return _dressed_create(B_ROW, beta, psi)


def isb_monomial(alphas: Sequence[int], betas: Sequence[int]) -> Ket:
    """Monomial of dressed operators on vacuum: b-type first, then a-type."""
    psi = vacuum(3)
    for beta in betas:
        psi = dressed_create_b(beta, psi)
    for alpha in alphas:
        psi = dressed_create_a(alpha, psi)
    return psi


def _ab_generator_on_basis(alpha: int, beta: int, state: FockState) -> tuple:
    # Q[alpha, beta] on one basis state, ints over 1 off the diagonal (+m_a for the a-row
    # recolor beta -> alpha, -m_b for the b-row recolor alpha -> beta) and over 3 on it
    a, b = state.occ
    if alpha == beta:
        d = 3 * (a[alpha - 1] - b[alpha - 1]) - (sum(a) - sum(b))
        return ([(state, d)] if d else []), 3
    terms = []
    if a[beta - 1]:
        terms.append((_recolored(state, A_ROW, beta, alpha), a[beta - 1]))
    if b[alpha - 1]:
        terms.append((_recolored(state, B_ROW, alpha, beta), -b[alpha - 1]))
    return terms, 1


def ab_generator_action(alpha: int, beta: int, psi: Ket) -> Ket:
    """su(3) generator in the Weyl basis for this language.

    Q[alpha, beta] = a+^alpha a_beta - b+_beta b^alpha
                     - delta(alpha, beta) (N_a - N_b)/3,

    under which a+ transforms as a triplet and b+ as an antitriplet.
    """
    _check_rank3(psi)
    _check_color(3, alpha)
    _check_color(3, beta)
    return _apply_images(psi, _ab_generator_on_basis, alpha, beta)


def ab_casimir2_op() -> LinearOp:
    """Quadratic Casimir of this language, same normalization as ``algebra``."""
    return casimir_op(3, _ab_generator_on_basis, "C2(ab)")


def _distinct_families(n: int, m: int):
    for alphas in combinations_with_replacement(_COLORS, n):
        for betas in combinations_with_replacement(_COLORS, m):
            yield alphas, betas


def _traceless_family(n: int, m: int) -> Iterator[Ket]:
    """The traceless state of every distinct color family, in ``_distinct_families`` order."""
    _check_counts(n, m)
    return (traceless_state(n, m, alphas, betas) for alphas, betas in _distinct_families(n, m))


def ab_dimension(n: int, m: int) -> int:
    """Rank of the traceless family's coefficient vectors; zero states count as dependent."""
    return rank(map(_numerators, _traceless_family(n, m)))


def ab_casimir_eigenvalue(n: int, m: int) -> Fraction:
    """Casimir scalar on the traceless family, with a proportionality check."""
    return scalar_on(ab_casimir2_op(), _traceless_family(n, m))


@dataclass(frozen=True)
class LanguageComparison:
    """Dimension and Casimir of one representation, computed in both languages."""

    label: IrrepLabel
    nm: tuple[int, int]
    two_triplet_dimension: int
    ab_dimension: int
    two_triplet_casimir: Fraction
    ab_casimir: Fraction

    @property
    def agree(self) -> bool:
        return (
            self.two_triplet_dimension == self.ab_dimension
            and self.two_triplet_casimir == self.ab_casimir
        )


def compare_languages(label: IrrepLabel) -> LanguageComparison:
    """Compare the two realizations of one rank-3 representation.

    The languages have no state-by-state map here; they are compared on
    the invariant data (dimension, Casimir), computed independently on
    each side.  The traceless family is built once, for both its rank
    (``ab_dimension``) and its Casimir scalar (``ab_casimir_eigenvalue``).
    """
    if label.n != 3:
        raise ValueError("language comparison is specific to rank 3")
    n1, n2 = label.rows
    nm = (n1 - n2, n2)
    family = list(_traceless_family(*nm))
    return LanguageComparison(
        label=label,
        nm=nm,
        two_triplet_dimension=nullspace_dimension(label),
        ab_dimension=rank(map(_numerators, family)),
        two_triplet_casimir=casimir_eigenvalue(label),
        ab_casimir=scalar_on(ab_casimir2_op(), family),
    )
