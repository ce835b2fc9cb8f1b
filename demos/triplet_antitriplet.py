"""A second rank-3 language: one triplet and one antitriplet oscillator.

Representations with n upper and m lower indices come from explicitly
trace-subtracted monomials of two oscillator species.  The subtraction
coefficients are fixed rationals, the states are lowest weights of a
noncompact pair algebra, and the whole construction agrees with the
two-row dressed-monomial language wherever both apply.
"""

from sunisb.irreps import IrrepLabel
from sunisb.su3x import (
    ab_casimir_eigenvalue,
    ab_dimension,
    compare_languages,
    pair_annihilate,
    pair_create,
    trace_coeff,
    traceless_state,
)
from sunisb.fock import format_ket

print("== triplet/antitriplet states at rank 3 ==\n")

print("trace-subtraction coefficients (depth r at n upper, m lower):")
for n, m, r in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)):
    print(f"  n={n} m={m} r={r}: {trace_coeff(n, m, r)}")

print("\nthe adjoint state with upper color 1, lower color 2:")
psi = traceless_state(1, 1, (1,), (2,))
print(f"  {format_ket(psi)}")

print("\nsame-color case picks up the full subtraction:")
print(f"  {format_ket(traceless_state(1, 1, (1,), (1,)))}")

print("\ndimensions of the (n, m) family, counted by rank:")
for n, m in ((1, 0), (0, 1), (1, 1), (2, 1), (2, 2)):
    print(f"  ({n},{m}): dimension {ab_dimension(n, m)}, casimir {ab_casimir_eigenvalue(n, m)}")

print("\nevery traceless state is a lowest-weight vector of the pair algebra:")
bottom = pair_annihilate(psi)
print(f"  k- on the adjoint state: {format_ket(bottom)}")
lifted = pair_create(psi)
print(f"  k+ lifts it out of the bottom floor: k- k+ state nonzero? {bool(pair_annihilate(lifted).terms)}")

print("\ncross-check against the two-row language:")
for rows in ((2, 1), (3, 1), (2, 2)):
    result = compare_languages(IrrepLabel(3, rows))
    print(
        f"  [{rows[0]},{rows[1]}] ~ (n,m)={result.nm}: "
        f"dims {result.two_triplet_dimension} vs {result.ab_dimension}, "
        f"casimirs {result.two_triplet_casimir} vs {result.ab_casimir}, "
        f"agree={result.agree}"
    )
