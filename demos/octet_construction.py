"""Building the eight-dimensional rank-3 representation, coefficient by coefficient.

The two-row label [2,1] is the adjoint of the rank-3 group.  Its
states come out of ordered monomials of dressed creation operators:
two bare row-1 operators followed by one dressed row-2 operator whose
correction chain carries the famous 1/3 weights.
"""

from sunisb import (
    IrrepLabel,
    all_multi_indices,
    build_monomial,
    casimir_eigenvalue,
    constraint_residual,
    format_ket,
    monomial_rank,
    nullspace_dimension,
    weyl_dimension,
)

label = IrrepLabel(3, (2, 1))

print("== the [2,1] octet at rank 3 ==\n")
print("dimension, three ways:")
print(f"  closed product        : {weyl_dimension(label)}")
print(f"  constraint null space : {nullspace_dimension(label)}")
print(f"  monomial rank         : {monomial_rank(label)}")

print("\none monomial in full, colors (1,1;2):")
psi = build_monomial(label, ((1, 1), (2,)))
print(f"  {format_ket(psi)}")
print("the 2/3 and -1/3 pattern of the dressing chain is visible in the weights.")

print("\nevery color assignment lands in the constraint null space:")
count = sum(1 for idx in all_multi_indices(label) if constraint_residual(build_monomial(label, idx)))
total = len(list(all_multi_indices(label)))
print(f"  {count}/{total} assignments annihilated by the row-lowering bilinear")

print(f"\nquadratic casimir on the monomials: {casimir_eigenvalue(label)} (the adjoint value)")
