"""A tour across ranks 2 to 5: every small label, three dimension counts, one scalar.

The same code path handles every rank: enumerate the labels, build
the monomials, count dimensions by closed product, by constraint null
space, and by monomial rank, and read off the Casimir scalar.  A ket can
leave the process as a JSON document at any point.
"""

from sunisb import (
    IrrepLabel,
    build_monomial,
    casimir_eigenvalue,
    dumps_ket,
    iter_labels,
    monomial_rank,
    nullspace_dimension,
    weyl_dimension,
)

print("== all labels with at most 3 boxes, ranks 2..5 ==\n")
print(f"{'rank':>4}  {'rows':<14} {'dim':>4} {'null':>4} {'mono':>4}  casimir")
for n in range(2, 6):
    for label in iter_labels(n, 3):
        w = weyl_dimension(label)
        v = nullspace_dimension(label)
        r = monomial_rank(label)
        c = casimir_eigenvalue(label)
        flag = "" if w == v == r else "  <- disagreement!"
        print(f"{n:>4}  {str(list(label.rows)):<14} {w:>4} {v:>4} {r:>4}  {c}{flag}")

print("\na rank-5 monomial as a portable document:")
label = IrrepLabel(5, (1, 1, 0, 0))
doc = dumps_ket(build_monomial(label, ((1,), (2,), (), ())))
print(doc)
