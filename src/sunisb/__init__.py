"""Exact irreducible representations of the special unitary groups.

The package realizes every representation label as monomials of
dressed oscillator creation operators acting on a multi-row Fock
space, with all arithmetic in integers and fractions.  ``fock`` holds
the state space, ``algebra`` the bilinear invariants and group
generators, ``isb`` the dressed ladder operators, ``linalg`` the exact
eliminator (``nullspace`` gives relations ``{position: int}``),
``irreps`` the label-level constructions, ``su3x`` the rank-3
triplet/antitriplet realization, and ``checks`` the verification suites.
"""

from .algebra import LinearOp, casimir2_op, generator_action, invariant_action
from .checks import SUITES, CheckRecord, iter_labels, run_suite
from .fock import (
    FockState,
    Ket,
    apply_annihilate,
    apply_create,
    basis_ket,
    dumps_ket,
    enumerate_sector,
    format_ket,
    inner_product,
    ket_from_document,
    ket_to_document,
    loads_ket,
    sector_size,
    vacuum,
    zero_ket,
)
from .irreps import (
    AlgebraViolationError,
    IrrepLabel,
    all_multi_indices,
    build_monomial,
    casimir_eigenvalue,
    constraint_residual,
    distinct_multi_indices,
    monomial_rank,
    nullspace_basis,
    nullspace_dimension,
    weyl_dimension,
)
from .isb import (
    SingularCoefficientError,
    annihilation_coeff,
    creation_coeff,
    isb_annihilate,
    isb_create,
    isb_create_iterative,
    verify_recurrence,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraViolationError",
    "CheckRecord",
    "FockState",
    "IrrepLabel",
    "Ket",
    "LinearOp",
    "SUITES",
    "SingularCoefficientError",
    "all_multi_indices",
    "annihilation_coeff",
    "apply_annihilate",
    "apply_create",
    "basis_ket",
    "build_monomial",
    "casimir2_op",
    "casimir_eigenvalue",
    "constraint_residual",
    "creation_coeff",
    "distinct_multi_indices",
    "dumps_ket",
    "enumerate_sector",
    "format_ket",
    "generator_action",
    "inner_product",
    "invariant_action",
    "isb_annihilate",
    "isb_create",
    "isb_create_iterative",
    "iter_labels",
    "ket_from_document",
    "ket_to_document",
    "loads_ket",
    "monomial_rank",
    "nullspace_basis",
    "nullspace_dimension",
    "run_suite",
    "sector_size",
    "vacuum",
    "verify_recurrence",
    "weyl_dimension",
    "zero_ket",
    "__version__",
]
