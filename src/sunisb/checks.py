"""Verification suites: every algebraic claim as an executable sweep.

Each suite checks one family of exact identities over a bounded state
space.  It asserts nothing: it yields ``(check_id, witness)`` pairs,
where ``witness`` is None for a passed check and otherwise describes
the check's first failure.  ``run_suite`` turns the pairs into
``CheckRecord`` values, so the test suite and the command line share
them.  All sweeps are deterministic.

Every suite takes the same two keyword bounds: ``n_max``, the largest
rank N, and ``max_quanta``, the most boxes (or quanta) per sweep.  A
suite's keyword defaults are its default bounds, the ones the
acceptance tests run with; ``run_suite`` passes on only the bounds
that are not None, and raises ``ValueError`` for a negative or
non-``int`` one.  ``octet``, ``traceless`` and ``iterative`` check
fixed samples and ignore both bounds, and ``sp2r`` ignores ``n_max``.

Monomials reach the suites by two routes, both through one prefix-shared
walk, ``irreps._monomials``.  ``constraints``, ``octet`` and the zero ket
of ``serialization`` build each one with ``checks.build_monomial``, the
walk over one index.  ``dimensions`` (through ``monomial_rank``),
``casimir`` and the ``monomials`` family of ``serialization`` walk
whole index families directly.  So a perturbed
``checks.build_monomial`` reaches ``constraints``, ``octet`` and the
zero ket of ``serialization``, and nothing else.

Every commutator identity is one kernel, ``_bracket_witness``, fed a
table of structure constants, (x, y) -> {z: c} for [x, y] = sum_z c z
over op names, None naming the identity.  It takes each op's image of a
ket once; ops are bound when it runs, so a perturbed operator reaches it.
The two ``algebra`` witnesses hand it their Q[a,b] and L[i,j] ops through
``_tabled``: a per-state image table, living for one witness call, that
takes each op's image of a basis state once, by the bound op on
``basis_ket(state)``, and maps every ket as the linear sum of those
images.  Q and L keep the number of quanta, so every state a bracket meets
is a state of the sweep and each image is reused.  Only there: the ladders
of ``fock``, ``commutators`` and ``sp2r`` change the number of quanta, so
most of their images would be taken once and never met again; tabling
every op of the kernel took ``commutators`` at ``n_max=3`` from 68 to
99 ms and ``sp2r`` from 65 to 71 ms.
The multiplicity check is built the same way: one table of dressed
ladders, each imaging a basis vector once, and one two-word table,
(name, outer, inner), for the products A+[i].A[j] and A[i].A+[j].

Registry ``SUITES``:

* ``fock``           oscillator commutators, adjointness, sector enumeration
* ``algebra``        the invariant-bilinear algebra and generator invariance
* ``constraints``    every monomial state lies in the constraint null space
* ``dimensions``     Weyl formula vs null-space dimension vs monomial rank
* ``octet``          the rank-3 [2,1] expansion with its 1/3 weights
* ``traceless``      explicit traceless states vs dressed monomials (rank 3)
* ``recurrence``     dressing-coefficient closed forms and their recurrence
* ``iterative``      the rank-4 gluing route vs the closed-form dressing
* ``multiplicity``   invariant bilinears of dressed operators are trivial
* ``commutators``    dressed creations commute on constrained states
* ``sp2r``           the noncompact pair algebra and its lowest weights
* ``casimir``        Casimir scalars against independent computations
* ``serialization``  byte-exact round trips for every producible ket family
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement, islice, product
from typing import Callable, Iterable, Iterator

from . import su3x
from .algebra import casimir2_op, generator_action, invariant_action
from .fock import (
    Ket,
    _apply_tabled,
    _check_rank,
    _compositions,
    _exact_int,
    _sum,
    apply_annihilate,
    apply_create,
    basis_ket,
    dumps_ket,
    enumerate_sector,
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
    _monomials,
    all_multi_indices,
    build_monomial,
    casimir_eigenvalue,
    constraint_residual,
    distinct_multi_indices,
    monomial_rank,
    nullspace_basis,
    nullspace_dimension,
    scalar_on,
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

__all__ = ["CheckRecord", "SUITES", "iter_labels", "run_suite"]

_COLORS = (1, 2, 3)

# what every suite yields: (check id, first failure or None)
Checks = Iterator[tuple[str, str | None]]


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one named check.  ``witness`` holds a reproduction hint on failure."""

    check_id: str
    passed: bool
    witness: str | None = None


def _ordered_totals(length: int, max_entry: int):
    # weakly decreasing vectors, descending: diagram rows, and the totals
    # regime where every dressing denominator is positive
    return combinations_with_replacement(range(max_entry, -1, -1), length)


def iter_labels(n: int, max_quanta: int) -> Iterator[IrrepLabel]:
    """All rank-n labels of at most max_quanta boxes, longest rows first; ValueError on bad bounds."""
    _check_rank(n)
    if _exact_int(max_quanta, "box bound") < 0:
        raise ValueError(f"box bound must be non-negative, got {max_quanta}")
    return (IrrepLabel(n, r) for r in _ordered_totals(n - 1, max_quanta) if sum(r) <= max_quanta)


def _labels(n_max: int, max_quanta: int) -> Iterator[IrrepLabel]:
    """The labels of every rank 2 to n_max with at most max_quanta boxes, rank by rank."""
    for n in range(2, n_max + 1):
        yield from iter_labels(n, max_quanta)


def _tag(label: IrrepLabel) -> str:
    """The check-id fragment that names a label."""
    return f"N={label.n},rows={label.rows}"


def _all_states(n: int, max_quanta: int):
    for q in range(max_quanta + 1):
        for totals in _compositions(q, n - 1):
            yield from enumerate_sector(n, totals)


def _basis_kets(n: int, max_quanta: int):
    return ((f"occ={state.occ}", basis_ket(state)) for state in _all_states(n, max_quanta))


def _bracket_witness(kets, ops, brackets: dict) -> str | None:
    """The first failing bracket as ``"[x,y] on <where>"``, else None; see the module docstring."""
    for where, psi in kets:
        if not psi:
            continue
        image = {name: op(psi) for name, op in ops.items()}
        image[None] = psi
        for (x, y), right in brackets.items():
            expect = ops[y](image[x])
            for z, c in right.items():
                expect = _sum(expect, image[z], c)
            if ops[x](image[y]) != expect:
                return f"[{x},{y}] on {where}"
    return None


def _tabled(ops: dict) -> dict:
    """Each op of ops mapping kets through its own per-state image table; see the module docstring."""
    return {name: partial(_apply_tabled, op, {}) for name, op in ops.items()}


def _named(name: str, action, index_tuples) -> dict:
    """{name.format(*t): action(*t, .)} for every index tuple t, the action bound now."""
    return {name.format(*t): partial(action, *t) for t in index_tuples}


def _gl_brackets(name: str, indices) -> dict:
    """[E_ij, E_kl] = d_jk E_il - d_il E_kj, E_ij named name.format(i, j)."""
    brackets = {}
    for i, j, k, l in product(indices, repeat=4):
        # at i = j = k = l both terms name one op: sum them
        right = brackets[name.format(i, j), name.format(k, l)] = Counter()
        if j == k:
            right[name.format(i, l)] += 1
        if i == l:
            right[name.format(k, j)] -= 1
    return brackets


def _spot_witness(spots: Iterable[tuple[str, object, object]]) -> str | None:
    """The first (name, got, expected) with got != expected, as a witness."""
    for name, got, expected in spots:
        if got != expected:
            return f"{name} = {got} != {expected}"
    return None


def _unless_raised(witness, *args) -> str | None:
    """witness(*args), or the text of the ``AlgebraViolationError`` or ``ValueError`` it raises."""
    try:
        return witness(*args)
    except (AlgebraViolationError, ValueError) as err:
        return str(err)


def _first_colors(n: int, m: int, broken: Callable[[tuple, tuple], object]) -> str | None:
    """The first rank-3 color choice, n upper and m lower, for which broken(alphas, betas) holds."""
    for alphas in product(_COLORS, repeat=n):
        for betas in product(_COLORS, repeat=m):
            if broken(alphas, betas):
                return f"alphas={alphas} betas={betas}"
    return None


# --- fock ---------------------------------------------------------------


def _slots(n: int) -> list[tuple[int, int]]:
    return [(i, a) for i in range(1, n) for a in range(1, n + 1)]


def _commutator_witness(n: int) -> str | None:
    slots = _slots(n)
    down, up = "a[{}]_{}", "a+[{}]^{}"
    ops = _named(down, apply_annihilate, slots) | _named(up, apply_create, slots)
    brackets = {(down.format(*s), up.format(*t)): {None: 1} if s == t else {} for s, t in product(slots, repeat=2)}
    return _bracket_witness(_basis_kets(n, 2), ops, brackets)


def _adjointness_witness(n: int) -> str | None:
    # per slot, the matrices <t|a+ s> and <s|a t>: one image per s of <= 2 quanta, per t of <= 3
    sources, targets = list(_all_states(n, 2)), list(_all_states(n, 3))
    for i, alpha in _slots(n):
        raised, lowered = {}, {}
        for s in sources:
            image = apply_create(i, alpha, basis_ket(s))
            for t in image.terms:
                raised[s, t] = inner_product(image, basis_ket(t))
        for t in targets:
            image = apply_annihilate(i, alpha, basis_ket(t))
            for s in image.terms:
                lowered[s, t] = inner_product(basis_ket(s), image)
        for s, t in (*raised, *lowered):
            up, down = raised.get((s, t), 0), lowered.get((s, t), 0)
            if up != down:
                return f"slot ({i},{alpha}): <a+ s|t>={up} but <s|a t>={down} at s={s.occ}, t={t.occ}"
    return None


def _enumeration_witness(n: int, max_quanta: int) -> str | None:
    for q in range(max_quanta + 1):
        for totals in _compositions(q, n - 1):
            states = enumerate_sector(n, totals)
            if len(states) != sector_size(n, totals):
                return f"count mismatch at totals={totals}"
            if any(a.occ >= b.occ for a, b in zip(states, states[1:])):
                return f"enumeration out of order at totals={totals}"
    return None


def suite_fock(n_max: int = 4, max_quanta: int = 6) -> Checks:
    """Oscillator layer: canonical commutators, adjointness, sector enumeration."""
    ranks = range(2, n_max + 1)
    for n in ranks:
        yield f"canonical-commutators[N={n}]", _commutator_witness(n)
    for n in ranks:
        yield f"ladder-adjointness[N={n}]", _adjointness_witness(n)
    for n in ranks:
        yield f"sector-enumeration[N={n}]", _enumeration_witness(n, max_quanta)


# --- algebra ------------------------------------------------------------


def _bilinear_algebra_witness(n: int, max_quanta: int) -> str | None:
    ops = _tabled(_named("L[{},{}]", invariant_action, product(range(1, n), repeat=2)))
    return _bracket_witness(_basis_kets(n, max_quanta), ops, _gl_brackets("L[{},{}]", range(1, n)))


def _generator_commutant_witness(n: int, max_quanta: int) -> str | None:
    # every su(N) generator commutes with every u(N-1) bilinear
    generators = _named("Q[{},{}]", generator_action, product(range(1, n + 1), repeat=2))
    bilinears = _named("L[{},{}]", invariant_action, product(range(1, n), repeat=2))
    brackets = {(q, l): {} for l in bilinears for q in generators}
    return _bracket_witness(_basis_kets(n, max_quanta), _tabled(generators | bilinears), brackets)


def suite_algebra(n_max: int = 4, max_quanta: int = 4) -> Checks:
    """Exact operator identities of the invariant bilinears, state by state."""
    ranks = range(2, n_max + 1)
    for n in ranks:
        yield f"bilinear-algebra[N={n}]", _bilinear_algebra_witness(n, max_quanta)
    for n in ranks:
        yield f"generator-commutant[N={n}]", _generator_commutant_witness(n, max_quanta)


# --- constraints --------------------------------------------------------


def _constraint_witness(label: IrrepLabel) -> str | None:
    for idx in all_multi_indices(label):
        violated = constraint_residual(build_monomial(label, idx)).violated
        if violated:
            return f"idx={idx} survives L[{violated[0][0]},{violated[0][1]}]"
    return None


def suite_constraints(n_max: int = 5, max_quanta: int = 5) -> Checks:
    """Every monomial of every color assignment is killed by every constraint."""
    for label in _labels(n_max, max_quanta):
        yield f"constraint-null[{_tag(label)}]", _constraint_witness(label)


# --- dimensions ---------------------------------------------------------

_SPOT_DIMENSIONS = {
    (3, (2, 1)): 8,
    (4, (1, 1, 0)): 6,
    (4, (1, 1, 1)): 4,
    (4, (2, 1, 0)): 20,
}


def _dimension_triple(label: IrrepLabel) -> tuple[int, int, int]:
    """Weyl formula, constraint null space and monomial rank: the ``dimensions`` suite and ``sunisb dim``."""
    return weyl_dimension(label), nullspace_dimension(label), monomial_rank(label)


def suite_dimensions(n_max: int = 5, max_quanta: int = 5) -> Checks:
    """Three dimension computations agree label by label (two share ``linalg``'s eliminator)."""
    triples: dict[IrrepLabel, tuple[int, int, int]] = {}
    for label in _labels(n_max, max_quanta):
        weyl, null, rank = triples[label] = _dimension_triple(label)
        witness = None if weyl == null == rank else f"weyl={weyl} nullspace={null} rank={rank}"
        yield f"dimension-triple[{_tag(label)}]", witness
    for (n, rows), expected in _SPOT_DIMENSIONS.items():
        label = IrrepLabel(n, rows)
        triple = triples.get(label) or _dimension_triple(label)
        witness = None if triple == (expected,) * 3 else f"{triple} != {expected}"
        yield f"spot-dimension[{_tag(label)}]", witness


# --- octet --------------------------------------------------------------


def _octet_witness(beta: int) -> str | None:
    label = IrrepLabel(3, (2, 1))
    for a1 in _COLORS:
        for a2 in _COLORS:
            built = build_monomial(label, ((a1, a2), (beta,)))
            lead = apply_create(2, beta, apply_create(1, a1, apply_create(1, a2, vacuum(3))))
            swap1 = apply_create(2, a1, apply_create(1, beta, apply_create(1, a2, vacuum(3))))
            swap2 = apply_create(2, a2, apply_create(1, beta, apply_create(1, a1, vacuum(3))))
            expected = lead * Fraction(2, 3) - swap1 * Fraction(1, 3) - swap2 * Fraction(1, 3)
            if built != expected:
                return f"colors ({a1},{a2};{beta})"
    return None


def suite_octet(n_max: int | None = None, max_quanta: int | None = None) -> Checks:
    """The rank-3 [2,1] monomial against its fully expanded three-term form."""
    # bounds are not applicable: this is one fixed identity, all 27 color choices
    for beta in _COLORS:
        yield f"octet-expansion[beta={beta}]", _octet_witness(beta)


# --- traceless ----------------------------------------------------------

_BV_CASES = ((1, 1), (2, 1), (1, 2), (2, 2))


def _contraction_witness(n: int, m: int, table: dict) -> str | None:
    def traceless(a, b):
        return table[tuple(a), tuple(b)]

    for l in range(1, n + 1):
        for k in range(1, m + 1):
            witness = _first_colors(
                n, m, lambda a, b: su3x.trace_contract(traceless, a, b, l, k)
            )
            if witness is not None:
                return f"positions ({l},{k}) at {witness}"
    return None


def suite_traceless(n_max: int | None = None, max_quanta: int | None = None) -> Checks:
    """Explicit trace-subtracted states equal the dressed monomials, and are traceless."""
    # every (n, m, colors) state built once, shared by both checks
    tables = {
        (n, m): {
            (a, b): su3x.traceless_state(n, m, a, b)
            for a, b in product(product(_COLORS, repeat=n), product(_COLORS, repeat=m))
        }
        for n, m in _BV_CASES
    }
    for n, m in _BV_CASES:
        yield f"bv-equals-isb[({n},{m})]", _first_colors(
            n, m, lambda a, b: tables[n, m][a, b] != su3x.isb_monomial(a, b)
        )

    spots = (
        ((1, 1, 1), Fraction(-1, 3)),
        ((2, 1, 1), Fraction(-1, 4)),
        ((2, 2, 2), Fraction(1, 20)),
    )
    coefficients = (
        (f"coefficient({n},{m},{r})", su3x.trace_coeff(n, m, r), expected)
        for (n, m, r), expected in spots
    )
    yield "trace-coefficients", _spot_witness(coefficients)

    for n, m in _BV_CASES:
        yield f"trace-contraction[({n},{m})]", _contraction_witness(n, m, tables[n, m])

    bare = su3x.trace_contract(su3x.bare_state, (1,), (1,), 1, 1)
    yield "trace-contraction-negative-control", (
        None if bare else "the bare monomial contraction vanished"
    )


# --- recurrence ---------------------------------------------------------


def suite_recurrence(n_max: int = 6, max_quanta: int = 6) -> Checks:
    """Closed forms of the dressing coefficients and their downward recurrence.

    ``max_quanta`` bounds each row total, not their sum.
    """
    for n in range(4, n_max + 1):
        ok = verify_recurrence(n - 1, list(_ordered_totals(n - 1, max_quanta)))
        yield f"chain-recurrence[N={n}]", None if ok else "closed form broke its recurrence"

    annihilation = (
        (f"H[{i},{k}] at totals={totals}", annihilation_coeff(i, k, totals),
         Fraction(1, totals[k - 1] - totals[i - 1] + 1 + (i - k)))
        for length in range(2, max(n_max - 1, 2) + 1)
        for totals in _ordered_totals(length, max_quanta)
        for k in range(1, length + 1)
        for i in range(k + 1, length + 1)
    )
    yield "annihilation-closed-form", _spot_witness(annihilation)

    first_steps = [
        (f"F[2,1] at totals={totals}", creation_coeff(2, 1, totals),
         Fraction(-1, totals[0] - totals[1] + 2))
        for totals in _ordered_totals(2, max_quanta)
    ]
    first_steps += [
        ("F[2,1](2,1)", creation_coeff(2, 1, (2, 1)), Fraction(-1, 3)),
        ("H[2,1](2,1)", annihilation_coeff(2, 1, (2, 1)), Fraction(1, 3)),
        ("F[3,2](2,1,0)", creation_coeff(3, 2, (2, 1, 0)), Fraction(-1, 3)),
        ("F[3,1](2,1,0)", creation_coeff(3, 1, (2, 1, 0)), Fraction(-1, 5)),
    ]
    yield "first-step-coefficients", _spot_witness(first_steps)

    def damaged(k, i, totals):
        value = creation_coeff(k, i, totals)
        return value * 2 if i == 1 else value

    broke = not verify_recurrence(3, list(_ordered_totals(3, 2)), coeff=damaged)
    yield "recurrence-negative-control", (
        None if broke else "a damaged closed form still satisfied the recurrence"
    )


# --- iterative ----------------------------------------------------------

_ITERATIVE_SECTORS = ((1, 1, 0), (2, 1, 0), (2, 1, 1))


def _iterative_witnesses(totals: tuple[int, ...]) -> tuple[str | None, str | None]:
    """First failures of (gluing == closed form, closed-form image is constrained)."""
    gluing = constrained = None
    for b, psi in enumerate(nullspace_basis(IrrepLabel(4, totals))):
        for alpha in range(1, 5):
            closed = isb_create(3, alpha, psi)
            if gluing is None and isb_create_iterative(alpha, psi) != closed:
                gluing = f"basis[{b}] alpha={alpha}"
            violated = constraint_residual(closed).violated if constrained is None else ()
            if violated:
                constrained = f"basis[{b}] alpha={alpha} survives L[{violated[0][0]},{violated[0][1]}]"
    return gluing, constrained


def suite_iterative(n_max: int | None = None, max_quanta: int | None = None) -> Checks:
    """The rank-4 gluing construction equals the closed-form dressed creation."""
    for totals in _ITERATIVE_SECTORS:
        gluing, constrained = _iterative_witnesses(totals)
        yield f"iterative-gluing[{totals}]", gluing
        yield f"dressed-image-constrained[{totals}]", constrained


# --- multiplicity -------------------------------------------------------


def _multiplicity_witnesses(n: int, basis: list[Ket]) -> tuple[str | None, str | None]:
    """First failures of (off-diagonal products vanish, diagonal products are one scalar).

    The single ladders are one table, A[j]_gamma and A+[j]^gamma, and
    each one's image of a basis vector is computed once.  The two
    color-contracted products, A+[i].A[j] and A[i].A+[j] summed over
    gamma, are one table of words (name, outer, inner) over it.  A
    vanishing dressing denominator fails both checks, naming the
    operator, the basis vector and the error.
    """
    slots = _slots(n)
    ladders = _named("A[{}]_{}", isb_annihilate, slots) | _named("A+[{}]^{}", isb_create, slots)
    words = (("A+[{}].A[{}]", "A+[{}]^{}", "A[{}]_{}"), ("A[{}].A+[{}]", "A[{}]_{}", "A+[{}]^{}"))
    rows, colors = range(1, n), range(1, n + 1)
    # per diagonal product, its image of each basis vector, keyed by id: a Ket is unhashable
    diagonal = {word.format(i, i): {} for i in rows for word, _, _ in words}
    offdiagonal = None
    for b, psi in enumerate(basis):
        try:
            image = {}
            for op, ladder in ladders.items():
                image[op] = ladder(psi)
            for i, j, (word, outer, inner) in product(rows, rows, words):
                op, total = word.format(i, j), zero_ket(n)
                for g in colors:
                    total = _sum(total, ladders[outer.format(i, g)](image[inner.format(j, g)]))
                if i == j:
                    diagonal[op][id(psi)] = total
                elif offdiagonal is None and total:
                    offdiagonal = f"{op} on basis[{b}]"
        except SingularCoefficientError as err:
            failure = f"{op} on basis[{b}]: {err}"
            return offdiagonal or failure, failure
    for op, images in diagonal.items():
        try:
            scalar_on(lambda psi: images[id(psi)], basis)
        except (AlgebraViolationError, ValueError) as err:
            return offdiagonal, f"{op} on the basis: {err}"
    return offdiagonal, None


def suite_multiplicity(n_max: int = 4, max_quanta: int = 4) -> Checks:
    """Invariant bilinears of dressed operators carry no new quantum numbers.

    Off-diagonal products annihilate every constrained state; diagonal
    products act as one exact scalar per sector, i.e. as functions of
    the number operators alone.

    At N=2 there is one row, so no off-diagonal product exists: the
    ``offdiagonal-invariants[N=2,...]`` checks pass by construction and
    show nothing.  They keep their ids.
    """
    for label in _labels(n_max, max_quanta):
        offdiagonal, diagonal = _multiplicity_witnesses(label.n, nullspace_basis(label))
        yield f"offdiagonal-invariants[{_tag(label)}]", offdiagonal
        yield f"diagonal-invariant-scalars[{_tag(label)}]", diagonal


# --- commutators --------------------------------------------------------


def _same_row_witness(label: IrrepLabel) -> str | None:
    slots, create = _slots(label.n), "A+[{}]^{}"
    brackets = {(create.format(*s), create.format(*t)): {} for s, t in combinations(slots, 2) if s[0] == t[0]}
    kets = ((f"basis[{b}]", psi) for b, psi in enumerate(nullspace_basis(label)))
    return _bracket_witness(kets, _named(create, isb_create, slots), brackets)


def _ab_commutator_witness(n: int, m: int) -> str | None:
    a, b = "A+^{}", "B+_{}"
    ops = _named(a, su3x.dressed_create_a, product(_COLORS)) | _named(b, su3x.dressed_create_b, product(_COLORS))
    brackets = {(a.format(x), b.format(y)): {} for x, y in product(_COLORS, repeat=2)}
    brackets |= {(f.format(x), f.format(y)): {} for f in (a, b) for x, y in combinations(_COLORS, 2)}
    kets = ((f"{al}|{be}", su3x.traceless_state(n, m, al, be)) for al, be in su3x._distinct_families(n, m))
    return _bracket_witness(kets, ops, brackets)


def suite_commutators(n_max: int = 4, max_quanta: int = 4) -> Checks:
    """Dressed creation operators commute where they must."""
    for label in _labels(n_max, max_quanta):
        yield f"same-row-creation-commutators[{_tag(label)}]", _same_row_witness(label)
    for n, m in _BV_CASES:
        yield f"ab-cross-commutators[({n},{m})]", _ab_commutator_witness(n, m)


# --- sp2r ---------------------------------------------------------------


def _pair_algebra_witness(max_quanta: int) -> str | None:
    ops = {"k+": su3x.pair_create, "k-": su3x.pair_annihilate, "k0": su3x.pair_level}
    brackets = {("k-", "k+"): {"k0": 2}, ("k0", "k+"): {"k+": 1}, ("k0", "k-"): {"k-": -1}}
    return _bracket_witness(_basis_kets(3, max_quanta), ops, brackets)


def _tower_witness() -> str | None:
    lifted = su3x.pair_create(su3x.traceless_state(1, 1, (1,), (2,)))
    covariant = su3x.ab_casimir2_op()(lifted) == lifted * su3x.ab_casimir_eigenvalue(1, 1)
    broken = bool(su3x.pair_annihilate(lifted))
    ok = bool(lifted) and covariant and broken
    return None if ok else f"lifted nonzero={bool(lifted)} covariant={covariant} leaves-bottom={broken}"


def suite_sp2r(n_max: int | None = None, max_quanta: int = 6) -> Checks:
    """The noncompact pair algebra holds exactly; traceless states sit at the bottom."""
    yield "pair-algebra-relations", _pair_algebra_witness(max_quanta)
    for n in range(3):
        for m in range(3):
            yield f"lowest-weight[({n},{m})]", _first_colors(
                n, m, lambda a, b: su3x.pair_annihilate(su3x.traceless_state(n, m, a, b))
            )

    yield "tower-negative-control", _unless_raised(_tower_witness)


# --- casimir ------------------------------------------------------------


def _casimir_match_witness(label: IrrepLabel, c2) -> str | None:
    # both sides on the suite's one operator: the monomials lie in the null space's sector
    mono = scalar_on(c2, _monomials(label, distinct_multi_indices(label)))
    null = scalar_on(c2, nullspace_basis(label))
    return None if mono == null else f"monomial scalar {mono} != null-space scalar {null}"


def suite_casimir(n_max: int = 4, max_quanta: int | None = None) -> Checks:
    """Casimir scalars: rank-2 closed form, and monomials vs null-space basis.

    Without ``max_quanta``, the box bound is chosen per rank: 5 at N=3,
    4 at N=4 and 3 above.
    """
    rank2 = (
        (f"q={q}", casimir_eigenvalue(IrrepLabel(2, (q,))), Fraction(q, 2) * (Fraction(q, 2) + 1))
        for q in range(6)
    )
    yield "casimir-closed-form-rank2", _unless_raised(_spot_witness, rank2)

    default_bounds = {3: 5, 4: 4}
    for n in range(3, n_max + 1):
        bound = default_bounds.get(n, 3) if max_quanta is None else max_quanta
        c2 = casimir2_op(n)
        for label in iter_labels(n, bound):
            yield f"casimir-match[{_tag(label)}]", _unless_raised(_casimir_match_witness, label, c2)


# --- serialization ------------------------------------------------------


def _serialization_families(n_max: int, max_quanta: int):
    labels = _labels(min(n_max, 4), max_quanta)
    monomials = [psi for label in labels for psi in _monomials(label, distinct_multi_indices(label))]
    big = IrrepLabel(5, (2, 1, 1, 1))
    monomials += _monomials(big, islice(distinct_multi_indices(big), 0, None, 311))
    yield "monomials", monomials

    # at rank 2 there are no constraints: the null space is the whole sector
    labels = _labels(min(n_max, 4), min(max_quanta, 3))
    yield "nullspace-basis", [psi for label in labels for psi in nullspace_basis(label)]

    trace = []
    for n, m in _BV_CASES:
        for alphas, betas in su3x._distinct_families(n, m):
            trace.append(su3x.traceless_state(n, m, alphas, betas))
            trace.append(su3x.isb_monomial(alphas, betas))
    yield "traceless-states", trace

    base = su3x.traceless_state(2, 2, (1, 2), (1, 3))
    lifted = su3x.pair_create(base)
    yield "pair-ladder-images", [lifted, su3x.pair_annihilate(lifted), su3x.pair_level(base)]

    iterative = []
    for psi in nullspace_basis(IrrepLabel(4, (1, 1, 0))):
        for alpha in range(1, 5):
            iterative.append(isb_create_iterative(alpha, psi))
    yield "iterative-images", iterative

    # column antisymmetry makes this the zero ket; it must round trip too
    yield "zero-ket", [build_monomial(IrrepLabel(3, (1, 1)), ((1,), (1,)))]


def _round_trip_witness(family: str, kets: list[Ket]) -> str | None:
    if not kets:
        return "family produced no kets"
    for pos, psi in enumerate(kets):
        if ket_from_document(ket_to_document(psi)) != psi:
            return f"{family}[{pos}]: document round trip changed the ket"
        text = dumps_ket(psi)
        if dumps_ket(loads_ket(text)) != text:
            return f"{family}[{pos}]: byte round trip is not identical"
    return None


def suite_serialization(n_max: int = 4, max_quanta: int = 4) -> Checks:
    """Every producible ket survives document and byte round trips exactly.

    The bounds govern only the ``monomials`` family (ranks up to
    min(n_max, 4)) and the ``nullspace-basis`` family (at most 3 boxes
    besides).  The rank-5 monomial sample, the rank-3 traceless and
    pair-ladder kets, the rank-4 iterative images and the zero ket are
    fixed samples, built at any bound: bounding them by rank would
    leave ``iterative-images`` empty, so failing, at n_max=3.
    """
    for family, kets in _serialization_families(n_max, max_quanta):
        yield f"round-trip[{family}]", _round_trip_witness(family, kets)


SUITES: dict[str, Callable[..., Checks]] = {
    "fock": suite_fock,
    "algebra": suite_algebra,
    "constraints": suite_constraints,
    "dimensions": suite_dimensions,
    "octet": suite_octet,
    "traceless": suite_traceless,
    "recurrence": suite_recurrence,
    "iterative": suite_iterative,
    "multiplicity": suite_multiplicity,
    "commutators": suite_commutators,
    "sp2r": suite_sp2r,
    "casimir": suite_casimir,
    "serialization": suite_serialization,
}


def run_suite(name: str, n_max: int | None = None, max_quanta: int | None = None) -> list[CheckRecord]:
    """Run one registered suite by name; a bound left None takes the suite's default.

    A bound given must be a non-negative ``int``, else ``ValueError``.
    A ``SingularCoefficientError`` raised inside the suite ends it with
    one failed record, ``<name>-aborted``, whose witness names the error
    and the last check that completed.
    """
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}") from None
    bounds = {"n_max": n_max, "max_quanta": max_quanta}
    given = {key: value for key, value in bounds.items() if value is not None}
    for key, value in given.items():
        if _exact_int(value, key) < 0:
            raise ValueError(f"{key} must be non-negative, got {value}")
    records = []
    try:
        for check_id, witness in suite(**given):
            records.append(CheckRecord(check_id, witness is None, witness))
    except SingularCoefficientError as err:
        last = records[-1].check_id if records else "none"
        witness = f"SingularCoefficientError: {err} (last completed check: {last})"
        records.append(CheckRecord(f"{name}-aborted", False, witness))
    return records
