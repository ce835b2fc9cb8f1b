"""Representation labels: monomials, dimensions, null spaces, Casimir scalars."""

import hashlib
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sunisb import checks, irreps
from sunisb.algebra import _generator_on_basis, casimir2_op, casimir_op, invariant_action
from sunisb.checks import iter_labels
from sunisb.fock import (
    FockState,
    Ket,
    apply_create,
    basis_ket,
    color_totals,
    dumps_ket,
    enumerate_sector,
    factorial_weight,
    inner_product,
    vacuum,
    zero_ket,
)
from sunisb.irreps import (
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
from sunisb.linalg import nullspace, rank
from sunisb.su3x import _distinct_families, ab_dimension, traceless_state
from test_linalg import gauss_rank


def gram_rank(kets):
    """Oracle: the rank of the factorial-weighted Gram matrix of kets.

    The inner product is positive definite, so this is the dimension of
    their span.  Kets are scaled to integer coefficients first: G
    becomes D G D, D invertible diagonal.
    """
    scaled = []
    for k in kets:
        scale = lcm(*(c.denominator for c in k.terms.values()))
        scaled.append({s: c.numerator * (scale // c.denominator) for s, c in k.terms.items()})
    weighted = [{s: c * factorial_weight(s) for s, c in k.items()} for k in scaled]
    size = len(kets)
    gram = [[0] * size for _ in range(size)]
    for a in range(size):
        wa = weighted[a]
        for b in range(a, size):
            tb = scaled[b]
            gram[a][b] = gram[b][a] = sum(c * tb[s] for s, c in wa.items() if s in tb)
    return gauss_rank(gram, size)


def blocked_gram_rank(kets, weight):
    """The oracle summed over blocks of nonzero kets of equal ``weight(first state)``."""
    blocks: dict = {}
    for k in kets:
        if k.terms:
            blocks.setdefault(weight(next(iter(k.terms))), []).append(k)
    return sum(gram_rank(block) for block in blocks.values())


class TestIrrepLabel:
    def test_rejects_increasing_rows(self):
        with pytest.raises(ValueError):
            IrrepLabel(3, (1, 2))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            IrrepLabel(3, (1,))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IrrepLabel(3, (1, -1))

    @pytest.mark.parametrize("n, rows", [(3, (2.9, True)), (3, (2, 1.0)), (3, ("2", 1)), (3.0, (2, 1))])
    def test_rejects_inexact(self, n, rows):
        # float, bool and str values would otherwise be truncated to other rows
        with pytest.raises(ValueError):
            IrrepLabel(n, rows)


# row lengths frozen from the closed product over box hooks
DIMENSIONS = {
    (2, (0,)): 1,
    (2, (3,)): 4,
    (3, (1, 0)): 3,
    (3, (1, 1)): 3,
    (3, (2, 1)): 8,
    (3, (3, 0)): 10,
    (4, (1, 0, 0)): 4,
    (4, (1, 1, 0)): 6,
    (4, (1, 1, 1)): 4,
    (4, (2, 1, 0)): 20,
    (4, (2, 1, 1)): 15,
    (5, (2, 1, 1, 1)): 24,
}


def test_weyl_dimension_frozen_values():
    for (n, rows), expected in DIMENSIONS.items():
        assert weyl_dimension(IrrepLabel(n, rows)) == expected


def test_trivial_label_is_one_dimensional():
    for n in (2, 3, 4, 5):
        assert weyl_dimension(IrrepLabel(n, (0,) * (n - 1))) == 1


class TestMultiIndices:
    def test_counts(self):
        label = IrrepLabel(3, (2, 1))
        assert len(list(all_multi_indices(label))) == 3**2 * 3
        # distinct: multiset choices per row
        assert len(list(distinct_multi_indices(label))) == 6 * 3

    def test_shapes(self):
        label = IrrepLabel(4, (2, 1, 0))
        for idx in distinct_multi_indices(label):
            assert tuple(len(g) for g in idx) == (2, 1, 0)


class TestMonomials:
    def test_vacuum_for_trivial_label(self):
        psi = build_monomial(IrrepLabel(3, (0, 0)), ((), ()))
        assert inner_product(psi, psi) == 1

    def test_all_indices_constrained(self):
        label = IrrepLabel(3, (2, 1))
        for idx in all_multi_indices(label):
            psi = build_monomial(label, idx)
            report = constraint_residual(psi)
            assert report
            assert not report.violated

    def test_residual_names_every_violated_lowering_bilinear(self):
        # a row-3 quantum survives L[1,3] and L[2,3]; L[1,2] finds row 2 empty
        report = constraint_residual(apply_create(3, 1, vacuum(4)))
        assert not report
        assert report.violated == ((1, 3), (2, 3))

    def test_index_validation(self):
        label = IrrepLabel(3, (2, 1))
        with pytest.raises(ValueError):
            build_monomial(label, ((1,), (2,)))
        with pytest.raises(ValueError):
            build_monomial(label, ((1, 4), (2,)))

    @pytest.mark.parametrize("idx", [((1.7, True), ("3",)), ((1, 2.0), (3,)), ((1, 2), (True,))])
    def test_inexact_colors_rejected(self, idx):
        # ((1.7, True), ("3",)) would otherwise build the ((1, 1), (3,)) monomial
        with pytest.raises(ValueError):
            build_monomial(IrrepLabel(3, (2, 1)), idx)

    def test_monomial_documents_pinned(self):
        # SHA-256 over the serialized dressed monomials of every distinct
        # index, in order: no rewrite of the ladders may change a byte
        digest = hashlib.sha256()
        count = nonzero = 0
        for n, rows in ((4, (2, 1, 1)), (5, (2, 1, 1, 0)), (6, (2, 1, 1, 0, 0))):
            label = IrrepLabel(n, rows)
            for idx in distinct_multi_indices(label):
                psi = build_monomial(label, idx)
                digest.update(dumps_ket(psi).encode())
                count += 1
                if psi:
                    nonzero += 1
                    assert any(type(c) is Fraction for c in psi.terms.values())
        assert (count, nonzero) == (1291, 864)
        assert digest.hexdigest() == "e5184ca5e8e6ef655adea3e1ef84013af91a3ada11d19d48af9cf6acfeb40e95"


def reference_monomial(label, idx):
    """The per-index build: each row's creations in turn, stopping after a row that leaves the zero ket."""
    psi = vacuum(label.n)
    for row, colors in enumerate(idx, start=1):
        for alpha in colors:
            psi = irreps.isb_create(row, alpha, psi)
        if not psi.terms:
            break
    return psi


def exact_terms(kets):
    """Each ket's rank and its (state, coefficient, coefficient type) terms, in order."""
    return [(psi.n, [(s, c, type(c)) for s, c in psi.terms.items()]) for psi in kets]


@st.composite
def index_walks(draw):
    """A label of rank N <= 5 with up to 4 boxes, and a list of its indices in random order, repeats included."""
    n = draw(st.integers(2, 5))
    label = draw(st.sampled_from(list(iter_labels(n, 4))))
    colors = st.integers(1, n)
    index = st.tuples(*(st.tuples(*[colors] * length) for length in label.rows))
    return label, draw(st.lists(index, max_size=12))


def count_creations(monkeypatch):
    calls = []
    original = irreps.isb_create

    def counted(k, alpha, psi):
        calls.append((k, alpha))
        return original(k, alpha, psi)

    monkeypatch.setattr(irreps, "isb_create", counted)
    return calls


def q12_doubled(a, b, state):
    """The generator rule with Q[1,2] doubled."""
    terms, den = _generator_on_basis(a, b, state)
    return ([(s, 2 * c) for s, c in terms] if (a, b) == (1, 2) else terms), den


def q11_shifted_by_a_third(a, b, state):
    """The generator rule with Q[1,1] + 1/3: each term times 3 and the state once more, over 3 den."""
    terms, den = _generator_on_basis(a, b, state)
    if (a, b) != (1, 1):
        return terms, den
    return [(s, 3 * c) for s, c in terms] + [(state, den)], 3 * den


class TestPrefixSharedWalk:
    """``irreps._monomials`` against ``reference_monomial``, one build per index."""

    def test_equals_the_per_index_build_term_by_term(self):
        # every label of the dimensions suite at its default bounds, and one of rank 6
        labels = [*checks._labels(*checks.suite_dimensions.__defaults__), IrrepLabel(6, (2, 1, 0, 0, 0))]
        for label in labels:
            walked = exact_terms(_monomials(label, distinct_multi_indices(label)))
            assert walked == exact_terms(reference_monomial(label, idx) for idx in distinct_multi_indices(label)), label
        # the constraints sweep's index family, every color order, on the labels of up to 4 boxes at N <= 4
        for label in checks._labels(4, 4):
            walked = exact_terms(_monomials(label, all_multi_indices(label)))
            assert walked == exact_terms(reference_monomial(label, idx) for idx in all_multi_indices(label)), label

    @given(index_walks())
    def test_any_index_order_equals_the_reference(self, case):
        label, indices = case
        walked = exact_terms(_monomials(label, indices))
        assert walked == exact_terms(reference_monomial(label, idx) for idx in indices)

    @pytest.mark.parametrize(
        "n, rows, idx, creations",
        [
            # A+[2]^1 leaves the zero ket; A+[2]^2 still applies, to that zero ket
            (3, (3, 2), ((1, 1, 1), (1, 2)), 5),
            # the same in row 2, and row 3 is not created at all
            (4, (2, 2, 1), ((1, 1), (1, 2), (3,)), 4),
        ],
    )
    def test_zero_ket_mid_row(self, monkeypatch, n, rows, idx, creations):
        label = IrrepLabel(n, rows)
        calls = count_creations(monkeypatch)
        assert not reference_monomial(label, idx).terms
        assert len(calls) == creations
        for build in (build_monomial, lambda label, idx: next(_monomials(label, [idx]))):
            calls.clear()
            assert not build(label, idx).terms
            assert len(calls) == creations

    def test_shared_prefix_keeps_the_zero_ket_rule(self, monkeypatch):
        calls = count_creations(monkeypatch)
        # the second index resumes in row 2 after its zero ket: the row's last creation applies
        label = IrrepLabel(3, (3, 2))
        assert not any(_monomials(label, [((1, 1, 1), (1, 2)), ((1, 1, 1), (1, 3))]))
        assert calls == [(1, 1)] * 3 + [(2, 1), (2, 2), (2, 3)]
        # the second index resumes in row 3, after row 2 left the zero ket: nothing applies
        calls.clear()
        label = IrrepLabel(4, (2, 2, 1))
        assert not any(_monomials(label, [((1, 1), (1, 2), (3,)), ((1, 1), (1, 2), (4,))]))
        assert calls == [(1, 1), (1, 1), (2, 1), (2, 2)]

    def test_casimir_failure_position_counts_zero_kets(self, monkeypatch):
        # Q[1,1] shifted by 1/3 first breaks the scalar on ket 27 of N=4 (1,1,1), after 18 zero kets
        label = IrrepLabel(4, (1, 1, 1))
        monomials = [build_monomial(label, idx) for idx in distinct_multi_indices(label)]
        with pytest.raises(AlgebraViolationError, match="ket 27 ") as expected:
            scalar_on(casimir_op(4, q11_shifted_by_a_third, "C2"), monomials)
        assert sum(1 for psi in monomials[:27] if not psi.terms) == 18
        monkeypatch.setattr(irreps, "casimir2_op", lambda n: casimir_op(n, q11_shifted_by_a_third, "C2"))
        with pytest.raises(AlgebraViolationError) as got:
            casimir_eigenvalue(label)
        assert str(got.value) == str(expected.value)

    def test_monomial_rank_shares_creations(self, monkeypatch):
        calls = count_creations(monkeypatch)
        label = IrrepLabel(5, (2, 2, 1, 0))
        assert monomial_rank(label) == 75
        # the per-index build makes up to 5 creations for each of the 1,125 indices, 5,400 in all
        assert len(list(distinct_multi_indices(label))) == 1125
        assert len(calls) == 1220  # the module docstring's figure


class TestNullspace:
    def test_dimension_agreement(self):
        for (n, rows), expected in DIMENSIONS.items():
            if n >= 5 or sum(rows) > 4:
                continue
            label = IrrepLabel(n, rows)
            assert nullspace_dimension(label) == expected
            assert monomial_rank(label) == expected

    def test_blocked_equals_dense(self):
        """Color-weight blocking must not change the computed null space."""
        label = IrrepLabel(3, (2, 1))
        states = enumerate_sector(3, label.rows)
        # one image vector per state over the whole sector, keyed by image state
        images = [invariant_action(1, 2, basis_ket(s)).terms for s in states]
        whole = nullspace(images)
        assert len(whole) == len(states) - rank(images) == nullspace_dimension(label)

    def test_dimension_counts_the_basis(self):
        for label in checks._labels(4, 5):  # the dimensions suite's labels at n_max=4
            assert nullspace_dimension(label) == len(nullspace_basis(label)), label

    def test_basis_vectors_are_constrained(self):
        label = IrrepLabel(4, (1, 1, 0))
        basis = nullspace_basis(label)
        assert len(basis) == 6
        for psi in basis:
            for i in range(1, 4):
                for j in range(i + 1, 4):
                    assert not invariant_action(i, j, psi).terms

    def test_basis_is_independent(self):
        label = IrrepLabel(3, (1, 1))
        basis = nullspace_basis(label)
        assert rank(psi.terms for psi in basis) == len(basis)

    def test_basis_documents_pinned(self):
        # SHA-256 over the serialized bases, in order: the choice of
        # eliminator must not change a single document byte
        digest = hashlib.sha256()
        count = 0
        for n in range(2, 6):
            for label in iter_labels(n, 5 if n < 5 else 4):
                for psi in nullspace_basis(label):
                    digest.update(dumps_ket(psi).encode())
                    count += 1
        assert count == 975
        assert digest.hexdigest() == "5e63ebd7202cc9cd10d2945a7ca6455801852fa1d0692efaff6f89fd39750871"


def labels_up_to(n: int, boxes: int):
    """Every weakly decreasing row tuple of rank n with at most ``boxes`` boxes."""
    return [
        rows
        for rows in product(range(boxes + 1), repeat=n - 1)
        if sum(rows) <= boxes and all(a >= b for a, b in zip(rows, rows[1:]))
    ]


def closed_form_casimir(label: IrrepLabel) -> Fraction:
    """(1/2)(sum_i lam_i (lam_i + N + 1 - 2i) - |lam|^2 / N), lam the rows plus a trailing 0."""
    n, lam = label.n, label.rows + (0,)
    quadratic = sum(l * (l + n + 1 - 2 * i) for i, l in enumerate(lam, start=1))
    return (quadratic - Fraction(sum(lam) ** 2, n)) / 2


class TestCasimir:
    def test_rank2_tower(self):
        for q in range(5):
            got = casimir_eigenvalue(IrrepLabel(2, (q,)))
            assert got == Fraction(q, 2) * (Fraction(q, 2) + 1)

    def test_rank3_fundamental_and_octet(self):
        assert casimir_eigenvalue(IrrepLabel(3, (1, 0))) == Fraction(4, 3)
        assert casimir_eigenvalue(IrrepLabel(3, (2, 1))) == 3

    def test_conjugate_labels_share_eigenvalue(self):
        assert casimir_eigenvalue(IrrepLabel(3, (1, 1))) == casimir_eigenvalue(
            IrrepLabel(3, (1, 0))
        )

    def test_matches_nullspace_action(self):
        label = IrrepLabel(3, (2, 0))
        value = casimir_eigenvalue(label)
        c2 = casimir2_op(3)
        for psi in nullspace_basis(label):
            assert c2(psi) == psi * value

    @pytest.mark.parametrize(
        "label",
        [IrrepLabel(n, rows) for n in (2, 3, 4) for rows in labels_up_to(n, 4)]
        + [IrrepLabel(5, (4, 1, 0, 0)), IrrepLabel(5, (3, 2, 0, 0)), IrrepLabel(5, (3, 2, 1, 0))],
        ids=str,
    )
    def test_matches_closed_form(self, label):
        assert casimir_eigenvalue(label) == closed_form_casimir(label)

    def test_closed_form_spot_values(self):
        assert closed_form_casimir(IrrepLabel(5, (4, 1, 0, 0))) == 15
        assert closed_form_casimir(IrrepLabel(5, (3, 2, 0, 0))) == 12

    def test_images_computed_once_per_state(self):
        calls = []

        def counted(alpha, beta, state):
            calls.append(state)
            return _generator_on_basis(alpha, beta, state)

        label = IrrepLabel(3, (2, 1))
        monomials = [build_monomial(label, idx) for idx in all_multi_indices(label)]
        distinct = {s for psi in monomials for s in psi.terms}
        assert sum(len(psi.terms) for psi in monomials) > len(distinct)  # states do repeat
        op = casimir_op(3, counted, "C2")
        # one image of s: Q[b,a] on s and Q[a,b] on each of its terms, for every ordered pair (a, b)
        colors = range(1, 4)
        firsts = [_generator_on_basis(b, a, s)[0] for s in distinct for a in colors for b in colors]
        reads = len(colors) ** 2 * len(distinct) + sum(map(len, firsts))
        assert scalar_on(op, monomials) == 3
        assert len(calls) == reads
        assert scalar_on(op, monomials) == 3
        assert len(calls) == reads

    @pytest.mark.parametrize(
        "perturbed",
        [
            # one off-diagonal coefficient: Q[1,2] doubled
            q12_doubled,
            # one diagonal (trace) term: Q[1,1] shifted by 1/3
            q11_shifted_by_a_third,
        ],
        ids=["off-diagonal", "diagonal"],
    )
    def test_perturbed_generator_breaks_the_scalar(self, perturbed):
        label = IrrepLabel(3, (2, 1))
        monomials = [build_monomial(label, idx) for idx in distinct_multi_indices(label)]
        assert scalar_on(casimir_op(3, _generator_on_basis, "C2"), monomials) == 3
        with pytest.raises(AlgebraViolationError):
            scalar_on(casimir_op(3, perturbed, "C2"), monomials)

    def test_failure_position_survives_repeated_states(self):
        label = IrrepLabel(3, (2, 1))
        octet = build_monomial(label, ((1, 2), (3,)))
        mixed = octet + vacuum(3)
        kets = [octet, octet, zero_ket(3), mixed, octet]
        with pytest.raises(AlgebraViolationError, match="ket 3 "):
            scalar_on(casimir2_op(3), kets)

    def test_no_nonzero_ket_is_a_value_error(self):
        with pytest.raises(ValueError, match="^no nonzero ket to take a scalar on$"):
            scalar_on(casimir2_op(2), [zero_ket(2)])


ket_families = st.integers(2, 3).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.dictionaries(
                st.tuples(*[st.tuples(*[st.integers(0, 2)] * n)] * (n - 1)),
                st.fractions(-4, 4, max_denominator=5).filter(bool),
                min_size=1,
                max_size=3,
            ),
            st.fractions(-7, 7, max_denominator=7).filter(bool),
        ),
        max_size=5,
    ).map(lambda family: (n, family))
)


def family_kets(data):
    n, family = data
    kets = [Ket(n, {FockState(n, occ): c for occ, c in terms.items()}) for terms, _ in family]
    return kets, [scale for _, scale in family]


def ab_weight(state):
    """The su(3) weight, a-count minus b-count per color: each trace subtraction keeps it."""
    a, b = state.occ
    return tuple(x - y for x, y in zip(a, b))


class TestGramRank:
    """``linalg.rank`` on ket coefficient vectors against the Gram-rank oracle."""

    @given(ket_families)
    def test_rank_ignores_nonzero_scaling(self, data):
        kets, scales = family_kets(data)
        scaled = [psi * scale for psi, scale in zip(kets, scales)]
        assert rank(psi.terms for psi in scaled) == rank(psi.terms for psi in kets)

    @given(ket_families)
    def test_rank_matches_gram_oracle(self, data):
        kets, scales = family_kets(data)
        # the scaled kets repeat the directions of the first ones
        family = kets + [psi * scale for psi, scale in zip(kets, scales)][::2]
        assert rank(psi.terms for psi in family) == gram_rank(family)

    def test_hand_built_family(self):
        e = [basis_ket(s) for s in enumerate_sector(3, (2, 0))[:3]]
        half = e[0] + e[1] * Fraction(1, 2)
        family = [
            half,
            e[0] * 2 + e[1],  # 2 * half: dependent only through the coefficient ratio 1/2
            e[2] * Fraction(-3, 7),
            half * Fraction(5, 9) + e[2],  # dependent
            e[1] * Fraction(1, 3),
        ]
        for oracle in (gram_rank, lambda kets: rank(psi.terms for psi in kets)):
            assert oracle(family) == 3
            assert oracle(family[:2]) == 1
            assert oracle(family[:3]) == 2

    @pytest.mark.parametrize(
        "key", [key for key in sorted(DIMENSIONS) if key[0] <= 4 and sum(key[1]) <= 4], ids=str
    )
    def test_monomial_rank_matches_gram_oracle(self, key):
        label = IrrepLabel(*key)
        monomials = [build_monomial(label, idx) for idx in distinct_multi_indices(label)]
        assert monomial_rank(label) == blocked_gram_rank(monomials, color_totals)

    @pytest.mark.parametrize("n, m", list(product(range(4), repeat=2)))
    def test_ab_dimension_matches_gram_oracle(self, n, m):
        kets = [traceless_state(n, m, a, b) for a, b in _distinct_families(n, m)]
        assert ab_dimension(n, m) == blocked_gram_rank(kets, ab_weight)


@given(st.sampled_from(sorted(DIMENSIONS)))
def test_dimension_positive_and_conjugation_symmetric(key):
    n, rows = key
    label = IrrepLabel(n, rows)
    d = weyl_dimension(label)
    assert d >= 1
    # complement the diagram inside the n-row bounding box: dimension is preserved
    width = rows[0]
    full = rows + (0,)
    conj = tuple(width - r for r in reversed(full))[:-1]
    assert weyl_dimension(IrrepLabel(n, conj)) == d
