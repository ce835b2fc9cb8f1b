"""The rank-3 triplet/antitriplet realization and its pair algebra."""

import re
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sunisb import su3x
from sunisb.algebra import casimir2_op
from sunisb.fock import (
    FockState,
    Ket,
    _apply_images,
    apply_annihilate,
    apply_create,
    basis_ket,
    total_occupations,
    vacuum,
    zero_ket,
)
from sunisb.irreps import IrrepLabel
from sunisb.su3x import (
    ab_casimir2_op,
    ab_casimir_eigenvalue,
    ab_dimension,
    ab_generator_action,
    bare_state,
    compare_languages,
    dressed_create_a,
    dressed_create_b,
    isb_monomial,
    pair_annihilate,
    pair_create,
    pair_level,
    trace_coeff,
    trace_contract,
    traceless_state,
)

COLORS = (1, 2, 3)


def pair_reference(ladder, psi):
    """The color-summed pair ladder from ``fock`` primitives alone:
    the sum over gamma of ladder(1, gamma, ladder(2, gamma, psi))."""
    total = zero_ket(3)
    for gamma in COLORS:
        total = total + ladder(1, gamma, ladder(2, gamma, psi))
    return total


def pairing_sum(n, m, alphas, betas):
    """The definition of a traceless state: one term per pairing of r upper with r lower positions."""
    total = bare_state(alphas, betas)
    for r in range(1, min(n, m) + 1):
        for uppers in combinations(range(n), r):
            # an ordered choice of r distinct lower positions: uppers[s] pairs with lowers[s]
            for lowers in permutations(range(m), r):
                if any(alphas[u] != betas[l] for u, l in zip(uppers, lowers)):
                    continue
                term = bare_state(
                    [a for p, a in enumerate(alphas) if p not in uppers],
                    [b for p, b in enumerate(betas) if p not in lowers],
                )
                for _ in range(r):
                    term = pair_reference(apply_create, term)
                total = total + term * trace_coeff(n, m, r)
    return total


def dressed_oracle(row, color, psi):
    """Dressed creation state by state: the bare creation minus a+.b+ of the other row
    lowered in the same color, over N_a + N_b + 2 taken on the input state."""
    other = 3 - row
    total = zero_ket(3)
    for state, coeff in psi.terms.items():
        one = basis_ket(state) * coeff
        weight = Fraction(1, sum(map(sum, state.occ)) + 2)
        total = total + apply_create(row, color, one)
        total = total - pair_reference(apply_create, apply_annihilate(other, color, one)) * weight
    return total


def rank3_kets():
    occupations = st.tuples(*[st.tuples(*[st.integers(0, 3)] * 3)] * 2)
    coeffs = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=9)).filter(bool)
    terms = st.dictionaries(occupations.map(lambda occ: FockState(3, occ)), coeffs, max_size=5)
    return terms.map(lambda terms: Ket(3, terms))


class TestTraceCoeff:
    def test_frozen_values(self):
        assert trace_coeff(1, 1, 1) == Fraction(-1, 3)
        assert trace_coeff(2, 1, 1) == Fraction(-1, 4)
        assert trace_coeff(2, 2, 1) == Fraction(-1, 5)
        assert trace_coeff(2, 2, 2) == Fraction(1, 20)

    def test_sign_alternates_with_depth(self):
        assert trace_coeff(3, 3, 1) < 0 < trace_coeff(3, 3, 2)
        assert trace_coeff(3, 3, 3) < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            trace_coeff(1, 1, 2)
        with pytest.raises(ValueError):
            trace_coeff(-1, 1, 1)


class TestTracelessStates:
    def test_explicit_adjoint_component(self):
        # one upper and one lower index of the same color: bare minus a third
        # of the color-summed pair
        got = traceless_state(1, 1, (1,), (1,))
        expected = bare_state((1,), (1,))
        for gamma in COLORS:
            expected = expected - bare_state((gamma,), (gamma,)) * Fraction(1, 3)
        assert got == expected

    def test_equals_dressed_monomial(self):
        for n, m in ((1, 1), (2, 1), (1, 2)):
            for alphas in product(COLORS, repeat=n):
                for betas in product(COLORS, repeat=m):
                    assert traceless_state(n, m, alphas, betas) == isb_monomial(alphas, betas)

    def test_every_contraction_vanishes(self):
        for alphas in product(COLORS, repeat=2):
            for betas in product(COLORS, repeat=1):
                def builder(a, b):
                    return traceless_state(2, 1, a, b)

                for l in (1, 2):
                    assert not trace_contract(builder, alphas, betas, l, 1).terms

    def test_bare_contraction_does_not_vanish(self):
        assert trace_contract(bare_state, (1,), (1,), 1, 1).terms

    def test_equals_pairing_sum(self):
        for n in range(4):
            for m in range(4):
                for alphas in product(COLORS, repeat=n):
                    for betas in product(COLORS, repeat=m):
                        assert traceless_state(n, m, alphas, betas) == pairing_sum(n, m, alphas, betas)


class TestDimensions:
    def test_closed_form_family(self):
        # (n+1)(m+1)(n+m+2)/2 for the two-index family
        assert ab_dimension(1, 1) == 8
        assert ab_dimension(2, 1) == 15
        assert ab_dimension(1, 2) == 15
        assert ab_dimension(2, 2) == 27

    def test_pure_towers(self):
        assert ab_dimension(1, 0) == 3
        assert ab_dimension(0, 1) == 3
        assert ab_dimension(2, 0) == 6
        assert ab_dimension(0, 0) == 1


class TestCasimir:
    def test_adjoint_value(self):
        assert ab_casimir_eigenvalue(1, 1) == 3

    def test_fundamental_value(self):
        assert ab_casimir_eigenvalue(1, 0) == Fraction(4, 3)
        assert ab_casimir_eigenvalue(0, 1) == Fraction(4, 3)

    @pytest.mark.parametrize("n, m", [(n, m) for n in range(5) for m in range(5 - n)])
    def test_closed_form(self, n, m):
        assert ab_casimir_eigenvalue(n, m) == Fraction(n * n + m * m + n * m + 3 * n + 3 * m, 3)

    def test_operator_matches_eigenvalue(self):
        value = ab_casimir_eigenvalue(1, 1)
        c2 = ab_casimir2_op()
        for alphas in product(COLORS, repeat=1):
            for betas in product(COLORS, repeat=1):
                psi = traceless_state(1, 1, alphas, betas)
                if psi.terms:
                    assert c2(psi) == psi * value


class TestGenerators:
    def test_traceless(self):
        psi = bare_state((1, 2), (3,))
        total = None
        for a in COLORS:
            image = ab_generator_action(a, a, psi)
            total = image if total is None else total + image
        assert not total.terms

    def test_annihilates_vacuum(self):
        for a in COLORS:
            for b in COLORS:
                assert not ab_generator_action(a, b, vacuum(3)).terms

    @pytest.mark.parametrize("alpha, beta, bad", [(4, 1, 4), (1, 0, 0), (1.5, 1, 1.5)])
    def test_names_the_bad_color(self, alpha, beta, bad):
        with pytest.raises(IndexError, match=f"color must lie in 1..3, got {bad}$"):
            ab_generator_action(alpha, beta, vacuum(3))


class TestPairAlgebra:
    def test_relations_on_vacuum(self):
        v = vacuum(3)
        assert pair_annihilate(pair_create(v)) - pair_create(pair_annihilate(v)) == pair_level(v) * 2
        assert pair_level(v) == v * Fraction(3, 2)

    def test_ops_are_the_whole_ket_ladders(self):
        psi = bare_state((1, 2), (3,)) + bare_state((1,), ()) * Fraction(2, 7)
        assert pair_level(psi) == bare_state((1, 2), (3,)) * 3 + bare_state((1,), ()) * Fraction(4, 7)

    @given(rank3_kets())
    @example(zero_ket(3))
    def test_ladders_equal_the_fock_references(self, psi):
        assert pair_create(psi) == pair_reference(apply_create, psi)
        assert pair_annihilate(psi) == pair_reference(apply_annihilate, psi)

    def test_exact_outputs_are_ints(self):
        psi = bare_state((1, 2), (2, 3)) * 2 - bare_state((3,), (3,))
        for ladder, fock_ladder in ((pair_create, apply_create), (pair_annihilate, apply_annihilate)):
            image = ladder(psi)
            assert image.terms and {type(c) for c in image.terms.values()} == {int}
            assert image == pair_reference(fock_ladder, psi)

    @given(rank3_kets())
    def test_level_equals_the_kernel_on_its_integer_rule(self, psi):
        # (N_a + N_b + 3)/2 as the integer N_a + N_b + 3 over 2
        image = pair_level(psi)
        by_rule = _apply_images(psi, lambda s: ([(s, sum(total_occupations(s)) + 3)], 2))
        assert image == by_rule
        assert {s: type(c) for s, c in image.terms.items()} == {s: type(c) for s, c in by_rule.terms.items()}

    def test_level_of_an_odd_number_of_quanta_is_an_int(self):
        # one quantum: (1 + 3)/2 = 2
        image = pair_level(bare_state((1,), ()))
        assert image == bare_state((1,), ()) * 2
        assert {type(c) for c in image.terms.values()} == {int}

    def test_lowest_weight_states(self):
        for n, m in ((1, 1), (2, 1)):
            for alphas in product(COLORS, repeat=n):
                for betas in product(COLORS, repeat=m):
                    psi = traceless_state(n, m, alphas, betas)
                    assert not pair_annihilate(psi).terms

    def test_tower_above_bottom(self):
        base = traceless_state(1, 1, (1,), (2,))
        lifted = pair_create(base)
        assert lifted.terms
        assert pair_annihilate(lifted).terms
        # the lift commutes with the group action, so the scalar is unchanged
        assert ab_casimir2_op()(lifted) == lifted * 3


class TestDressedOperators:
    @given(rank3_kets(), st.sampled_from(COLORS))
    def test_equal_the_state_by_state_formula(self, psi, color):
        assert dressed_create_a(color, psi) == dressed_oracle(1, color, psi)
        assert dressed_create_b(color, psi) == dressed_oracle(2, color, psi)

    def test_exact_outputs_are_ints(self):
        # a+ on b+_1|0>: the image (2 |a1 b1> - |a2 b2> - |a3 b3>)/3, exact on three times the state
        psi = bare_state((), (1,)) * 3
        for create, row in ((dressed_create_a, 1), (dressed_create_b, 2)):
            image = create(1, psi)
            assert {type(c) for c in image.terms.values()} == {int}
            assert image == dressed_oracle(row, 1, psi)
        expected = bare_state((1,), (1,)) * 2 - bare_state((2,), (2,)) - bare_state((3,), (3,))
        assert dressed_create_a(1, psi) == expected

    def test_color_checked(self):
        for create in (dressed_create_a, dressed_create_b):
            with pytest.raises(IndexError):
                create(4, vacuum(3))

    def test_build_from_vacuum(self):
        got = dressed_create_a(1, dressed_create_b(2, vacuum(3)))
        assert got == isb_monomial((1,), (2,))

    def test_cross_commutation(self):
        psi = traceless_state(1, 1, (1,), (2,))
        for x in COLORS:
            for y in COLORS:
                ab = dressed_create_a(x, dressed_create_b(y, psi))
                ba = dressed_create_b(y, dressed_create_a(x, psi))
                assert ab == ba


class TestLanguageComparison:
    def test_adjoint_agrees(self):
        result = compare_languages(IrrepLabel(3, (2, 1)))
        assert result.nm == (1, 1)
        assert result.agree
        assert result.two_triplet_dimension == 8
        assert result.ab_casimir == 3

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            compare_languages(IrrepLabel(4, (1, 0, 0)))

    def test_wrong_trace_weight_breaks_the_casimir_agreement(self, monkeypatch):
        rows = ((2, 0), (4, 1), (6, 3))
        assert all(compare_languages(IrrepLabel(3, r)).agree for r in rows)
        original = su3x._ab_generator_on_basis

        def half_weight(alpha, beta, state):
            # (N_a - N_b)/2 in place of (N_a - N_b)/3 on the diagonal: twice the terms less N_a - N_b, over 6
            terms, den = original(alpha, beta, state)
            if alpha != beta:
                return terms, den
            na, nb = total_occupations(state)
            return [(s, 2 * c) for s, c in terms] + [(state, nb - na)], 2 * den

        monkeypatch.setattr(su3x, "_ab_generator_on_basis", half_weight)
        result = compare_languages(IrrepLabel(3, (2, 0)))
        assert (result.two_triplet_casimir, result.ab_casimir) == (Fraction(10, 3), Fraction(7, 2))
        assert not compare_languages(IrrepLabel(3, (4, 1))).agree
        # at (n, m) = (3, 3) the trace term vanishes on every state: N_a = N_b
        assert compare_languages(IrrepLabel(3, (6, 3))).agree


@pytest.mark.parametrize(
    "make, error, message",
    [
        # a bool count or depth would pass as the int it equals, a float one fail as a TypeError
        (lambda: trace_coeff(True, 1, 1), ValueError, "index count must be an int, got True"),
        (lambda: trace_coeff(1, 1, True), ValueError, "subtraction depth must be an int, got True"),
        (lambda: trace_coeff(1.5, 1, 1), ValueError, "index count must be an int, got 1.5"),
        (lambda: traceless_state(True, 0, (1,), ()), ValueError, "index count must be an int, got True"),
        (lambda: ab_dimension(True, True), ValueError, "index count must be an int, got True"),
        (lambda: ab_dimension(1.5, 0), ValueError, "index count must be an int, got 1.5"),
        # a negative count would fail only inside itertools
        (lambda: ab_dimension(-1, 0), ValueError, "index count must be non-negative, got -1"),
        (lambda: ab_casimir_eigenvalue(0, -1), ValueError, "index count must be non-negative, got -1"),
        # a contracted position is an index: a bool one would pass as 1, a float one fail as a list index
        (
            lambda: trace_contract(bare_state, (1,), (1,), True, 1),
            IndexError,
            "upper position must lie in 1..1, got True",
        ),
        (
            lambda: trace_contract(bare_state, (1,), (1,), 1, 1.0),
            IndexError,
            "lower position must lie in 1..1, got 1.0",
        ),
    ],
    ids=[
        "trace_coeff-bool-count",
        "trace_coeff-bool-depth",
        "trace_coeff-float",
        "traceless_state-bool",
        "ab_dimension-bool",
        "ab_dimension-float",
        "ab_dimension-negative",
        "ab_casimir_eigenvalue-negative",
        "trace_contract-bool",
        "trace_contract-float",
    ],
)
def test_counts_and_positions_must_be_ints(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


_SU3 = "the su(3) operators act on rank-3 kets, got rank "


@pytest.mark.parametrize(
    "make, message",
    [
        # each su(3) ket map, on a rank-4 ket: a wrong result or an accidental unpacking error before
        (lambda: pair_create(vacuum(4)), _SU3 + "4"),
        (lambda: pair_annihilate(vacuum(4)), _SU3 + "4"),
        (lambda: pair_level(vacuum(4)), _SU3 + "4"),
        (lambda: dressed_create_a(1, vacuum(4)), _SU3 + "4"),
        (lambda: dressed_create_b(3, vacuum(2)), _SU3 + "2"),
        (lambda: ab_generator_action(1, 1, vacuum(4)), _SU3 + "4"),
        # rank-taking constructors: a rank the ket document loader would reject, or a float one
        (lambda: zero_ket(1), "group rank must be at least 2, got 1"),
        (lambda: zero_ket(True), "group rank must be an int, got True"),
        (lambda: zero_ket(2.0), "group rank must be an int, got 2.0"),
        (lambda: casimir2_op(1), "group rank must be at least 2, got 1"),
    ],
    ids=[
        "pair_create",
        "pair_annihilate",
        "pair_level",
        "dressed_create_a",
        "dressed_create_b",
        "ab_generator_action",
        "zero_ket-1",
        "zero_ket-bool",
        "zero_ket-float",
        "casimir2_op-1",
    ],
)
def test_rank_taking_maps_reject_a_wrong_rank(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
