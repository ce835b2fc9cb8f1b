"""Bilinear invariants, group generators, and the quadratic Casimir."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sunisb.algebra import (
    _generator_on_basis,
    casimir2_op,
    casimir_op,
    generator_action,
    invariant_action,
)
from sunisb.fock import (
    FockState,
    Ket,
    _apply_images,
    _bilinear_into,
    apply_annihilate,
    apply_create,
    basis_ket,
    enumerate_sector,
    total_occupations,
    vacuum,
    zero_ket,
)
from sunisb.su3x import ab_casimir2_op, ab_generator_action


def states(n: int, per_slot_max: int = 2):
    row = st.tuples(*[st.integers(0, per_slot_max)] * n)
    return st.tuples(*[row] * (n - 1)).map(lambda occ: FockState(n, occ))


def test_diagonal_bilinear_counts_row_quanta():
    s = FockState(3, ((2, 1, 0), (0, 0, 1)))
    assert invariant_action(1, 1, basis_ket(s)) == basis_ket(s) * 3
    assert invariant_action(2, 2, basis_ket(s)) == basis_ket(s) * 1


def test_offdiagonal_bilinear_moves_one_quantum():
    s = FockState(3, ((0, 0, 0), (0, 1, 0)))
    image = invariant_action(1, 2, basis_ket(s))
    assert image.terms == {FockState(3, ((0, 1, 0), (0, 0, 0))): 1}


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            states(n),
            st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)),
            st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)),
        )
    )
)
def test_bilinear_commutation_relations(data):
    """[L_ij, L_kl] = d_jk L_il - d_il L_kj, checked state by state."""
    n, state, (i, j), (k, l) = data
    psi = basis_ket(state)
    left = invariant_action(i, j, invariant_action(k, l, psi)) - invariant_action(
        k, l, invariant_action(i, j, psi)
    )
    right = zero_ket(n)
    if j == k:
        right = right + invariant_action(i, l, psi)
    if i == l:
        right = right - invariant_action(k, j, psi)
    assert left == right


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            states(n),
            st.tuples(st.integers(1, n), st.integers(1, n)),
            st.tuples(st.integers(1, n - 1), st.integers(1, n - 1)),
        )
    )
)
def test_generators_commute_with_bilinears(data):
    n, state, (a, b), (i, j) = data
    psi = basis_ket(state)
    assert generator_action(a, b, invariant_action(i, j, psi)) == invariant_action(
        i, j, generator_action(a, b, psi)
    )


def test_generator_is_traceless():
    for n in (2, 3):
        for s in enumerate_sector(n, (2,) + (0,) * (n - 2)):
            total = zero_ket(n)
            for a in range(1, n + 1):
                total = total + generator_action(a, a, basis_ket(s))
            assert not total.terms


@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_inexact_index_rejected(bad):
    # on the vacuum no term is touched, so only the index check can reject it
    for act in (
        lambda: generator_action(bad, 1, vacuum(3)),
        lambda: invariant_action(1, bad, vacuum(3)),
        lambda: apply_create(1, bad, vacuum(3)),
    ):
        with pytest.raises(IndexError, match=re.escape(f"got {bad}")):
            act()


def test_generator_action_on_vacuum():
    for a in range(1, 4):
        for b in range(1, 4):
            assert not generator_action(a, b, vacuum(3)).terms


class TestLinearOp:
    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            casimir2_op(3)(vacuum(4))


class TestCasimir:
    def test_rank2_closed_form(self):
        # single row of q boxes carries spin q/2
        c2 = casimir2_op(2)
        for q in range(5):
            s = FockState(2, ((q, 0),))
            expected = Fraction(q, 2) * (Fraction(q, 2) + 1)
            assert c2(basis_ket(s)) == basis_ket(s) * expected

    def test_rank3_fundamental(self):
        c2 = casimir2_op(3)
        s = FockState(3, ((1, 0, 0), (0, 0, 0)))
        assert c2(basis_ket(s)) == basis_ket(s) * Fraction(4, 3)

    def test_vacuum_annihilated(self):
        assert not casimir2_op(3)(vacuum(3))

    def test_exact_for_any_denominator_of_the_rule(self):
        # the same generators with every term and denominator scaled, differently per color pair
        def rescaled(alpha, beta, state):
            terms, den = _generator_on_basis(alpha, beta, state)
            k = 7 if alpha == beta else alpha + 2 * beta
            return [(t, k * c) for t, c in terms], k * den

        op, c2 = casimir_op(3, rescaled, "C2"), casimir2_op(3)
        for s in enumerate_sector(3, (2, 1)):
            psi = basis_ket(s) * Fraction(2, 3)
            assert op(psi) == c2(psi)

    def test_any_rule_composes_like_the_whole_ket_definition(self):
        # a rule whose Q[a,a] also recolors, so that no pair of it multiplies a state by a scalar
        def recoloring(alpha, beta, state):
            terms, den = _generator_on_basis(alpha, beta, state)
            if alpha != beta:
                return terms, den
            extra, _ = _generator_on_basis(alpha, alpha % 3 + 1, state)
            return terms + [(t, den * c) for t, c in extra], den

        op = casimir_op(3, recoloring, "C2")
        colors = range(1, 4)
        for totals in [(q1, q2) for q1 in range(4) for q2 in range(4 - q1)]:
            for s in enumerate_sector(3, totals):
                psi = basis_ket(s)
                products = [
                    _apply_images(_apply_images(psi, recoloring, b, a), recoloring, a, b)
                    for a in colors
                    for b in colors
                ]
                assert op(psi) == sum(products, zero_ket(3)) * Fraction(1, 2)


def reference_casimir(action, psi: Ket) -> Ket:
    """(1/2) sum_ab Q[a,b] Q[b,a] psi, summed as whole Fraction kets."""
    colors = range(1, psi.n + 1)
    total = zero_ket(psi.n)
    for a in colors:
        for b in colors:
            total = total + action(a, b, action(b, a, psi))
    return total * Fraction(1, 2)


coefficients = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12))


def kets(n: int, coeffs=coefficients):
    # zero coefficients are drawn too; the ket prunes them
    return st.dictionaries(states(n), coeffs, max_size=4).map(lambda terms: Ket(n, terms))


class TestCasimirOracle:
    """The integer Casimir images against the whole-ket definition, composed of the ``fock`` ladders."""

    @given(st.integers(2, 4).flatmap(kets))
    @example(zero_ket(2))
    @example(zero_ket(4))
    def test_two_triplet_language(self, psi):
        assert casimir2_op(psi.n)(psi) == reference_casimir(reference_generator, psi)

    @given(kets(3))
    @example(zero_ket(3))
    def test_triplet_antitriplet_language(self, psi):
        assert ab_casimir2_op()(psi) == reference_casimir(reference_ab_generator, psi)


def reference_generator(alpha, beta, psi: Ket) -> Ket:
    """Q[alpha,beta] psi as whole kets: sum_i a+[i]^alpha a[i]_beta psi - delta(alpha,beta) quanta/N psi."""
    n = psi.n
    total = zero_ket(n)
    for i in range(1, n):
        total = total + apply_create(i, alpha, apply_annihilate(i, beta, psi))
    if alpha == beta:
        total = total - Ket(n, {s: c * Fraction(sum(total_occupations(s)), n) for s, c in psi.terms.items()})
    return total


def reference_ab_generator(alpha, beta, psi: Ket) -> Ket:
    """a+^alpha a_beta psi - b+_beta b^alpha psi - delta(alpha,beta) (N_a - N_b)/3 psi, as whole kets."""
    total = apply_create(1, alpha, apply_annihilate(1, beta, psi))
    total = total - apply_create(2, beta, apply_annihilate(2, alpha, psi))
    if alpha == beta:
        trace = {s: c * Fraction(na - nb, 3) for s, c in psi.terms.items() for na, nb in [total_occupations(s)]}
        total = total - Ket(3, trace)
    return total


def generator_cases(n: int):
    colors = st.integers(1, n)
    return st.tuples(kets(n), colors, colors)


def offdiagonal_int_cases(n: int):
    # beta is alpha shifted by 1..n-1 colors, so never alpha
    return st.tuples(kets(n, st.integers(-9, 9)), st.integers(1, n), st.integers(1, n - 1)).map(
        lambda case: (case[0], case[1], (case[1] + case[2] - 1) % n + 1)
    )


class TestGeneratorOracle:
    """Both generators against whole-ket definitions from the ``fock`` ladders, exactly."""

    @given(st.integers(2, 4).flatmap(generator_cases))
    @example((zero_ket(2), 1, 1))
    @example((zero_ket(4), 2, 3))
    def test_two_triplet_language(self, case):
        psi, alpha, beta = case
        assert generator_action(alpha, beta, psi) == reference_generator(alpha, beta, psi)

    @given(generator_cases(3))
    @example((zero_ket(3), 1, 1))
    @example((zero_ket(3), 1, 2))
    def test_triplet_antitriplet_language(self, case):
        psi, alpha, beta = case
        assert ab_generator_action(alpha, beta, psi) == reference_ab_generator(alpha, beta, psi)

    @given(st.integers(2, 4).flatmap(offdiagonal_int_cases))
    def test_offdiagonal_images_of_int_kets_stay_int(self, case):
        psi, alpha, beta = case
        images = [generator_action(alpha, beta, psi)]
        if psi.n == 3:
            images.append(ab_generator_action(alpha, beta, psi))
        for image in images:
            assert all(type(c) is int for c in image.terms.values())


def fraction_generator_cases(n: int):
    colors = st.integers(1, n)
    return st.tuples(kets(n, st.fractions(-9, 9, max_denominator=12)), colors, colors)


def coefficient_types(psi: Ket) -> dict:
    return {s: type(c) for s, c in psi.terms.items()}


class TestGeneratorRule:
    """``generator_action`` is its basis rule applied by ``fock._apply_images``, coefficient types included."""

    @given(st.integers(2, 4).flatmap(fraction_generator_cases))
    def test_equals_the_kernel_on_fraction_kets(self, case):
        psi, alpha, beta = case
        image = generator_action(alpha, beta, psi)
        by_rule = _apply_images(psi, _generator_on_basis, alpha, beta)
        assert image == by_rule and coefficient_types(image) == coefficient_types(by_rule)

    def test_an_integral_diagonal_coefficient_is_an_int(self):
        # Q[1,1] on ((2, 0),): count_1 - quanta/N = 2 - 2/2 = 1, over the rule's denominator 2
        psi = basis_ket(FockState(2, ((2, 0),)))
        image = generator_action(1, 1, psi)
        assert image == psi and {type(c) for c in image.terms.values()} == {int}


def reference_bilinear(i, j, psi: Ket) -> Ket:
    """a+[i].a[j] psi as whole kets: sum_alpha a+[i]^alpha a[j]_alpha psi."""
    total = zero_ket(psi.n)
    for alpha in range(1, psi.n + 1):
        total = total + apply_create(i, alpha, apply_annihilate(j, alpha, psi))
    return total


def row_pairs(n: int):
    """Every (i, j) of oscillator rows, i = j included."""
    return [(i, j) for i in range(1, n) for j in range(1, n)]


class TestBilinearOracle:
    """``invariant_action`` and the in-place kernel against the whole-ket definition, exactly."""

    @given(st.integers(2, 4).flatmap(kets))
    @example(zero_ket(2))
    @example(zero_ket(4))
    def test_every_row_pair(self, psi):
        for i, j in row_pairs(psi.n):
            assert invariant_action(i, j, psi) == reference_bilinear(i, j, psi)

    @given(st.integers(2, 4).flatmap(lambda n: kets(n, st.integers(-9, 9))))
    def test_images_of_int_kets_stay_int(self, psi):
        for i, j in row_pairs(psi.n):
            assert all(type(c) is int for c in invariant_action(i, j, psi).terms.values())

    @given(st.integers(2, 4).flatmap(kets), st.integers(-3, 3))
    def test_kernel_adds_a_scaled_image_in_place(self, psi, scale):
        # the accumulator already holds psi, so targets of L[i,j] psi may cancel in it
        for i, j in row_pairs(psi.n):
            acc = dict(psi.terms)
            assert _bilinear_into(acc, psi.terms, i, j, scale) is acc
            assert Ket(psi.n, acc) == psi + reference_bilinear(i, j, psi) * scale
            assert all(acc.values())

    def test_cancelling_moves_leave_no_zero_term(self):
        # L[1,2] moves color 1 of the first state and color 2 of the second onto
        # |(1,1,0),(0,0,0)>, with opposite coefficients; the third state survives
        first = FockState(3, ((0, 1, 0), (1, 0, 0)))
        second = FockState(3, ((1, 0, 0), (0, 1, 0)))
        third = FockState(3, ((0, 0, 0), (0, 0, 1)))
        psi = Ket(3, {first: Fraction(1, 2), second: Fraction(-1, 2), third: 3})
        survivor = FockState(3, ((0, 0, 1), (0, 0, 0)))
        assert invariant_action(1, 2, psi).terms == {survivor: 3}
        assert reference_bilinear(1, 2, psi).terms == {survivor: 3}
        # in place: a target already in the accumulator cancels there too
        acc = {FockState(3, ((1, 1, 0), (0, 0, 0))): 2, survivor: 1}
        assert _bilinear_into(acc, {first: 1}, 1, 2, -2) == {survivor: 1}
