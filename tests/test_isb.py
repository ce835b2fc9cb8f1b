"""Dressed ladder operators: coefficients, chains, recurrence, the gluing route."""

import re
from contextlib import nullcontext
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sunisb import checks, fock, isb
from sunisb.algebra import invariant_action
from sunisb.fock import (
    FockState,
    Ket,
    _apply_images,
    apply_annihilate,
    apply_create,
    basis_ket,
    dumps_ket,
    total_occupations,
    vacuum,
    zero_ket,
)
from sunisb.irreps import (
    IrrepLabel,
    all_multi_indices,
    build_monomial,
    constraint_residual,
    monomial_rank,
    nullspace_basis,
)
from sunisb.isb import (
    SingularCoefficientError,
    annihilation_coeff,
    creation_coeff,
    isb_annihilate,
    isb_create,
    isb_create_iterative,
    verify_recurrence,
)


# the two scopes isb_create runs in: a one-off call maps a ket by row-total groups, a sweep by memoized basis images
SCOPES = (nullcontext, isb._sweep)


def ordered_totals(length, max_entry=4):
    return combinations_with_replacement(range(max_entry, -1, -1), length)


def chain_sum(state, k, chain_rows, factor, bilinears, bare):
    """One dressed ladder operator on a basis state, summed chain by chain.

    ``chain_rows`` are the rows a chain may pass through, in chain order;
    ``bilinears(chain)`` lists its (p, q) pairs of L[p,q], leftmost first;
    ``bare(i, psi)`` is the plain ladder operator of row i.
    """
    out = bare(k, basis_ket(state))
    for r in range(1, len(chain_rows) + 1):
        for chain in combinations(chain_rows, r):
            scale = prod(factor(i) for i in chain)
            term = bare(chain[-1], basis_ket(state))
            for p, q in reversed(bilinears(chain)):
                term = invariant_action(p, q, term)
            out = out + term * scale
    return out


def chain_create(k, alpha, state):
    """A+[k]^a from the module docstring: chains k > i_1 > ... > i_r >= 1."""
    totals = list(total_occupations(state))
    totals[k - 1] += 1
    return chain_sum(
        state,
        k,
        range(k - 1, 0, -1),
        lambda i: creation_coeff(k, i, totals),
        lambda chain: list(zip((k,) + chain, chain)),
        lambda i, psi: apply_create(i, alpha, psi),
    )


def chain_annihilate(k, alpha, state, top=None):
    """A[k]_a from the module docstring: chains k < i_1 < ... < i_r <= top, top N-1 unless given."""
    if not sum(state.occ[k - 1]):
        return apply_annihilate(k, alpha, basis_ket(state))  # empty row k: no chain terms
    totals = list(total_occupations(state))
    totals[k - 1] -= 1
    return chain_sum(
        state,
        k,
        range(k + 1, (state.n - 1 if top is None else top) + 1),
        lambda i: annihilation_coeff(i, k, totals),
        lambda chain: list(zip(chain, (k,) + chain)),
        lambda i, psi: apply_annihilate(i, alpha, psi),
    )


def outcome(operator, *args):
    try:
        return operator(*args)
    except SingularCoefficientError:
        return "singular"


@st.composite
def ladder_cases(draw):
    """A basis state of rank N <= 6, unordered totals included, with a row and a color."""
    n = draw(st.integers(2, 6))
    cap = 3 if n <= 4 else 2
    occ = [[draw(st.integers(0, cap)) for _ in range(n)] for _ in range(n - 1)]
    return FockState(n, occ), draw(st.integers(1, n - 1)), draw(st.integers(1, n))


class TestCoefficients:
    def test_frozen_values(self):
        assert creation_coeff(2, 1, (2, 1)) == Fraction(-1, 3)
        assert annihilation_coeff(2, 1, (2, 1)) == Fraction(1, 3)
        assert creation_coeff(3, 2, (2, 1, 0)) == Fraction(-1, 3)
        assert creation_coeff(3, 1, (2, 1, 0)) == Fraction(-1, 5)

    def test_closed_form(self):
        for totals in ordered_totals(3):
            for k in range(2, 4):
                for i in range(1, k):
                    den = totals[i - 1] - totals[k - 1] + 1 + (k - i)
                    assert creation_coeff(k, i, totals) == Fraction(-1, den)

    def test_annihilation_mirrors_creation(self):
        # first argument of both is the higher row of the pair
        for totals in ordered_totals(3):
            for k in range(2, 4):
                for i in range(1, k):
                    assert annihilation_coeff(k, i, totals) == -creation_coeff(k, i, totals)

    def test_singular_denominator_raises(self):
        # row totals (0, 2) put the pair (2, 1) exactly on the pole
        with pytest.raises(SingularCoefficientError):
            creation_coeff(2, 1, (0, 2))

    @pytest.mark.parametrize(
        "coeff, first, second",
        [
            (creation_coeff, 2, True),
            (creation_coeff, True, 1),
            (creation_coeff, 2, 1.0),
            (creation_coeff, 2.0, 1),
            (creation_coeff, 2, 0),
            (creation_coeff, 3, 1),
            (annihilation_coeff, True, 1),
            (annihilation_coeff, 2, 1.0),
            (annihilation_coeff, 1, 2),
        ],
    )
    def test_rows_must_be_ints_in_range(self, coeff, first, second):
        # a bool or float row would otherwise pass as the int it equals, or fail as a tuple index
        with pytest.raises(IndexError):
            coeff(first, second, (1, 1))

    @pytest.mark.parametrize(
        "make, bad",
        [
            # a bool total would pass as the int it equals, a float one fail inside Fraction
            (lambda: creation_coeff(2, 1, (True, 0)), "True"),
            (lambda: creation_coeff(2, 1, (1.5, 0)), "1.5"),
            (lambda: annihilation_coeff(2, 1, (0, 1.5)), "1.5"),
            (lambda: verify_recurrence(3, [(1.5, 0, 0)]), "1.5"),
        ],
        ids=["creation-bool", "creation-float", "annihilation-float", "recurrence-float"],
    )
    def test_totals_must_be_ints(self, make, bad):
        with pytest.raises(ValueError, match=f"^row total must be an int, got {bad}$"):
            make()

    @given(st.integers(2, 5), st.integers(0, 5))
    def test_equal_totals_never_singular(self, length, top):
        totals = (top,) * length
        for k in range(2, length + 1):
            for i in range(1, k):
                assert creation_coeff(k, i, totals).denominator >= 1


class TestRecurrence:
    def test_holds_on_dominant_grid(self):
        for length in (3, 4, 5):
            assert verify_recurrence(length, list(ordered_totals(length)))

    def test_detects_damage(self):
        def damaged(k, i, totals):
            value = creation_coeff(k, i, totals)
            return value * 2 if i == 1 else value

        assert not verify_recurrence(3, list(ordered_totals(3, 2)), coeff=damaged)

    @pytest.mark.parametrize(
        "k_max, grid, message",
        [
            (True, [(1, 0, 0)], "k_max must be an int, got True"),
            (3.0, [(1, 0, 0)], "k_max must be an int, got 3.0"),
            (-1, [(1, 0, 0)], "need k_max >= 3 and a grid of totals of k_max+ rows, got k_max=-1"),
            (3, [], "need k_max >= 3 and a grid of totals of k_max+ rows, got k_max=3"),
            (5, [(1, 0, 0)], "need k_max >= 3 and a grid of totals of k_max+ rows, got k_max=5"),
        ],
        ids=["bool-k", "float-k", "negative-k", "empty-grid", "short-totals"],
    )
    def test_cannot_pass_without_comparing(self, k_max, grid, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_recurrence(k_max, grid)


class TestCreation:
    def test_row1_is_plain_creation(self):
        assert isb_create(1, 2, vacuum(3)) == apply_create(1, 2, vacuum(3))

    def test_column_antisymmetry(self):
        # same color twice in one column collapses to zero
        psi = isb_create(2, 1, isb_create(1, 1, vacuum(3)))
        assert not psi

    def test_octet_top_term_weight(self):
        psi = build_monomial(IrrepLabel(3, (2, 1)), ((1, 1), (2,)))
        lead = apply_create(2, 2, apply_create(1, 1, apply_create(1, 1, vacuum(3))))
        state = next(iter(lead.terms))
        assert psi.terms[state] == Fraction(2, 3)

    def test_images_stay_constrained(self):
        # row-2 creation on a fundamental state lands in the two-box column
        for psi in nullspace_basis(IrrepLabel(3, (1, 0))):
            for alpha in (1, 2, 3):
                image = isb_create(2, alpha, psi)
                assert not invariant_action(1, 2, image).terms

    def test_overfull_column_collapses(self):
        # one box per row is the tallest column: another row-2 box gives zero
        for psi in nullspace_basis(IrrepLabel(3, (1, 1))):
            for alpha in (1, 2, 3):
                assert not isb_create(2, alpha, psi)


class TestAnnihilation:
    def test_kills_vacuum(self):
        for k in (1, 2):
            for alpha in (1, 2, 3):
                assert not isb_annihilate(k, alpha, vacuum(3))

    def test_kills_protected_row(self):
        # removing a row-1 box from a [1,1] state would break row ordering
        label = IrrepLabel(3, (1, 1))
        for psi in nullspace_basis(label):
            for alpha in (1, 2, 3):
                assert not isb_annihilate(1, alpha, psi)

    def test_inverts_one_step(self):
        # on the fundamental tower the dressed pair acts diagonally
        psi = isb_create(1, 1, vacuum(3))
        down = isb_annihilate(1, 1, psi)
        assert down == vacuum(3)


class TestChainSum:
    @given(ladder_cases())
    def test_creation_matches_chain_formula(self, case):
        state, k, alpha = case
        got = outcome(isb_create, k, alpha, basis_ket(state))
        assert got == outcome(chain_create, k, alpha, state)

    @given(ladder_cases())
    def test_annihilation_matches_chain_formula(self, case):
        state, k, alpha = case
        got = outcome(isb_annihilate, k, alpha, basis_ket(state))
        assert got == outcome(chain_annihilate, k, alpha, state)

    def test_singular_states_agree(self):
        # totals (0, 1): row 2 raised to 2 puts the creation pair (2, 1) on the pole
        state = FockState(3, ((0, 0, 0), (1, 0, 0)))
        assert outcome(chain_create, 2, 1, state) == "singular"
        assert outcome(isb_create, 2, 1, basis_ket(state)) == "singular"
        # totals (1, 2): row 1 lowered to 0 puts the annihilation pair (2, 1) on the pole
        state = FockState(3, ((1, 0, 0), (2, 0, 0)))
        assert outcome(chain_annihilate, 1, 1, state) == "singular"
        assert outcome(isb_annihilate, 1, 1, basis_ket(state)) == "singular"
        # the same pole with row 1 empty: no chain term, so no factor is evaluated
        state = FockState(3, ((0, 0, 0), (1, 0, 0)))
        assert outcome(chain_annihilate, 1, 1, state) == zero_ket(3)
        assert outcome(isb_annihilate, 1, 1, basis_ket(state)) == zero_ket(3)

    @pytest.mark.parametrize(
        "ladder, k, occ, totals, named, other",
        [
            # A+[3]^1 at totals (0, 1, 2): row 3 raised to 3 puts both (3, 2) and (3, 1) on the pole
            (isb_create, 3, ((0,) * 4, (1, 0, 0, 0), (2, 0, 0, 0)), (0, 1, 3), (3, 2), (3, 1)),
            # A[1]_1 at totals (1, 2, 3): row 1 lowered to 0 puts both (2, 1) and (3, 1) on the pole
            (isb_annihilate, 1, ((1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)), (0, 2, 3), (2, 1), (3, 1)),
        ],
    )
    def test_the_pole_nearest_row_k_is_named_first(self, ladder, k, occ, totals, named, other):
        for pair in (named, other):
            with pytest.raises(SingularCoefficientError):
                creation_coeff(*pair, totals)
        message = f"singular dressing coefficient for row pair {named} at totals {totals}"
        for scope in SCOPES:
            with scope(), pytest.raises(SingularCoefficientError, match=f"^{re.escape(message)}$"):
                ladder(k, 1, basis_ket(FockState(4, occ)))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_one_bilinear_per_row_pair(self, k, monkeypatch):
        calls = []
        bilinear_into = fock._bilinear_into

        def counted(acc, terms, i, j, scale=1):
            calls.append((i, j))
            return bilinear_into(acc, terms, i, j, scale)

        # the rows run in fock's kernel, which calls the bilinear kernel by its name there
        monkeypatch.setattr(fock, "_bilinear_into", counted)
        state = FockState(6, ((1,) * 6,) * 5)
        assert isb._create_terms.__wrapped__(k, 1, state)[0]  # the rule itself, not its memo
        assert len(calls) == k * (k - 1) // 2  # one L[i,j] per pair j < i of rows 1..k
        # outside a sweep a ket takes them once per row-total vector: here two, of two states each
        calls.clear()
        swapped = FockState(6, ((2, 0, 1, 1, 1, 1),) + ((1,) * 6,) * 4)
        wider = FockState(6, ((2,) * 6,) + ((1,) * 6,) * 4)
        wider_swapped = FockState(6, ((2,) * 6, (0, 2, 1, 1, 1, 1)) + ((1,) * 6,) * 3)
        psi = Ket(6, {state: 1, wider: Fraction(-2, 3), swapped: 5, wider_swapped: 1})
        assert isb_create(k, 1, psi)
        assert len(calls) == 2 * (k * (k - 1) // 2)
        for top in range(k, 6):
            calls.clear()
            assert isb._annihilate_on_basis(k, 1, top, state)[0]
            assert len(calls) == (top - k) * (top - k + 1) // 2  # one L[j,i] per pair i < j of rows k..top

    @given(ladder_cases())
    def test_capped_annihilation_matches_chain_formula(self, case):
        # the rank-4 gluing route caps A[k] at row 2; every cap from k to N-1 is checked
        state, k, alpha = case
        for top in range(k, state.n):
            got = outcome(_apply_images, basis_ket(state), isb._annihilate_on_basis, k, alpha, top)
            assert got == outcome(chain_annihilate, k, alpha, state, top), top


@st.composite
def multi_term_kets(draw):
    """A ket of rank N <= 5 with up to three basis states and mixed int/Fraction coefficients."""
    n = draw(st.integers(2, 5))
    cap = 2 if n <= 4 else 1
    occs = st.lists(st.lists(st.integers(0, cap), min_size=n, max_size=n), min_size=n - 1, max_size=n - 1)
    coeffs = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=7)).filter(bool)
    terms = draw(st.dictionaries(occs.map(lambda occ: FockState(n, occ)), coeffs, min_size=1, max_size=3))
    return Ket(n, terms), draw(st.integers(1, n - 1)), draw(st.integers(1, n))


def state_by_state(oracle, k, alpha, psi):
    """The linear extension of a basis-state oracle: the sum of c_s * oracle(s)."""
    out = zero_ket(psi.n)
    for state, coeff in psi.terms.items():
        out = out + oracle(k, alpha, state) * coeff
    return out


class TestIntegerLadders:
    """The ladders run on ints over one denominator per basis image, and divide once per output term."""

    @given(multi_term_kets())
    def test_creation_is_linear_in_the_chain_formula(self, case):
        psi, k, alpha = case
        got = outcome(isb_create, k, alpha, psi)
        assert got == outcome(state_by_state, chain_create, k, alpha, psi)

    @given(multi_term_kets())
    def test_annihilation_is_linear_in_the_chain_formula(self, case):
        psi, k, alpha = case
        got = outcome(isb_annihilate, k, alpha, psi)
        assert got == outcome(state_by_state, chain_annihilate, k, alpha, psi)

    def test_shared_dressing_denominators_multiply(self):
        # totals (1, 2, 2) after raising row 3: F(3,1) = F(3,2) = -1/2, so the
        # two-link chain carries 1/4; one denominator of lcm(2, 2) = 2 would lose it
        state = FockState(4, ((1, 0, 0, 0), (2, 0, 0, 0), (1, 0, 0, 0)))
        image = isb_create(3, 2, basis_ket(state))
        assert image == Ket(
            4,
            {
                FockState(4, ((0, 1, 0, 0), (2, 0, 0, 0), (2, 0, 0, 0))): Fraction(1, 4),
                FockState(4, ((1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0))): Fraction(1, 4),
                FockState(4, ((1, 0, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0))): Fraction(-1, 2),
            },
        )
        assert image == chain_create(3, 2, state)

    def test_exact_outputs_are_ints(self):
        psi = Ket(3, {FockState(3, ((1, 0, 0), (0, 0, 0))): Fraction(3, 2)})
        image = isb_create(1, 1, psi * 2)
        assert [type(c) for c in image.terms.values()] == [int]
        assert image == apply_create(1, 1, psi) * 2

    def test_row_sums_see_only_int_coefficients(self, monkeypatch):
        seen = []
        bilinear_into = fock._bilinear_into

        def recorded(acc, terms, i, j, scale=1):
            seen.extend(type(c) for c in (*terms.values(), scale))
            return bilinear_into(acc, terms, i, j, scale)

        monkeypatch.setattr(fock, "_bilinear_into", recorded)
        isb._create_terms.cache_clear()
        psi = build_monomial(IrrepLabel(4, (2, 1, 1)), ((1, 2), (3,), (4,)))
        assert any(isinstance(c, Fraction) for c in psi.terms.values())
        for k in (1, 2, 3):
            assert isb_create(k, 1, psi) == state_by_state(chain_create, k, 1, psi)
            assert isb_annihilate(k, 2, psi) == state_by_state(chain_annihilate, k, 2, psi)
        assert seen and set(seen) == {int}


def gluing_reference(alpha, psi):
    """The gluing formula of ``isb_create_iterative``'s docstring on whole kets, state by state.

    The rank-3 operators (chains capped at row 2) are the chain sums above.
    """
    out = zero_ket(4)
    for state, coeff in psi.terms.items():
        t = total_occupations(state)
        n1, n2, n3 = t[0], t[1], t[2] + 1
        if 0 in (n2 - n3 + 2, n1 - n2 + 1, n1 - n3 + 3):
            raise SingularCoefficientError(f"singular gluing coefficient at totals {t}")
        g2 = Fraction(-1, n2 - n3 + 2)
        g1 = Fraction(-(n1 - n2 + 2), (n1 - n2 + 1) * (n1 - n3 + 3))
        out = out + apply_create(3, alpha, basis_ket(state)) * coeff
        bare = apply_create(1, alpha, basis_ket(state))  # A+[1] is the bare creation
        for g, row, created in ((g2, 2, chain_create(2, alpha, state)), (g1, 1, bare)):
            for gamma in range(1, 5):
                lowered = zero_ket(4)
                for s, c in created.terms.items():
                    lowered = lowered + chain_annihilate(row, gamma, s, top=2) * c
                out = out + apply_create(3, gamma, lowered) * (coeff * g)
    return out


def outcome_text(operator, *args):
    try:
        return operator(*args)
    except SingularCoefficientError as err:
        return "singular", str(err)


@st.composite
def rank4_kets(draw):
    """Up to three rank-4 basis states, unordered totals included, with int or
    Fraction coefficients of both signs."""
    occs = st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), min_size=3, max_size=3)
    coeffs = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=7)).filter(bool)
    return Ket(4, draw(st.dictionaries(occs.map(lambda occ: FockState(4, occ)), coeffs, max_size=3)))


# totals (0, 0, 0): every gluing and dressing denominator is nonzero
_REGULAR = FockState(4, ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
# totals (0, 1, 2): n_2 - n_3 + 2 = 0 once row 3 is raised
_SINGULAR_GLUING = FockState(4, ((0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 0, 0)))
# totals (0, 2, 0): no gluing pole, but the a+[3].A[1] branch meets H(2,1) = 1/(n_1 - n_2 + 2); the
# A+[2] pole n_2 = n_1 + 1 is also a pole of G1, so the gluing check always raises first there
_SINGULAR_DRESSING = FockState(4, ((0, 0, 0, 0), (2, 0, 0, 0), (0, 0, 0, 0)))


class TestIterative:
    @given(rank4_kets(), st.integers(1, 4))
    @example(zero_ket(4), 1)
    @example(Ket(4, {_REGULAR: 3, _SINGULAR_GLUING: Fraction(-2, 5)}), 2)
    @example(Ket(4, {_SINGULAR_DRESSING: -1}), 3)
    def test_equals_the_whole_ket_formula(self, psi, alpha):
        assert outcome_text(isb_create_iterative, alpha, psi) == outcome_text(gluing_reference, alpha, psi)

    def test_exact_outputs_are_ints(self):
        # the image of this state carries sixths: six times the state has an integer image
        psi = basis_ket(FockState(4, ((0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 0, 0)))) * 6
        image = isb_create_iterative(1, psi)
        assert len(image.terms) == 4 and {type(c) for c in image.terms.values()} == {int}
        assert image == gluing_reference(1, psi)
        assert isb_create_iterative(1, psi * Fraction(1, 6)) == image * Fraction(1, 6)

    def test_matches_closed_form(self):
        for totals in ((1, 1, 0), (2, 1, 0)):
            for psi in nullspace_basis(IrrepLabel(4, totals)):
                for alpha in range(1, 5):
                    assert isb_create_iterative(alpha, psi) == isb_create(3, alpha, psi)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            isb_create_iterative(1, vacuum(3))


@st.composite
def route_kets(draw):
    """A ket of rank 2 to 6, up to eight basis states, often two of one row-total vector
    (a state and its rows reversed), with int or Fraction coefficients of both signs; a row and a color."""
    n = draw(st.integers(2, 6))
    cap = 2 if n <= 4 else 1
    occs = st.lists(st.lists(st.integers(0, cap), min_size=n, max_size=n), min_size=n - 1, max_size=n - 1)
    coeffs = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=7)).filter(bool)
    terms = {}
    for occ in draw(st.lists(occs, max_size=4)):
        for rows in (occ, [row[::-1] for row in occ])[: draw(st.integers(1, 2))]:
            terms[FockState(n, rows)] = draw(coeffs)
    return Ket(n, terms), draw(st.integers(1, n - 1)), draw(st.integers(1, n))


def routed(scope, k, alpha, psi):
    """isb_create in scope: the bytes of its ket, or the text of its SingularCoefficientError."""
    with scope():
        try:
            return dumps_ket(isb_create(k, alpha, psi))
        except SingularCoefficientError as err:
            return "singular", str(err)


# rank-4 totals (0, 0, 2) and (0, 0, 1): with row 3 raised, A+[3] meets the pole of pair (3, 1) on
# the first and of pair (3, 2) on the second, so the state met first decides which one is named
_POLE_31 = FockState(4, ((0, 0, 0, 0), (0, 0, 0, 0), (1, 1, 0, 0)))
_POLE_32 = FockState(4, ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0)))


class TestSweepScope:
    """isb_create maps a ket by row-total groups outside a sweep and by memoized basis images inside."""

    @given(route_kets())
    @example((zero_ket(2), 1, 1))
    @example((zero_ket(6), 5, 6))
    @example((Ket(4, {_POLE_31: 1, _POLE_32: Fraction(1, 2)}), 3, 1))
    @example((Ket(4, {_POLE_32: Fraction(1, 2), _POLE_31: 1}), 3, 1))
    def test_both_scopes_give_the_same_bytes_or_error(self, case):
        psi, k, alpha = case
        one_off = routed(nullcontext, k, alpha, psi)
        assert one_off == routed(isb._sweep, k, alpha, psi)

    def test_the_pole_of_the_state_met_first_is_named(self):
        cases = [
            ({_POLE_31: 1, _POLE_32: 1}, "(3, 1) at totals (0, 0, 3)"),
            ({_POLE_32: 1, _POLE_31: 1}, "(3, 2) at totals (0, 0, 2)"),
        ]
        for terms, named in cases:
            for scope in SCOPES:
                message = f"singular dressing coefficient for row pair {named}"
                assert routed(scope, 3, 1, Ket(4, terms)) == ("singular", message)

    def test_constraint_labels_build_the_same_bytes_in_both_scopes(self):
        # the constraints suite builds every index by build_monomial inside its sweep, as
        # `sunisb build` does outside one: every label of that suite at n_max=4, 5 boxes
        for label in checks._labels(4, 5):
            for idx in all_multi_indices(label):
                one_off = build_monomial(label, idx)
                with isb._sweep():
                    swept = build_monomial(label, idx)
                assert dumps_ket(one_off) == dumps_ket(swept), (label, idx)
                assert constraint_residual(one_off).satisfied, (label, idx)

    @pytest.mark.parametrize(
        "module, name, perturb",
        [
            (isb, "_dressing_den", lambda rule: lambda k, i, totals: rule(k, i, totals) + 1),
            # the row kernel in fock calls the bilinear kernel by its name there
            (fock, "_bilinear_into", lambda rule: lambda acc, terms, i, j, scale=1: rule(acc, terms, i, j, 2 * scale)),
        ],
        ids=["shifted-denominator", "doubled-bilinear"],
    )
    def test_a_one_off_build_reads_the_perturbed_rule(self, monkeypatch, module, name, perturb):
        # no memo stands between a one-off build and the rules, so nothing needs clearing
        label, idx = IrrepLabel(4, (2, 1, 1)), ((1, 2), (3,), (4,))
        before = dumps_ket(build_monomial(label, idx))
        monkeypatch.setattr(module, name, perturb(getattr(module, name)))
        assert dumps_ket(build_monomial(label, idx)) != before

    def test_one_off_calls_leave_the_memo_and_sweeps_fill_it(self):
        memo = isb._create_terms
        memo.cache_clear()
        psi = build_monomial(IrrepLabel(6, (2, 2, 1, 1, 0)), ((1, 2), (3, 4), (5,), (6,), ()))
        assert psi
        for k in range(1, 6):
            isb_create(k, 2, psi)
        for rank4 in nullspace_basis(IrrepLabel(4, (2, 1, 0))):
            isb_create_iterative(1, rank4)
        assert memo.cache_info().currsize == 0
        monomial_rank(IrrepLabel(4, (2, 1, 0)))
        assert memo.cache_info().currsize > 0
