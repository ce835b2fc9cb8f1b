"""Oscillator layer: states, kets, ladder maps, inner product, serialization."""

import copy
import json
import pickle
import textwrap
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sunisb import fock, su3x
from sunisb.fock import (
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


def occupations(n: int, per_slot_max: int = 3):
    row = st.tuples(*[st.integers(0, per_slot_max)] * n)
    return st.tuples(*[row] * (n - 1))


def states(n: int):
    return occupations(n).map(lambda occ: FockState(n, occ))


def slots(n: int):
    return st.tuples(st.integers(1, n - 1), st.integers(1, n))


class TestFockState:
    def test_validation(self):
        with pytest.raises(ValueError):
            FockState(3, ((1, 0, 0),))  # wrong row count
        with pytest.raises(ValueError):
            FockState(3, ((1, 0), (0, 0)))  # wrong colors per row
        with pytest.raises(ValueError):
            FockState(3, ((1, -1, 0), (0, 0, 0)))

    @pytest.mark.parametrize("value", [1.5, 1.0, True, "1", None, Fraction(1)])
    def test_inexact_occupation_rejected(self, value):
        # a float or string would otherwise be truncated to a different state
        with pytest.raises(ValueError):
            FockState(2, ((value, 0),))

    @pytest.mark.parametrize("n", [3.0, 2.9, "3"])
    def test_inexact_rank_rejected(self, n):
        with pytest.raises(ValueError):
            FockState(n, ((0, 0, 0), (0, 0, 0)))
        with pytest.raises(ValueError):
            Ket(n, {})

    def test_equality_and_hash(self):
        a = FockState(3, ((1, 0, 0), (0, 2, 0)))
        b = FockState(3, ((1, 0, 0), (0, 2, 0)))
        assert a == b and hash(a) == hash(b)
        assert a != FockState(3, ((0, 1, 0), (0, 2, 0)))


class TestKet:
    def test_zero_pruning(self):
        s = FockState(2, ((1, 0),))
        assert not (basis_ket(s) - basis_ket(s)).terms
        assert not (basis_ket(s) * 0)

    def test_arithmetic(self):
        s = FockState(2, ((2, 0),))
        t = FockState(2, ((0, 2),))
        psi = basis_ket(s) * Fraction(1, 2) + basis_ket(t) * 3
        assert psi.terms[s] == Fraction(1, 2)
        assert (-psi).terms[t] == -3
        assert (psi / 3).terms[t] == 1

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            vacuum(2) + vacuum(3)

    @pytest.mark.parametrize("coeff", [0.5, 1.0, True, False, "1", None])
    def test_inexact_coefficients_rejected(self, coeff):
        with pytest.raises(ValueError):
            Ket(2, {FockState(2, ((1, 0),)): coeff})

    @pytest.mark.parametrize("op", [lambda k: k * True, lambda k: True * k, lambda k: k / True])
    def test_bool_scalar_rejected(self, op):
        # a bool coefficient is refused on construction, so it is refused as a scalar too
        with pytest.raises(TypeError):
            op(basis_ket(FockState(2, ((1, 0),))))

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_division_by_zero_raises_value_error(self, zero):
        with pytest.raises(ValueError, match="^Ket division by zero$"):
            basis_ket(FockState(2, ((1, 0),))) / zero

    def test_exact_coefficients_accepted_and_summed(self):
        s = FockState(2, ((1, 0),))
        assert Ket(2, {s: Fraction(1, 2)}).terms == {s: Fraction(1, 2)}
        assert not Ket(2, [(s, 2), (s, -2)])
        assert Ket(2, [(s, 1), (s, Fraction(1, 3))]).terms == {s: Fraction(4, 3)}


@st.composite
def image_cases(draw):
    """A ket of 1 to 4 terms over a pool of states, and an integer rule on the pool.

    Each state's image is (terms, den): repeated states and zero coefficients
    included, so terms meet and cancel within one image and across images.
    """
    n = draw(st.integers(2, 3))
    pool = draw(st.lists(states(n), min_size=4, max_size=6, unique=True))
    size = draw(st.integers(1, 4))
    coeffs = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=9)).filter(bool)
    psi = Ket(n, draw(st.dictionaries(st.sampled_from(pool), coeffs, min_size=size, max_size=size)))
    image_terms = st.lists(st.tuples(st.sampled_from(pool), st.integers(-4, 4)), max_size=4)
    images = {s: (draw(image_terms), draw(st.integers(1, 6))) for s in pool}
    return psi, images


def reference_images(psi: Ket, images: dict) -> dict:
    """sum over the terms c |s> of psi of c * sum over images[s] of coeff/den |t>, in Fractions."""
    total = {}
    for s, c in psi.terms.items():
        terms, den = images[s]
        for t, coeff in terms:
            total[t] = total.get(t, 0) + Fraction(c) * coeff / den
    return {t: int(v) if v.denominator == 1 else v for t, v in total.items() if v}


@given(image_cases())
def test_apply_images_equals_the_reference_sum(case):
    psi, images = case
    got = fock._apply_images(psi, images.__getitem__)
    expected = reference_images(psi, images)
    assert got.n == psi.n and got.terms == expected
    # an int exactly when the coefficient is integral
    assert {t: type(c) for t, c in got.terms.items()} == {t: type(c) for t, c in expected.items()}


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), states(n), slots(n), slots(n))))
def test_canonical_commutator(data):
    """[a_i^a, a+_j^b] acts as the identity iff the slots coincide."""
    n, state, (i, a), (j, b) = data
    psi = basis_ket(state)
    left = apply_annihilate(i, a, apply_create(j, b, psi))
    right = apply_create(j, b, apply_annihilate(i, a, psi))
    expected = psi if (i, a) == (j, b) else zero_ket(n)
    assert left - right == expected


@given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), states(n), states(n), slots(n))))
def test_ladder_adjointness(data):
    n, s, t, (i, a) = data
    up = inner_product(apply_create(i, a, basis_ket(s)), basis_ket(t))
    down = inner_product(basis_ket(s), apply_annihilate(i, a, basis_ket(t)))
    assert up == down


def test_annihilate_scales_by_occupation():
    s = FockState(2, ((3, 0),))
    image = apply_annihilate(1, 1, basis_ket(s))
    assert image.terms == {FockState(2, ((2, 0),)): 3}
    assert not apply_annihilate(1, 2, basis_ket(s)).terms


def test_inner_product_weights_are_factorials():
    s = FockState(3, ((2, 1, 0), (0, 0, 3)))
    assert inner_product(basis_ket(s), basis_ket(s)) == factorial(2) * factorial(3)
    t = FockState(3, ((2, 1, 0), (0, 3, 0)))
    assert inner_product(basis_ket(s), basis_ket(t)) == 0


def test_slot_bounds_checked():
    with pytest.raises(IndexError):
        apply_create(3, 1, vacuum(3))  # only rows 1..2 exist
    with pytest.raises(IndexError):
        apply_create(1, 4, vacuum(3))


class TestSectors:
    def test_enumeration_matches_counting(self):
        for totals in ((0, 0), (2, 1), (3, 2)):
            got = enumerate_sector(3, totals)
            assert len(got) == sector_size(3, totals)
            assert len(set(got)) == len(got)
            assert all(s.occ < t.occ for s, t in zip(got, got[1:]))

    def test_sector_size_is_stars_and_bars(self):
        # each row independently distributes its total over N colors
        assert sector_size(3, (2, 1)) == comb(4, 2) * comb(3, 2)
        assert sector_size(4, (1, 1, 1)) == 4**3

    def test_totals_respected(self):
        for s in enumerate_sector(3, (2, 1)):
            assert tuple(sum(row) for row in s.occ) == (2, 1)

    @pytest.mark.parametrize(
        "n,totals",
        [(3.0, (1, 0)), (3, (1.0, 0)), (3, (True, 0)), (3, ("1", 0))]
        # invalid values as well as inexact types: sector_size used to count
        # rank 1 as 1, (3, (1, 2, 3)) as 180 and (3, (-1, 0)) as 0
        + [(1, ()), (0, ()), (3, (1,)), (3, (1, 2, 3)), (3, (-1, 0)), (2, (-2,))],
    )
    def test_inexact_rank_or_total_rejected(self, n, totals):
        # a rank of 3.0 used to come back in every state, and dumps_ket wrote "N": 3.0
        with pytest.raises(ValueError):
            enumerate_sector(n, totals)
        with pytest.raises(ValueError):
            sector_size(n, totals)

    @pytest.mark.parametrize("n", [3.0, 2.9, "3"])
    def test_inexact_vacuum_rank_rejected(self, n):
        with pytest.raises(ValueError):
            vacuum(n)


def kets(n: int):
    coeffs = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=9)).filter(bool)
    return st.dictionaries(states(n), coeffs, max_size=4).map(lambda terms: Ket(n, terms))


ket_documents = st.integers(2, 4).flatmap(kets).map(ket_to_document)


def wide_kets(n: int):
    """Kets whose documents stress the writer: two-digit occupations, 40-digit coefficients."""
    big = st.integers(-(10**40), 10**40)
    coeffs = st.one_of(big, st.builds(Fraction, big, st.integers(1, 10**40)))
    terms = st.dictionaries(occupations(n, 12).map(lambda occ: FockState(n, occ)), coeffs, max_size=5)
    return terms.map(lambda terms: Ket(n, terms))


def _drop_key(doc, draw):
    target = draw(st.sampled_from([doc, doc["terms"][0]]))
    del target[draw(st.sampled_from(sorted(target)))]
    return doc


def _set_coefficient(field, values):
    def mutate(doc, draw):
        doc["terms"][0][field] = draw(values)
        return doc

    return mutate


def _repeat_record(doc, draw):
    pos = draw(st.integers(0, len(doc["terms"]) - 1))
    doc["terms"].insert(pos, copy.deepcopy(doc["terms"][pos]))
    return doc


def _reshape_occ(doc, draw):
    occ = doc["terms"][0]["occ"]
    reshaped = draw(
        st.sampled_from(
            [
                occ[1:],
                occ + [occ[0]],
                [row[1:] for row in occ],
                [row + [0] for row in occ],
                [[str(e) for e in row] for row in occ],
                [[float(e) for e in row] for row in occ],
                [sum(row) for row in occ],
                0,
            ]
        )
    )
    doc["terms"][0]["occ"] = reshaped
    return doc


def _non_dict_record(doc, draw):
    record = doc["terms"][0]
    doc["terms"][0] = draw(st.sampled_from([list(record.items()), list(record), str(record), None, 0]))
    return doc


def _non_dict_document(doc, draw):
    return draw(st.sampled_from([list(doc.items()), list(doc), json.dumps(doc), None, 0]))


# each mutation turns a document ket_to_document wrote into one it cannot write
MUTATIONS = {
    "dropped key": _drop_key,
    "zero num": _set_coefficient("num", st.sampled_from(["0", "-0", "00"])),
    "den not positive": _set_coefficient("den", st.integers(-3, 0).map(str)),
    "repeated record": _repeat_record,
    "wrong occ shape or type": _reshape_occ,
    "non-dict record": _non_dict_record,
    "non-dict document": _non_dict_document,
}


class TestSerialization:
    @given(st.integers(2, 4).flatmap(lambda n: st.lists(states(n), min_size=0, max_size=4).map(lambda ss: (n, ss))))
    def test_round_trip(self, data):
        n, ss = data
        psi = zero_ket(n)
        for k, s in enumerate(ss):
            psi = psi + basis_ket(s) * Fraction(k + 1, 7)
        assert ket_from_document(ket_to_document(psi)) == psi
        assert loads_ket(dumps_ket(psi)) == psi

    def test_bytes_are_stable(self):
        psi = basis_ket(FockState(2, ((1, 1),))) * Fraction(-2, 3)
        text = dumps_ket(psi)
        assert dumps_ket(loads_ket(text)) == text
        assert text.endswith("\n")

    @given(st.integers(2, 6).flatmap(wide_kets))
    @example(zero_ket(2))
    @example(zero_ket(6))
    def test_text_is_the_indented_json_of_the_document(self, psi):
        assert dumps_ket(psi) == json.dumps(ket_to_document(psi), indent=1) + "\n"

    def test_literal_bytes(self):
        s = FockState(3, ((0, 1, 0), (2, 0, 0)))
        t = FockState(3, ((1, 0, 0), (0, 0, 10)))
        psi = basis_ket(t) * Fraction(5, 12) + basis_ket(s) * -3
        expected = textwrap.dedent(
            """\
            {
             "N": 3,
             "convention": "unnormalized-monomial",
             "terms": [
              {
               "occ": [
                [
                 0,
                 1,
                 0
                ],
                [
                 2,
                 0,
                 0
                ]
               ],
               "num": "-3",
               "den": "1"
              },
              {
               "occ": [
                [
                 1,
                 0,
                 0
                ],
                [
                 0,
                 0,
                 10
                ]
               ],
               "num": "5",
               "den": "12"
              }
             ]
            }
            """
        )
        assert dumps_ket(psi) == expected
        empty = '{\n "N": 3,\n "convention": "unnormalized-monomial",\n "terms": []\n}\n'
        assert dumps_ket(zero_ket(3)) == empty

    def test_document_shape(self):
        psi = basis_ket(FockState(2, ((1, 0),))) * Fraction(-1, 2)
        doc = ket_to_document(psi)
        assert doc["N"] == 2
        assert doc["terms"] == [{"occ": [[1, 0]], "num": "-1", "den": "2"}]
        parsed = json.loads(dumps_ket(psi))
        assert parsed == doc

    def test_terms_sorted_by_occupation(self):
        a = basis_ket(FockState(2, ((0, 2),)))
        b = basis_ket(FockState(2, ((2, 0),)))
        doc = ket_to_document(b + a)
        assert doc["terms"][0]["occ"] == [[0, 2]]

    def test_repeated_state_rejected(self):
        doc = ket_to_document(basis_ket(FockState(2, ((1, 0),))))
        doc["terms"].append(dict(doc["terms"][0], num="5"))
        with pytest.raises(ValueError):
            ket_from_document(doc)

    def test_zero_denominator_rejected(self):
        doc = ket_to_document(basis_ket(FockState(2, ((1, 0),))))
        doc["terms"][0]["den"] = "0"
        with pytest.raises(ValueError):
            ket_from_document(doc)

    def test_convention_is_enforced(self):
        doc = ket_to_document(vacuum(2))
        doc["convention"] = "normalized"
        with pytest.raises(ValueError):
            ket_from_document(doc)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_empty_document_below_rank_two_rejected(self, n):
        # with no terms there is no state to check the rank on
        doc = {"N": n, "convention": "unnormalized-monomial", "terms": []}
        with pytest.raises(ValueError):
            ket_from_document(doc)
        with pytest.raises(ValueError):
            loads_ket(json.dumps(doc, indent=1) + "\n")

    def test_rank_two_zero_ket_round_trips(self):
        doc = ket_to_document(zero_ket(2))
        assert doc == {"N": 2, "convention": "unnormalized-monomial", "terms": []}
        assert ket_from_document(doc) == zero_ket(2)
        assert dumps_ket(loads_ket(dumps_ket(zero_ket(2)))) == dumps_ket(zero_ket(2))

    @given(ket_documents)
    def test_document_round_trips_exactly(self, doc):
        assert ket_to_document(ket_from_document(doc)) == doc
        text = json.dumps(doc, indent=1) + "\n"
        assert dumps_ket(loads_ket(text)) == text

    @given(ket_documents.filter(lambda doc: doc["terms"]), st.sampled_from(sorted(MUTATIONS)), st.data())
    def test_mutated_document_raises_value_error(self, doc, name, data):
        mutated = MUTATIONS[name](copy.deepcopy(doc), data.draw)
        assert json.dumps(mutated) != json.dumps(doc)
        with pytest.raises(ValueError):
            ket_from_document(mutated)


def test_format_ket_readable():
    psi = basis_ket(FockState(3, ((1, 1, 0), (1, 0, 0)))) * Fraction(-2, 3)
    assert format_ket(psi) == "-2/3 |1 1 0 / 1 0 0>"
    assert format_ket(zero_ket(3)) == "0"
    assert format_ket(basis_ket(FockState(2, ((0, 2),))) * 3) == "3 |0 2>"


def sectors(n: int):
    return st.tuples(st.just(n), st.lists(st.integers(0, 2), min_size=n - 1, max_size=n - 1))


def _with(occ, i: int, alpha: int, delta: int):
    """occ as nested lists, with delta added at row i, color alpha (both 1-based)."""
    rows = [list(row) for row in occ]
    rows[i - 1][alpha - 1] += delta
    return rows


class TestCanonicalStates:
    """Every construction route returns the one object of its occupation matrix."""

    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), occupations(n))))
    def test_constructor(self, data):
        n, occ = data
        state = FockState(n, occ)
        assert FockState(n, [list(row) for row in occ]) is state
        assert hash(state) == hash((n, occ))

    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), states(n), slots(n), slots(n))))
    def test_bumped_moved_recolored(self, data):
        n, state, (i, alpha), (j, beta) = data
        raised = fock._bumped(state, i, alpha, 1)
        assert raised is FockState(n, _with(state.occ, i, alpha, 1))
        assert fock._bumped(raised, i, alpha, -1) is state
        lowered = _with(raised.occ, i, alpha, -1)
        assert fock._moved(raised, i, j, alpha) is FockState(n, _with(lowered, j, alpha, 1))
        assert fock._recolored(raised, i, alpha, beta) is FockState(n, _with(lowered, i, beta, 1))

    @given(st.integers(2, 4).flatmap(sectors))
    def test_vacuum_and_sectors(self, data):
        n, totals = data
        (empty,) = vacuum(n).terms
        assert empty is FockState(n, [[0] * n] * (n - 1))
        sector = enumerate_sector(n, totals)
        assert all(s is FockState(n, s.occ) for s in sector)
        assert all(s is t for s, t in zip(sector, enumerate_sector(n, totals)))

    @given(states(3), st.integers(0, 2))
    def test_su3_shifted_state(self, state, g):
        raised = su3x._paired(state, g, 1)
        assert raised is FockState(3, _with(_with(state.occ, 1, g + 1, 1), 2, g + 1, 1))
        assert su3x._paired(raised, g, -1) is state

    @given(st.integers(2, 4).flatmap(kets))
    def test_loads_ket(self, psi):
        loaded = loads_ket(dumps_ket(psi))
        assert loaded == psi
        assert sorted(map(id, loaded.terms)) == sorted(map(id, psi.terms))

    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), states(n))))
    def test_a_twin_outside_the_table_is_equal_and_finds_the_entry(self, data):
        n, state = data
        twin = object.__new__(FockState)
        twin.n, twin.occ, twin._hash = n, tuple(tuple(list(row)) for row in state.occ), hash((n, state.occ))
        assert twin is not state and twin == state and state == twin
        assert {state: "entry"}[twin] == "entry" and {twin: "entry"}[state] == "entry"

    @given(st.integers(2, 4).flatmap(sectors))
    def test_rebuilding_existing_states_does_not_grow_the_table(self, data):
        n, totals = data
        built = enumerate_sector(n, totals) + list(vacuum(n).terms)
        size = len(fock._STATES)
        enumerate_sector(n, totals)
        vacuum(n)
        for s in built:
            FockState(n, s.occ)
            loads_ket(dumps_ket(basis_ket(s)))
        assert len(fock._STATES) == size

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_and_pickle_return_the_canonical_state(self, clone):
        state = FockState(3, ((1, 0, 2), (0, 1, 0)))
        assert clone(state) is state
        psi = Ket(3, {state: Fraction(2, 3), FockState(3, ((0, 0, 0), (4, 0, 1))): -1})
        cloned = clone(psi)
        assert cloned == psi and cloned.n == 3
        assert all(s is FockState(3, s.occ) for s in cloned.terms)
