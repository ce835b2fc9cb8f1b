"""Oscillator layer: states, kets, ladder maps, inner product, serialization."""

import ast
import copy
import json
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sunisb import algebra, fock, isb, su3x
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
from sunisb.irreps import IrrepLabel, build_monomial, nullspace_basis


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

    def test_an_integral_coefficient_is_an_int_on_every_route(self):
        s = FockState(3, ((1, 0, 0), (0, 2, 0)))
        record = {"occ": [[1, 0, 0], [0, 2, 0]], "num": "-7", "den": "1"}
        routes = [
            ((basis_ket(s) * Fraction(1, 2)) * 2, 1),
            (basis_ket(s) / 3 + basis_ket(s) * Fraction(2, 3), 1),
            (Ket(3, {s: Fraction(4, 1)}), 4),
            (ket_from_document({"N": 3, "convention": "unnormalized-monomial", "terms": [record]}), -7),
            (basis_ket(s) * 6 / Fraction(-3, 2), -4),
            (apply_annihilate(2, 2, apply_create(2, 2, basis_ket(s)) / 3), 1),
        ]
        for psi, value in routes:
            assert psi.terms == {s: value}
            assert type(psi.terms[s]) is int


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
    # a dressing denominator outside the ordered regime is negative
    images = {s: (draw(image_terms), draw(st.integers(-6, 6).filter(bool))) for s in pool}
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


def term_dicts(n: int):
    coeffs = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=9)).filter(bool)
    return st.dictionaries(states(n), coeffs, max_size=4)


def kets(n: int):
    return term_dicts(n).map(lambda terms: Ket(n, terms))


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


def operator_images(psi: Ket, phi: Ket, data) -> Iterator[Ket]:
    """The image of psi under every operator of the package, bar a vanishing dressing denominator.

    Ladders, bilinears, generators, Casimirs, ket arithmetic with phi and a
    drawn scalar, and a byte round trip; at rank 3 the su(3) operators, at
    rank 4 the gluing route.
    """
    n = psi.n
    row, color = data.draw(slots(n))
    other = data.draw(st.integers(1, n - 1))
    alpha, beta = data.draw(st.tuples(st.integers(1, n), st.integers(1, n)))
    scalar = data.draw(st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4)).filter(bool))
    images = [
        lambda: apply_create(row, color, psi),
        lambda: apply_annihilate(row, color, psi),
        lambda: algebra.invariant_action(row, other, psi),
        lambda: algebra.generator_action(alpha, beta, psi),
        lambda: isb.isb_create(row, color, psi),
        lambda: isb.isb_annihilate(row, color, psi),
        lambda: algebra.casimir2_op(n)(psi),
        lambda: psi + phi,
        lambda: psi - phi,
        lambda: -psi,
        lambda: psi * scalar,
        lambda: psi / scalar,
        lambda: loads_ket(dumps_ket(psi)),
    ]
    if n == 3:
        images += [
            lambda: su3x.pair_create(psi),
            lambda: su3x.pair_annihilate(psi),
            lambda: su3x.pair_level(psi),
            lambda: su3x.dressed_create_a(alpha, psi),
            lambda: su3x.dressed_create_b(alpha, psi),
            lambda: su3x.ab_generator_action(alpha, beta, psi),
        ]
    if n == 4:
        images.append(lambda: isb.isb_create_iterative(color, psi))
    for image in images:
        try:
            yield image()
        except isb.SingularCoefficientError:
            continue


def in_lowest_terms(psi: Ket) -> bool:
    """Nonzero int numerators over a positive int denominator, gcd 1; the zero ket over 1."""
    nums, den = psi._nums, psi._den
    exact = type(den) is int and all(type(v) is int and v for v in nums.values())
    return exact and den > 0 and gcd(den, *nums.values()) == 1


def lowest_terms(coeffs: dict) -> tuple[dict, int]:
    """The (numerators, denominator) form of a dict of nonzero exact coefficients, built in Fractions."""
    den = lcm(*(Fraction(c).denominator for c in coeffs.values()))
    return {s: int(Fraction(c) * den) for s, c in coeffs.items()}, den


def fraction_sum(*scaled: tuple[dict, Fraction]) -> dict:
    """The sum of scale * coeff over the (terms, scale) pairs, in Fractions, zeros dropped."""
    total: dict = {}
    for terms, scale in scaled:
        for s, c in terms.items():
            total[s] = total.get(s, 0) + Fraction(c) * scale
    return {s: c for s, c in total.items() if c}


class TestLowestTerms:
    """A ket is integer numerators over one positive denominator, in lowest terms, on every route."""

    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(kets(n), kets(n))), st.data())
    def test_every_operator_returns_the_canonical_form(self, pair, data):
        assert all(in_lowest_terms(psi) for psi in pair)
        for out in operator_images(*pair, data):
            assert in_lowest_terms(out)

    @given(
        st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), term_dicts(n), term_dicts(n))),
        st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=6)).filter(bool),
    )
    def test_arithmetic_equals_the_fraction_reference(self, data, scalar):
        n, a, b = data
        psi, phi = Ket(n, a), Ket(n, b)
        cases = [
            (psi, fraction_sum((a, 1))),
            (psi + phi, fraction_sum((a, 1), (b, 1))),
            (psi - phi, fraction_sum((a, 1), (b, -1))),
            (psi * scalar, fraction_sum((a, scalar))),
            (psi / scalar, fraction_sum((a, 1 / Fraction(scalar)))),
        ]
        for got, expected in cases:
            assert (got._nums, got._den) == lowest_terms(expected)
            # the public view: an int exactly when the coefficient is integral
            assert got.terms == expected
            assert {s: type(c) for s, c in got.terms.items()} == {
                s: int if c.denominator == 1 else Fraction for s, c in expected.items()
            }

    @given(image_cases())
    def test_apply_images_equals_the_fraction_reference(self, case):
        psi, images = case
        got = fock._apply_images(psi, images.__getitem__)
        assert (got._nums, got._den) == lowest_terms(reference_images(psi, images))

    @pytest.mark.parametrize(
        "images, expected",
        [
            # an integral image after a fractional one is scaled to the running denominator
            ({1: ([(3, 1)], 2), 2: ([(3, 3)], 1)}, {3: Fraction(7, 2)}),
            # a fractional image after an integral one rescales the partial sum
            ({1: ([(3, 3)], 1), 2: ([(4, 1)], 2)}, {3: 3, 4: Fraction(1, 2)}),
            # a denominator dividing the running one rescales nothing
            ({1: ([(3, 1)], 4), 2: ([(3, 1), (4, 1)], 2)}, {3: Fraction(3, 4), 4: Fraction(1, 2)}),
            # a negative denominator, as a dressing outside the ordered regime gives
            ({1: ([(3, 1)], 1), 2: ([(4, 1)], -3)}, {3: 1, 4: Fraction(-1, 3)}),
            ({1: ([(3, 1)], -2), 2: ([(3, 3)], 1)}, {3: Fraction(5, 2)}),
        ],
        ids=[
            "integral-after-fractional",
            "fractional-after-integral",
            "divisor",
            "negative-den",
            "integral-after-negative",
        ],
    )
    def test_apply_images_scales_to_the_running_denominator(self, images, expected):
        state = {k: FockState(2, ((k, 0),)) for k in range(1, 5)}
        rule = {state[k]: ([(state[t], c) for t, c in terms], den) for k, (terms, den) in images.items()}
        psi = Ket(2, {state[1]: 1, state[2]: 1})
        assert list(psi.terms) == [state[1], state[2]]  # the images are met in this order
        assert fock._apply_images(psi, rule.__getitem__).terms == {state[t]: c for t, c in expected.items()}

    @given(image_cases())
    def test_basis_image_table_equals_the_fraction_reference(self, case):
        psi, images = case
        met = []

        def op(ket):
            met.extend(ket.terms)
            return fock._apply_images(ket, images.__getitem__)

        table = fock._BasisImages(op)
        expected = lowest_terms(reference_images(psi, images))
        for _ in range(2):  # the second pass reads every image from the table
            got = fock._apply_images(psi, table.__getitem__)
            assert (got._nums, got._den) == expected
        # op is called once per distinct state, on that state's basis ket
        assert len(met) == len(psi.terms) and set(met) == set(psi.terms)


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
        assert state is fock._STATES[occ]

    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), occupations(n, 1), occupations(n, 1))))
    def test_states_are_equal_exactly_when_they_are_the_table_object(self, data):
        n, occ, other = data
        state, twin = FockState(n, occ), FockState(n, other)
        assert (state == twin) is (state is twin) is (occ == other)
        assert state is fock._STATES[occ] and twin is fock._STATES[other]
        assert {state: "entry"}.get(twin) == ("entry" if occ == other else None)
        assert "__eq__" not in vars(FockState) and "__hash__" not in vars(FockState)

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
        raised = fock._paired(state, g, 1)
        assert raised is FockState(3, _with(_with(state.occ, 1, g + 1, 1), 2, g + 1, 1))
        assert fock._paired(raised, g, -1) is state

    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(kets(n), kets(n))), st.data())
    def test_every_operator_returns_table_states(self, pair, data):
        for out in operator_images(*pair, data):
            assert all(s is fock._STATES[s.occ] for s in out.terms)

    @given(st.integers(2, 4).flatmap(kets))
    def test_loads_ket(self, psi):
        loaded = loads_ket(dumps_ket(psi))
        assert loaded == psi
        assert sorted(map(id, loaded.terms)) == sorted(map(id, psi.terms))

    def test_a_state_pickled_here_loads_as_the_table_state_of_a_fresh_interpreter(self):
        state = FockState(3, ((1, 0, 2), (0, 1, 0)))
        psi = Ket(3, {state: Fraction(2, 3), FockState(3, ((0, 0, 0), (4, 0, 1))): -1})
        script = textwrap.dedent(
            """
            import pickle, sys
            from sunisb.fock import FockState
            state, psi = pickle.load(sys.stdin.buffer)
            print(state is FockState(3, ((1, 0, 2), (0, 1, 0))))
            print(all(s is FockState(3, s.occ) for s in psi.terms), len(psi.terms))
            """
        )
        src = str(Path(fock.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            input=pickle.dumps((state, psi)),
            capture_output=True,
            env=env,
            check=True,
        )
        assert run.stdout.decode().split() == ["True", "True", "2"]

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


class TestTermsView:
    """``Ket.terms`` is a new dict on every read: changing it leaves the ket as it was."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: basis_ket(FockState(3, ((1, 0, 2), (0, 1, 0)))),
            lambda: vacuum(4),
            lambda: nullspace_basis(IrrepLabel(3, (2, 1)))[0],
            lambda: build_monomial(IrrepLabel(3, (2, 1)), ((1, 2), (3,))),
        ],
        ids=["basis-ket", "vacuum", "nullspace-vector", "fractional-monomial"],
    )
    def test_changing_the_view_leaves_the_ket(self, make):
        psi = make()
        text = dumps_ket(psi)
        expected = loads_ket(text)
        state = next(iter(psi.terms))
        edits = [
            lambda view: view.update({state: 5}),
            lambda view: view.update({FockState(psi.n, [[9] * psi.n] * (psi.n - 1)): 1}),
            lambda view: view.pop(state),
            dict.clear,
        ]
        for edit in edits:
            view = psi.terms
            edit(view)
            assert view != psi.terms
            assert psi == expected and psi and dumps_ket(psi) == text


# names no module but fock may use: the table's constructor, the private move, the ket's form
_FOCK_ONLY = {"_unchecked_state", "_moved"}
_KET_FORM = {"_nums", "_den"}
# and the state edits and bilinear kernel, which no other module may define
_EDITS_AND_KERNELS = {"_bilinear_into", "_paired", "_bumped", "_moved", "_recolored"}


def _package_modules() -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(Path(fock.__file__).parent.glob("*.py"))}


def _offences(tree) -> Iterator[str]:
    """Each place where a module reaches what only ``fock`` may: the table, the ket form, a kernel."""
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Name) and node.id in _FOCK_ONLY:
            yield f"{where}: {node.id}"
        elif isinstance(node, ast.Attribute) and node.attr in _FOCK_ONLY | _KET_FORM:
            yield f"{where}: .{node.attr}"
        elif isinstance(node, ast.Constant) and node.value in _FOCK_ONLY | _KET_FORM:
            yield f"{where}: {node.value!r}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (f"{where}: imports {a.name}" for a in node.names if a.name in _FOCK_ONLY)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in _EDITS_AND_KERNELS:
            yield f"{where}: defines {node.name}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__":
            if isinstance(node.func.value, ast.Name) and node.func.value.id == "object":
                yield f"{where}: calls object.__new__"


class TestFockOwnsStatesAndKets:
    """No module but ``fock`` builds a state, reads a ket's form, or defines a state edit or bilinear kernel."""

    def test_no_other_module_reaches_the_table_the_form_or_the_kernels(self):
        modules = _package_modules()
        assert {"fock.py", "algebra.py", "isb.py", "su3x.py", "irreps.py", "checks.py"} <= modules.keys()
        found = {name: list(_offences(tree)) for name, tree in modules.items() if name != "fock.py"}
        assert {name: where for name, where in found.items() if where} == {}
        own = " ".join(_offences(modules["fock.py"]))  # the scan sees each of these in fock itself
        assert all(f"defines {name}" in own for name in _EDITS_AND_KERNELS) and "object.__new__" in own

    def test_isb_imports_nothing_from_algebra(self):
        imports = [node for node in ast.walk(_package_modules()["isb.py"]) if isinstance(node, ast.ImportFrom)]
        assert imports and all(node.module != "algebra" for node in imports if node.level == 1)
        assert all(a.name != "algebra" for node in imports for a in node.names)
        assert all(node.module not in ("sunisb", "sunisb.algebra") for node in imports)
