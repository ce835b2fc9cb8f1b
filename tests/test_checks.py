"""Verification suites: how much work a sweep repeats, and how bounds reach them."""

import json
import re
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path

import pytest

from sunisb import algebra, checks, fock, irreps, isb, linalg, su3x
from sunisb.checks import CheckRecord, iter_labels, run_suite
from sunisb.fock import sector_size


@pytest.mark.parametrize(
    "n, max_quanta, message",
    [
        (2.0, 2, "group rank must be an int, got 2.0"),
        (3, 2.5, "box bound must be an int, got 2.5"),
        (3, -1, "box bound must be non-negative, got -1"),
    ],
)
def test_iter_labels_rejects_bad_bounds(n, max_quanta, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        iter_labels(n, max_quanta)


def test_run_suite_builds_records_and_passes_on_only_given_bounds(monkeypatch):
    seen = []

    def suite(**bounds):
        seen.append(bounds)
        yield "kept", None
        yield "broken", "first failure"

    monkeypatch.setitem(checks.SUITES, "probe", suite)
    assert run_suite("probe", max_quanta=0) == [
        CheckRecord("kept", True, None),
        CheckRecord("broken", False, "first failure"),
    ]
    run_suite("probe")
    assert seen == [{"max_quanta": 0}, {}]


@pytest.mark.parametrize(
    "name, bounds",
    [
        ("recurrence", {"n_max": 6, "max_quanta": 6}),
        ("serialization", {"n_max": 4, "max_quanta": 4}),
        ("sp2r", {"max_quanta": 6}),
    ],
)
def test_explicit_default_bounds_equal_omitted_ones(name, bounds):
    records = run_suite(name, **bounds)
    assert records and records == run_suite(name)


@pytest.mark.parametrize(
    "name, bounds, message",
    [
        # a negative bound sweeps no states, or negative row totals, and would pass vacuously
        ("sp2r", {"max_quanta": -1}, "max_quanta must be non-negative, got -1"),
        ("recurrence", {"max_quanta": -2}, "max_quanta must be non-negative, got -2"),
        ("casimir", {"n_max": 3, "max_quanta": -1}, "max_quanta must be non-negative, got -1"),
        ("fock", {"n_max": -1}, "n_max must be non-negative, got -1"),
        ("fock", {"n_max": 2.5}, "n_max must be an int, got 2.5"),
        ("fock", {"max_quanta": True}, "max_quanta must be an int, got True"),
        ("octet", {"n_max": "3"}, "n_max must be an int, got '3'"),
    ],
)
def test_negative_or_inexact_bound_is_rejected(name, bounds, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suite(name, **bounds)


def test_casimir_box_bound_is_per_rank_unless_given():
    assert len(run_suite("casimir", n_max=3)) == 1 + len(list(iter_labels(3, 5)))
    assert len(run_suite("casimir", n_max=3, max_quanta=2)) == 1 + len(list(iter_labels(3, 2)))


def test_casimir_suite_images_each_state_once_per_rank(monkeypatch):
    # one image of a state reads Q[1,1] on it once, and once more on the term Q[1,1] leaves when it
    # does not vanish there: count those reads
    imaged = Counter()
    original = algebra._generator_on_basis

    def counted(alpha, beta, state):
        if alpha == beta == 1:
            imaged[state] += 1
        return original(alpha, beta, state)

    monkeypatch.setattr(algebra, "_generator_on_basis", counted)
    records = run_suite("casimir", n_max=3)
    assert records and all(r.passed for r in records)
    assert {state.n for state in imaged} == {2, 3}
    assert all(imaged[s] == 1 + bool(original(1, 1, s)[0]) for s in imaged)


def test_ab_commutators_create_each_single_image_once(monkeypatch):
    calls = []
    for name in ("dressed_create_a", "dressed_create_b"):
        original = getattr(su3x, name)

        def counted(x, psi, original=original):
            calls.append(x)
            return original(x, psi)

        monkeypatch.setattr(su3x, name, counted)
    families = sum(
        1 for alphas, betas in su3x._distinct_families(1, 1) if su3x.traceless_state(1, 1, alphas, betas).terms
    )
    assert checks._ab_commutator_witness(1, 1) is None
    # per family: 6 single images, then 2 per side of 3 a-type, 3 b-type and 9 cross pairs
    assert len(calls) == 36 * families


def _ket_key(psi):
    return frozenset(psi.terms.items())


def test_multiplicity_suite_images_each_basis_vector_once_per_operator(monkeypatch):
    # A[j]_gamma psi and A+[j]^gamma psi of a vector psi of the label's basis, counted by
    # (operator, j, gamma, psi); the products' outer factors act on other sectors
    rank_of, current, applied = {}, set(), Counter()
    original_basis = checks.nullspace_basis

    def recorded_basis(label):
        basis = original_basis(label)
        current.clear()
        current.update(_ket_key(psi) for psi in basis)
        rank_of.update((key, label.n) for key in current)
        return basis

    monkeypatch.setattr(checks, "nullspace_basis", recorded_basis)
    for name in ("isb_create", "isb_annihilate"):
        original = getattr(checks, name)

        def counted(k, alpha, psi, name=name, original=original):
            if _ket_key(psi) in current:
                applied[name, k, alpha, _ket_key(psi)] += 1
            return original(k, alpha, psi)

        monkeypatch.setattr(checks, name, counted)
    records = run_suite("multiplicity", n_max=3)
    assert records and all(r.passed for r in records)
    assert set(rank_of.values()) == {2, 3}
    assert set(applied.values()) == {1}
    # both operators, every row and every color, on every basis vector
    per_vector = Counter(key for *_, key in applied)
    assert per_vector == {key: 2 * (n - 1) * n for key, n in rank_of.items()}


def test_traceless_suite_builds_each_state_once(monkeypatch):
    built = Counter()
    original = su3x.traceless_state

    def counted(n, m, alphas, betas):
        built[n, m, tuple(alphas), tuple(betas)] += 1
        return original(n, m, alphas, betas)

    monkeypatch.setattr(su3x, "traceless_state", counted)
    records = run_suite("traceless")
    assert records and all(r.passed for r in records)
    # every color choice of (1,1), (2,1), (1,2) and (2,2), once each
    assert len(built) == 9 + 27 + 27 + 81
    assert max(built.values()) == 1


def test_pair_algebra_witness_takes_each_ladder_image_once(monkeypatch):
    applied = []

    def counted(op):
        def apply(psi):
            applied.append(op)
            return op(psi)

        return apply

    for name in ("pair_create", "pair_annihilate", "pair_level"):
        monkeypatch.setattr(su3x, name, counted(getattr(su3x, name)))
    assert checks._pair_algebra_witness(3) is None
    states = sum(sector_size(3, (ta, q - ta)) for q in range(4) for ta in range(q + 1))
    # k+, k- and k0 of each state, then the six products of the three commutators
    assert len(applied) == 9 * states


def test_dimension_triple_catches_a_fault_in_the_shared_eliminator(monkeypatch):
    # nullspace_dimension and monomial_rank share linalg._relations; the Weyl formula does not
    real = linalg._relations

    def faulty(vectors):
        # report each call's first independent vector as dependent
        seen = False
        for pos, rel in enumerate(real(vectors)):
            if rel is None and not seen:
                seen, rel = True, {pos: 1}
            yield rel

    monkeypatch.setattr(linalg, "_relations", faulty)
    records = run_suite("dimensions", n_max=3)
    assert records and not any(r.passed for r in records)
    for r in records:
        # both witness forms name the Weyl, null-space and rank values first
        weyl, null, rank = (int(x) for x in re.findall(r"\d+", r.witness)[:3])
        assert not weyl == null == rank, r.witness


def _dumps_without_last_term(psi):
    doc = fock.ket_to_document(psi)
    doc["terms"] = doc["terms"][:-1]
    return json.dumps(doc, indent=1) + "\n"


def _document_with_first_coefficient_negated(psi):
    doc = fock.ket_to_document(psi)
    if doc["terms"]:
        doc["terms"][0]["num"] = str(-int(doc["terms"][0]["num"]))
    return doc


@pytest.mark.parametrize(
    "name, tampered",
    [("dumps_ket", _dumps_without_last_term), ("ket_to_document", _document_with_first_coefficient_negated)],
)
def test_serialization_suite_fails_on_a_tampered_document(monkeypatch, name, tampered):
    monkeypatch.setattr(checks, name, tampered)
    records = run_suite("serialization", n_max=3)
    failed = [r for r in records if not r.passed]
    # every family but the zero ket holds a ket of more than one term
    assert [r.check_id for r in records if r.passed] == ["round-trip[zero-ket]"]
    assert len(failed) == 5 and all("round trip" in r.witness for r in failed)


def test_fock_suite_matches_the_pinned_default_list():
    # the twelve acceptance criteria compare every other suite's default ids with this file
    pinned = json.loads((Path(__file__).parent / "data" / "verify_default.json").read_text())
    got = [["fock", r.check_id, "pass" if r.passed else "fail"] for r in run_suite("fock")]
    assert got == [row for row in pinned if row[0] == "fock"]
    assert len(got) == 9


@pytest.mark.parametrize(
    "shift, suite, bounds, broken",
    [
        # (w + 1) a+ s - m (a+.b+) s' over w: the bare raise weighted one too many
        (0, "commutators", {"n_max": 3}, "ab-cross-commutators["),
        # the same over w + 1: the trace weight 1/(N_a + N_b + 4) in place of 1/(N_a + N_b + 3);
        # a weight 1/(N_a + N_b + c) keeps every commutator whatever c, the traceless states pin c
        (1, "traceless", {}, "bv-equals-isb["),
    ],
)
def test_wrong_dressed_weight_fails_its_suite(monkeypatch, shift, suite, bounds, broken):
    records = run_suite(suite, **bounds)
    assert records and all(r.passed for r in records)
    original = su3x._dressed_on_basis

    def wrong(row, color, state):
        terms, w = original(row, color, state)
        if w == 1:  # no trace term
            return terms, w
        raised = fock._bumped(state, row, color, 1)
        return [(s, c + 1 if s == raised else c) for s, c in terms], w + shift

    monkeypatch.setattr(su3x, "_dressed_on_basis", wrong)
    failed = {r.check_id for r in run_suite(suite, **bounds) if not r.passed}
    assert failed == {r.check_id for r in records if r.check_id.startswith(broken)}
    assert len(failed) == 4


def test_perturbed_gluing_coefficient_fails_the_iterative_suite(monkeypatch):
    records = run_suite("iterative")
    assert records and all(r.passed for r in records)
    original = isb._annihilate_on_basis

    def g1_doubled(k, alpha, top, state):
        # at rank 4 only the gluing route caps an annihilation at row 2: its G1 branch
        terms, den = original(k, alpha, top, state)
        if state.n == 4 and top == 2:
            terms = [(s, 2 * c) for s, c in terms]
        return terms, den

    monkeypatch.setattr(isb, "_annihilate_on_basis", g1_doubled)
    failed = [r.check_id for r in run_suite("iterative") if not r.passed]
    assert failed == [r.check_id for r in records if r.check_id.startswith("iterative-gluing[")]
    assert len(failed) == 3


# --- negative controls: each suite, perturbed at one operator, fails exactly where expected


def _rows(check_id):
    """The diagram rows a label check id names."""
    return tuple(map(int, re.findall(r"\d+", check_id.split("rows=")[1])))


def _failures_when_perturbed(monkeypatch, suite, module, name, perturb):
    """(unperturbed records, failing ids once module.name is replaced by perturb(original))."""
    records = run_suite(suite, n_max=3)
    assert records and all(r.passed for r in records)
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    return records, [r.check_id for r in run_suite(suite, n_max=3) if not r.passed]


def _annihilate_overcounting(original):
    # (m + 1) coeff in place of m coeff once the occupation m exceeds 1
    def annihilate(i, alpha, psi):
        terms = {}
        for s, c in psi.terms.items():
            m = s.occ[i - 1][alpha - 1]
            if m:
                terms[fock._bumped(s, i, alpha, -1)] = (m + 1 if m > 1 else m) * c
        return fock.Ket(psi.n, terms)

    return annihilate


def _unweighted_inner_product(original):
    return lambda phi, psi: Fraction(sum(c * psi.terms.get(s, 0) for s, c in phi.terms.items()))


@pytest.mark.parametrize(
    "name, perturb, broken",
    [
        ("apply_annihilate", _annihilate_overcounting, ("canonical-commutators[", "ladder-adjointness[")),
        ("inner_product", _unweighted_inner_product, ("ladder-adjointness[",)),
    ],
)
def test_fock_suite_fails_on_a_wrong_ladder_or_weight(monkeypatch, name, perturb, broken):
    records, failed = _failures_when_perturbed(monkeypatch, "fock", checks, name, perturb)
    assert failed == [r.check_id for r in records if r.check_id.startswith(broken)]
    assert set(failed) >= {"ladder-adjointness[N=2]", "ladder-adjointness[N=3]"}


def _l12_doubled(original):
    return lambda i, j, psi: original(i, j, psi) * 2 if (i, j) == (1, 2) else original(i, j, psi)


def _offdiagonal_recolors_row_one_only(original):
    def generator(alpha, beta, psi):
        if alpha == beta:
            return original(alpha, beta, psi)
        terms = {}
        for s, c in psi.terms.items():
            m = s.occ[0][beta - 1]
            if m:
                terms[fock._recolored(s, 1, beta, alpha)] = m * c
        return fock.Ket(psi.n, terms)

    return generator


@pytest.mark.parametrize(
    "name, perturb, broken",
    [
        # a scaled Q[1,2], or Q[1,1] shifted by a constant, still commutes with every L[i,j]
        ("invariant_action", _l12_doubled, ["bilinear-algebra[N=3]"]),
        ("generator_action", _offdiagonal_recolors_row_one_only, ["generator-commutant[N=3]"]),
    ],
)
def test_algebra_suite_fails_on_a_wrong_bilinear_or_generator(monkeypatch, name, perturb, broken):
    _, failed = _failures_when_perturbed(monkeypatch, "algebra", checks, name, perturb)
    assert failed == broken


def _bare_monomials(original):
    def build(label, idx):
        psi = fock.vacuum(label.n)
        for row, colors in enumerate(idx, start=1):
            for alpha in colors:
                psi = fock.apply_create(row, alpha, psi)
        return psi

    return build


def test_constraints_suite_fails_on_bare_monomials(monkeypatch):
    records, failed = _failures_when_perturbed(
        monkeypatch, "constraints", checks, "build_monomial", _bare_monomials
    )
    # a bare monomial violates L[1,2] as soon as row 2 holds a box
    assert failed == [r.check_id for r in records if _rows(r.check_id)[1:] > (0,)]
    assert len(failed) == 6


def test_multiplicity_suite_fails_on_a_doubled_creation(monkeypatch):
    def doubled(original):
        return lambda k, alpha, psi: original(k, alpha, psi) * 2 if alpha == 1 else original(k, alpha, psi)

    records, failed = _failures_when_perturbed(monkeypatch, "multiplicity", checks, "isb_create", doubled)
    # the diagonal products stop being one scalar on any box; the off-diagonal ones, which
    # exist from rank 3, stop vanishing from two boxes
    expected = [
        r.check_id
        for r in records
        if (r.check_id.startswith("diagonal-invariant-scalars[") and sum(_rows(r.check_id)) >= 1)
        or (r.check_id.startswith("offdiagonal-invariants[N=3,") and sum(_rows(r.check_id)) >= 2)
    ]
    assert failed == expected
    assert len(failed) == 19


def test_multiplicity_diagonal_witness_names_the_product(monkeypatch):
    # at rank 2, A+[1]^1 doubled makes A+[1].A[1] q plus the quanta of color 1, not q: ket 1 holds one
    def doubled(k, alpha, psi, original=checks.isb_create):
        return original(k, alpha, psi) * 2 if alpha == 1 else original(k, alpha, psi)

    monkeypatch.setattr(checks, "isb_create", doubled)
    witnesses = _failed_witnesses("multiplicity", n_max=2)
    assert witnesses == {
        f"diagonal-invariant-scalars[N=2,rows=({q},)]": f"A+[1].A[1] on the basis: scalar {q + 1} on ket 1 differs from {q}"
        for q in (4, 3, 2, 1)
    }


def _annihilation_with_half_bare_row_one(original):
    # A[1] + 1/2 a[1]: the bare part leaves the ordered regime, where a dressed creation is singular
    def annihilate(k, alpha, psi):
        image = original(k, alpha, psi)
        return image + fock.apply_annihilate(1, alpha, psi) * Fraction(1, 2) if k == 1 else image

    return annihilate


def test_multiplicity_suite_reports_a_singular_product(monkeypatch):
    records = run_suite("multiplicity", n_max=3)
    assert records and all(r.passed for r in records)
    monkeypatch.setattr(checks, "isb_annihilate", _annihilation_with_half_bare_row_one(checks.isb_annihilate))
    perturbed = run_suite("multiplicity", n_max=3)
    assert [r.check_id for r in perturbed] == [r.check_id for r in records]
    singular = "A+[2].A[1] on basis[0]: singular dressing coefficient for row pair (2, 1) at totals"
    assert {r.check_id: r.witness for r in perturbed if not r.passed} == {
        "offdiagonal-invariants[N=3,rows=(4, 0)]": "A[1].A+[2] on basis[0]",
        "offdiagonal-invariants[N=3,rows=(3, 1)]": "A[1].A+[2] on basis[0]",
        "offdiagonal-invariants[N=3,rows=(3, 0)]": "A[1].A+[2] on basis[0]",
        "offdiagonal-invariants[N=3,rows=(2, 2)]": f"{singular} (1, 3)",
        "diagonal-invariant-scalars[N=3,rows=(2, 2)]": f"{singular} (1, 3)",
        "offdiagonal-invariants[N=3,rows=(2, 1)]": "A[1].A+[2] on basis[0]",
        "offdiagonal-invariants[N=3,rows=(2, 0)]": "A[1].A+[2] on basis[0]",
        "offdiagonal-invariants[N=3,rows=(1, 1)]": f"{singular} (0, 2)",
        "diagonal-invariant-scalars[N=3,rows=(1, 1)]": f"{singular} (0, 2)",
        "offdiagonal-invariants[N=3,rows=(1, 0)]": "A[1].A+[2] on basis[0]",
    }


def singular_from_rank_3(original):
    """The dressed creation the monomial walk calls, raising on every rank-3 ket."""

    def create(k, alpha, psi):
        if psi.n == 3:
            raise isb.SingularCoefficientError("singular dressing coefficient (injected)")
        return original(k, alpha, psi)

    return create


def test_a_singular_coefficient_aborts_the_suite_with_one_failed_record(monkeypatch):
    rank_2 = [r for r in run_suite("constraints", n_max=3) if r.check_id.startswith("constraint-null[N=2,")]
    assert rank_2 and all(r.passed for r in rank_2)
    # constraints reaches isb_create through checks.build_monomial and the irreps walk
    monkeypatch.setattr(irreps, "isb_create", singular_from_rank_3(irreps.isb_create))
    witness = (
        "SingularCoefficientError: singular dressing coefficient (injected)"
        f" (last completed check: {rank_2[-1].check_id})"
    )
    assert run_suite("constraints", n_max=3) == rank_2 + [CheckRecord("constraints-aborted", False, witness)]


def test_a_suite_aborted_before_any_check_names_none(monkeypatch):
    monkeypatch.setattr(irreps, "isb_create", singular_from_rank_3(irreps.isb_create))
    (record,) = run_suite("octet")
    assert record.check_id == "octet-aborted" and not record.passed
    assert record.witness.endswith("(last completed check: none)")


@pytest.mark.parametrize("name, op", [("isb_annihilate", "A[2]_3"), ("isb_create", "A+[2]^3")])
def test_multiplicity_witness_names_the_singular_single_operator(monkeypatch, name, op):
    original = getattr(checks, name)

    def singular_at_row_2_color_3(j, g, psi):
        if (j, g) == (2, 3):
            raise isb.SingularCoefficientError("vanishing denominator")
        return original(j, g, psi)

    monkeypatch.setattr(checks, name, singular_at_row_2_color_3)
    records = run_suite("multiplicity", n_max=3)
    # rank 2 has no row 2; every rank-3 label fails both checks on its first basis vector
    assert all(r.passed for r in records if "N=2," in r.check_id)
    rank3 = [r for r in records if "N=3," in r.check_id]
    assert rank3 and {r.witness for r in rank3} == {f"{op} on basis[0]: vanishing denominator"}


def _dressing_denominator_shifted(original):
    # n_i - n_k + 2 + k - i: every dressing denominator one too large
    return lambda k, i, totals: original(k, i, totals) + 1


@pytest.mark.parametrize(
    "module, name, perturb",
    [(checks, "build_monomial", _bare_monomials), (isb, "_dressing_den", _dressing_denominator_shifted)],
    ids=["bare-monomials", "shifted-denominator"],
)
def test_octet_suite_fails_on_bare_monomials_or_a_shifted_dressing(monkeypatch, module, name, perturb):
    records = run_suite("octet")
    assert [r.check_id for r in records if r.passed] == [f"octet-expansion[beta={b}]" for b in (1, 2, 3)]
    before = isb.creation_coeff(2, 1, (2, 1))
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    if name == "_dressing_den":
        # the public coefficient reads the same rule as the ladders
        assert (before, isb.creation_coeff(2, 1, (2, 1))) == (Fraction(-1, 3), Fraction(-1, 4))
    # the dressed images are memoized per basis state: drop those made with the true coefficient
    isb._create_terms.cache_clear()
    try:
        failed = [r.check_id for r in run_suite("octet") if not r.passed]
    finally:
        isb._create_terms.cache_clear()
    assert failed == [r.check_id for r in records]


def test_casimir_suite_fails_on_a_shifted_diagonal_generator(monkeypatch):
    def shifted(original):
        # the rule of Q[a,a] + 1/7: each term times 7 and the state once more, over 7 den
        def rule(alpha, beta, state):
            terms, den = original(alpha, beta, state)
            if alpha != beta:
                return terms, den
            return [(s, 7 * c) for s, c in terms] + [(state, den)], 7 * den

        return rule

    # the shift adds the constant N/49 to the Casimir, so only the rank-2 closed form sees it
    _, failed = _failures_when_perturbed(monkeypatch, "casimir", algebra, "_generator_on_basis", shifted)
    assert failed == ["casimir-closed-form-rank2"]


def _q12_doubled(original, where=lambda state: True):
    """The generator rule with Q[1,2] doubled on every state for which where(state) holds."""

    def rule(alpha, beta, state):
        terms, den = original(alpha, beta, state)
        if (alpha, beta) == (1, 2) and where(state):
            terms = [(s, 2 * c) for s, c in terms]
        return terms, den

    return rule


def _failed_witnesses(suite, **bounds):
    return {r.check_id: r.witness for r in run_suite(suite, **bounds) if not r.passed}


def test_a_non_scalar_rank2_casimir_fails_its_check(monkeypatch):
    records = run_suite("casimir", n_max=3)
    assert records and all(r.passed for r in records)
    # Q[1,2] doubled where row 1 holds two quanta of color 2: at rank 2, q=2 has two scalars
    perturbed = _q12_doubled(algebra._generator_on_basis, lambda state: state.occ[0][1] == 2)
    monkeypatch.setattr(algebra, "_generator_on_basis", perturbed)
    after = run_suite("casimir", n_max=3)
    assert [r.check_id for r in after] == [r.check_id for r in records]
    witnesses = {r.check_id: r.witness for r in after if not r.passed}
    assert witnesses["casimir-closed-form-rank2"] == "scalar 3 on ket 1 differs from 2"
    # at rank 3 every label whose row 1 takes two boxes holds such a state
    matches = [r.check_id for r in records if r.check_id.startswith("casimir-match[") and _rows(r.check_id)[0] >= 2]
    assert list(witnesses) == ["casimir-closed-form-rank2", *matches] and len(matches) == 9


def test_a_non_scalar_ab_casimir_fails_the_tower_control(monkeypatch):
    records = run_suite("sp2r")
    assert records and all(r.passed for r in records)
    monkeypatch.setattr(su3x, "_ab_generator_on_basis", _q12_doubled(su3x._ab_generator_on_basis))
    after = run_suite("sp2r")
    assert [r.check_id for r in after] == [r.check_id for r in records]
    assert {r.check_id: r.witness for r in after if not r.passed} == {
        "tower-negative-control": "image of ket 0 is not proportional to it"
    }


def test_commutators_suite_fails_on_a_creation_scaled_by_its_quanta(monkeypatch):
    def scaled(original):
        # A+[k]^1 times one more than the number of quanta of the ket it acts on
        def create(k, alpha, psi):
            image = original(k, alpha, psi)
            if alpha != 1 or not psi.terms:
                return image
            return image * (1 + sum(map(sum, next(iter(psi.terms)).occ)))

        return create

    records = run_suite("commutators", n_max=3)
    assert records and all(r.passed for r in records)
    monkeypatch.setattr(checks, "isb_create", scaled(checks.isb_create))
    failed = _failed_witnesses("commutators", n_max=3)
    assert list(failed) == [r.check_id for r in records if r.check_id.startswith("same-row-creation-commutators[")]
    assert len(failed) == 14
    assert all(re.fullmatch(r"\[A\+\[\d\]\^1,A\+\[\d\]\^\d\] on basis\[\d+\]", w) for w in failed.values())


def test_sp2r_suite_fails_on_a_shifted_level(monkeypatch):
    # k0 + 1/2 is central: it breaks [k-,k+] = 2 k0 and keeps [k0,k+-] = +-k+-
    level = su3x.pair_level
    monkeypatch.setattr(su3x, "pair_level", lambda psi: level(psi) + psi / 2)
    failed = _failed_witnesses("sp2r")
    assert list(failed) == ["pair-algebra-relations"]
    assert failed["pair-algebra-relations"].startswith("[k-,k+] on occ=")


def _plus_one_on_two_quanta(original):
    return lambda n, totals: original(n, totals) + 1 if sum(totals) == 2 else original(n, totals)


def _reversed_sector(original):
    return lambda n, totals: original(n, totals)[::-1]


def _doubled_where(where):
    """The perturbation that doubles a coefficient wherever where(*args) holds."""
    return lambda original: lambda *args: original(*args) * 2 if where(*args) else original(*args)


def _half_bare_row_three(original):
    # A+[3] + 1/2 a+[3]: the image leaves the null space, and the gluing route does not follow
    def create(k, alpha, psi):
        image = original(k, alpha, psi)
        return image + fock.apply_create(3, alpha, psi) * Fraction(1, 2) if k == 3 else image

    return create


def _bare_states(original):
    return lambda n, m, alphas, betas: su3x.bare_state(alphas, betas)


def _denominator_shifted_two_rows_apart(original):
    return lambda k, i, totals: original(k, i, totals) + 1 if k - i == 2 else original(k, i, totals)


def _bare_builder_made_traceless(original):
    # the bare family handed to a contraction is swapped for the traceless one, whose contraction vanishes
    def contract(builder, alphas, betas, l, k):
        if builder is su3x.bare_state:
            builder = partial(su3x.traceless_state, len(alphas), len(betas))
        return original(builder, alphas, betas, l, k)

    return contract


def _zero_ket_loaded_as_vacuum(original):
    def loads(text):
        psi = original(text)
        return psi if psi.terms else fock.vacuum(psi.n)

    return loads


def _first_colors(n, m):
    """The witness of the first rank-3 color choice, every color 1."""
    return f"alphas={(1,) * n} betas={(1,) * m}"


def _iterative_failures():
    for totals in checks._ITERATIVE_SECTORS:
        yield f"iterative-gluing[{totals}]", "basis[0] alpha=1"
        yield f"dressed-image-constrained[{totals}]", "basis[0] alpha=1 survives L[1,3]"


@pytest.mark.parametrize(
    "suite, bounds, module, name, perturb, failed",
    [
        (
            "fock", {"n_max": 3}, checks, "sector_size", _plus_one_on_two_quanta,
            {
                "sector-enumeration[N=2]": "count mismatch at totals=(2,)",
                "sector-enumeration[N=3]": "count mismatch at totals=(0, 2)",
            },
        ),
        (
            "fock", {"n_max": 3}, checks, "enumerate_sector", _reversed_sector,
            {
                "sector-enumeration[N=2]": "enumeration out of order at totals=(1,)",
                "sector-enumeration[N=3]": "enumeration out of order at totals=(0, 1)",
            },
        ),
        (
            "recurrence", {}, checks, "annihilation_coeff", _doubled_where(lambda i, k, totals: totals[0] == 2),
            {
                "annihilation-closed-form": "H[2,1] at totals=(2, 2) = 1 != 1/2",
                "first-step-coefficients": "H[2,1](2,1) = 2/3 != 1/3",
            },
        ),
        # the chain recurrence reads the closed forms through isb, not through checks
        (
            "recurrence", {"n_max": 4}, checks, "creation_coeff", _doubled_where(lambda k, i, totals: k == 3),
            {"first-step-coefficients": "F[3,2](2,1,0) = -2/3 != -1/3"},
        ),
        # isb.creation_coeff is bound into verify_recurrence's default when isb is imported, so
        # patching it reaches annihilation-closed-form only: the shared denominator reaches all three
        (
            "recurrence", {"n_max": 4}, isb, "_dressing_den", _denominator_shifted_two_rows_apart,
            {
                "chain-recurrence[N=4]": "closed form broke its recurrence",
                "annihilation-closed-form": "H[3,1] at totals=(6, 6, 6) = 1/4 != 1/3",
                "first-step-coefficients": "F[3,1](2,1,0) = -1/6 != -1/5",
            },
        ),
        (
            "recurrence", {}, checks, "verify_recurrence", lambda original: lambda *args, **kwargs: True,
            {"recurrence-negative-control": "a damaged closed form still satisfied the recurrence"},
        ),
        (
            "traceless", {}, su3x, "trace_contract", _bare_builder_made_traceless,
            {"trace-contraction-negative-control": "the bare monomial contraction vanished"},
        ),
        (
            "serialization", {"n_max": 3}, checks, "loads_ket", _zero_ket_loaded_as_vacuum,
            {
                "round-trip[monomials]": "monomials[30]: byte round trip is not identical",
                "round-trip[iterative-images]": "iterative-images[2]: byte round trip is not identical",
                "round-trip[zero-ket]": "zero-ket[0]: byte round trip is not identical",
            },
        ),
        (
            "traceless", {}, su3x, "trace_coeff", _doubled_where(lambda n, m, r: r == 2),
            {
                "bv-equals-isb[(2,2)]": _first_colors(2, 2),
                "trace-coefficients": "coefficient(2,2,2) = 1/10 != 1/20",
                "trace-contraction[(2,2)]": f"positions (1,1) at {_first_colors(2, 2)}",
            },
        ),
        ("iterative", {}, checks, "isb_create", _half_bare_row_three, dict(_iterative_failures())),
        # at (n, 0) and (0, m) there is no trace to subtract: the bare state is the traceless one
        (
            "sp2r", {}, su3x, "traceless_state", _bare_states,
            {
                **{f"lowest-weight[({n},{m})]": _first_colors(n, m) for n, m in ((1, 1), (1, 2), (2, 1), (2, 2))},
                "tower-negative-control": "image of ket 0 is not proportional to it",
            },
        ),
        (
            "traceless", {}, su3x, "traceless_state", _bare_states,
            {
                **{f"bv-equals-isb[({n},{m})]": _first_colors(n, m) for n, m in checks._BV_CASES},
                **{f"trace-contraction[({n},{m})]": f"positions (1,1) at {_first_colors(n, m)}" for n, m in checks._BV_CASES},
            },
        ),
    ],
    ids=[
        "sector-size", "sector-order", "annihilation-coeff", "creation-coeff", "shifted-denominator",
        "recurrence-always-holds", "traceless-bare-builder", "zero-ket-as-vacuum", "trace-coeff",
        "dressed-creation", "bare-lowest-weight", "bare-traceless",
    ],
)
def test_checks_fail_on_a_perturbed_source(monkeypatch, suite, bounds, module, name, perturb, failed):
    records = run_suite(suite, **bounds)
    assert records and all(r.passed for r in records)
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    assert list(_failed_witnesses(suite, **bounds).items()) == list(failed.items())


def test_an_unknown_suite_is_a_value_error_naming_the_known_ones():
    with pytest.raises(ValueError, match=re.escape(f"unknown suite 'nope'; known: {', '.join(checks.SUITES)}")):
        run_suite("nope")


def test_the_bracket_kernel_skips_a_zero_ket():
    double = {"D": lambda psi: psi * 2}
    # [D, D] = 1 fails on every nonzero ket: D D psi - D D psi is 0, not psi
    brackets = {("D", "D"): {None: 1}}
    assert checks._bracket_witness([("one", fock.vacuum(2))], double, brackets) == "[D,D] on one"
    assert checks._bracket_witness([("zero", fock.zero_ket(2))], double, brackets) is None


def _generator_witness(generator, n, max_quanta):
    """The first failure of [Q_ab, Q_cd] = d_bc Q_ad - d_ad Q_cb on basis states, else None."""
    colors = range(1, n + 1)
    ops = checks._named("Q[{},{}]", generator, product(colors, repeat=2))
    brackets = checks._gl_brackets("Q[{},{}]", colors)
    return checks._bracket_witness(checks._basis_kets(n, max_quanta), ops, brackets)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generators_close_into_gl_n(n):
    assert _generator_witness(algebra.generator_action, n, 2) is None


def test_ab_generators_close_into_gl_3():
    assert _generator_witness(su3x.ab_generator_action, 3, 3) is None


def test_ab_generator_brackets_fail_with_a_flipped_b_row(monkeypatch):
    original = su3x._ab_generator_on_basis

    def flipped(alpha, beta, state):
        # off the diagonal the b-row recolor is the one negative term
        terms, den = original(alpha, beta, state)
        return ([(s, abs(c)) for s, c in terms] if alpha != beta else terms), den

    monkeypatch.setattr(su3x, "_ab_generator_on_basis", flipped)
    witness = _generator_witness(su3x.ab_generator_action, 3, 3)
    assert witness == "[Q[1,2],Q[3,1]] on occ=((0, 0, 0), (0, 0, 1))"
