"""Verification suites: how much work a sweep repeats."""

from collections import Counter

from sunisb import algebra, checks, su3x
from sunisb.checks import run_suite


def test_casimir_suite_images_each_state_once_per_rank(monkeypatch):
    # casimir_op computes an image from basis_ket(state): count those calls
    imaged = Counter()
    original = algebra.basis_ket

    def counted(state):
        imaged[state] += 1
        return original(state)

    monkeypatch.setattr(algebra, "basis_ket", counted)
    records = run_suite("casimir", n_max=3)
    assert records and all(r.passed for r in records)
    assert {state.n for state in imaged} == {2, 3}
    assert max(imaged.values()) == 1


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
