"""Acceptance gate: twelve headline guarantees, one test and one printed line each.

Every check runs in exact rational arithmetic with zero tolerance; a
criterion passes only if every one of its checks passes.  Run with
``pytest -v`` (test names carry the verdicts) or ``pytest -s`` to see
the printed lines.  Each criterion's ordered check ids and statuses
must also match ``data/verify_default.json``, the pinned list at the
default bounds.
"""

import json
import time
from pathlib import Path

from sunisb.checks import run_suite

PINNED = json.loads((Path(__file__).parent / "data" / "verify_default.json").read_text())


def _run(num: int, title: str, suite: str, budget_s: float | None = None) -> None:
    start = time.perf_counter()
    records = run_suite(suite)
    elapsed = time.perf_counter() - start
    failed = [r for r in records if not r.passed]
    verdict = "PASS" if not failed and (budget_s is None or elapsed <= budget_s) else "FAIL"
    print(f"criterion {num:02d} {title}: {verdict} ({len(records)} checks, {elapsed:.1f}s)")
    detail = "; ".join(f"{r.check_id}: {r.witness}" for r in failed[:4])
    assert not failed, f"criterion {num:02d} failed: {detail}"
    got = [[suite, r.check_id, "pass" if r.passed else "fail"] for r in records]
    assert got == [row for row in PINNED if row[0] == suite], f"criterion {num:02d}: check list moved"
    if budget_s is not None:
        assert elapsed <= budget_s, f"criterion {num:02d} exceeded {budget_s}s ({elapsed:.1f}s)"


def test_criterion_01_every_monomial_satisfies_every_constraint():
    _run(1, "constraint null sweep", "constraints", budget_s=60.0)


def test_criterion_02_dimension_formula_nullspace_and_rank_agree():
    _run(2, "dimension triple agreement", "dimensions", budget_s=300.0)


def test_criterion_03_octet_expansion_matches_term_by_term():
    _run(3, "octet expansion", "octet")


def test_criterion_04_trace_subtracted_states_match_dressed_monomials():
    _run(4, "traceless equivalence", "traceless")


def test_criterion_05_dressing_coefficients_and_recurrence():
    _run(5, "coefficient recurrence", "recurrence")


def test_criterion_06_iterative_gluing_equals_closed_form():
    _run(6, "iterative gluing", "iterative")


def test_criterion_07_dressed_bilinears_reduce_to_number_operators():
    _run(7, "multiplicity freedom", "multiplicity")


def test_criterion_08_dressed_creations_commute():
    _run(8, "creation commutators", "commutators")


def test_criterion_09_noncompact_pair_algebra():
    _run(9, "pair algebra", "sp2r")


def test_criterion_10_casimir_scalars_match():
    _run(10, "casimir agreement", "casimir")


def test_criterion_11_bilinear_algebra_and_group_invariance():
    _run(11, "invariant algebra", "algebra")


def test_criterion_12_serialization_round_trips():
    _run(12, "serialization round trip", "serialization")
