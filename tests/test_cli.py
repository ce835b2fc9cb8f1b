"""Command line behavior: output shapes, exit codes, file output."""

import json
import re
from pathlib import Path

import pytest

from sunisb import checks, irreps, linalg, su3x
from sunisb.cli import main
from sunisb.fock import dumps_ket, loads_ket
from sunisb.irreps import IrrepLabel, build_monomial
from sunisb.isb import SingularCoefficientError

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDim:
    def test_octet_plain(self, capsys):
        code, out, _ = run(capsys, "dim", "--n", "3", "--rows", "2,1")
        assert code == 0
        assert out.strip() == "8 8 8 agree"

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "dim", "--n", "4", "--rows", "1,1,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["weyl"] == doc["nullspace"] == doc["monomial_rank"] == 6
        assert doc["agree"] is True

    @pytest.mark.parametrize("n, rows", [(3, "2,1"), (4, "2,1,0"), (5, "1,1,0,0")])
    @pytest.mark.parametrize("faulty", [False, True], ids=["exact", "faulty-eliminator"])
    def test_outputs_carry_the_dimensions_suite_triple(self, capsys, monkeypatch, n, rows, faulty):
        if faulty:
            real = linalg._relations

            def first_dependent(vectors):
                # null space and rank share this eliminator, so both drift from the Weyl formula
                return ({0: 1} if pos == 0 else rel for pos, rel in enumerate(real(vectors)))

            monkeypatch.setattr(linalg, "_relations", first_dependent)
        label = IrrepLabel(n, tuple(map(int, rows.split(","))))
        weyl, null, rank = checks._dimension_triple(label)
        agree = weyl == null == rank
        assert agree is not faulty
        code, plain, _ = run(capsys, "dim", "--n", str(n), "--rows", rows)
        assert code == (0 if agree else 1)
        assert plain == f"{weyl} {null} {rank} {'agree' if agree else 'disagree'}\n"
        _, structured, _ = run(capsys, "--format", "structured", "dim", "--n", str(n), "--rows", rows)
        doc = {"n": n, "rows": list(label.rows), "weyl": weyl, "nullspace": null}
        doc |= {"monomial_rank": rank, "agree": agree}
        assert structured == json.dumps(doc, indent=1) + "\n"

    def test_bad_rows_exit_2(self, capsys):
        code, _, err = run(capsys, "dim", "--n", "3", "--rows", "x,y")
        assert code == 2
        assert "error" in err

    def test_increasing_rows_exit_2(self, capsys):
        code, _, err = run(capsys, "dim", "--n", "3", "--rows", "1,2")
        assert code == 2
        assert "error" in err


class TestBuild:
    def test_document_round_trips(self, capsys):
        code, out, _ = run(capsys, "build", "--n", "3", "--rows", "2,1", "--idx", "1,1/2")
        assert code == 0
        psi = loads_ket(out)
        assert psi == build_monomial(IrrepLabel(3, (2, 1)), ((1, 1), (2,)))

    def test_zero_ket_document(self, capsys):
        code, out, _ = run(capsys, "build", "--n", "3", "--rows", "1,1", "--idx", "1/1")
        assert code == 0
        doc = json.loads(out)
        assert doc["terms"] == []

    def test_wrong_index_shape_exit_2(self, capsys):
        code, _, err = run(capsys, "build", "--n", "3", "--rows", "2,1", "--idx", "1/2")
        assert code == 2
        assert "error" in err


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "octet")
        assert code == 0
        assert "suite octet:" in out
        assert "ok" in out

    def test_structured_report(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "verify", "--suite", "recurrence")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 1
        assert reports[0]["suite"] == "recurrence"
        assert reports[0]["passed"] is True
        assert all(check["status"] == "pass" for check in reports[0]["checks"])

    def test_bounds_forwarded(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "fock", "--n-max", "2", "--max-quanta", "2"
        )
        assert code == 0
        assert "suite fock:" in out

    def test_suite_with_no_checks_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "fock", "--n-max", "0")
        assert code == 1
        assert "suite fock: 0/0 checks, FAILED" in out
        code, out, _ = run(capsys, "--format", "structured", "verify", "--suite", "fock", "--n-max", "0")
        assert code == 1
        assert json.loads(out)[0]["passed"] is False

    def test_config_reports_the_bounds_that_ran(self, capsys):
        # an omitted bound reports the suite's keyword default; casimir's None is its per-rank rule
        _, out, _ = run(capsys, "--format", "structured", "verify", "--suite", "fock")
        assert json.loads(out)[0]["config"] == {"n_max": 4, "max_quanta": 6}
        _, out, _ = run(capsys, "--format", "structured", "verify", "--suite", "casimir", "--n-max", "3")
        assert json.loads(out)[0]["config"] == {"n_max": 3, "max_quanta": None}

    def test_negative_bound_exit_2(self, capsys):
        # with no states to check, the pair algebra would pass vacuously
        code, out, err = run(capsys, "verify", "--suite", "sp2r", "--max-quanta", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: max_quanta must be non-negative, got -1\n"

    def test_smallest_sweep_passes(self, capsys):
        # the null-space round trip used to start at rank 3 and find no kets at --n-max 2
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n-max", "2")
        assert code == 0
        assert "FAIL" not in out

    def test_pinned_check_list(self, capsys):
        """Ordered (suite, check id, status) of the whole sweep at --n-max 3."""
        code, out, _ = run(capsys, "--format", "structured", "verify", "--n-max", "3")
        assert code == 0
        got = [[r["suite"], c["id"], c["status"]] for r in json.loads(out) for c in r["checks"]]
        assert got == json.loads((DATA / "verify_n_max_3.json").read_text())

    def test_benchmark_pins_the_same_check_ids(self):
        """The benchmark gates verify-all on the ids of the --n-max 3 pin, in the same order."""
        pinned = json.loads((Path(__file__).parents[1] / "perfbench" / "pinned.json").read_text())
        ids = [check_id for _, check_id, _ in json.loads((DATA / "verify_n_max_3.json").read_text())]
        assert pinned["verify-all"] == ids

    def test_singular_coefficient_fails_the_suite_exit_1(self, capsys, monkeypatch):
        create = irreps.isb_create

        def singular_from_rank_3(k, alpha, psi):
            if psi.n == 3:
                raise SingularCoefficientError("singular dressing coefficient (injected)")
            return create(k, alpha, psi)

        monkeypatch.setattr(irreps, "isb_create", singular_from_rank_3)
        code, out, _ = run(capsys, "--format", "structured", "verify", "--suite", "constraints", "--n-max", "3")
        assert code == 1
        (report,) = json.loads(out)
        aborted = report["checks"][-1]
        assert report["passed"] is False and aborted["id"] == "constraints-aborted"
        assert aborted["status"] == "fail" and "singular dressing coefficient (injected)" in aborted["witness"]
        code, out, _ = run(capsys, "verify", "--suite", "constraints", "--n-max", "3")
        assert code == 1 and "FAILED" in out

    def test_non_scalar_casimir_fails_one_check_exit_1(self, capsys, monkeypatch):
        original = su3x._ab_generator_on_basis

        def q12_doubled(alpha, beta, state):
            terms, den = original(alpha, beta, state)
            return ([(s, 2 * c) for s, c in terms] if (alpha, beta) == (1, 2) else terms), den

        monkeypatch.setattr(su3x, "_ab_generator_on_basis", q12_doubled)
        code, out, _ = run(capsys, "--format", "structured", "verify", "--suite", "sp2r")
        assert code == 1
        (report,) = json.loads(out)
        assert report["suite"] == "sp2r" and report["passed"] is False and len(report["checks"]) == 11
        failed = [c for c in report["checks"] if c["status"] == "fail"]
        assert [c["id"] for c in failed] == ["tower-negative-control"]
        assert failed[0]["witness"] == "image of ket 0 is not proportional to it"

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "bogus"])
        capsys.readouterr()


class TestCompare:
    def test_adjoint(self, capsys):
        code, out, _ = run(capsys, "compare-su3", "--rows", "2,1")
        assert code == 0
        assert "agree" in out
        assert "8 vs 8" in out

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "--format", "structured", "compare-su3", "--rows", "3,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["agree"] is True
        assert doc["nm"] == [2, 1]
        assert doc["two_triplet_dimension"] == 15

    def test_wrong_rank_exit_2(self, capsys):
        code, _, err = run(capsys, "compare-su3", "--rows", "1,1,0")
        assert code == 2
        assert "error" in err

    def test_rank_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare-su3", "--n", "3", "--rows", "2,1"])
        assert exc.value.code == 2
        capsys.readouterr()


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code = main(["--out", str(target), "dim", "--n", "2", "--rows", "2"])
    capsys.readouterr()
    assert code == 0
    assert target.read_text().strip() == "3 3 3 agree"


def test_unwritable_out_exit_2(tmp_path, capsys):
    target = tmp_path / "missing" / "result.txt"
    code, out, err = run(capsys, "--out", str(target), "dim", "--n", "2", "--rows", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


OUT_CASES = [
    ("dim", "--n", "3", "--rows", "2,1"),
    ("build", "--n", "3", "--rows", "2,1", "--idx", "1,1/2"),
    ("verify", "--suite", "octet"),
    ("compare-su3", "--rows", "2,1"),
]


@pytest.mark.parametrize("fmt", ["plain", "structured"])
@pytest.mark.parametrize("argv", OUT_CASES, ids=lambda argv: argv[0])
def test_out_writes_the_stdout_bytes(tmp_path, capsys, fmt, argv):
    code, out, _ = run(capsys, "--format", fmt, *argv)
    target = tmp_path / "result"
    assert main(["--format", fmt, "--out", str(target), *argv]) == code == 0
    assert capsys.readouterr().out == ""
    written = target.read_text(encoding="utf-8")
    if fmt == "structured":
        json.loads(written)
    if argv[0] == "verify":
        # the elapsed time is the one field that differs between two runs
        out, written = (re.sub(r"\d+ ms|\"elapsed_ms\": \d+", "T", text) for text in (out, written))
    assert written == out


BUILD_CASES = [
    (3, (2, 1), ((1, 1), (2,))),
    (4, (2, 1, 1), ((1, 2), (3,), (4,))),
    (5, (2, 2, 1, 0), ((1, 2), (3, 4), (5,), ())),
]


def test_build_prints_the_ket_document_in_both_formats(tmp_path, capsys, monkeypatch):
    # fock alone writes the ket layout: the JSON encoder is never reached
    def encoder_called(*args, **kwargs):
        raise AssertionError("build encoded its document with json.dumps")

    monkeypatch.setattr(json, "dumps", encoder_called)
    target = tmp_path / "ket.json"
    for n, rows, idx in BUILD_CASES:
        expected = dumps_ket(build_monomial(IrrepLabel(n, rows), idx))
        argv = ["build", "--n", str(n), "--rows", ",".join(map(str, rows))]
        argv += ["--idx", "/".join(",".join(map(str, group)) for group in idx)]
        for fmt in ("plain", "structured"):
            assert run(capsys, "--format", fmt, *argv) == (0, expected, "")
            assert main(["--format", fmt, "--out", str(target), *argv]) == 0
            assert capsys.readouterr().out == ""
            assert target.read_bytes() == expected.encode("utf-8")
