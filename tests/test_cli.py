"""Command line behavior: output shapes, exit codes, file output."""

import json
from pathlib import Path

from sunisb.cli import main
from sunisb.fock import loads_ket
from sunisb.irreps import IrrepLabel, build_monomial

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

    def test_unknown_suite_rejected(self, capsys):
        import pytest

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
        code, _, err = run(capsys, "compare-su3", "--n", "4", "--rows", "1,1,0")
        assert code == 2
        assert "error" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code = main(["--out", str(target), "dim", "--n", "2", "--rows", "2"])
    capsys.readouterr()
    assert code == 0
    assert target.read_text().strip() == "3 3 3 agree"
