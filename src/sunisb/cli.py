"""Command line front end.

Four subcommands:

* ``dim``          cross-checked dimension of one representation label
* ``build``        one dressed monomial as a ket document on stdout
* ``verify``       run verification suites, exit 0 only if all checks pass
* ``compare-su3``  rank-3 two-row labels in both oscillator languages

Every number printed is exact; ``--format structured`` switches the
output to JSON for scripting.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Sequence

from . import su3x
from .checks import SUITES, CheckRecord, run_suite
from .fock import dumps_ket
from .irreps import IrrepLabel, build_monomial, monomial_rank, nullspace_dimension, weyl_dimension

__all__ = ["Report", "main"]


@dataclass(frozen=True)
class Report:
    """One suite run: its records, wall time, and the bounds it ran with."""

    suite: str
    records: tuple[CheckRecord, ...]
    elapsed_ms: int
    config: dict

    @property
    def passed(self) -> bool:
        """True when every check passed; a suite that ran no checks fails."""
        return bool(self.records) and all(r.passed for r in self.records)

    def to_document(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_ms": self.elapsed_ms,
            "config": dict(self.config),
            "checks": [
                {"id": r.check_id, "status": "pass" if r.passed else "fail", "witness": r.witness}
                for r in self.records
            ],
        }


def _parse_rows(text: str) -> tuple[int, ...]:
    try:
        rows = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"rows must be comma-separated integers, got {text!r}") from None
    return rows


def _parse_index(text: str) -> tuple[tuple[int, ...], ...]:
    groups = []
    for chunk in text.split("/"):
        if chunk == "":
            groups.append(())
            continue
        try:
            groups.append(tuple(int(part) for part in chunk.split(",")))
        except ValueError:
            raise ValueError(f"bad color group {chunk!r} in index {text!r}") from None
    return tuple(groups)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _cmd_dim(args: argparse.Namespace) -> int:
    label = IrrepLabel(args.n, _parse_rows(args.rows))
    weyl = weyl_dimension(label)
    null = nullspace_dimension(label)
    rank = monomial_rank(label)
    agree = weyl == null == rank
    if args.format == "structured":
        text = json.dumps(
            {
                "n": label.n,
                "rows": list(label.rows),
                "weyl": weyl,
                "nullspace": null,
                "monomial_rank": rank,
                "agree": agree,
            },
            indent=1,
        )
    else:
        text = f"{weyl} {null} {rank} {'agree' if agree else 'disagree'}"
    _emit(text, args.out)
    return 0 if agree else 1


def _cmd_build(args: argparse.Namespace) -> int:
    label = IrrepLabel(args.n, _parse_rows(args.rows))
    index = _parse_index(args.idx)
    psi = build_monomial(label, index)
    _emit(dumps_ket(psi), args.out)
    return 0


def _format_plain_reports(reports: list[Report]) -> str:
    lines = []
    for report in reports:
        for record in report.records:
            if not record.passed:
                witness = f" ({record.witness})" if record.witness else ""
                lines.append(f"FAIL {record.check_id}{witness}")
        good = sum(r.passed for r in report.records)
        status = "ok" if report.passed else "FAILED"
        lines.append(
            f"suite {report.suite}: {good}/{len(report.records)} checks, "
            f"{status}, {report.elapsed_ms} ms"
        )
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    bounds = {"n_max": args.n_max, "max_quanta": args.max_quanta}
    reports = []
    for name in names:
        start = time.perf_counter()
        records = run_suite(name, **bounds)
        elapsed = int((time.perf_counter() - start) * 1000)
        reports.append(Report(name, tuple(records), elapsed, bounds))
    if args.format == "structured":
        text = json.dumps([report.to_document() for report in reports], indent=1)
    else:
        text = _format_plain_reports(reports)
    _emit(text, args.out)
    return 0 if all(report.passed for report in reports) else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    label = IrrepLabel(args.n, _parse_rows(args.rows))
    if label.n != 3:
        raise ValueError("the two-language comparison is a rank-3 construction")
    result = su3x.compare_languages(label)
    if args.format == "structured":
        text = json.dumps(
            {
                "rows": list(label.rows),
                "nm": list(result.nm),
                "two_triplet_dimension": result.two_triplet_dimension,
                "ab_dimension": result.ab_dimension,
                "two_triplet_casimir": str(result.two_triplet_casimir),
                "ab_casimir": str(result.ab_casimir),
                "agree": result.agree,
            },
            indent=1,
        )
    else:
        verdict = "agree" if result.agree else "disagree"
        text = (
            f"[{label.rows[0]},{label.rows[1]}] ~ {result.nm}: "
            f"dimension {result.two_triplet_dimension} vs {result.ab_dimension}, "
            f"casimir {result.two_triplet_casimir} vs {result.ab_casimir}: {verdict}"
        )
    _emit(text, args.out)
    return 0 if result.agree else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunisb",
        description="Exact irreducible-representation constructions on oscillator Fock space.",
    )
    parser.add_argument("--format", choices=("plain", "structured"), default="plain")
    parser.add_argument("--out", default=None, help="write output to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    dim = sub.add_parser("dim", help="dimension of one label, three ways")
    dim.add_argument("--n", type=int, required=True)
    dim.add_argument("--rows", required=True, help="comma-separated row lengths, e.g. 2,1")
    dim.set_defaults(func=_cmd_dim)

    build = sub.add_parser("build", help="build one dressed monomial as a ket document")
    build.add_argument("--n", type=int, required=True)
    build.add_argument("--rows", required=True)
    build.add_argument(
        "--idx",
        required=True,
        help="per-row color groups joined by '/', colors by ',', e.g. 1,2/1",
    )
    build.set_defaults(func=_cmd_build)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    verify.add_argument("--n-max", type=int, default=None, dest="n_max")
    verify.add_argument("--max-quanta", type=int, default=None, dest="max_quanta")
    verify.set_defaults(func=_cmd_verify)

    compare = sub.add_parser("compare-su3", help="rank-3 label in both oscillator languages")
    compare.add_argument("--n", type=int, default=3)
    compare.add_argument("--rows", required=True)
    compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
