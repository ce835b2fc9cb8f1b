"""Command line front end.

Four subcommands:

* ``dim``          cross-checked dimension of one representation label
* ``build``        one dressed monomial as a ket document on stdout
* ``verify``       run verification suites, exit 0 only if all checks pass
* ``compare-su3``  rank-3 two-row labels in both oscillator languages

Each subcommand returns a JSON document (``build``: its JSON text),
its plain-text line(s) and a verdict; ``main`` prints the one
``--format`` asks for, to stdout or to ``--out``, and exits 0 on a good
verdict, 1 on a bad one and 2 on bad input or an ``--out`` it cannot
write.  Every number printed is exact.  A ``verify`` document
reports per suite the bounds that ran: each one given, or else the
suite's keyword default.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from typing import Sequence

from . import su3x
from .checks import SUITES, _dimension_triple, run_suite
from .fock import dumps_ket
from .irreps import IrrepLabel, build_monomial

__all__ = ["main"]

Result = tuple[object, str, bool]


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


def _cmd_dim(args: argparse.Namespace) -> Result:
    label = IrrepLabel(args.n, _parse_rows(args.rows))
    weyl, null, rank = _dimension_triple(label)
    agree = weyl == null == rank
    document = {
        "n": label.n,
        "rows": list(label.rows),
        "weyl": weyl,
        "nullspace": null,
        "monomial_rank": rank,
        "agree": agree,
    }
    return document, f"{weyl} {null} {rank} {'agree' if agree else 'disagree'}", agree


def _cmd_build(args: argparse.Namespace) -> Result:
    label = IrrepLabel(args.n, _parse_rows(args.rows))
    psi = build_monomial(label, _parse_index(args.idx))
    # the ket document is the output in both formats, written by fock alone
    text = dumps_ket(psi)
    return text, text, True


def _cmd_verify(args: argparse.Namespace) -> Result:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    given = {"n_max": args.n_max, "max_quanta": args.max_quanta}
    documents, lines = [], []
    for name in names:
        start = time.perf_counter()
        records = run_suite(name, **given)
        elapsed = int((time.perf_counter() - start) * 1000)
        # a suite that ran no checks fails
        passed = bool(records) and all(r.passed for r in records)
        defaults = inspect.signature(SUITES[name]).parameters
        config = {key: defaults[key].default if value is None else value for key, value in given.items()}
        documents.append(
            {
                "suite": name,
                "passed": passed,
                "elapsed_ms": elapsed,
                "config": config,
                "checks": [
                    {"id": r.check_id, "status": "pass" if r.passed else "fail", "witness": r.witness}
                    for r in records
                ],
            }
        )
        for record in records:
            if not record.passed:
                witness = f" ({record.witness})" if record.witness else ""
                lines.append(f"FAIL {record.check_id}{witness}")
        good = sum(r.passed for r in records)
        status = "ok" if passed else "FAILED"
        lines.append(f"suite {name}: {good}/{len(records)} checks, {status}, {elapsed} ms")
    return documents, "\n".join(lines), all(document["passed"] for document in documents)


def _cmd_compare(args: argparse.Namespace) -> Result:
    label = IrrepLabel(3, _parse_rows(args.rows))
    result = su3x.compare_languages(label)
    document = {
        "rows": list(label.rows),
        "nm": list(result.nm),
        "two_triplet_dimension": result.two_triplet_dimension,
        "ab_dimension": result.ab_dimension,
        "two_triplet_casimir": str(result.two_triplet_casimir),
        "ab_casimir": str(result.ab_casimir),
        "agree": result.agree,
    }
    verdict = "agree" if result.agree else "disagree"
    text = (
        f"[{label.rows[0]},{label.rows[1]}] ~ {result.nm}: "
        f"dimension {result.two_triplet_dimension} vs {result.ab_dimension}, "
        f"casimir {result.two_triplet_casimir} vs {result.ab_casimir}: {verdict}"
    )
    return document, text, result.agree


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
    compare.add_argument("--rows", required=True)
    compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        document, plain, ok = args.func(args)
        if args.format == "plain":
            text = plain
        else:
            text = document if isinstance(document, str) else json.dumps(document, indent=1)
        if not text.endswith("\n"):
            text += "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
    except (ValueError, IndexError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
