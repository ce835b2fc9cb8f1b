"""The benchmark's workloads: their inputs, the calls they time, and their checks.

Each workload is a fixed list of requests per pass.  ``run_request``
is the timed part, a call into sunisb's public API as the command line
would make it; ``check_output`` runs after timing and compares outputs
with exact expected values.  Inputs come only from this module and the
seed, never from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

# ``sunisb verify --suite all`` order.  The sweep runs at --n-max 3: the
# default bounds take about 30 s on a 2-core box, too long to repeat
# within one run, while N <= 3 still drives every suite's code path.
SUITE_NAMES = (
    "fock",
    "algebra",
    "constraints",
    "dimensions",
    "octet",
    "traceless",
    "recurrence",
    "iterative",
    "multiplicity",
    "commutators",
    "sp2r",
    "casimir",
    "serialization",
)
VERIFY_N_MAX = 3

# (request kind, N, rows, expected result).  The frontier of the
# default sweep: N=5 labels with 5 boxes, each request under 2 s so that
# a run holds many of them.  The ROADMAP frontier label N=5 (3,2,1,0)
# is not used: its rank alone takes ~4 s and its Casimir ~26 s, single
# calls too long to measure steadily here.  Five requests whose times
# fall in well separated groups, so that the median and 90th percentile
# over a run land inside a group rather than in a gap between two.
FRONTIER = (
    ("dim", 5, (2, 2, 1, 0), (75, 75, 75)),
    ("dim", 5, (3, 2, 0, 0), (175, 175, 175)),
    ("casimir", 5, (4, 1, 0, 0), Fraction(15)),
    ("casimir", 5, (3, 2, 0, 0), Fraction(12)),
    ("compare-su3", 3, (6, 3), (64, 64, Fraction(15), Fraction(15))),
)

BUILD_PER_LABEL = 2
BUILD_RANKS = (5, 6)
BUILD_BOXES = (6, 8)

WORKLOADS = ("verify-all", "frontier", "build-sample")


def _young_rows(n: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Weakly decreasing (n-1)-tuples with lo..hi boxes, longest rows first."""

    def shapes(slots, cap, budget):
        if slots == 0:
            yield ()
            return
        for r in range(min(cap, budget), -1, -1):
            for rest in shapes(slots - 1, r, budget - r):
                yield (r,) + rest

    return [rows for rows in shapes(n - 1, hi, hi) if sum(rows) >= lo]


BUILD_LABELS = tuple((n, rows) for n in BUILD_RANKS for rows in _young_rows(n, *BUILD_BOXES))


def build_requests(seed: int, pass_index: int) -> list[tuple]:
    """Seeded monomials: every label BUILD_PER_LABEL times with uniform colors,
    sorted within each row, sent in an order set by the seed and the pass.

    The monomials themselves are one fixed seeded draw, the same in
    every pass and run.  One build in a few hundred costs 100x the
    median, so a pass's total depends mostly on which monomials it
    holds; a new draw per pass or per seed made runs differ by the luck
    of the draw rather than by the program.  Labels are stratified (each
    equally often) for the same reason.  The order still changes what
    the caches hold when each request arrives.
    """
    colors = random.Random("build-sample")
    out = []
    for n, rows in BUILD_LABELS * BUILD_PER_LABEL:
        idx = tuple(tuple(sorted(colors.randint(1, n) for _ in range(r))) for r in rows)
        out.append(("build", n, rows, idx))
    random.Random(f"build-sample:{seed}:{pass_index}").shuffle(out)
    return out


def requests(workload: str, seed: int, pass_index: int) -> list[tuple]:
    """The requests of one pass.  Only build-sample depends on the seed."""
    if workload == "verify-all":
        return [("suite", name) for name in SUITE_NAMES]
    if workload == "frontier":
        return [step[:3] for step in FRONTIER]
    if workload == "build-sample":
        return build_requests(seed, pass_index)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def request_kind(request: tuple) -> str:
    return f"suite.{request[1]}" if request[0] == "suite" else request[0]


def run_request(request: tuple):
    """The timed call: what one sunisb command does, minus argument parsing and output."""
    from sunisb import checks, fock, irreps, su3x

    kind = request[0]
    if kind == "suite":
        return checks.run_suite(request[1], n_max=VERIFY_N_MAX)
    label = irreps.IrrepLabel(request[1], request[2])
    if kind == "dim":
        return (
            irreps.weyl_dimension(label),
            irreps.nullspace_dimension(label),
            irreps.monomial_rank(label),
        )
    if kind == "casimir":
        return irreps.casimir_eigenvalue(label)
    if kind == "compare-su3":
        result = su3x.compare_languages(label)
        return (
            result.two_triplet_dimension,
            result.ab_dimension,
            result.two_triplet_casimir,
            result.ab_casimir,
        )
    if kind == "build":
        psi = irreps.build_monomial(label, request[3])
        return psi, fock.dumps_ket(psi)
    raise ValueError(f"unknown request kind {kind!r}")


def check_output(request: tuple, output) -> tuple[bool, str, list[str]]:
    """(passed, canonical text of the output, check ids).  Runs outside the timed region."""
    from sunisb import fock, irreps

    kind = request[0]
    if kind == "suite":
        ids = [r.check_id for r in output]
        failures = [r.check_id for r in output if not r.passed]
        text = json.dumps([[r.check_id, r.passed] for r in output])
        return not failures and bool(output), text, ids
    if kind == "build":
        psi, doc = output
        ok = fock.loads_ket(doc) == psi and irreps.constraint_residual(psi).satisfied
        return ok, doc, []
    expected = next(step[3] for step in FRONTIER if step[:3] == request)
    return output == expected, repr(output), []


def digest(texts: list[str]) -> str:
    """SHA-256 of the outputs as a set, so it does not depend on request order."""
    h = hashlib.sha256()
    for text in sorted(texts):
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()
