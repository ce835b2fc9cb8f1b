"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest perfbench -q

They take about a minute; the constraint-sweep count traces the
default-bound ``constraints`` suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _traced(code: str) -> dict:
    """Run code in a fresh interpreter under a Tracer bound to ``t``; return its JSON line."""
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "from tracer import Tracer\n"
        "import sunisb\n"
        "t = Tracer()\n"
        "t.install()\n"
        "from sunisb import checks, irreps\n" + code
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload,seed", [("verify-all", 0), ("frontier", 0), ("build-sample", 5)])
def test_traced_results_equal_untraced(workload, seed, tmp_path):
    runner = run.Runner(workload, seed, 0)
    plain = runner.worker(**{"pass": 0, "trace": 0})
    deep = runner.worker(**{"pass": 0, "trace": 1, "spans": str(tmp_path / "spans.bin")})
    assert plain["failed"] == deep["failed"] == 0
    assert plain["digest"] == deep["digest"]
    assert set(deep["layers"]) == set(tracer.layer_metric_names())


def test_octet_monomial_costs_three_creations():
    counts = _traced(
        "irreps.build_monomial(irreps.IrrepLabel(3, (2, 1)), ((1, 2), (3,)))\n"
        "print(json.dumps({'calls': t.self_times()['isb.isb_create'][1],"
        " 'built': t.monomials_built}))\n"
    )
    assert counts == {"calls": 3, "built": 1}


def _all_prefixes() -> tuple[int, int, int]:
    """Creations, distinct (N, prefix) and distinct (label, prefix) of the default
    constraints sweep if every monomial were built to the end."""
    from itertools import product

    calls, by_n, by_label = 0, set(), set()
    for n in range(2, 6):
        for rows in workloads._young_rows(n, 0, 5):
            for idx in product(*(product(range(1, n + 1), repeat=r) for r in rows)):
                seq = (n,)
                for k, colors in enumerate(idx, start=1):
                    for alpha in colors:
                        seq += ((k, alpha),)
                        calls += 1
                        by_n.add(seq)
                        by_label.add((rows, seq))
    return calls, len(by_n), len(by_label)


def test_constraint_sweep_prefix_counts():
    # build_monomial stops after a row that leaves the zero ket, so the
    # sweep makes fewer creations, over fewer prefixes, than a full walk.
    assert _all_prefixes() == (142_896, 29_786, 38_004)
    counts = _traced(
        "assert all(r.passed for r in checks.run_suite('constraints'))\n"
        "print(json.dumps({'calls': t.build_calls, 'prefixes': len(t.build_prefixes),"
        " 'by_label': len(t.build_prefixes_by_label)}))\n"
    )
    assert counts == {"calls": 140_540, "prefixes": 27_680, "by_label": 35_848}


def test_self_time_excludes_child_spans(tmp_path):
    t = tracer.Tracer()

    def child():
        return sum(range(20000))

    def parent():
        return child() + child()

    child = t._span_wrapper("test.child", child)
    parent = t._span_wrapper("test.parent", parent)
    parent()
    path = tmp_path / "spans.bin"
    t.write(path)
    spans = tracer.load_spans(path)
    assert [(name, p) for name, p, _, _ in spans] == [
        ("test.parent", -1),
        ("test.child", 0),
        ("test.child", 0),
    ]
    total = spans[0][3] - spans[0][2]
    children = sum(end - start for _, _, start, end in spans[1:])
    self_time, calls = t.self_times()["test.parent"]
    assert calls == 1
    assert self_time == pytest.approx(total - children, abs=1e-12)


def test_gates_fail_on_shrunk_sweep_and_changed_documents():
    verify = run.Runner("verify-all", 0, 0)
    empty = {"problems": [], "check_ids": [], "digest": "x"}
    assert any("pinned list" in p for p in run.check(verify, [(empty, None)]))
    build = run.Runner("build-sample", 0, 0)
    assert any("pinned digest" in p for p in run.check(build, [(empty, None)]))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.per_layer_names()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "frontier", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
