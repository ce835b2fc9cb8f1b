"""sunisb benchmark: run one workload for a fixed time and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

One client sends one request at a time (a closed loop).  Each pass of
the workload's request list runs in a fresh interpreter
(``worker.py``), because sunisb's caches are process-wide and every
command a user runs starts with them empty.  Passes repeat until the
time is spent, and every reported time is a median over passes or a
percentile over all requests of the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes on the same inputs and prints the
per-layer metrics: medians over the traced passes, the untraced step
times, and the tracing overhead between the two.  Outputs are checked
after timing; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_RUNS = 5
MIN_PASSES = 3
DEADLINE_S = 170
PINNED = json.loads((HERE / "pinned.json").read_text())

FRONTIER_STEPS = {
    "dim": "frontier.dim_s",
    "casimir": "frontier.casimir_s",
    "compare-su3": "frontier.compare_su3_s",
}


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    return (
        tracer.layer_metric_names()
        + [f"checks.suite.{name}_s" for name in workloads.SUITE_NAMES]
        + ["checks.count"]
        + list(FRONTIER_STEPS.values())
        + ["trace.overhead_share", "wall.pass_s", "wall.calibrate_s", "failed_share"]
    )


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_reuse", "_share")):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def worker(self, **job) -> dict:
        job = {"root": str(ROOT), "mode": "pass", "workload": self.workload, "seed": self.seed, **job}
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise RuntimeError("out of time before the next pass")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def passes(self, traced: bool) -> list[tuple[dict, dict | None]]:
        """Run (untraced, traced-or-None) passes until the time is spent."""
        out: list[tuple[dict, dict | None]] = []
        start = time.perf_counter()
        while True:
            index = len(out)
            plain = self.worker(**{"pass": index, "trace": 0})
            deep = None
            if traced:
                spans = str(OUT / f"spans-{self.workload}.bin")
                deep = self.worker(**{"pass": index, "trace": 1, "spans": spans})
            out.append((plain, deep))
            elapsed = time.perf_counter() - start
            per_pass = elapsed / len(out)
            if len(out) >= (1 if traced else MIN_PASSES) and elapsed + per_pass > self.seconds:
                return out


def _median(values):
    return statistics.median(values) if values else 0.0


def _pass_s(run: dict, column: int = 2) -> float:
    """Time of a pass's requests; column 2 is reference-speed time, 1 is wall time."""
    return sum(latency[column] for latency in run["latencies"])


def _step_s(runs: list[dict], kind: str) -> float:
    """Median over passes of the time a pass spends in requests of one kind."""
    return _median([sum(t for k, _, t in r["latencies"] if k == kind) for r in runs])


END_TO_END = {
    "pass_s": "s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def end_to_end(setups: list[dict], runs: list[dict]) -> dict:
    latencies = [t for r in runs for _, _, t in r["latencies"]]
    values = {
        "pass_s": _median([_pass_s(r) for r in runs]),
        "request_p50_ms": statistics.median(latencies) * 1000,
        "request_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000,
        "peak_rss_mb": _median([r["rss_mb"] for r in runs]),
        "setup_s": _median([r["setup_ref_s"] for r in setups + runs]),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(plain: list[dict], deep: list[dict]) -> dict:
    values = {name: _median([r["layers"][name] for r in deep]) for name in tracer.layer_metric_names()}
    for name in workloads.SUITE_NAMES:
        values[f"checks.suite.{name}_s"] = _step_s(plain, f"suite.{name}")
    values["checks.count"] = _median([len(r["check_ids"]) for r in plain])
    for kind, metric in FRONTIER_STEPS.items():
        values[metric] = _step_s(plain, kind)
    values["trace.overhead_share"] = (
        _median([_pass_s(r) for r in deep]) / _median([_pass_s(r) for r in plain]) - 1
    )
    values["wall.pass_s"] = _median([_pass_s(r, 1) for r in plain])
    values["wall.calibrate_s"] = _median([c for r in plain for c in r["calibrate_s"]])
    runs = plain + deep
    values["failed_share"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
    return {name: (values[name], layer_unit(name)) for name in per_layer_names()}


def check(runner: Runner, pairs: list[tuple[dict, dict | None]]) -> list[str]:
    """Problems found in the run's outputs; empty when everything is correct."""
    runs = [run for pair in pairs for run in pair if run is not None]
    problems = [problem for run in runs for problem in run["problems"]]
    for index, (plain, deep) in enumerate(pairs):
        if deep is not None and deep["digest"] != plain["digest"]:
            problems.append(f"pass {index}: traced outputs differ from untraced outputs")
    pinned = PINNED.get(runner.workload)
    if runner.workload == "verify-all" and any(r["check_ids"] != pinned for r in runs):
        problems.append(f"check ids differ from the pinned list of {len(pinned)} checks")
    if runner.workload == "build-sample" and any(r["digest"] != pinned for r in runs):
        problems.append("ket documents differ from the pinned digest")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sunisb" / "__init__.py").is_file():
        print(f"error: no sunisb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        setups = [runner.worker(mode="setup") for _ in range(SETUP_RUNS)]
        pairs = runner.passes(traced=bool(args.trace))
        problems = check(runner, pairs)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    plain = [p for p, _ in pairs]
    deep = [d for _, d in pairs if d is not None]
    metrics = per_layer(plain, deep) if args.trace else end_to_end(setups, plain)
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    runs = plain + deep
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
