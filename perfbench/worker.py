"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json job>'

sunisb's caches are process-wide, and every ``sunisb`` command a user
runs starts cold, so each pass gets its own interpreter.  The job is a
JSON object with ``root`` (the checkout), ``mode`` ("setup" or
"pass"), and for a pass ``workload``, ``seed``, ``pass``, ``trace`` and
``spans`` (where a traced pass writes its spans).  The result is one
JSON line on stdout.

Machine speed on a shared box drifts by up to 1.7x over minutes and by
+-25% from one second to the next, which no number of repetitions
averages away.  So the worker runs a fixed calibration loop at least
every ``CALIBRATE_EVERY_S`` between requests, and each request's time
is also reported scaled to the reference speed: multiplied by
``REFERENCE_CALIBRATION_S`` over the mean of the calibrations just
before and just after it.
"""

import sys
import time
from fractions import Fraction

CALIBRATE_EVERY_S = 0.5
# The calibration loop's time on the 2-core Xeon box (Python 3.11.7)
# the benchmark was defined on, at the faster of its two speeds.
REFERENCE_CALIBRATION_S = 0.06

_calibrations: list = []  # (start, end) of every calibration run


def calibrate() -> None:
    """A fixed loop of tuple keys, dict updates and Fraction arithmetic,
    the operations sunisb spends its time in.  It does not touch sunisb,
    so its time measures only how fast the machine runs right now."""
    start = time.perf_counter()
    acc: dict = {}
    third = Fraction(1, 3)
    for i in range(20000):
        key = (i % 97, (i * 7) % 13, i % 5)
        acc[key] = acc.get(key, 0) + third * (i % 5)
    _calibrations.append((start, time.perf_counter()))


def scale(start: float, end: float) -> float:
    """Reference speed over the machine's speed around the interval [start, end]."""
    before = [c for c in _calibrations if c[1] <= start][-1]
    after = next(c for c in _calibrations if c[0] >= end)
    mean = (before[1] - before[0] + after[1] - after[0]) / 2
    return REFERENCE_CALIBRATION_S / mean


calibrate()
# Set-up time: importing the package in a fresh interpreter.  Only the
# modules the calibration needs (fractions) are loaded before it.
_setup = (time.perf_counter(),)
import sunisb  # noqa: E402

_setup += (time.perf_counter(),)
calibrate()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def setup_result() -> dict:
    seconds = _setup[1] - _setup[0]
    return {"setup_s": seconds, "setup_ref_s": seconds * scale(*_setup)}


def run_pass(job: dict) -> dict:
    workload, seed, pass_index = job["workload"], job["seed"], job["pass"]
    reqs = workloads.requests(workload, seed, pass_index)
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    outputs, spans = [], []
    clock = time.perf_counter
    for request in reqs:
        if clock() - _calibrations[-1][1] > CALIBRATE_EVERY_S:
            calibrate()
        start = clock()
        try:
            outputs.append((True, workloads.run_request(request)))
        except Exception as err:  # a failed operation is counted, not fatal
            outputs.append((False, f"{type(err).__name__}: {err}"))
        spans.append((start, clock()))
    calibrate()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = setup_result()
    result.update(
        rss_mb=rss_mb,
        latencies=[
            [workloads.request_kind(r), end - start, (end - start) * scale(start, end)]
            for r, (start, end) in zip(reqs, spans)
        ],
        calibrate_s=[end - start for start, end in _calibrations],
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write(Path(job["spans"]))

    failed, problems, texts, check_ids = 0, [], [], []
    for request, (raised_nothing, output) in zip(reqs, outputs):
        if raised_nothing:
            ok, text, ids = workloads.check_output(request, output)
            check_ids += ids
        else:
            ok, text = False, output
        texts.append(json.dumps([list(map(str, request)), text]))
        if not ok:
            failed += 1
            problems.append(f"{request!r}: {text[:200]}")
    result.update(
        attempted=len(reqs),
        failed=failed,
        problems=problems[:5],
        check_ids=check_ids,
        digest=workloads.digest(texts),
    )
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    src = Path(job["root"]).resolve() / "src"
    if Path(sunisb.__file__).resolve().parent.parent != src:
        print(f"sunisb imported from {sunisb.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = setup_result() if job["mode"] == "setup" else run_pass(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
