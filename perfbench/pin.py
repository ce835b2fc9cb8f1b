"""Regenerate pinned.json: the expected outputs the benchmark checks against.

Usage (from the root of a checkout): python3 perfbench/pin.py

Pins the verify-all check-id list and the digest of the build-sample
ket documents, which are the same in every pass of every run.  Run it only when the
benchmark's inputs change on purpose; a program change that alters
ket documents or the check list must fail the pinned checks instead.
"""

import json
import sys

from run import HERE, Runner


def main() -> int:
    verify = Runner("verify-all", 0, 0).worker(**{"pass": 0, "trace": 0})
    build = Runner("build-sample", 0, 0).worker(**{"pass": 0, "trace": 0})
    pins = {"verify-all": verify["check_ids"], "build-sample": build["digest"]}
    if verify["failed"] or build["failed"]:
        print("refusing to pin: some outputs failed their checks", file=sys.stderr)
        return 1
    (HERE / "pinned.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
