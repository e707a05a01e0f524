#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
compiles the library from ../src) into $CARGO_TARGET_DIR, default
.bench_build (a relative path is taken from the repository root), then
runs the benchmark binary. The binary's standard output is passed
through; its last line is the result object. Traced runs write their
spans to .bench_run/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rollout_zoo", "tier_dup")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are missing")
    out = os.path.join(ROOT,
                       os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: build timed out")
        if rc != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 60:
        sys.exit("perfbench: --seed must be >= 0 and --seconds in 1..60")
    binary = build()
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        cmd += ["--trace-out", os.path.join(
            ".bench_run", f"trace-{a.workload}-{a.seed}.json")]
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(rc)


if __name__ == "__main__":
    main()
