#!/usr/bin/env python3
"""Repository benchmark: one serving workload through the whole bjrw stack.

Run from the repository root:

    python3 perfbench/run.py --workload read_batch --seed 1 --seconds 10 --trace 0

Builds the C++ benchmark (perfbench/serve_bench.cpp) against the checkout's sources
into $CARGO_TARGET_DIR (default .bench_build), runs it, checks that its
result carries exactly the metrics BENCHMARK.json declares for the chosen
trace mode, and prints that result as the last stdout line:

    {"correct": true, "attempted": n, "failed": n, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes per-request client spans under .bench_out/).  Exits non-zero, printing
no result, when the build, the run or the result check fails.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_root):
    """Configures once, then brings the benchmark binary up to date; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    cmake_out = {"stdout": sys.stderr, "stderr": sys.stderr}
    # Concurrent runs in one checkout share the build tree.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            if not os.path.exists(os.path.join(build_dir, "Makefile")):
                subprocess.run(
                    ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    check=True, timeout=BUILD_TIMEOUT_S, **cmake_out)
            subprocess.run(
                ["cmake", "--build", build_dir, "--target", "serve_bench",
                 "-j", "4"],
                check=True, timeout=BUILD_TIMEOUT_S, **cmake_out)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build failed: {e}")
    return os.path.join(build_dir, "serve_bench")


def check_result(result, expected):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {result!r}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"metrics {sorted(metrics)} differ from {sorted(expected)}")
    for name, unit in expected.items():
        m = metrics[name]
        value = m.get("value")
        if m.get("unit") != unit or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail(f"metric {name} is malformed: {m!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    layer = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in layer}

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(os.path.join(ROOT, build_root))

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"serve_bench exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"serve_bench exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("serve_bench printed no result")
    check_result(result, expected)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
