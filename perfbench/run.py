#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/WORKLOADS.md).

One workload, one seed:

    python3 perfbench/run.py --workload serve_churn --seed 3 --seconds 50 --trace 0

prints every metric of the run by name with its unit, runs the workload's
correctness checks, and ends with the JSON result line. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Every workload, traced and untraced, with all checks:

    python3 perfbench/run.py --workload all --seed 1

exits non-zero when any check fails or any run does not report exactly the
metrics BENCHMARK.json lists. --seconds defaults to BENCHMARK.json's
run_seconds.

Run from the root of a checkout. The library is built from the checkout's
sources into .bench_build/ (CMake, RelWithDebInfo, the library's default
build type); each run keeps its session state in a fresh directory under
.bench_build/state/ and removes it when it ends.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
STATE_ROOT = os.path.join(ROOT, ".bench_build", "state")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds the program; output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        log("no library sources next to perfbench/ (expected ../CMakeLists.txt "
            "and ../src); run from a full checkout")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


def check_metric_lists(spec):
    """The program's metric lists must be exactly BENCHMARK.json's."""
    out = subprocess.run([BINARY, "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout.split()
    listed = {"0": [], "1": []}
    for trace, name in zip(out[::2], out[1::2]):
        listed[trace].append(name)
    want = {"0": [m["name"] for m in spec["end_to_end"]],
            "1": [m["name"] for m in spec["per_layer"]]}
    for trace in ("0", "1"):
        if sorted(listed[trace]) != sorted(want[trace]):
            log("metric list mismatch between BENCHMARK.json and the program "
                "for --trace %s: %s vs %s" % (trace, want[trace], listed[trace]))
            sys.exit(2)


def run_one(workload, seed, seconds, trace, plant=None, echo=True):
    """Runs the program once; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--state-root", STATE_ROOT]
    if plant:
        cmd += ["--plant", plant]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 3, None
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def run_all(spec, seed, seconds):
    """Every workload untraced and traced, summarised; 1 on any failure."""
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            t0 = time.time()
            print("=== %s --trace %d" % (w["name"], trace), flush=True)
            code, result = run_one(w["name"], seed, seconds, trace)
            ok = code == 0 and result is not None and result["correct"]
            if not ok:
                failures.append("%s trace %d" % (w["name"], trace))
            print("=== %s --trace %d: %s in %.1f s" % (
                w["name"], trace, "correct" if ok else "FAILED",
                time.time() - t0), flush=True)
    if failures:
        print("FAILED: " + ", ".join(failures), flush=True)
        return 1
    print("all workloads correct, traced and untraced", flush=True)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec = benchmark_spec()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    build()
    check_metric_lists(spec)
    if args.workload == "all":
        return run_all(spec, args.seed, seconds)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %s" % args.workload)
        return 2
    code, _ = run_one(args.workload, args.seed, seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
