#!/usr/bin/env python3
"""The benchmark's own tests: proves each correctness oracle is live.

    python3 perfbench/selftest.py

From the root of a checkout. Builds like run.py, then:

  1. a planted divergence makes every workload report incorrect output
     (one perturbed OBSERVE for serve_churn, one altered objective
     value for opamp_async_b10), with exit status 1;
  2. a run stopped by the time limit in the middle of a unit passes prefix
     parity, and says how many session streams it compared as prefixes;
  3. every check passes on two different seeds, traced and untraced;
  4. without the library sources next to it the benchmark exits non-zero
     without printing a result.

Takes several minutes; exits 1 if any test fails.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

FAILURES = []


def expect(ok, what):
    print("%s: %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        FAILURES.append(what)


def quiet(workload, seed, seconds, trace, plant=None):
    code, result = bench.run_one(workload, seed, seconds, trace, plant,
                                 echo=False)
    return code, result


def planted_divergence():
    for workload, plant in (("opamp_async_b10", "y"),
                            ("serve_churn", "observation")):
        code, result = quiet(workload, 4, 1, 0, plant)
        expect(code == 1 and result is not None and not result["correct"],
               "%s with a planted %s divergence reports incorrect output"
               % (workload, plant))


def prefix_parity():
    """churn units take several seconds: a 12 s limit lands inside one."""
    cmd = [bench.BINARY, "--workload", "serve_churn", "--seed", "6",
           "--seconds", "12", "--trace", "0", "--state-root", bench.STATE_ROOT]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bench.ROOT,
                          timeout=bench.RUN_TIMEOUT_S)
    m = re.search(r"(\d+) compared as prefixes", proc.stdout)
    cut = int(m.group(1)) if m else 0
    expect(proc.returncode == 0 and cut > 0,
           "a run cut by the time limit passes prefix parity "
           "(%d session streams compared as prefixes)" % cut)


def two_seeds():
    for seed in (21, 22):
        for w in bench.benchmark_spec()["workloads"]:
            for trace in (0, 1):
                code, result = quiet(w["name"], seed, 8, trace)
                expect(code == 0 and result is not None and result["correct"]
                       and result["failed"] == 0,
                       "%s seed %d trace %d: every check passes"
                       % (w["name"], seed, trace))


def refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=os.path.join(bench.ROOT,
                                                      ".bench_build")) as d:
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), d)
        shutil.copytree(bench.HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "serve_churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=d, timeout=170)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the library sources the benchmark exits %d and "
               "prints no result" % proc.returncode)


def main():
    bench.build()
    bench.check_metric_lists(bench.benchmark_spec())
    planted_divergence()
    prefix_parity()
    two_seeds()
    refuses_without_sources()
    if FAILURES:
        print("%d selftest(s) failed" % len(FAILURES))
        return 1
    print("all selftests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
