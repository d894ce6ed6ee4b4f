#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of the checkout:

    python3 perfbench/selftest.py          # serve_full_catalog only (~1 min)
    python3 perfbench/selftest.py --all    # every workload (~6 min)

1. A normal short run is reported correct, with every end-to-end metric.
2. The same run with one reference answer deliberately corrupted
   (--corrupt-expectation) is reported incorrect, with a failure counted.
3. A short traced run (--trace 1) is reported correct, with every per-layer
   metric: the workload reported each layer it must, and nothing else.
4. Outside a full checkout (only BENCHMARK.json and perfbench/), the
   benchmark exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def bench(workload, *extra, trace=0, cwd=ROOT):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "2",
                 "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    if "--all" not in sys.argv:
        workloads = ["serve_full_catalog"]
    failures = 0

    def expect(ok, what):
        nonlocal failures
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        failures += 0 if ok else 1

    for workload in workloads:
        clean = bench(workload)
        result = last_json(clean.stdout)
        expect(clean.returncode == 0 and result is not None
               and result["correct"] and result["failed"] == 0
               and list(result["metrics"]) == names,
               f"{workload}: clean run is correct and reports {names}")
        corrupt = bench(workload, "--corrupt-expectation")
        result = last_json(corrupt.stdout)
        expect(corrupt.returncode == 0 and result is not None
               and not result["correct"] and result["failed"] >= 1,
               f"{workload}: corrupted expectation is reported as a failure")
        traced = bench(workload, trace=1)
        result = last_json(traced.stdout)
        expect(traced.returncode == 0 and result is not None
               and result["correct"] and result["failed"] == 0
               and list(result["metrics"]) == layers,
               f"{workload}: traced run is correct and reports every "
               "per-layer metric")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    alone = bench("serve_full_catalog", cwd=bare)
    expect(alone.returncode != 0 and '"correct"' not in alone.stdout,
           "without the sources the benchmark fails without a result")
    shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
