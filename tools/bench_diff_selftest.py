#!/usr/bin/env python3
"""Selftest for tools/bench_diff: fabricates google-benchmark JSON pairs and
asserts the gate's behavior — pass on stable numbers, nonzero exit on a
synthetic regression or on differing num_cpus under --check, report-only
without --check, and mean aggregates taking precedence over repetition
rows.

Invoked by ctest as:
    bench_diff_selftest.py <python3> <path/to/bench_diff>
"""

import json
import os
import subprocess
import sys
import tempfile


def write_bench_json(path, times, aggregates=None, num_cpus=1):
    """times: {run_name: real_time_ns} plain rows; aggregates adds
    {run_name: mean_ns} rows tagged aggregate_name="mean"; num_cpus goes
    into the context."""
    benchmarks = []
    for name, t in times.items():
        benchmarks.append({
            "name": name,
            "run_name": name,
            "real_time": t,
            "cpu_time": t,
            "time_unit": "ns",
        })
    for name, t in (aggregates or {}).items():
        benchmarks.append({
            "name": name + "_mean",
            "run_name": name,
            "aggregate_name": "mean",
            "real_time": t,
            "cpu_time": t,
            "time_unit": "ns",
        })
    with open(path, "w") as f:
        json.dump({"context": {"num_cpus": num_cpus},
                   "benchmarks": benchmarks}, f)


def run(bench_diff_cmd, *args):
    proc = subprocess.run(
        bench_diff_cmd + list(args), capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    if len(sys.argv) != 3:
        sys.exit("usage: bench_diff_selftest.py <python3> <bench_diff>")
    bench_diff_cmd = [sys.argv[1], sys.argv[2]]
    failures = []

    def check(label, condition, detail=""):
        if condition:
            print(f"ok: {label}")
        else:
            failures.append(label)
            print(f"FAIL: {label}\n{detail}")

    with tempfile.TemporaryDirectory() as tmp:
        baseline = os.path.join(tmp, "baseline.json")
        stable = os.path.join(tmp, "stable.json")
        regressed = os.path.join(tmp, "regressed.json")
        write_bench_json(baseline, {"BM_Fast": 100.0, "BM_Slow": 1000.0})
        # 5% drift: within a 10% threshold.
        write_bench_json(stable, {"BM_Fast": 105.0, "BM_Slow": 950.0})
        # BM_Slow 50% slower: a clear regression.
        write_bench_json(regressed, {"BM_Fast": 100.0, "BM_Slow": 1500.0})

        code, out = run(bench_diff_cmd, "--check", baseline, stable)
        check("stable run passes --check", code == 0, out)
        check("both core counts are printed",
              "num_cpus: baseline 1, fresh 1" in out, out)

        # Identical timings from another core count: the gate refuses the
        # comparison and names both counts; report-only mode still prints.
        other_host = os.path.join(tmp, "other_host.json")
        write_bench_json(other_host, {"BM_Fast": 100.0, "BM_Slow": 1000.0},
                         num_cpus=4)
        code, out = run(bench_diff_cmd, "--check", baseline, other_host)
        check("differing num_cpus fails --check", code != 0, out)
        check("the failure names both core counts",
              "num_cpus differs: baseline 1, fresh 4" in out, out)
        code, out = run(bench_diff_cmd, baseline, other_host)
        check("differing num_cpus is report-only without --check",
              code == 0 and "num_cpus differs" in out, out)

        code, out = run(bench_diff_cmd, "--check", baseline, regressed)
        check("regressed run fails --check", code != 0, out)
        check("regression names the benchmark", "BM_Slow" in out, out)

        code, out = run(bench_diff_cmd, baseline, regressed)
        check("report-only mode always exits 0", code == 0, out)
        check("report-only mode still flags it", "REGRESSED" in out, out)

        code, out = run(
            bench_diff_cmd, "--check", "--threshold=60", baseline, regressed)
        check("raised threshold tolerates the 50% delta", code == 0, out)

        # Aggregate files: the mean row represents the benchmark even when
        # noisy per-repetition rows are present.
        agg_base = os.path.join(tmp, "agg_base.json")
        agg_fresh = os.path.join(tmp, "agg_fresh.json")
        write_bench_json(agg_base, {}, aggregates={"BM_Epoch/0": 200.0})
        write_bench_json(agg_fresh, {"BM_Epoch/0": 900.0},
                         aggregates={"BM_Epoch/0": 210.0})
        code, out = run(bench_diff_cmd, "--check", agg_base, agg_fresh)
        check("mean aggregate wins over repetition rows", code == 0, out)

        # Disjoint benchmark sets are an error, not a silent pass.
        disjoint = os.path.join(tmp, "disjoint.json")
        write_bench_json(disjoint, {"BM_Other": 50.0})
        code, out = run(bench_diff_cmd, "--check", baseline, disjoint)
        check("disjoint sets fail loudly", code != 0, out)

    if failures:
        sys.exit(f"{len(failures)} selftest assertion(s) failed")
    print("bench_diff selftest passed")


if __name__ == "__main__":
    main()
