#!/usr/bin/env python3
"""Builds the benchmark program from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run it from the root of the checkout. The library is compiled from the
checkout's own sources with the repository's CMake settings (Release) into
.bench_build/, which later runs reuse. Build output goes to
.bench_build/build.log; on a failed build the script exits non-zero without
printing a result. Everything else is the program's output, whose last line is
the result JSON (see perfbench/README.md).
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def run(cmd, **kwargs):
    """Runs `cmd` to completion; the child is killed if we are interrupted."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def source_id():
    """A digest of everything the benchmark program is built from (the
    top-level CMakeLists.txt, src/ and perfbench/), committed or not, so
    results of different code are never mistaken for each other. In a git
    checkout the commit is prefixed for the reader."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for base, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            files.extend(os.path.join(base, n) for n in sorted(names))
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    stamp = "sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
        if head.returncode == 0:
            stamp = "git:" + head.stdout.strip() + "+" + stamp
    return stamp


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if run(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                return False
    return os.path.exists(BINARY)


def main():
    if not build():
        with open(os.path.join(BUILD, "build.log")) as log:
            sys.stderr.write(log.read()[-4000:])
        sys.stderr.write("perfbench: build failed\n")
        return 1
    return run([BINARY] + sys.argv[1:] + ["--source", source_id()], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
