#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds perfbench/accbench.exe
with dune (release profile, build directory .bench_build), then runs it with
the same arguments plus a build stamp.  The benchmark prints a report and, as
its last stdout line, one JSON result.  Any failed build or correctness check
exits non-zero without a result.  See perfbench/accbench.ml for the
workloads and the metrics.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/accbench.exe"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    sys.exit("run.py: dune not found")


def git_describe():
    # the ceiling keeps git from searching directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    try:
        build = subprocess.run(
            dune() + ["build", "--root", ".", "--profile", "release",
                      "--build-dir", BUILD_DIR, TARGET],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: build timed out")
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "accbench.exe")
    proc = subprocess.Popen(
        [exe] + sys.argv[1:] + ["--git-describe", git_describe()], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stdout.flush()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
