#!/usr/bin/env python3
"""Builds and runs the serving-stack benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds a Release tree in .bench_build/ (the
qon library from src/ plus the benchmark in perfbench/src/); later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero without a result when
the build fails, e.g. in a directory that holds no src/.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
SOURCE = os.path.join(ROOT, "perfbench")


def build():
    configure = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
