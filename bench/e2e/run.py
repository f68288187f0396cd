#!/usr/bin/env python3
"""Build pimbench_e2e from this checkout and run it.

    python3 bench/e2e/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py --all [--quick] [--trace 1]

The first run configures bench/e2e (a standalone CMake project over
../../src) and builds it into .bench_build at the checkout root, or into
$CARGO_TARGET_DIR when that is set; later runs rebuild only what changed.
Build output goes to stderr, so stdout carries only the benchmark's metric
lines and, last, its JSON result. All arguments go to pimbench_e2e, which
runs from the checkout root.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(["cmake", "--build", out, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    out = build_dir()
    if not build(out):
        print("run.py: building pimbench_e2e failed", file=sys.stderr)
        return 2
    exe = os.path.join(out, "pimbench_e2e")
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
