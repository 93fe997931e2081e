#!/usr/bin/env python3
"""Build and run the pvfp benchmark.

    python3 perfbench/run.py --workload <city_cold|city_rerank|serve_zipf>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds
the pvfp library from src/ together with the benchmark program
(perfbench/CMakeLists.txt) into .bench_build/; later runs only check
that the build is current.  Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "pvfp_perfbench")


def build():
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "pvfp_perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    for required in ("BENCHMARK.json", "perfbench/config.json", "src/CMakeLists.txt"):
        if not os.path.isfile(required):
            print(f"run.py: {required} not found; run from the root of a "
                  "pvfp checkout", file=sys.stderr)
            return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
