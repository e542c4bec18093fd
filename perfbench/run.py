#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload validation_sweep --seed 2007 \
        --seconds 15 --trace 0

It configures and builds perfbench/ (which compiles the repository's src/
libraries) into .bench_build/perfbench, runs the benchmark's statistics
self-test, then runs the benchmark and passes its output through.  The last
line of stdout is the result JSON.  Build output goes to stderr.  Workloads,
metrics and the pinned references are described in perfbench/METRICS.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def run(cmd, **kwargs):
    """Runs cmd to completion; on interruption, stops it before leaving."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "perfbench_stats_test"])
    steps.append([os.path.join(BUILD, "perfbench_stats_test")])
    for step in steps:
        if run(step, stdout=sys.stderr) != 0:
            print("perfbench: step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ tree beside perfbench/; run it from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    if not build():
        return 1
    reference = os.path.relpath(os.path.join(HERE, "reference"), ROOT)
    return run([os.path.join(BUILD, "perfbench"), *sys.argv[1:],
                "--reference-dir", reference])


if __name__ == "__main__":
    sys.exit(main())
