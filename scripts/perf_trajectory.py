#!/usr/bin/env python3
"""Checks the committed perf trajectory against the benchmark's bounds.

BENCH_perfbench.jsonl (repository root) holds one JSON object per line,
oldest first, each the medians of one side of an interleaved perfbench
measurement:

  {"commit": "...", "side": "parent" | "change", "workload": "...",
   "protocol": "...", "metrics": {"wall_s": 1.43, "cpu_s": 1.42, ...}}

For every workload, the newest line's end-to-end metrics must stay within
BENCHMARK.json's `bound` of the previous line's for that workload: a
"lower is better" metric may rise by at most `bound` (relative), a
"higher is better" one may fall by at most that much.  A workload with a
single line has nothing to compare yet.  The script only reads the two
files; it runs and times nothing.

Usage:
  perf_trajectory.py [--trajectory FILE] [--benchmark FILE]

Exit status: 0 within bounds, 1 a metric outside its bound (each one
named on stderr), 2 an unusable file.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_lines(path):
    lines = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, text in enumerate(handle, 1):
            if not text.strip():
                continue
            line = json.loads(text)
            for key in ("commit", "workload", "metrics"):
                if key not in line:
                    raise ValueError(f"{path}:{number}: no '{key}'")
            lines.append(line)
    return lines


def violations(lines, end_to_end):
    """Names every metric of a workload's newest line outside its bound."""
    by_workload = {}
    for line in lines:
        by_workload.setdefault(line["workload"], []).append(line)
    found = []
    for workload, history in sorted(by_workload.items()):
        if len(history) < 2:
            continue
        previous, newest = history[-2]["metrics"], history[-1]["metrics"]
        for metric in end_to_end:
            name = metric["name"]
            if name not in previous or name not in newest:
                found.append(f"{workload} {name}: missing from the newest "
                             "or the previous line")
                continue
            was, now = float(previous[name]), float(newest[name])
            change = (now - was) / was if was else 0.0
            worse = change if metric["better"] == "lower" else -change
            if worse > metric["bound"]:
                found.append(f"{workload} {name}: {was:g} -> {now:g} "
                             f"({change:+.1%}, bound {metric['bound']:.0%})")
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trajectory",
                        default=os.path.join(ROOT, "BENCH_perfbench.jsonl"))
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    try:
        with open(args.benchmark, "r", encoding="utf-8") as handle:
            end_to_end = json.load(handle)["end_to_end"]
        lines = load_lines(args.trajectory)
    except (OSError, ValueError, KeyError) as error:
        print(f"perf_trajectory: {error}", file=sys.stderr)
        return 2
    found = violations(lines, end_to_end)
    for message in found:
        print(f"perf_trajectory: outside its bound: {message}",
              file=sys.stderr)
    if not found:
        workloads = sorted({line["workload"] for line in lines})
        print(f"perf_trajectory: {len(lines)} lines, newest within bounds "
              f"on {', '.join(workloads)}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
