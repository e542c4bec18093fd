#!/usr/bin/env python3
"""Measures a change against its parent with interleaved perfbench pairs.

Given two checkouts, the parent's and the change's, runs

  python3 perfbench/run.py --workload W --seconds S --trace 0

in each of them N times per workload, as N pairs: pair i runs the parent
first when i is even and the change first when it is odd, so a drift of
the host over the session does not favour one side.  Each checkout builds
its own benchmark (.bench_build/ is per checkout).  A run whose result is
not "correct": true stops the script before anything is written.

For every workload it prints, per end-to-end metric of BENCHMARK.json,
each side's median and quartiles and the number of pairs the change won,
and appends two lines to BENCH_perfbench.jsonl at the root of the
change's checkout: the parent's medians, then the change's, in the format
scripts/perf_trajectory.py reads.  The metrics and workloads come from
BENCHMARK.json at the root of the repository that holds this
script.

Usage:
  perf_pairs.py --parent DIR --change DIR [--workload W]... [--pairs N]
                [--seconds S] [--parent-commit C] [--change-commit C]
                [--host TEXT]
  perf_pairs.py --self-test

--self-test checks the medians and quartiles, the alternation and the line
format on made-up results; it runs and times nothing.

Exit status: 0 done, 1 a run failed or was not correct, 2 bad arguments.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def quantile(values, q):
    """The q-quantile of values, interpolated linearly between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    at = q * (len(ordered) - 1)
    low = int(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def summary(values):
    return {"q1": quantile(values, 0.25), "median": quantile(values, 0.5),
            "q3": quantile(values, 0.75)}


def pair_order(index):
    """The sides of pair `index` in the order they run."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def run_pairs(workloads, pairs, measure):
    """Runs the pairs; measure(side, workload) returns a metrics dict.
    Returns {workload: {side: [metrics, ...]}} in pair order."""
    results = {w: {side: [] for side in SIDES} for w in workloads}
    for workload in workloads:
        for index in range(pairs):
            for side in pair_order(index):
                results[workload][side].append(measure(side, workload))
    return results


def wins(parent, change, better):
    """Pairs in which the change's value is better than the parent's."""
    if better == "lower":
        return sum(1 for p, c in zip(parent, change) if c < p)
    return sum(1 for p, c in zip(parent, change) if c > p)


def report(workload, runs, end_to_end):
    lines = [f"{workload}: {len(runs['parent'])} pairs"]
    for metric in end_to_end:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        a, b = summary(parent), summary(change)
        delta = (b["median"] - a["median"]) / a["median"] if a["median"] else 0
        lines.append(
            f"  {name:12s} parent {a['median']:.6g} [{a['q1']:.6g}, "
            f"{a['q3']:.6g}]  change {b['median']:.6g} [{b['q1']:.6g}, "
            f"{b['q3']:.6g}]  {delta:+.1%}  change won "
            f"{wins(parent, change, metric['better'])}/{len(parent)}")
    return "\n".join(lines)


def trajectory_lines(workload, runs, end_to_end, commits, protocol):
    lines = []
    for side in SIDES:
        medians = {m["name"]: round(quantile([r[m["name"]] for r in
                                              runs[side]], 0.5), 6)
                   for m in end_to_end}
        lines.append({"commit": commits[side], "side": side,
                      "workload": workload, "protocol": protocol,
                      "metrics": medians})
    return lines


def protocol_text(workload, seconds, pairs, host):
    return (f"python3 perfbench/run.py --workload {workload} --seconds "
            f"{seconds:g} --trace 0; {pairs} interleaved parent/change pairs "
            "alternating which side runs first, each side in its own "
            f"checkout; medians; {host}")


def perfbench_run(checkout, workload, seconds):
    """One perfbench run in `checkout`; its result JSON, or an error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited "
                           f"{done.returncode}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise RuntimeError(f"{checkout}: {workload} is not correct: "
                           f"{lines[-1]}")
    # Each metric is {"value": v, "unit": u}.
    return {name: metric["value"] if isinstance(metric, dict) else metric
            for name, metric in result["metrics"].items()}


def git_label(checkout):
    done = subprocess.run(["git", "-C", checkout, "rev-parse", "--short",
                           "HEAD"], capture_output=True, text=True,
                          check=False)
    return done.stdout.strip() or "unknown"


def self_test(end_to_end):
    assert quantile([3, 1, 2], 0.5) == 2
    assert quantile([1, 2, 3, 4], 0.5) == 2.5
    assert quantile([1, 2, 3, 4, 5], 0.25) == 2
    assert quantile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.75) == 7.75
    assert summary([5.0]) == {"q1": 5.0, "median": 5.0, "q3": 5.0}
    assert pair_order(0) == ("parent", "change")
    assert pair_order(1) == ("change", "parent")

    order = []
    fake = {"parent": 2.0, "change": 1.5}

    def measure(side, workload):
        order.append((workload, side))
        value = fake[side] + 0.01 * len(order)
        return {m["name"]: value for m in end_to_end}

    runs = run_pairs(["w1", "w2"], 3, measure)
    assert order[:6] == [("w1", "parent"), ("w1", "change"),
                         ("w1", "change"), ("w1", "parent"),
                         ("w1", "parent"), ("w1", "change")], order
    assert [w for w, _ in order[6:]] == ["w2"] * 6
    assert len(runs["w1"]["parent"]) == 3 and len(runs["w2"]["change"]) == 3
    first = end_to_end[0]
    assert wins([r[first["name"]] for r in runs["w1"]["parent"]],
                [r[first["name"]] for r in runs["w1"]["change"]],
                first["better"]) == (3 if first["better"] == "lower" else 0)
    assert "change won" in report("w1", runs["w1"], end_to_end)

    commits = {"parent": "abc1234", "change": "abc1234+change"}
    protocol = protocol_text("w1", 25, 3, "test host")
    lines = trajectory_lines("w1", runs["w1"], end_to_end, commits, protocol)
    assert [line["side"] for line in lines] == ["parent", "change"]
    for line in lines:
        parsed = json.loads(json.dumps(line))
        assert set(parsed) == {"commit", "side", "workload", "protocol",
                               "metrics"}, parsed
        assert parsed["workload"] == "w1"
        assert set(parsed["metrics"]) == {m["name"] for m in end_to_end}
    assert lines[0]["metrics"][first["name"]] == round(
        quantile([r[first["name"]] for r in runs["w1"]["parent"]], 0.5), 6)
    assert protocol.startswith("python3 perfbench/run.py --workload w1 "
                               "--seconds 25 --trace 0; 3 interleaved")
    print("perf_pairs self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="the parent's checkout")
    parser.add_argument("--change", help="the change's checkout")
    parser.add_argument("--workload", action="append",
                        help="a workload (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--parent-commit")
    parser.add_argument("--change-commit")
    parser.add_argument("--host", default=f"{os.cpu_count()}-core "
                        f"{platform.machine()}")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
                  encoding="utf-8") as handle:
            benchmark = json.load(handle)
    except (OSError, ValueError) as err:
        print(f"perf_pairs: {err}", file=sys.stderr)
        return 2
    end_to_end = benchmark["end_to_end"]
    if args.self_test:
        return self_test(end_to_end)
    if not args.parent or not args.change or args.pairs < 1:
        parser.print_usage(sys.stderr)
        return 2
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    commits = {"parent": args.parent_commit or git_label(checkouts["parent"]),
               "change": args.change_commit or git_label(checkouts["change"])}
    try:
        runs = run_pairs(workloads, args.pairs,
                         lambda side, w: perfbench_run(checkouts[side], w,
                                                       args.seconds))
    except (RuntimeError, ValueError) as err:
        print(f"perf_pairs: {err}", file=sys.stderr)
        return 1
    lines = []
    for workload in workloads:
        print(report(workload, runs[workload], end_to_end))
        lines += trajectory_lines(
            workload, runs[workload], end_to_end, commits,
            protocol_text(workload, args.seconds, args.pairs, args.host))
    path = os.path.join(checkouts["change"], "BENCH_perfbench.jsonl")
    with open(path, "a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(json.dumps(line) + "\n")
    print(f"appended {len(lines)} lines to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
