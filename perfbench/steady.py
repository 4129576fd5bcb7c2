#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 perfbench/steady.py [--runs N] [--first-seed S] [WORKLOAD ...]

Runs each workload (default: all in BENCHMARK.json) as two sets of N runs
(default 10) in fresh processes.  Run i of both sets uses seed S + i; the
sets take turns, and the set that goes first alternates from one seed to
the next.  For every end-to-end metric it prints, per set,
the median, the quartiles and the spread (interquartile range as a share
of the median), flagged UNSTEADY at a third of the metric's bound or
more.  It then prints how much worse the second set's median is than the
first set's, as a share of the first, flagged DRIFT beyond the bound.
It also prints the share of failed operations, which must be the same
in every run.  Run from the root of a compo checkout.
"""
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    args = sys.argv[1:]
    runs, first = 10, 1
    while args and args[0].startswith("--"):
        flag, value, args = args[0], int(args[1]), args[2:]
        if flag == "--runs":
            runs = value
        elif flag == "--first-seed":
            first = value
        else:
            sys.exit("unknown flag " + flag)
    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"]
    workloads = args or [w["name"] for w in bench["workloads"]]
    for w in workloads:
        sets = ([], [])
        for i in range(runs):
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                sets[k].append(run(w, first + i, bench["run_seconds"]))
        every = [r for s in sets for r in s]
        shares = sorted({r["failed"] / r["attempted"] for r in every})
        print(f"{w}: correct={all(r['correct'] for r in every)} "
              f"failed share={shares}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, s in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in s]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                flag = "" if spread < bound / 3 else "  UNSTEADY"
                print(f"  {name:16s} set {k + 1}  median {med:14.4f}  q1 {q1:14.4f}"
                      f"  q3 {q3:14.4f}  spread {spread:6.3f}  bound {bound:4.2f}{flag}")
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / medians[0]
            flag = "" if worse <= bound else "  DRIFT"
            print(f"  {name:16s} set 2 median worse than set 1 by"
                  f" {worse:+.3f}  bound {bound:4.2f}{flag}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
