#!/usr/bin/env python3
"""Runs one workload of the benchmark several times and reports how steady
each end-to-end metric is.

    python3 perfbench/steady.py --workload relocate --runs 10 --first-seed 1
    python3 perfbench/steady.py --workload relocate --runs 10 --sets 2

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json. With --sets 2 it makes a second set of
runs on fresh seeds and prints how far each median moved in the metric's
worse direction, against the bound. It also prints each set's share of
failed operations. Exits 1 if a spread (setup_s excepted) or a median shift
exceeds its bound, or if the failed shares differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    wall = time.monotonic() - t0
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, wall


def run_set(spec, args, first_seed):
    results = []
    for i in range(args.runs):
        seed = first_seed + i
        result, wall = run_once(spec, args.workload, seed, args.seconds, 0)
        values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                          for m in spec["end_to_end"])
        print(f"  seed {seed}: {wall:.1f} s wall, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}\n    {values}", flush=True)
        results.append(result)
    return results


def summarize(spec, results):
    bad = False
    medians = {}
    print(f"  {'metric':<24} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        medians[m["name"]] = statistics.median(values)
        flag = ""
        if m["name"] != "setup_s" and spread > m["bound"]:
            flag, bad = "  > bound", True
        print(f"  {m['name']:<24} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {m['bound']:>6}{flag}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed shares: {sorted(shares)}")
    if not all(r["correct"] for r in results):
        print("  some run reported correct: false")
        bad = True
    return medians, shares, bad


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sets = []
    bad = False
    for s in range(args.sets):
        first = args.first_seed + s * args.runs
        print(f"set {s + 1}: {args.runs} runs of {args.workload}, seeds {first}..{first + args.runs - 1}")
        medians, shares, set_bad = summarize(spec, run_set(spec, args, first))
        sets.append((medians, shares))
        bad |= set_bad
    if len(sets) == 2:
        (m1, s1), (m2, s2) = sets
        print("second set against the first (worse-direction change of the median):")
        for m in spec["end_to_end"]:
            a, b = m1[m["name"]], m2[m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = ""
            if worse > m["bound"]:
                flag, bad = "  > bound", True
            print(f"  {m['name']:<24} {worse:>+8.4f} (bound {m['bound']}){flag}")
        if s1 != s2:
            print(f"  failed shares differ: {sorted(s1)} vs {sorted(s2)}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
