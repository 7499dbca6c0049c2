#!/usr/bin/env python3
"""Run each workload N times and report how steady every metric is.

    python3 perfbench/steady.py [--runs 10] [--seconds 10] [--first-seed 1]
                                [--trace 0] [--save A.json]
                                [--against A.json] [workload ...]

Each run uses another seed (first-seed, first-seed + 1, ...). Per
workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
distance between the quartiles as a share of the median. With
--trace 0 it also prints each end-to-end metric's bound from
BENCHMARK.json and flags a spread above a third of it ("!") or above
it ("!!"). The bounds in BENCHMARK.json are set from this output.

--save writes the medians to a JSON file. --against reads such a file
from an earlier set and prints, per metric, how far this set's median
moved from it in the metric's worse direction, flagged "!!" when that
exceeds the bound: two sets of the same code should agree within it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s seed %d failed (exit %d):\n%s%s" %
                 (workload, seed, out.returncode, out.stdout, out.stderr))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: outputs wrong or ops failed" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(old, new, better):
    """How much worse new is than old, as a share of old (<= 0: not worse)."""
    if not old:
        return 0.0
    change = (new - old) / old
    return -change if better == "higher" else change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--save")
    ap.add_argument("--against")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    medians = {}

    for workload in workloads:
        runs = [run_once(workload, args.first_seed + i, seconds, args.trace)
                for i in range(args.runs)]
        print("%s: %d runs, seeds %d..%d, %d s each" %
              (workload, args.runs, args.first_seed,
               args.first_seed + args.runs - 1, seconds))
        print("  %-24s %14s %14s %14s %8s %6s %8s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "drift"))
        medians[workload] = {}
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            medians[workload][name] = med
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = metrics.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            drift = ""
            old = earlier.get(workload, {}).get(name)
            if old is not None:
                worse = worse_by(old, med, metrics.get(name, {}).get("better"))
                drift = "%+7.2f%%" % (100 * worse)
                if bound is not None and worse > bound:
                    flag += " !!drift"
            print("  %-24s %14.6g %14.6g %14.6g %7.2f%% %6s %8s %s" %
                  (name, med, q1, q3, 100 * spread,
                   "" if bound is None else bound, drift, flag))
        sys.stdout.flush()

    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
