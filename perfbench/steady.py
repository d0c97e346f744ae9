#!/usr/bin/env python3
"""Steadiness check: runs workloads N times each, interleaved, and prints
each end-to-end metric's median, quartiles and spread next to its bound.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed0 1000] [--trace]

Run from the repository root. Round r runs every selected workload once,
with seed seed0 + r, rotating the order each round so no workload always
runs first. The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4); a spread above a third of the metric's
bound is flagged. With --trace, one traced run per workload follows and
its per-layer metrics are printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-3000:])
        sys.exit("%s seed %d failed with exit code %d" % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    names = args.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = {w: [] for w in names}
    for r in range(args.runs):
        order = names[r % len(names):] + names[:r % len(names)]
        for w in order:
            res = run(w, args.seed0 + r, args.seconds, False)
            results[w].append(res)
            print("round %d %-18s attempted %d failed %d correct %s" %
                  (r, w, res["attempted"], res["failed"], res["correct"]), file=sys.stderr)

    worst = 0.0
    for w in names:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s: %d runs, failed share %s" % (w, len(runs), shares))
        print("  %-16s %14s %14s %14s %8s %6s" % ("metric", "median", "Q1", "Q3", "spread", "bound"))
        for name, meta in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > meta["bound"] / 3:
                flag = "  <-- above bound/3"
                worst = max(worst, spread / meta["bound"])
            print("  %-16s %14.4f %14.4f %14.4f %7.1f%% %5.0f%%%s" %
                  (name, med, q1, q3, spread * 100, meta["bound"] * 100, flag))

    if args.trace:
        for w in names:
            res = run(w, args.seed0, args.seconds, True)
            print("\n%s traced (seed %d):" % (w, args.seed0))
            for name, m in res["metrics"].items():
                print("  %-30s %16.4f %s" % (name, m["value"], m["unit"]))
    if worst:
        print("\nsome spreads exceed a third of their bound", file=sys.stderr)


if __name__ == "__main__":
    main()
