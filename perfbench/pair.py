#!/usr/bin/env python3
"""Paired comparison of two checkouts on one workload.

    python3 perfbench/pair.py --base <parent checkout> --change <checkout> \
        --workload fleet_day [--pairs 10] [--seconds 25] [--seed 100]

Runs the benchmark in both checkouts `--pairs` times, one seed per pair,
alternating which side runs first, and prints for every end-to-end metric
each side's median and quartiles, how many pairs the change won, and a
verdict by the rules in README.md ("Reading a pair comparison").
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{checkout}: exit {out.returncode}\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        print(f"warning: {checkout} seed {seed}: {res['failed']} of {res['attempted']} operations failed",
              file=sys.stderr)
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return q[0], statistics.median(xs), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--seed", type=int, default=100, help="seed of the first pair; pair i uses seed+i")
    args = ap.parse_args()

    with open(os.path.join(args.base, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    base, change = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        sides = [(args.base, base), (args.change, change)]
        for checkout, results in (sides if i % 2 == 0 else sides[::-1]):
            results.append(run(checkout, args.workload, seed, seconds))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, {seconds} s runs")
    print(f"{'metric':14s} {'base q1/med/q3':>32s} {'change q1/med/q3':>32s} {'wins':>6s}  verdict")
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        b = [r[name] for r in base]
        c = [r[name] for r in change]
        bq, cq = quartiles(b), quartiles(c)
        wins = sum(1 for x, y in zip(b, c) if (y < x if lower else y > x))
        spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
        worse = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        if not lower:
            worse = -worse
        if wins >= 0.9 * args.pairs and abs(cq[1] - bq[1]) > bq[2] - bq[0]:
            verdict = "gain"
        elif worse > bound:
            verdict = f"REGRESSION (> bound {bound})"
        elif spread > bound:
            verdict = "unresolved (base spread above bound)"
        else:
            verdict = "within bound"
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
        print(f"{name:14s} {fmt(bq):>32s} {fmt(cq):>32s} {wins:>3d}/{args.pairs}  {verdict}")


if __name__ == "__main__":
    main()
