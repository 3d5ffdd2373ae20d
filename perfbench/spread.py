#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--seconds N]

Runs perfbench/run.py once per seed (tracing off) and prints, per metric, the
median of the per-run values and their spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median,
next to the metric's bound from BENCHMARK.json. A later change compares its
medians against a parent's medians taken the same way.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
        if done.returncode != 0:
            sys.exit("seed %d failed:\n%s%s" % (seed, done.stdout,
                                                done.stderr[-2000:]))
        lines = done.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        meta = [json.loads(l[5:]) for l in lines if l.startswith("meta {")]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d (parallelism %s): %s" % (
            seed, meta[0]["parallelism"] if meta else "?", " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)

    print("%-20s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print("%-20s %12.6g %8.3f %8s" % (name, med, spread,
                                         bounds.get(name, "-")))


if __name__ == "__main__":
    main()
