#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 crates/rootbench/spread.py --workload faulted_atlas --seeds 1-10 --seconds 55

For every metric this prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of that median: the steadiness figure BENCHMARK.json's bounds are
set against. Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="55")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    values = {}
    for seed in range(lo, hi + 1):
        cmd = ["cargo", "run", "--release", "--quiet", "--package", "rootbench", "--",
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last)
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: FAILED (exit {proc.returncode}): {last}")
            sys.exit(1)
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.4f}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    print(f"\n{args.workload}: {hi - lo + 1} runs")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:<14} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  spread {spread:.3f}")


if __name__ == "__main__":
    main()
