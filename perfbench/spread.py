#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload tenant_churn --runs 10 [--first-seed 1]

Run from the repository root. For every end-to-end metric of BENCHMARK.json
it prints the median of the runs and the interquartile range as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(command, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
            sys.exit(1)
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in sorted(result["metrics"].items())), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, series in sorted(values.items()):
        mid = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else float("inf")
        bound = bounds.get(name)
        print(f"{name:24s} median {mid:12.6g}  spread {spread:6.3f}"
              + (f"  bound {bound}" if bound is not None else ""))


if __name__ == "__main__":
    main()
