#!/usr/bin/env python3
"""Steadiness check for the campaign benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and prints, per end-to-end metric, the median and the spread:
the distance between the first and third quartile of the values
(statistics.quantiles, n=4) as a share of their median.

Usage (from the repository root):
    python3 campaign_bench/steady.py [--seeds 1,2,...] [--workloads a,b]
                                     [--trace 0|1] [--seconds N]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds", default=str(bench["run_seconds"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds.split(","):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", seed,
                "--seconds", args.seconds, "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"{(q3 - q1) / med:.4f}"
            else:
                spread = "n/a"
            bound = bounds.get(name)
            print(f"  {workload:<13} {name:<24} median {med:<14.6g} spread {spread}"
                  + (f"  (bound {bound})" if bound is not None else ""))


if __name__ == "__main__":
    main()
