#!/usr/bin/env python3
"""Steadiness study for the repository benchmark.

Runs each workload once per seed and prints, for every end-to-end metric,
the median over the runs and their spread: the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median. A metric is steady when its spread stays below a third of its
bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [workload ...]

Run it from the root of the repository. It exits non-zero if a run fails
or reports incorrect outputs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: incorrect outputs\n{out.stdout}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            steady = spread < bounds[name] / 3
            print(
                f"{workload:<14} {name:<15} median {median:>12.4f} "
                f"spread {spread:.4f} bound {bounds[name]}"
                + ("" if steady else "  <- not below a third of its bound"),
                flush=True,
            )
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
