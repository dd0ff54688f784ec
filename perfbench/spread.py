#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload generate_cluster_gbm --seeds 0:10 [--out F]

For every metric prints the median, the quartiles from
statistics.quantiles(values, n=4), and (q3 - q1) / median, the spread
that BENCHMARK.json's bounds are checked against.  --out saves every
run's result line as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOAD_NAMES


def run_once(workload, seed, seconds, trace):
    """One benchmark run in a fresh process; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", default="0:10", help="half-open range a:b")
    parser.add_argument("--out")
    args = parser.parse_args()
    lo, hi = (int(part) for part in args.seeds.split(":"))
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    results = {}
    for seed in range(lo, hi):
        results[seed] = result = run_once(args.workload, seed, seconds, 0)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print(f"{args.workload}: {len(results)} runs")
    for name in next(iter(results.values()))["metrics"]:
        values = [r["metrics"][name]["value"] for r in results.values()]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"  {name}: median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "runs": results}, fh, indent=1)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
