#!/usr/bin/env python3
"""Check that the traced counts repeat exactly across two runs at one seed.

    python3 perfbench/selfcheck.py --seed 0

Runs run.py --trace 1 twice per workload and compares the counts in
tracer.EXACT_COUNTS.  Exits 1 on any difference.
"""

import argparse
import sys

from run import WORKLOAD_NAMES
from spread import run_once
from tracer import EXACT_COUNTS

SECONDS = 5  # three short operations suffice: only counts are compared


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    status = 0
    for workload in WORKLOAD_NAMES:
        first, second = (run_once(workload, args.seed, SECONDS, 1)["metrics"]
                         for _ in range(2))
        for name in EXACT_COUNTS:
            a, b = first[name]["value"], second[name]["value"]
            same = a == b
            status |= not same
            print(f"{workload} {name}: {a} {b} {'same' if same else 'DIFFERENT'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
