#!/usr/bin/env python3
"""Record reference outputs for known seeds into refs.json.

    python3 perfbench/make_refs.py --seeds 0:20

Runs each workload's operation once per seed, untraced, and stores the
record that run.py then compares exactly (accuracy, selected rank,
adjacency hash) or within LAMBDA_RTOL (lambda_selected).  Existing
entries for other seeds are kept.  A seed whose operation fails an
output check is not recorded.
"""

import argparse
import json
import shutil
import sys

from run import HERE, RUNS, SRC, WORKLOAD_NAMES


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", required=True, help="half-open range a:b")
    args = parser.parse_args()
    lo, hi = (int(part) for part in args.seeds.split(":"))
    sys.path.insert(0, str(SRC))
    import workloads

    path = HERE / "refs.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    status = 0
    for name in WORKLOAD_NAMES:
        for seed in range(lo, hi):
            workload = workloads.WORKLOADS[name](seed)
            workdir = RUNS / f"refs-{name}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            (workdir / "inputs").mkdir(parents=True)
            try:
                workload.write_inputs(workdir / "inputs")
                outcome = workload.run(workdir / "inputs", workdir / "out")
                workload.check(workdir / "inputs", workdir / "out", outcome)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if outcome.problems:
                print(f"{name} seed {seed}: not recorded: {outcome.problems}", file=sys.stderr)
                status = 1
                continue
            refs.setdefault(name, {})[str(seed)] = outcome.record
            print(f"{name} seed {seed}: recorded", flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
