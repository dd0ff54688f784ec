#!/usr/bin/env python3
"""Benchmark for sgbm: one workload per run, timed through the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload generate_cluster_gbm --seed 0 --seconds 32 --trace 0

Set-up (a fresh ``import sgbm`` plus writing the workload's inputs) is
timed SETUP_REPEATS times.  Then the workload's operation repeats on the
same inputs until the next one would overrun ``--seconds``, and every
operation's outputs are checked, against refs.json too when it holds the
seed.  Human-readable lines go first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans (see tracer.py); traced runs alternate traced and
untraced operations so the tracing overhead is measured in the same run.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("generate_cluster_gbm", "sweep_waxman", "baselines_fig3")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """Commit of the checkout from .git, without running git; 'unknown' if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def time_setup(workload, workdir):
    """Median over SETUP_REPEATS of a fresh `import sgbm` plus writing inputs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for k in range(SETUP_REPEATS):
        inputs = workdir / f"inputs{k}"
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sgbm"], env=env, check=True)
        inputs.mkdir(parents=True)
        workload.write_inputs(inputs)
        times.append(time.perf_counter() - start)
    return statistics.median(times), inputs


def load_reference(workload, seed):
    try:
        refs = json.loads((HERE / "refs.json").read_text())
    except FileNotFoundError:
        return None
    return refs.get(workload, {}).get(str(seed))


def run_operations(workload, inputs, workdir, seconds, reference, tracer):
    """Repeat the operation until the next one would overrun `seconds`.

    Returns parallel lists: op times and outcomes (both None for an
    operation that raised) and traced flags.  A traced run makes at least
    three operations: an untraced first one that pays first-call costs,
    then traced and untraced in turn.
    """
    op_times, outcomes, traced = [], [], []
    min_ops = 3 if tracer else 1
    start = time.perf_counter()
    while True:
        i = len(outcomes)
        if tracer:
            tracer.enabled = i % 2 == 1
            tracer.run = i
        out = workdir / f"op{i}"
        try:
            outcome = workload.run(inputs, out)
        except Exception:
            traceback.print_exc()
            outcome = None
        if tracer:
            traced.append(tracer.enabled)
            tracer.enabled = False
        op_times.append(None if outcome is None else sum(outcome.steps.values()))
        if outcome is not None:
            try:
                workload.check(inputs, out, outcome)
            except Exception as exc:
                traceback.print_exc()
                outcome.problems.append(f"output check raised {exc!r}")
            if reference is not None and outcome.record is not None:
                outcome.problems += workload.compare(outcome.record, reference)
            for problem in outcome.problems:
                print(f"check failed: {workload.name} seed {workload.seed}: {problem}",
                      file=sys.stderr)
        outcomes.append(outcome)
        shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if len(outcomes) >= min_ops and elapsed * (i + 2) / (i + 1) > seconds:
            return op_times, outcomes, traced


def summary(name, setup_s, op_times, outcomes, failed, rss_mb):
    """The eight user-facing figures of a workload; None where one does not apply."""
    good = [o for o in outcomes if o is not None]
    busy = sum(t for t in op_times if t is not None)

    def step(key):
        values = [o.steps[key] for o in good if key in o.steps]
        return statistics.median(values) if values else None

    cells = sum(o.cells for o in good)
    accuracies = [a for o in good for a in o.accuracies]
    sweep = name in ("sweep_waxman", "baselines_fig3")
    return [
        ("setup_s", setup_s, "s"),
        ("cluster_s", step("cluster_s"), "s"),
        ("cells_per_s", cells / busy if sweep and busy else None, "1/s"),
        ("generate_s", step("generate_s"), "s"),
        ("read_s", step("read_s"), "s"),
        ("accuracy_mean", statistics.fmean(accuracies) if accuracies else None, "fraction"),
        ("peak_rss_mb", rss_mb, "MB"),
        ("ops_failed_share", failed / len(outcomes), "fraction"),
    ]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sgbm" / "__init__.py").is_file():
        print(f"perfbench: no sgbm package under {SRC}; run inside a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install_solvers()  # before sgbm binds any solver
        tracer.enabled = False
    import workloads  # imports sgbm

    if tracer:
        tracer.install_sgbm()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workdir = RUNS / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_s, inputs = time_setup(workload, workdir)
        op_times, outcomes, traced = run_operations(
            workload, inputs, workdir, args.seconds,
            load_reference(args.workload, args.seed), tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for o in outcomes if o is None or o.problems)
    timed = [t for t in op_times if t is not None]
    env = environment()
    print("env " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed}: {len(outcomes)} operations, "
          f"seconds each: {' '.join(f'{t:.3f}' for t in timed)}")
    for name, value, unit in summary(args.workload, setup_s, op_times, outcomes, failed,
                                     rss_mb):
        print(f"  {name} = {'n/a' if value is None else f'{value:.6g} {unit}'}")

    counts_repeat = True
    if tracer:
        traced_runs = [i for i, on in enumerate(traced) if on and op_times[i] is not None]
        untraced = [t for i, (t, on) in enumerate(zip(op_times, traced))
                    if i > 0 and not on and t is not None]
        if not traced_runs or not untraced:
            print("perfbench: no successful traced and untraced operation pair",
                  file=sys.stderr)
            return 1
        layers, problems = tracing.layer_metrics(tracer, traced_runs)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        counts_repeat = not problems
        traced_op_s = statistics.median(op_times[i] for i in traced_runs)
        layers["trace.op_s"] = traced_op_s
        layers["trace.overhead_s"] = traced_op_s - statistics.median(untraced)
        RUNS.mkdir(exist_ok=True)
        spans_path = RUNS / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
        tracer.dump(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        units = {m["name"]: m["unit"]
                 for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": statistics.median(timed) if timed else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0 and counts_repeat, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
