"""In-memory span tracer that wraps sgbm's public functions from outside.

Nothing under src/ is edited: the tracer replaces function objects in the
modules that bind them.  A module that did ``from .model import
sample_graph`` holds its own reference, so every sgbm module whose
attribute *is* the original function gets the wrapper.  Eigensolver entry
points in numpy.linalg, scipy.linalg and scipy.sparse.linalg are wrapped
before sgbm is imported, so a later ``from scipy.linalg import eigh`` also
binds the wrapper.

A span is (name, start, end, parent, run id).  The parent is the innermost
open span of the same thread; each thread keeps its own stack because
sweeps run cells in a thread pool.  Spans opened in worker *processes* are
not captured: the wrappers live only in this process.
"""

import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time

import numpy as np

# (module, function) pairs traced under the name "<module suffix>.<function>"
SGBM_FUNCTIONS = (
    ("sgbm.model", "pair_uniform"),
    ("sgbm.model", "sample_graph"),
    ("sgbm.model", "write_graph"),
    ("sgbm.model", "read_graph"),
    ("sgbm.model", "write_positions"),
    ("sgbm.model", "write_labels"),
    ("sgbm.spectral", "eigendecompose"),
    ("sgbm.spectral", "select_eigenpair"),
    ("sgbm.spectral", "sign_partition"),
    ("sgbm.spectral", "local_improvement"),
    ("sgbm.spectral", "per_eigenvector_accuracy"),
    ("sgbm.spectral", "hosc"),
    ("sgbm.harness", "motif_baseline"),
    ("sgbm.harness", "run_sweep"),
    ("sgbm.harness", "write_results"),
    ("sgbm.cli", "main"),
)

# every span of these solvers is named "eigensolve"
SOLVERS = {
    "numpy.linalg": ("eigh", "eigvalsh", "eig", "eigvals"),
    "scipy.linalg": ("eigh", "eigvalsh", "eig", "eigvals", "eigh_tridiagonal",
                     "eigvalsh_tridiagonal", "eig_banded", "eigvals_banded"),
    "scipy.sparse.linalg": ("eigsh", "eigs", "lobpcg"),
}

# counts that must repeat exactly for a fixed seed
EXACT_COUNTS = (
    "model.pair_uniform.pairs",
    "model.edge_yield",
    "eigensolve.calls",
    "eigensolve.eigenpairs",
    "model.Graph.dense.calls",
    "model.write_graph.bytes",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "counts")

    def __init__(self, name, parent, run):
        self.name = name
        self.parent = parent
        self.run = run
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start


def _pair_counts(args, kwargs, result):
    return {"pairs": int(np.prod(np.broadcast_shapes(np.shape(args[1]), np.shape(args[2]))))}


def _sample_counts(args, kwargs, result):
    return {"edges": result[0].edge_count()}


def _dense_counts(args, kwargs, result):
    n = args[0].n
    return {"bytes": n * n * 8}  # float64 copy, computed rather than measured


def _write_graph_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _sweep_counts(args, kwargs, result):
    return {"workers": kwargs.get("workers", args[1] if len(args) > 1 else 1)}


def _solver_counts(args, kwargs, result):
    values = result[0] if isinstance(result, tuple) else result
    return {"eigenpairs": len(values)}


COUNTERS = {
    "model.pair_uniform": _pair_counts,
    "model.sample_graph": _sample_counts,
    "model.write_graph": _write_graph_counts,
    "harness.run_sweep": _sweep_counts,
}


def _called_from_sgbm(original, traced):
    @functools.wraps(original)
    def solver(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller == "sgbm" or caller.startswith("sgbm."):
            return traced(*args, **kwargs)
        return original(*args, **kwargs)

    return solver


class Tracer:
    def __init__(self):
        self.spans = []
        self.enabled = True
        self.run = 0
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None, self.run)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)  # list.append is atomic under the GIL
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def install_solvers(self):
        """Wrap eigensolver entry points; call before sgbm is imported.

        Only calls made directly from sgbm code open a span, so solves that
        numpy or scipy make internally (Gauss-Legendre nodes in leggauss,
        eigsh falling back to eigh) are not counted as eigensolves.
        """
        for module_name, names in SOLVERS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                original = getattr(module, attr)
                setattr(module, attr, _called_from_sgbm(
                    original, self.wrap("eigensolve", original, _solver_counts)))

    def install_sgbm(self):
        """Wrap the traced sgbm functions in every sgbm module that binds them."""
        import sgbm.model

        modules = [module for name, module in sys.modules.items()
                   if name == "sgbm" or name.startswith("sgbm.")]
        for module_name, attr in SGBM_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            name = f"{module_name.split('.', 1)[1]}.{attr}"
            wrapper = self.wrap(name, original, COUNTERS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        graph = sgbm.model.Graph
        graph.dense = self.wrap("model.Graph.dense", graph.dense, _dense_counts)

    def dump(self, path):
        """Write every span as one JSON line; parents become line indices."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for span in self.spans:
                parent = index.get(id(span.parent)) if span.parent is not None else None
                fh.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": parent, "run": span.run, "counts": span.counts,
                }) + "\n")


def _op_metrics(spans):
    """Per-layer metrics of one traced operation."""
    total, own, calls, counts = {}, {}, {}, {}
    children = {}
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)] = children.get(id(span.parent), 0.0) + span.duration
    for span in spans:
        name = span.name
        total[name] = total.get(name, 0.0) + span.duration
        own[name] = own.get(name, 0.0) + span.duration - children.get(id(span), 0.0)
        calls[name] = calls.get(name, 0) + 1
        for key, value in span.counts.items():
            counts[(name, key)] = counts.get((name, key), 0) + value

    def count(name, key):
        return counts.get((name, key), 0)

    pairs = count("model.pair_uniform", "pairs")
    selections = calls.get("spectral.select_eigenpair", 0)
    m = {
        "model.pair_uniform.s": total.get("model.pair_uniform", 0.0),
        "model.pair_uniform.pairs": pairs,
        "model.sample_graph.s": total.get("model.sample_graph", 0.0),
        "model.sample_graph.self_s": own.get("model.sample_graph", 0.0),
        "model.edge_yield": count("model.sample_graph", "edges") / pairs if pairs else 0.0,
        "model.write_graph.s": total.get("model.write_graph", 0.0),
        "model.write_graph.bytes": count("model.write_graph", "bytes"),
        "model.read_graph.s": total.get("model.read_graph", 0.0),
        "model.write_positions.s": total.get("model.write_positions", 0.0),
        "model.write_labels.s": total.get("model.write_labels", 0.0),
        "model.Graph.dense.calls": calls.get("model.Graph.dense", 0),
        "model.Graph.dense.bytes": count("model.Graph.dense", "bytes"),
        "spectral.eigendecompose.s": total.get("spectral.eigendecompose", 0.0),
        "spectral.eigendecompose.calls": calls.get("spectral.eigendecompose", 0),
        "eigensolve.s": total.get("eigensolve", 0.0),
        "eigensolve.calls": calls.get("eigensolve", 0),
        "eigensolve.eigenpairs": count("eigensolve", "eigenpairs"),
        "eigensolve.eigenpairs_per_selection":
            count("eigensolve", "eigenpairs") / selections if selections else 0.0,
        "spectral.select_eigenpair.s": total.get("spectral.select_eigenpair", 0.0),
        "spectral.sign_partition.s": total.get("spectral.sign_partition", 0.0),
        "spectral.local_improvement.s": total.get("spectral.local_improvement", 0.0),
        "spectral.per_eigenvector_accuracy.s":
            total.get("spectral.per_eigenvector_accuracy", 0.0),
        "spectral.hosc.self_s": own.get("spectral.hosc", 0.0),
        "harness.motif_baseline.s": total.get("harness.motif_baseline", 0.0),
        "harness.run_sweep.s": total.get("harness.run_sweep", 0.0),
        "harness.write_results.s": total.get("harness.write_results", 0.0),
        "harness.pool_efficiency": _pool_efficiency(spans),
        "cli.main.self_s": own.get("cli.main", 0.0),
    }
    return m


def _pool_efficiency(spans):
    """Busy layer time inside run_sweep over workers x run_sweep wall time.

    Pool threads start with an empty stack, so their outermost spans have
    no parent; with one worker the cells run under run_sweep itself.
    """
    busy = capacity = 0.0
    for sweep in (span for span in spans if span.name == "harness.run_sweep"):
        capacity += sweep.counts.get("workers", 1) * sweep.duration
        busy += sum(span.duration for span in spans
                    if span is not sweep
                    and (span.parent is sweep or span.parent is None)
                    and sweep.start <= span.start and span.end <= sweep.end)
    return busy / capacity if capacity else 0.0


def layer_metrics(tracer, traced_runs):
    """Median per-layer metrics over traced operations, and count mismatches.

    Counts named in EXACT_COUNTS must agree between operations of one run,
    since every operation repeats the same inputs; disagreements come back
    as problem strings.
    """
    by_run = {run: [] for run in traced_runs}
    for span in tracer.spans:
        if span.run in by_run:
            by_run[span.run].append(span)
    per_op = [_op_metrics(by_run[run]) for run in traced_runs]
    metrics = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    problems = []
    for name in EXACT_COUNTS:
        values = {op[name] for op in per_op}
        if len(values) > 1:
            problems.append(f"{name} differs between operations: {sorted(values)}")
        metrics[name] = per_op[0][name]
    return metrics, problems
