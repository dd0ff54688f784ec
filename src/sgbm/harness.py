"""Seeded experiment presets emitting plot-ready CSV tables.

A sweep is a grid of model parameter points crossed with a seed list and
an algorithm list.  Every (grid point, seed) cell is independent: its
sampling seed is derived from the master seed and the cell coordinates,
so cells can run in any order or in parallel and still produce the same
rows.  Output ordering is canonical (grid-major, then seed, then
algorithm), which keeps reruns byte-identical.

results.csv carries only deterministic columns.  Wall-clock timings go
to a separate timings.csv: a timing column inside the results table
would break rerun-identity for no analytical gain.
"""

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import _openblas
from .kernels import Indicator, Waxman, edge_density, kernel_to_config
from .model import SgbmParams, _mix64, sample_graph, write_csv, write_labels
from .spectral import (
    DegenerateModelError,
    EigendecompositionError,
    Spectrum,
    accuracy,
    cluster,
    sign_partition,
)
from .theory import check_match_range, limiting_atoms, spectrum_match

__all__ = [
    "SweepConfig",
    "ResultRow",
    "ALGORITHMS",
    "GridPoint",
    "cell_seed",
    "run_sweep",
    "motif_baseline",
    "MotifInputError",
    "fig3_sweep",
    "fig4_sweep",
    "waxman_sweep",
    "spectrum_experiment",
    "write_results",
    "write_timings",
    "write_meta",
    "aggregate",
]

ALGORITHMS = ("hosc", "hosc_li", "fiedler", "motif_baseline")

RESULT_COLUMNS = (
    "experiment", "n", "d", "kernel_in", "kernel_out", "seed", "algorithm",
    "accuracy", "selected_rank", "lambda_star", "lambda_selected",
    "gap_to_next", "note",
)


@dataclass(frozen=True)
class GridPoint:
    n: int
    d: int
    f_in: object
    f_out: object


@dataclass
class SweepConfig:
    experiment: str
    grid: list  # of GridPoint
    seeds: list
    algorithms: tuple = ("hosc",)
    master_seed: int = 0
    labels_dir: str = None  # if set, each row's predicted and true labels are written here

    def __post_init__(self):
        if not self.grid:
            raise ValueError("sweep grid must be non-empty")
        if not list(self.seeds):
            raise ValueError("sweep needs at least one seed")
        # cell_seed packs grid_index << 32 | seed and mixes in the 64-bit master seed
        if not all(0 <= seed < 2**32 for seed in self.seeds):
            raise ValueError("sweep seeds must lie in [0, 2**32)")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("the master seed must lie in [0, 2**64)")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms {sorted(unknown)}; choose from {ALGORITHMS}")


@dataclass
class ResultRow:
    experiment: str
    n: int
    d: int
    kernel_in: str
    kernel_out: str
    seed: int
    algorithm: str
    accuracy: float = None
    selected_rank: int = None
    lambda_star: float = None
    lambda_selected: float = None
    gap_to_next: float = None
    runtime_ms: float = 0.0
    note: str = ""
    grid_index: int = None  # position in SweepConfig.grid; not written to results.csv


def _kernel_label(kernel):
    cfg = kernel_to_config(kernel)
    kind = cfg.pop("kind")
    inner = ",".join(f"{key}={_fmt(float(val))}" for key, val in sorted(cfg.items()))
    return f"{kind}({inner})"


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def cell_seed(master_seed, grid_index, seed):
    """Sampling seed for one (grid point, seed) cell."""
    packed = (np.uint64(grid_index) << np.uint64(32)) | np.uint64(seed)
    return int(_mix64(_mix64(np.uint64(master_seed)) ^ packed))


def _common_neighbours(adjacency):
    """(A @ A) as int32: entry (i, j) counts the common neighbours of i and j.

    NumPy does not send integer matmul to BLAS, so the product runs in
    float32.  Every partial sum is an integer no larger than n < 2**24,
    which float32 holds exactly, so the counts are exact whatever order
    BLAS adds them in.
    """
    a = adjacency.astype(np.float32)
    return (a @ a).astype(np.int32)


class MotifInputError(ValueError):
    """motif_baseline cannot run on this graph: n < 4, or no edges."""


def _grow_by_majority(adjacency, labels):
    """Label every 0 node by synchronous neighbour majority; ties to label 2.

    Each round, every unlabelled node with a labelled neighbour takes the
    majority label among those neighbours.  Votes are integer sums on the
    uint8 adjacency.  Nodes that no round can reach (no labelled neighbour
    anywhere) all take label 2.  Modifies and returns labels.
    """
    while True:
        unassigned = labels == 0
        if not unassigned.any():
            return labels
        rows = adjacency[unassigned]
        votes_1 = rows[:, labels == 1].sum(axis=1, dtype=np.int64)
        votes_2 = rows[:, labels == 2].sum(axis=1, dtype=np.int64)
        decided = (votes_1 + votes_2) > 0
        if not decided.any():
            labels[unassigned] = 2  # no labelled neighbors anywhere: tie rule
            return labels
        new = np.where(votes_1 > votes_2, 1, 2).astype(np.int8)  # tie to 2
        idx = np.flatnonzero(unassigned)
        labels[idx[decided]] = new[decided]


def _components(adjacent):
    """Component labels of a symmetric boolean matrix, grown by breadth-first
    frontiers and numbered by smallest node, as scipy.sparse.csgraph numbers them."""
    assignment = np.full(len(adjacent), -1)
    while (unseen := np.flatnonzero(assignment < 0)).size:
        label, frontier = assignment.max() + 1, unseen[:1]
        while frontier.size:
            assignment[frontier] = label
            frontier = np.flatnonzero(adjacent[frontier].any(axis=0) & (assignment < 0))
    return assignment


def motif_baseline(spectrum):
    """Common-neighbor clustering of spectrum.graph: a transparent, simplified baseline.

    Counts common neighbors over every edge, splits the counts with an
    exact 1-d 2-means threshold into intra-like and inter-like edges,
    drops the inter-like ones, and grows the two largest remaining
    components by synchronous neighbor majority (ties to label 2).

    Returns (labels, note); note is empty normally and names the
    fallback (sign partition of spectrum's rank-2 eigenvector) when the
    filtered graph does not leave two usable components.  Raises
    MotifInputError for n < 4 or a graph with no edges.
    """
    graph = spectrum.graph
    if graph.n < 4:
        raise MotifInputError("baseline needs n >= 4")
    a = graph.adjacency
    i, j = np.nonzero(np.triu(a, k=1))
    if len(i) == 0:
        raise MotifInputError("empty graph: no edges to count motifs on")
    common = _common_neighbours(a)[i, j]

    counts = np.sort(common.astype(np.float64))
    if len(counts) == 1 or counts[0] == counts[-1]:
        # homogeneous counts: nothing separates intra from inter, keep all
        keep = np.ones(len(common), dtype=bool)
    else:
        # exact 1-d 2-means: scan every split of the sorted counts
        prefix = np.cumsum(counts)
        total = prefix[-1]
        sizes = np.arange(1, len(counts))
        left_mean = prefix[:-1] / sizes
        right_mean = (total - prefix[:-1]) / (len(counts) - sizes)
        # maximizing the between-class term minimizes within-class variance
        objective = sizes * left_mean**2 + (len(counts) - sizes) * right_mean**2
        split = int(np.argmax(objective))
        threshold = 0.5 * (counts[split] + counts[split + 1])
        keep = common > threshold  # intra-like edges have the larger counts

    kept = np.zeros(a.shape, dtype=bool)
    kept[i[keep], j[keep]] = kept[j[keep], i[keep]] = True
    assignment = _components(kept)
    comp_sizes = np.bincount(assignment)
    big = np.argsort(comp_sizes)[::-1]
    if len(comp_sizes) < 2 or comp_sizes[big[1]] < 2:
        return sign_partition(spectrum.eigenvector(2)), "fallback: fiedler_sign"

    labels = np.zeros(graph.n, dtype=np.int8)
    labels[assignment == big[0]] = 1
    labels[assignment == big[1]] = 2
    return _grow_by_majority(a, labels), ""


def _run_cell(config, grid_index, point, seed):
    """Sample one cell and evaluate every requested algorithm on it."""
    rows = []
    base = dict(
        experiment=config.experiment, n=point.n, d=point.d,
        kernel_in=_kernel_label(point.f_in), kernel_out=_kernel_label(point.f_out),
        seed=seed, grid_index=grid_index,
    )
    params = SgbmParams(n=point.n, d=point.d, f_in=point.f_in, f_out=point.f_out,
                        seed=cell_seed(config.master_seed, grid_index, seed))
    t0 = time.perf_counter()
    graph, truth, _ = sample_graph(params)
    sample_ms = (time.perf_counter() - t0) * 1000.0

    # every algorithm reads this one Spectrum, so the cell solves A once
    spectrum = Spectrum(graph)
    for algorithm in config.algorithms:
        row = ResultRow(algorithm=algorithm, **base)
        solved_s = spectrum.solve_s
        t0 = time.perf_counter()
        try:
            if algorithm == "motif_baseline":
                predicted, row.note = motif_baseline(spectrum)
            else:
                predicted, report = cluster(spectrum, algorithm, edge_density(point.f_in),
                                            edge_density(point.f_out))
                row.selected_rank = report.selected_index
                row.lambda_star = report.lambda_star
                row.lambda_selected = report.lambda_selected
                row.gap_to_next = report.gap_to_next
            row.accuracy = accuracy(truth, predicted)
        except (DegenerateModelError, EigendecompositionError, MotifInputError) as exc:
            row.note = f"error: {exc}"
            predicted = None
        # the row's own time, less the solving it ran; every row that reads the
        # spectrum (every spectral row, and motif's fallback) then counts the
        # cell's solve once, whichever row ran it
        own_s = time.perf_counter() - t0 - (spectrum.solve_s - solved_s)
        if algorithm != "motif_baseline" or row.note.startswith("fallback"):
            own_s += spectrum.solve_s
        row.runtime_ms = sample_ms + own_s * 1000.0
        rows.append(row)
        if config.labels_dir and predicted is not None:
            stem = f"{config.experiment}_g{grid_index}_s{seed}_{algorithm}"
            write_labels(os.path.join(config.labels_dir, f"{stem}.predicted"), predicted)
            write_labels(os.path.join(config.labels_dir, f"{stem}.truth"), truth)
    return rows


def _blas_thread_controls():
    """(get, set) for the thread count of numpy's OpenBLAS, which LAPACK runs on, or None."""
    get = _openblas.function("openblas_get_num_threads")
    put = _openblas.function("openblas_set_num_threads")
    return None if get is None or put is None else (get, put)


@contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread; restore the count after.

    The count is process-global: other threads see it too while the body
    runs.  Does nothing when no OpenBLAS control is found.
    """
    controls = _blas_thread_controls()
    if controls is None:
        yield
        return
    get, put = controls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def run_sweep(config, workers=1):
    """Run every (grid point, seed, algorithm) cell; canonical row order.

    Cells are independent; workers > 1 runs them in a thread pool with
    OpenBLAS set to one thread for the pool's lifetime (see
    _one_blas_thread; the setting is process-global).  LAPACK and numpy's
    elementwise kernels release the GIL, so the workers really run at
    once instead of queueing on one shared BLAS thread pool.  pool.map keeps
    input order, so rows come grid-major, then by seed, then by algorithm.
    """
    cells = [(gi, point, seed) for gi, point in enumerate(config.grid) for seed in config.seeds]
    if config.labels_dir:
        os.makedirs(config.labels_dir, exist_ok=True)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda cell: _run_cell(config, *cell), cells))
    else:
        chunks = [_run_cell(config, *cell) for cell in cells]
    return [row for chunk in chunks for row in chunk]


def aggregate(rows, group_fields):
    """Mean, standard error and count of accuracy over row groups."""
    groups = {}
    for row in rows:
        if row.accuracy is None:
            continue
        key = tuple(getattr(row, name) for name in group_fields)
        groups.setdefault(key, []).append(row.accuracy)
    out = []
    for key in sorted(groups):
        vals = np.asarray(groups[key], dtype=float)
        se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        out.append(dict(zip(group_fields, key)) | {
            "mean": float(vals.mean()), "se": se, "count": len(vals)})
    return out


def _grid_means(rows):
    """Mean accuracy per grid index, over the rows that have one."""
    return {entry["grid_index"]: entry["mean"] for entry in aggregate(rows, ("grid_index",))}


def _modal_rank(rows):
    ranks = [row.selected_rank for row in rows if row.selected_rank is not None]
    if not ranks:
        return None
    # most frequent; ties to the smaller rank for determinism
    return int(max(set(ranks), key=lambda r: (ranks.count(r), -r)))


# --- sweep presets -------------------------------------------------------

FIG3_N = (500, 1000, 2000, 4000)
FIG4_R_IN_GRID = (0.100, 0.110, 0.115, 0.120, 0.130, 0.135, 0.140,
                  0.150, 0.170, 0.175, 0.180, 0.190)
WAXMAN_Q_GRID = (0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85)
WAXMAN_N = (500, 2000)


def fig3_sweep(n_list=FIG3_N, r_in=0.08, r_out=0.05, seeds=range(20),
               algorithms=("hosc", "hosc_li"), master_seed=0, workers=1):
    """Accuracy versus graph size at fixed radii."""
    grid = [GridPoint(n=n, d=1, f_in=Indicator(r_in), f_out=Indicator(r_out))
            for n in n_list]
    config = SweepConfig(experiment="fig3", grid=grid, seeds=list(seeds),
                         algorithms=tuple(algorithms), master_seed=master_seed)
    rows = run_sweep(config, workers=workers)
    return rows, aggregate(rows, ("n", "algorithm"))


def fig4_sweep(r_in_grid=FIG4_R_IN_GRID, r_out=0.06, n=1500, seeds=range(5),
               master_seed=0, workers=1):
    """Accuracy and selected rank versus r_in; dips sit at rank jumps."""
    r_in_grid = tuple(r_in_grid)
    if min(r_in_grid) <= r_out:
        raise ValueError("r_out must be below every r_in grid value")
    grid = [GridPoint(n=n, d=1, f_in=Indicator(r), f_out=Indicator(r_out))
            for r in r_in_grid]
    config = SweepConfig(experiment="fig4", grid=grid, seeds=list(seeds),
                         algorithms=("hosc",), master_seed=master_seed)
    rows = run_sweep(config, workers=workers)
    means = _grid_means(rows)
    table = [{"r_in": r, "mean_accuracy": means.get(gi),
              "modal_rank": _modal_rank([row for row in rows if row.grid_index == gi])}
             for gi, r in enumerate(r_in_grid)]
    return rows, table


def waxman_sweep(mode="q", grid=WAXMAN_Q_GRID, fixed_out=0.5, s=1.0, q=0.7,
                 n_list=WAXMAN_N, seeds=range(10), master_seed=0, workers=1):
    """Accuracy across a Waxman parameter grid straddling the symmetric point.

    mode "q": q_in runs over the grid with q_out = fixed_out and a shared
    decay s.  mode "s": s_in runs over the grid with s_out = fixed_out
    and a shared amplitude q.  The dip-width statistic per n is the span
    of the contiguous sub-0.9 accuracy run around the symmetric point.
    """
    if mode not in ("q", "s"):
        raise ValueError("mode must be 'q' or 's'")
    points = []
    for n in n_list:
        for value in grid:
            if mode == "q":
                f_in, f_out = Waxman(value, s), Waxman(fixed_out, s)
            else:
                f_in, f_out = Waxman(q, value), Waxman(q, fixed_out)
            points.append(GridPoint(n=n, d=1, f_in=f_in, f_out=f_out))
    config = SweepConfig(experiment="waxman", grid=points, seeds=list(seeds),
                         algorithms=("hosc",), master_seed=master_seed)
    rows = run_sweep(config, workers=workers)

    grid = tuple(grid)
    step = float(np.median(np.diff(sorted(grid)))) if len(grid) > 1 else 0.0
    table, dip_width = [], {}
    grid_means = _grid_means(rows)
    for ni, n in enumerate(n_list):
        means = [grid_means.get(ni * len(grid) + vi) for vi in range(len(grid))]
        table += [{"n": n, mode + "_in": value, "mean_accuracy": mean}
                  for value, mean in zip(grid, means)]
        # contiguous run of sub-0.9 points nearest the symmetric value
        low = [vi for vi, mean in enumerate(means) if mean is not None and mean < 0.9]
        runs = []
        for vi in low:
            if runs and vi == runs[-1][-1] + 1:
                runs[-1].append(vi)
            else:
                runs.append([vi])
        if runs:
            anchor = min(range(len(grid)), key=lambda vi: abs(grid[vi] - fixed_out))
            run = min(runs, key=lambda r: min(abs(vi - anchor) for vi in r))
            dip_width[n] = (grid[run[-1]] - grid[run[0]]) + step
        else:
            dip_width[n] = 0.0
    return rows, table, dip_width


def spectrum_experiment(params, K=64, threshold=0.02, window=0.02, out=None):
    """Sample, solve for the eigenvalues, and match them against the predicted atoms.

    Optionally writes three CSVs under out: the scaled eigenvalues, the
    predicted atoms, and the per-eigenvalue match report.  K, threshold
    and window are checked before anything is sampled.
    """
    measure = limiting_atoms(params.f_in, params.f_out, K=K)
    check_match_range(threshold, window)
    graph, _, _ = sample_graph(params)
    spectrum = Spectrum(graph)  # eigenvalues only: no eigenvector is asked for
    report = spectrum_match(spectrum, measure, threshold=threshold, window=window)
    if out:
        os.makedirs(out, exist_ok=True)
        write_csv(os.path.join(out, "eigenvalues.csv"), ["eigenvalue_over_n"],
                  ([f"{value:.9g}"] for value in spectrum.eigenvalues / spectrum.n))
        write_csv(os.path.join(out, "atoms.csv"), ["location", "lattice_count", "family"],
                  ([f"{atom.location:.9g}", str(atom.lattice_count), atom.family]
                   for atom in measure.atoms))
        write_csv(os.path.join(out, "match.csv"),
                  ["eigenvalue_over_n", "nearest_atom", "distance"],
                  ([f"{value:.9g}", f"{atom:.9g}", f"{dist:.9g}"]
                   for value, atom, dist in report.entries))
    return report, measure


# --- CSV / sidecar output -------------------------------------------------


def _row_cells(row):
    return (
        row.experiment, str(row.n), str(row.d), row.kernel_in, row.kernel_out,
        str(row.seed), row.algorithm,
        f"{row.accuracy:.6f}" if row.accuracy is not None else "",
        str(row.selected_rank) if row.selected_rank is not None else "",
        _fmt(row.lambda_star), _fmt(row.lambda_selected), _fmt(row.gap_to_next),
        row.note,
    )


def write_results(path, rows):
    write_csv(path, RESULT_COLUMNS, map(_row_cells, rows))


def write_timings(path, rows):
    """timings.csv: results.csv's first seven columns, then runtime_ms."""
    write_csv(path, RESULT_COLUMNS[:7] + ("runtime_ms",),
              (_row_cells(row)[:7] + (f"{row.runtime_ms:.3f}",) for row in rows))


def _blas_name():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def write_meta(path, config_echo, workers=1):
    """meta.txt: numpy version, BLAS and its thread count, eigensolver, config echo."""
    controls = _blas_thread_controls()
    if controls is None:
        threads = "not controllable"
    else:
        threads = 1 if workers > 1 else controls[0]()  # as run_sweep runs cells
    # what spectral.Spectrum calls: Lanczos windows, else dsyevd on the whole
    # spectrum, on the LAPACKE routines, or numpy's eigvalsh and eigh without them
    routines = _openblas.lapack()
    solver = ("block Lanczos windows on Graph.matvec and on a dsytrf factor of "
              "A - sigma I, else dsyevd; LAPACKE " + " ".join(routines)
              if routines is not None
              else "numpy.linalg.eigvalsh and eigh (the LAPACKE routines are not exported)")
    lines = [
        f"timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}",
        f"numpy: {np.__version__}",
        f"blas: {_blas_name()}",
        f"blas_threads: {threads}",
        f"eigensolver: {solver}",
        "config:",
    ]
    lines += [f"  {key} = {value}" for key, value in sorted(config_echo.items())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
