import os
import subprocess
import sys

import numpy as np
import pytest

import sgbm
from sgbm import _openblas, harness, kernels, model, spectral
from sgbm.harness import GridPoint, ResultRow, SweepConfig
from sgbm.model import Graph


def two_cliques(half):
    n = 2 * half
    a = np.zeros((n, n), dtype=np.uint8)
    a[:half, :half] = 1
    a[half:, half:] = 1
    np.fill_diagonal(a, 0)
    return Graph(n=n, adjacency=a), np.array([1] * half + [2] * half, dtype=np.int8)


@pytest.fixture(scope="module")
def fig4_run():
    return harness.fig4_sweep()


@pytest.fixture(scope="module")
def waxman_run():
    return harness.waxman_sweep()


# --- config validation -------------------------------------------------------

def test_sweep_config_validation():
    point = GridPoint(n=100, d=1, f_in=kernels.Indicator(0.2),
                      f_out=kernels.Indicator(0.1))
    with pytest.raises(ValueError):
        SweepConfig(experiment="x", grid=[], seeds=[0])
    with pytest.raises(ValueError):
        SweepConfig(experiment="x", grid=[point], seeds=[])
    with pytest.raises(ValueError):
        SweepConfig(experiment="x", grid=[point], seeds=[0], algorithms=("kmeans",))


# --- cell_seed ----------------------------------------------------------------

def test_cell_seed_deterministic_and_distinct():
    assert harness.cell_seed(0, 1, 2) == harness.cell_seed(0, 1, 2)
    seen = {harness.cell_seed(0, gi, seed) for gi in range(40) for seed in range(40)}
    assert len(seen) == 1600
    assert all(0 <= value < 2**64 for value in seen)
    assert harness.cell_seed(1, 3, 4) != harness.cell_seed(2, 3, 4)


def test_sweep_rejects_seeds_outside_the_cell_seed_range():
    """cell_seed packs grid_index << 32 | seed, so seed 2**32 at grid 0 would
    be seed 0 at grid 1; the master seed is taken as 64 unsigned bits."""
    with pytest.raises(ValueError, match="seeds must lie in"):
        harness.fig3_sweep(n_list=(100, 100), seeds=[0, 2**32])
    point = GridPoint(n=100, d=1, f_in=kernels.Indicator(0.2), f_out=kernels.Indicator(0.1))
    for seeds, master_seed in (([-1], 0), ([0], -1), ([0], 2**64)):
        with pytest.raises(ValueError):
            SweepConfig(experiment="x", grid=[point], seeds=seeds, master_seed=master_seed)
    SweepConfig(experiment="x", grid=[point], seeds=[0, 2**32 - 1], master_seed=2**64 - 1)


# --- run_sweep basics ------------------------------------------------------------

def test_sweep_cardinality_and_order():
    point = GridPoint(n=150, d=1, f_in=kernels.Indicator(0.2),
                      f_out=kernels.Indicator(0.05))
    config = SweepConfig(experiment="tiny", grid=[point], seeds=[7],
                         algorithms=("hosc", "hosc_li", "fiedler", "motif_baseline"))
    rows = harness.run_sweep(config)
    assert len(rows) == 4
    assert [row.algorithm for row in rows] == list(config.algorithms)
    for row in rows:
        assert 0.5 <= row.accuracy <= 1.0
        assert row.runtime_ms >= 0.0
        assert row.seed == 7
        assert row.n == 150
    fiedler = rows[2]
    assert fiedler.selected_rank == 2


def test_sweep_workers_and_reruns_identical(tmp_path):
    paths = []
    for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
        rows, _ = harness.fig3_sweep(n_list=(150, 200), seeds=range(3), workers=workers)
        path = tmp_path / f"results_{tag}.csv"
        harness.write_results(path, rows)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1] == paths[2]


def test_pool_pins_blas_to_one_thread_and_restores(monkeypatch):
    controls = harness._blas_thread_controls()
    if controls is None:
        pytest.skip("no OpenBLAS thread control found")
    get, put = controls
    original = get()
    put(2)
    try:
        before = get()
        seen = []
        run_cell = harness._run_cell

        def spy(config, grid_index, point, seed):
            seen.append(get())
            if config.experiment == "boom":
                raise RuntimeError("cell failed")
            return run_cell(config, grid_index, point, seed)

        monkeypatch.setattr(harness, "_run_cell", spy)
        point = GridPoint(n=100, d=1, f_in=kernels.Indicator(0.2),
                          f_out=kernels.Indicator(0.05))
        config = SweepConfig(experiment="pin", grid=[point], seeds=[0, 1, 2])
        assert len(harness.run_sweep(config, workers=2)) == 3
        assert seen == [1, 1, 1]
        assert get() == before

        seen.clear()
        harness.run_sweep(config, workers=1)  # the serial loop keeps the setting
        assert seen == [before] * 3

        config = SweepConfig(experiment="boom", grid=[point], seeds=[0, 1])
        with pytest.raises(RuntimeError, match="cell failed"):
            harness.run_sweep(config, workers=2)
        assert get() == before
    finally:
        put(original)


def test_cli_sweep_same_rows_pooled_and_serial(tmp_path):
    """Pooled cells run on one BLAS thread; serial ones here on two."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(sgbm.__file__)))
    pythonpath = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=pythonpath,
               OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2")
    pinned = harness._blas_thread_controls() is not None
    outputs = []
    for workers, threads in ((1, "2"), (2, "1")):
        cfg = tmp_path / f"sweep{workers}.cfg"
        cfg.write_text("run.preset = waxman\nrun.n_list = 600\n"
                       f"run.seeds = 0:2\nrun.workers = {workers}\n")
        out = tmp_path / f"w{workers}"
        proc = subprocess.run([sys.executable, "-m", "sgbm", "sweep", "--config", str(cfg),
                               "--out", str(out), "--quiet"], env=env)
        assert proc.returncode == 0
        outputs.append((out / "results.csv").read_bytes())
        if pinned:
            assert f"blas_threads: {threads}\n" in (out / "meta.txt").read_text()
    assert outputs[0].count(b"\n") == 1 + 8 * 2
    assert outputs[0] == outputs[1]


def test_programming_error_in_a_cell_propagates(monkeypatch):
    def broken(spectrum, lambda_star):
        raise ValueError("bug")

    monkeypatch.setattr(spectral, "select_eigenpair", broken)
    point = GridPoint(n=100, d=1, f_in=kernels.Indicator(0.2),
                      f_out=kernels.Indicator(0.05))
    config = SweepConfig(experiment="bug", grid=[point], seeds=[0, 1])
    for workers in (1, 2):
        with pytest.raises(ValueError, match="^bug$"):
            harness.run_sweep(config, workers=workers)


def test_spectral_rows_of_a_cell_share_one_solve(monkeypatch, count_routines):
    calls = count_routines(monkeypatch, "dsyevd", "dsytrf", "window", "shifted window")
    point = GridPoint(n=100, d=1, f_in=kernels.Indicator(0.2),
                      f_out=kernels.Indicator(0.05))
    config = SweepConfig(experiment="one", grid=[point], seeds=[0],
                         algorithms=("hosc", "hosc_li", "fiedler"))
    assert all(row.note == "" for row in harness.run_sweep(config))
    assert calls == {"dsyevd": [], "dsytrf": [], "window": [100], "shifted window": []}

    for kind in calls.values():
        kind.clear()
    degenerate = GridPoint(n=100, d=1, f_in=kernels.Indicator(0.1),
                           f_out=kernels.Indicator(0.1))
    config = SweepConfig(experiment="none", grid=[degenerate], seeds=[0])
    assert harness.run_sweep(config)[0].note.startswith("error: mu_in equals mu_out")
    assert calls == {"dsyevd": [], "dsytrf": [], "window": [], "shifted window": []}


def test_every_algorithm_of_a_cell_shares_one_spectrum(tmp_path, monkeypatch, count_routines):
    """At the fig3 radii and n = 1000 motif_baseline falls back to the rank-2
    vector.  It reads that from the cell's one Spectrum, so the cell solves
    A twice: hosc's count inside the bulk margin factors A - lambda* I, and
    fiedler's rank 2 starts the window on A, which motif then reads (a
    Spectrum of its own would start a second); its labels are fiedler's."""
    calls = count_routines(monkeypatch, "dsyevd", "dsytrf", "window", "shifted window")
    point = GridPoint(n=1000, d=1, f_in=kernels.Indicator(0.08),
                      f_out=kernels.Indicator(0.05))
    config = SweepConfig(experiment="fig3", grid=[point], seeds=[0],
                         algorithms=harness.ALGORITHMS, labels_dir=str(tmp_path))
    rows = harness.run_sweep(config)
    assert calls == {"dsyevd": [], "dsytrf": [1000], "window": [1000],
                     "shifted window": [1000]}
    fiedler, motif = rows[2], rows[3]
    assert motif.note == "fallback: fiedler_sign"
    assert motif.accuracy == fiedler.accuracy
    assert ((tmp_path / "fig3_g0_s0_motif_baseline.predicted").read_bytes()
            == (tmp_path / "fig3_g0_s0_fiedler.predicted").read_bytes())


def test_shared_solve_counts_once_per_row(monkeypatch, count_routines):
    """Every spectral row of a cell includes the shared solve once, not twice
    in the row that ran it: hosc (which solves) and fiedler (which reuses
    the spectrum) differ by far less than the solve takes."""
    delay = 0.3
    count_routines(monkeypatch, "dsyevd", "dsytrf", "window", delay=delay)
    point = GridPoint(n=100, d=1, f_in=kernels.Indicator(0.2),
                      f_out=kernels.Indicator(0.05))
    config = SweepConfig(experiment="timing", grid=[point], seeds=[0],
                         algorithms=("hosc", "fiedler"))
    hosc, fiedler = harness.run_sweep(config)
    assert fiedler.runtime_ms >= delay * 1000.0
    assert abs(hosc.runtime_ms - fiedler.runtime_ms) < delay * 1000.0 / 3


def test_motif_fallback_row_time_does_not_depend_on_order(monkeypatch, count_routines):
    """A motif_baseline row that falls back reads the cell's Spectrum, so, like
    every spectral row, it counts the cell's solve whichever row ran it."""
    delay = 0.3
    count_routines(monkeypatch, "dsyevd", "dsytrf", "window", delay=delay)
    point = GridPoint(n=1000, d=1, f_in=kernels.Indicator(0.08),
                      f_out=kernels.Indicator(0.05))
    motif_ms = []
    for order in (("motif_baseline", "fiedler"), ("fiedler", "motif_baseline")):
        config = SweepConfig(experiment="fig3", grid=[point], seeds=[0], algorithms=order)
        motif = next(row for row in harness.run_sweep(config)
                     if row.algorithm == "motif_baseline")
        assert motif.note == "fallback: fiedler_sign"
        motif_ms.append(motif.runtime_ms)
    assert min(motif_ms) >= delay * 1000.0
    assert abs(motif_ms[0] - motif_ms[1]) < delay * 1000.0 / 3


def test_edgeless_model_gives_error_rows():
    point = GridPoint(n=100, d=1, f_in=kernels.Constant(0.0), f_out=kernels.Constant(0.0))
    config = SweepConfig(experiment="empty", grid=[point], seeds=[0],
                         algorithms=("hosc", "motif_baseline"))
    rows = harness.run_sweep(config)
    assert [row.accuracy for row in rows] == [None, None]
    assert rows[0].note.startswith("error: mu_in equals mu_out")
    assert rows[1].note == "error: empty graph: no edges to count motifs on"


def test_degenerate_point_becomes_error_row():
    point = GridPoint(n=100, d=1, f_in=kernels.Indicator(0.1),
                      f_out=kernels.Indicator(0.1))
    config = SweepConfig(experiment="deg", grid=[point], seeds=[0])
    rows = harness.run_sweep(config)
    assert len(rows) == 1
    assert rows[0].accuracy is None
    assert rows[0].note.startswith("error:")


def test_persisted_labels_reproduce_accuracy(tmp_path):
    grid = [GridPoint(n=150, d=1, f_in=kernels.Indicator(0.2),
                      f_out=kernels.Indicator(0.05)),
            GridPoint(n=200, d=1, f_in=kernels.Indicator(0.15),
                      f_out=kernels.Indicator(0.05))]
    config = SweepConfig(experiment="audit", grid=grid, seeds=[0, 1],
                         algorithms=("hosc", "hosc_li"), labels_dir=str(tmp_path))
    rows = harness.run_sweep(config)
    assert len(rows) == 8
    for gi in (0, 1):
        for seed in (0, 1):
            for algorithm in ("hosc", "hosc_li"):
                stem = tmp_path / f"audit_g{gi}_s{seed}_{algorithm}"
                predicted = model.read_labels(str(stem) + ".predicted")
                truth = model.read_labels(str(stem) + ".truth")
                row = next(r for r in rows if (r.seed, r.algorithm) == (seed, algorithm)
                           and r.n == grid[gi].n)
                assert row.accuracy == spectral.accuracy(truth, predicted)


# --- aggregate ---------------------------------------------------------------------

def test_aggregate_means_and_errors():
    def row(n, algorithm, acc):
        return ResultRow(experiment="x", n=n, d=1, kernel_in="k", kernel_out="k",
                         seed=0, algorithm=algorithm, accuracy=acc)

    rows = [row(100, "hosc", 0.8), row(100, "hosc", 0.9),
            row(200, "hosc", 1.0), row(100, "hosc_li", None)]
    agg = harness.aggregate(rows, ("n", "algorithm"))
    assert [(g["n"], g["algorithm"]) for g in agg] == [(100, "hosc"), (200, "hosc")]
    first = agg[0]
    assert first["mean"] == pytest.approx(0.85)
    assert first["se"] == pytest.approx(np.std([0.8, 0.9], ddof=1) / np.sqrt(2))
    assert first["count"] == 2
    assert agg[1]["se"] == 0.0


# --- motif_baseline ---------------------------------------------------------------

def test_motif_recovers_cliques():
    graph, truth = two_cliques(10)
    labels, note = harness.motif_baseline(spectral.Spectrum(graph))
    assert note == ""
    assert spectral.accuracy(truth, labels) == 1.0


def test_motif_small_and_empty_graphs():
    with pytest.raises(harness.MotifInputError, match="n >= 4"):
        harness.motif_baseline(spectral.Spectrum(Graph(n=3, adjacency=np.zeros((3, 3), np.uint8))))
    with pytest.raises(harness.MotifInputError, match="no edges"):
        harness.motif_baseline(spectral.Spectrum(Graph(n=6, adjacency=np.zeros((6, 6), np.uint8))))
    assert issubclass(harness.MotifInputError, ValueError)


def grow_float_reference(adjacency, labels, seen):
    """The float64 matrix-vector vote loop that _grow_by_majority replaced.

    Records in seen the unassigned count on entry and which tie rules ran.
    """
    seen["unassigned"] = int(np.sum(labels == 0))
    dense = adjacency.astype(np.float64)
    while True:
        unassigned = labels == 0
        if not unassigned.any():
            break
        votes_1 = dense[unassigned] @ (labels == 1).astype(np.float64)
        votes_2 = dense[unassigned] @ (labels == 2).astype(np.float64)
        decided = (votes_1 + votes_2) > 0
        if not decided.any():
            seen["unreached"] = True
            labels[unassigned] = 2
            break
        if np.any(decided & (votes_1 == votes_2)):
            seen["tie"] = True
        new = np.where(votes_1 > votes_2, 1, 2).astype(np.int8)
        idx = np.flatnonzero(unassigned)
        labels[idx[decided]] = new[decided]
    return labels


def test_motif_votes_match_float_reference(monkeypatch):
    # two 10-cliques; node 20 touches one node of each (a 1-1 tie), node 21
    # is isolated (no labelled neighbour ever), and each clique has a
    # two-node tail (22-23, 24-25) whose far end waits a round for a vote
    cliques, _ = two_cliques(10)
    a = np.zeros((26, 26), dtype=np.uint8)
    a[:20, :20] = cliques.adjacency
    for i, j in ((20, 0), (20, 10), (22, 1), (23, 22), (24, 11), (25, 24)):
        a[i, j] = a[j, i] = 1
    params = model.SgbmParams(n=600, d=1, f_in=kernels.Indicator(0.08),
                              f_out=kernels.Indicator(0.05), seed=0)
    graphs = [cliques, Graph(n=26, adjacency=a), model.sample_graph(params)[0]]
    got = [harness.motif_baseline(spectral.Spectrum(g)) for g in graphs]

    seen = []

    def reference(adjacency, labels):
        seen.append({})
        return grow_float_reference(adjacency, labels, seen[-1])

    monkeypatch.setattr(harness, "_grow_by_majority", reference)
    for graph, (labels, note) in zip(graphs, got):
        want_labels, want_note = harness.motif_baseline(spectral.Spectrum(graph))
        assert note == want_note == ""
        assert labels.dtype == want_labels.dtype
        assert np.array_equal(labels, want_labels)
    assert len(seen) == 3
    assert [entry["unassigned"] for entry in seen[:2]] == [0, 6]
    assert seen[1].get("tie") and seen[1].get("unreached")
    assert seen[2]["unassigned"] > 0


def test_motif_falls_back_on_complete_graph():
    a = np.ones((8, 8), dtype=np.uint8) - np.eye(8, dtype=np.uint8)
    labels, note = harness.motif_baseline(spectral.Spectrum(Graph(n=8, adjacency=a)))
    assert note == "fallback: fiedler_sign"
    assert set(np.unique(labels)) <= {1, 2}


def test_common_neighbours_match_int32_product():
    complete = np.ones((300, 300), dtype=np.uint8) - np.eye(300, dtype=np.uint8)
    params = model.SgbmParams(n=1000, d=1, f_in=kernels.Indicator(0.2),
                              f_out=kernels.Indicator(0.05), seed=0)
    for graph in (two_cliques(10)[0], Graph(n=300, adjacency=complete),
                  model.sample_graph(params)[0]):
        a = graph.adjacency.astype(np.int32)
        counts = harness._common_neighbours(graph.adjacency)
        assert counts.dtype == np.int32
        assert np.array_equal(counts, a @ a)


def assert_components_match_scipy(kept):
    """harness._components against scipy's connected_components, the finder it
    replaced: the same count, and the same label for every node."""
    from scipy.sparse.csgraph import connected_components

    want_count, want = connected_components(kept.astype(np.float64), directed=False)
    got = harness._components(kept)
    assert len(np.unique(got)) == got.max(initial=-1) + 1 == want_count
    assert np.array_equal(got, want)


def test_components_match_scipy_on_motif_kept_edges(monkeypatch):
    """On the kept-edge graphs motif_baseline itself builds from sampled GBMs."""
    seen = []
    components = harness._components
    monkeypatch.setattr(harness, "_components", lambda kept: seen.append(kept) or components(kept))
    for seed, r_in in ((0, 0.2), (1, 0.2), (2, 0.08), (3, 0.08), (4, 0.12)):
        params = model.SgbmParams(n=600, d=1, f_in=kernels.Indicator(r_in),
                                  f_out=kernels.Indicator(0.05), seed=seed)
        harness.motif_baseline(spectral.Spectrum(model.sample_graph(params)[0]))
    monkeypatch.undo()
    assert len(seen) == 5
    assert max(components(kept).max() for kept in seen) > 1  # more than two components
    for kept in seen:
        assert_components_match_scipy(kept)


def test_components_match_scipy_on_edge_cases():
    rng = np.random.default_rng(0)
    cases = []
    for n, p in ((50, 0.01), (200, 0.004), (200, 0.02), (400, 0.003)):
        upper = np.triu(rng.random((n, n)) < p, k=1)
        cases.append(upper | upper.T)  # sparse random graphs: isolated nodes, many components
    path = np.zeros((300, 300), dtype=bool)
    order = rng.permutation(300)  # a path of diameter n - 1 through shuffled node ids
    path[order[:-1], order[1:]] = path[order[1:], order[:-1]] = True
    cases.append(path)
    cases.append(np.zeros((7, 7), dtype=bool))  # edgeless: every node its own component
    halves = two_cliques(10)[0].adjacency.astype(bool)
    interleaved = np.arange(20).reshape(2, 10).T.ravel()  # cliques on even and odd ids
    cases.append(halves[np.ix_(interleaved, interleaved)])  # two equal sizes: the tie order
    cases.append(halves)
    for kept in cases:
        assert_components_match_scipy(kept)
    assert list(harness._components(cases[-2])) == [0, 1] * 10


def test_motif_on_separated_gbm():
    accs = []
    for seed in range(10):
        params = model.SgbmParams(n=1000, d=1, f_in=kernels.Indicator(0.2),
                                  f_out=kernels.Indicator(0.05), seed=seed)
        graph, truth, _ = model.sample_graph(params)
        labels, _ = harness.motif_baseline(spectral.Spectrum(graph))
        accs.append(spectral.accuracy(truth, labels))
    assert float(np.mean(accs)) >= 0.8


# --- accuracy-versus-n preset --------------------------------------------------------

def test_size_sweep_row_shape(fig3_data):
    rows = fig3_data["rows"]
    assert len(rows) == 4 * 20 * 2
    assert all(row.note == "" for row in rows)
    assert all(0.5 <= row.accuracy <= 1.0 for row in rows)
    table = fig3_data["table"]
    assert len(table) == 8
    assert all(group["count"] == 20 for group in table)


def test_size_sweep_accuracy_grows(fig3_data):
    by_n = {group["n"]: group for group in fig3_data["table"]
            if group["algorithm"] == "hosc"}
    ns = sorted(by_n)
    for lo, hi in zip(ns[:-1], ns[1:]):
        assert by_n[hi]["mean"] >= by_n[lo]["mean"] - by_n[lo]["se"]
    assert by_n[4000]["mean"] >= 0.9


def test_local_improvement_does_not_hurt(fig3_data):
    """Mean HOSC-LI accuracy within 0.01 of mean HOSC accuracy at every n.

    The one-pass majority relabelling amplifies errors when its input
    labelling is worse than about 0.75, which dominates at the small-n
    end of this preset: observed deficits are ~0.011 at n=500 and ~0.014
    at n=1000 (standard errors ~0.03).  Kept at the stated tolerance;
    expected to fail marginally.
    """
    table = {(group["n"], group["algorithm"]): group["mean"]
             for group in fig3_data["table"]}
    for n in (500, 1000, 2000, 4000):
        assert table[(n, "hosc_li")] >= table[(n, "hosc")] - 0.01, n


# --- radius sweep ----------------------------------------------------------------------

def test_radius_sweep_rejects_inverted_radii():
    with pytest.raises(ValueError):
        harness.fig4_sweep(r_in_grid=(0.05, 0.1), r_out=0.06)
    with pytest.raises(ValueError):
        harness.fig4_sweep(r_in_grid=(0.06, 0.1), r_out=0.06)


def test_radius_sweep_entries_follow_grid_position():
    # both values format as "indicator(r=0.12)"; each entry keeps its own rows
    rows, table = harness.fig4_sweep(r_in_grid=(0.1200001, 0.1200002), r_out=0.06,
                                     n=300, seeds=range(3))
    assert len({row.kernel_in for row in rows}) == 1
    own = [rows[:3], rows[3:]]  # run_sweep returns rows grid-major
    for gi, (entry, cell_rows) in enumerate(zip(table, own)):
        assert [row.grid_index for row in cell_rows] == [gi] * 3
        assert entry["mean_accuracy"] == float(np.mean([row.accuracy for row in cell_rows]))
        assert entry["modal_rank"] == harness._modal_rank(cell_rows)
    assert table[0]["mean_accuracy"] != table[1]["mean_accuracy"]


def test_radius_sweep_rank_is_locally_constant(fig4_run):
    _, table = fig4_run
    ranks = [entry["modal_rank"] for entry in table]
    assert all(rank is not None for rank in ranks)
    changes = sum(1 for a, b in zip(ranks[:-1], ranks[1:]) if a != b)
    assert changes <= 5
    longest = best = 1
    for a, b in zip(ranks[:-1], ranks[1:]):
        best = best + 1 if a == b else 1
        longest = max(longest, best)
    assert longest >= 3


def test_radius_sweep_dips_at_rank_changes(fig4_run):
    _, table = fig4_run
    ranks = [entry["modal_rank"] for entry in table]
    accs = [entry["mean_accuracy"] for entry in table]
    median = float(np.median(accs))
    boundaries = [i for i in range(1, len(ranks)) if ranks[i] != ranks[i - 1]]
    assert boundaries, "expected at least one rank change across the grid"
    for i in boundaries:
        assert min(accs[i - 1], accs[i]) < median, (i, ranks, accs)


# --- waxman sweep ----------------------------------------------------------------------

def test_waxman_mode_validation():
    with pytest.raises(ValueError):
        harness.waxman_sweep(mode="sigma")


def test_waxman_symmetric_point_is_degenerate():
    rows, table, dip = harness.waxman_sweep(
        mode="q", grid=(0.5, 0.505), fixed_out=0.5, n_list=(500,), seeds=range(4))
    diagonal = [row for row in rows if "q=0.5," in row.kernel_in]
    assert len(diagonal) == 4
    assert all(row.accuracy is None and row.note.startswith("error:")
               for row in diagonal)
    near = [entry for entry in table if entry["q_in"] == 0.505]
    assert near[0]["mean_accuracy"] < 0.65


def test_waxman_decay_mode_runs():
    rows, table, dip = harness.waxman_sweep(
        mode="s", grid=(1.0, 3.0), fixed_out=2.0, q=0.7, n_list=(300,), seeds=range(2))
    assert len(rows) == 4
    assert {entry["s_in"] for entry in table} == {1.0, 3.0}
    assert set(dip) == {300}


def test_waxman_entries_follow_grid_position():
    rows, table, _ = harness.waxman_sweep(
        mode="q", grid=(0.3, 0.3000001), fixed_out=0.5, n_list=(200, 300), seeds=range(2))
    assert rows[0].kernel_in == rows[2].kernel_in  # the labels collide
    for gi, entry in enumerate(table):
        cell_rows = rows[2 * gi:2 * gi + 2]  # grid-major, n outermost
        assert [row.grid_index for row in cell_rows] == [gi] * 2
        assert entry["n"] == cell_rows[0].n
        assert entry["mean_accuracy"] == float(np.mean([row.accuracy for row in cell_rows]))
    assert table[0]["mean_accuracy"] != table[1]["mean_accuracy"]


def test_waxman_preset_recovers_far_from_diagonal(waxman_run):
    _, table, _ = waxman_run
    for n in (500, 2000):
        far = [entry["mean_accuracy"] for entry in table
               if entry["n"] == n and abs(entry["q_in"] - 0.5) >= 0.3]
        assert far and all(acc >= 0.9 for acc in far)


def test_waxman_dip_narrows_with_n(waxman_run):
    _, _, dip = waxman_run
    assert dip[2000] <= dip[500]


# --- spectrum experiment ----------------------------------------------------------------

def test_spectrum_experiment_writes_csvs(tmp_path):
    params = model.SgbmParams(n=400, d=1, f_in=kernels.Constant(0.9),
                              f_out=kernels.Constant(0.1), seed=0)
    report, measure = harness.spectrum_experiment(
        params, K=8, threshold=0.1, window=0.05, out=str(tmp_path))
    assert len(report.entries) == 2
    assert report.outlier_count == 0

    eigen_lines = (tmp_path / "eigenvalues.csv").read_text().splitlines()
    assert eigen_lines[0] == "eigenvalue_over_n"
    assert len(eigen_lines) == 401

    atom_lines = (tmp_path / "atoms.csv").read_text().splitlines()
    assert atom_lines[0] == "location,lattice_count,family"
    assert len(atom_lines) == 1 + len(measure.atoms)

    match_lines = (tmp_path / "match.csv").read_text().splitlines()
    assert match_lines[0] == "eigenvalue_over_n,nearest_atom,distance"
    assert len(match_lines) == 3


@pytest.mark.parametrize("f_in,f_out", [
    (kernels.Constant(0.9), kernels.Constant(0.1)),
    (kernels.Indicator(0.2), kernels.Indicator(0.05)),
    (kernels.Waxman(0.45, 1.0), kernels.Waxman(0.5, 1.0)),
], ids=["sbm", "gbm", "waxman"])
def test_spectrum_files_match_full_eigh(tmp_path, monkeypatch, f_in, f_out):
    """eigenvalues.csv and match.csv from eigvalsh equal those from eigh."""
    params = model.SgbmParams(n=1000, d=1, f_in=f_in, f_out=f_out, seed=4)
    harness.spectrum_experiment(params, out=str(tmp_path / "partial"))
    monkeypatch.setattr(harness, "Spectrum", spectral.eigendecompose)
    harness.spectrum_experiment(params, out=str(tmp_path / "full"))
    for name in ("eigenvalues.csv", "atoms.csv", "match.csv"):
        assert (tmp_path / "partial" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


# --- output files ------------------------------------------------------------------------

def test_results_csv_format(tmp_path):
    rows, _ = harness.fig3_sweep(n_list=(150,), seeds=(0,))
    path = tmp_path / "results.csv"
    harness.write_results(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(harness.RESULT_COLUMNS)
    assert len(lines) == 3
    cells = lines[1].split(",")
    assert cells[0] == "fig3"
    assert cells[6] == "hosc"
    float(cells[7])  # accuracy parses

    tpath = tmp_path / "timings.csv"
    harness.write_timings(tpath, rows)
    tlines = tpath.read_text().splitlines()
    assert tlines[0] == "experiment,n,d,kernel_in,kernel_out,seed,algorithm,runtime_ms"
    assert len(tlines) == 3
    for tline, line in zip(tlines[1:], lines[1:]):
        tcells = tline.split(",")
        assert tcells[:7] == line.split(",")[:7]
        assert float(tcells[7]) > 0.0


def test_meta_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "meta.txt"
    harness.write_meta(path, {"model.n": 100, "run.seed": 1}, workers=2)
    text = path.read_text()
    assert "numpy:" in text
    if _openblas.lapack() is not None:
        assert ("eigensolver: block Lanczos windows on Graph.matvec and on a dsytrf factor "
                "of A - sigma I, else dsyevd; "
                "LAPACKE dsyevd dstebz dstein dsbtrd dsytrf dsytrs\n") in text
    with monkeypatch.context() as patch:
        patch.setattr(_openblas, "lapack", lambda: None)
        harness.write_meta(tmp_path / "eigh.txt", {}, workers=2)
    assert ("eigensolver: numpy.linalg.eigvalsh and eigh (the LAPACKE routines are not "
            "exported)\n"
            in (tmp_path / "eigh.txt").read_text())
    assert "  model.n = 100" in text
    assert "  run.seed = 1" in text
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert f"blas: {blas['name']} {blas['version']}\n" in text
    controls = harness._blas_thread_controls()
    if controls is None:
        assert "blas_threads: not controllable\n" in text
    else:
        assert "blas_threads: 1\n" in text
        harness.write_meta(path, {}, workers=1)
        assert f"blas_threads: {controls[0]()}\n" in path.read_text()
