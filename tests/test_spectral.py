import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgbm import _openblas, cli, harness, kernels, model, spectral
from sgbm.model import Graph, SgbmParams
from sgbm.spectral import DegenerateModelError, EigendecompositionError


def two_cliques(half):
    """Adjacency of two disjoint cliques on contiguous index blocks."""
    n = 2 * half
    a = np.zeros((n, n), dtype=np.uint8)
    a[:half, :half] = 1
    a[half:, half:] = 1
    np.fill_diagonal(a, 0)
    return Graph(n=n, adjacency=a), np.array([1] * half + [2] * half, dtype=np.int8)


# --- eigendecompose ---------------------------------------------------------

def test_single_edge_spectrum():
    a = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    spec = spectral.eigendecompose(Graph(n=2, adjacency=a))
    assert np.allclose(spec.eigenvalues, [1.0, -1.0], atol=1e-12)
    partial = spectral.Spectrum(Graph(n=2, adjacency=a))
    assert np.allclose(partial.eigenvector(1), [0.5**0.5, 0.5**0.5], atol=1e-15)
    assert np.allclose(partial.eigenvector(2), [0.5**0.5, -(0.5**0.5)], atol=1e-15)
    assert partial._eigenvectors is None  # the window on A, at its smallest size


def test_two_disjoint_edges_spectrum():
    a = np.zeros((4, 4), dtype=np.uint8)
    a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 1
    spec = spectral.eigendecompose(Graph(n=4, adjacency=a))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, -1.0, -1.0], atol=1e-12)


def test_complete_graph_spectrum():
    a = np.ones((4, 4), dtype=np.uint8) - np.eye(4, dtype=np.uint8)
    spec = spectral.eigendecompose(Graph(n=4, adjacency=a))
    assert np.allclose(spec.eigenvalues, [3.0, -1.0, -1.0, -1.0], atol=1e-12)


def test_eigendecompose_needs_two_nodes():
    with pytest.raises(ValueError):
        spectral.eigendecompose(Graph(n=1, adjacency=np.zeros((1, 1), dtype=np.uint8)))


def test_spectrum_residual_and_orthonormality():
    params = SgbmParams(n=300, d=1, f_in=kernels.Indicator(0.15),
                        f_out=kernels.Indicator(0.05), seed=2)
    graph, _, _ = model.sample_graph(params)
    spec = spectral.eigendecompose(graph)
    assert np.all(np.diff(spec.eigenvalues) <= 0)
    a = graph.dense()
    residual = a @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
    assert np.linalg.norm(residual, axis=0).max() <= 1e-8 * graph.n
    gram = spec.eigenvectors.T @ spec.eigenvectors
    assert np.abs(gram - np.eye(graph.n)).max() <= 1e-8
    assert spec.n == 300
    # reversed views of the solve's output, not copies
    assert spec.eigenvalues.strides[0] < 0 and not spec.eigenvalues.flags.owndata
    assert spec.eigenvectors.strides[1] < 0 and not spec.eigenvectors.flags.owndata


def sampled_graph(n, seed=0):
    params = SgbmParams(n=n, d=1, f_in=kernels.Indicator(0.2),
                        f_out=kernels.Indicator(0.05), seed=seed)
    return model.sample_graph(params)[0]


def test_eigendecompose_failure_is_an_error_and_exit_4(tmp_path, monkeypatch, capsys,
                                                      patch_lapack):
    graph = sampled_graph(200)
    # info > 0: no convergence
    patch_lapack(monkeypatch, dsyevd=lambda *args: 3)
    with pytest.raises(EigendecompositionError, match="dsyevd failed"):
        spectral.eigendecompose(graph)
    model.write_graph(tmp_path / "edges.txt", graph, 1, 0)
    model.write_labels(tmp_path / "labels.txt", np.ones(200, dtype=np.int8))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel_in.kind = indicator\nkernel_in.r = 0.2\n"
                   "kernel_out.kind = indicator\nkernel_out.r = 0.05\n"
                   f"run.graph = {tmp_path / 'edges.txt'}\n"
                   f"run.labels = {tmp_path / 'labels.txt'}\n")
    assert cli.main(["cluster", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert "eigensolver failure: LAPACK dsyevd failed" in capsys.readouterr().err


@pytest.mark.parametrize("info", [-1010, -1011])  # LAPACKE's work and transpose memory errors
def test_eigendecompose_allocation_failure_is_a_memory_error(monkeypatch, patch_lapack, info):
    patch_lapack(monkeypatch, dsyevd=lambda *args: info)
    with pytest.raises(MemoryError):
        spectral.eigendecompose(sampled_graph(20))


def test_eigendecompose_holds_one_dense_copy():
    """While it solves, the traced peak is one float64 n x n array, the copy
    of A that dsyevd overwrites with the eigenvectors (its workspace is
    allocated by LAPACKE, outside tracemalloc), and the spectrum then holds
    that one array."""
    graph = sampled_graph(1000)
    tracemalloc.start()
    try:
        spec = spectral.eigendecompose(graph)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.n == 1000
    assert peak <= 1.1 * 8 * 1000**2
    assert held <= 1.1 * 8 * 1000**2


def test_residual_check_allocates_by_row_block():
    """eigenvector(rank) of either solver casts the uint8 adjacency a row
    block at a time, never to one n x n float64 temporary (8 MB here)."""
    graph = sampled_graph(1000)
    full, partial = spectral.eigendecompose(graph), spectral.Spectrum(graph)
    partial.values(3, 3)  # the window's basis is not the residual check's
    for spectrum in (full, partial):
        tracemalloc.start()
        try:
            spectrum.eigenvector(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
    assert partial._eigenvalues is None and 3 in partial._ritz  # the window's was measured
    vector = full.eigenvectors[:, 2]
    radius = max(1.0, float(full.eigenvalues[0]))
    value = float(full.eigenvalues[2])
    assert np.array_equal(spectral._checked(graph, value, vector, radius),
                          full.eigenvector(3))
    perturbed = vector.copy()
    perturbed[500] += 1e-6
    with pytest.raises(EigendecompositionError, match="residual"):
        spectral._checked(graph, value, perturbed, radius)


# --- ideal_eigenvalue ---------------------------------------------------------

def test_ideal_eigenvalue_values():
    assert spectral.ideal_eigenvalue(0.16, 0.04, 2000) == pytest.approx(120.0)
    assert spectral.ideal_eigenvalue(0.1, 0.4, 100) == pytest.approx(-15.0)


def test_ideal_eigenvalue_degenerate():
    with pytest.raises(DegenerateModelError):
        spectral.ideal_eigenvalue(0.3, 0.3, 100)


# --- select_eigenpair ---------------------------------------------------------

def test_select_closest(fixed_spectrum):
    spec = fixed_spectrum([3.0, -1.0, -1.0, -1.0], np.eye(4))
    report = spectral.select_eigenpair(spec, 2.0)
    assert report.lambda_selected == 3.0
    assert report.selected_index == 1
    assert report.gap_to_next == pytest.approx(4.0)


def test_select_tie_prefers_larger(fixed_spectrum):
    spec = fixed_spectrum([2.0, 0.0], np.eye(2))
    report = spectral.select_eigenpair(spec, 1.0)
    assert report.lambda_selected == 2.0
    assert report.selected_index == 1
    assert report.gap_to_next == pytest.approx(2.0)


def test_select_empty_spectrum(fixed_spectrum):
    spec = fixed_spectrum([], np.zeros((0, 0)))
    with pytest.raises(ValueError):
        spectral.select_eigenpair(spec, 1.0)


def test_selected_rank_is_four_at_small_scale():
    # n=150, r_in=0.2, r_out=0.05: the informative eigenvector sits at rank 4
    ranks = []
    for seed in range(5):
        params = SgbmParams(n=150, d=1, f_in=kernels.Indicator(0.2),
                            f_out=kernels.Indicator(0.05), seed=seed)
        graph, _, _ = model.sample_graph(params)
        _, report = spectral.hosc(graph, 0.4, 0.1)
        ranks.append(report.selected_index)
    values, counts = np.unique(ranks, return_counts=True)
    assert values[np.argmax(counts)] == 4


# --- sign_partition -------------------------------------------------------------

def test_sign_partition_basic():
    labels = spectral.sign_partition(np.array([0.5, 0.5, -0.5, -0.5]))
    assert np.array_equal(labels, [1, 1, 2, 2])


def test_sign_partition_zero_goes_to_two():
    labels = spectral.sign_partition(np.array([0.9, 0.0, -0.1]))
    assert np.array_equal(labels, [1, 2, 2])


def test_sign_partition_flip_preserves_accuracy():
    v = np.array([0.3, -0.2, 0.7, -0.4])
    truth = spectral.sign_partition(v)
    flipped = spectral.sign_partition(-v)
    assert not np.array_equal(truth, flipped)
    assert spectral.accuracy(truth, flipped) == 1.0


# --- hosc ---------------------------------------------------------------------

def test_hosc_two_cliques_exact():
    """Two disjoint cliques with contiguous blocks are recovered exactly.

    The informative eigenvalue here is doubly degenerate (each clique
    contributes the same Perron value), so the solver is free to return
    any basis of the 2-dimensional eigenspace.  Contiguous ordering keeps
    the returned vectors supported on single blocks, which the sign
    partition resolves at this size.
    """
    graph, truth = two_cliques(10)
    labels, report = spectral.hosc(graph, 1.0, 0.0)
    assert spectral.accuracy(truth, labels) == 1.0
    assert report.lambda_selected == pytest.approx(9.0)


def test_hosc_sbm_is_classical_spectral_clustering(sbm_instances):
    # p_in=0.9, p_out=0.1, n=500: the informative eigenvalue is the second largest
    for inst in sbm_instances:
        report = spectral.select_eigenpair(
            inst["spectrum"], spectral.ideal_eigenvalue(0.9, 0.1, 500))
        pred = spectral.sign_partition(report.eigenvector)
        assert report.selected_index == 2
        assert spectral.accuracy(inst["labels"], pred) >= 0.99


def composed(graph, algorithm, mu_in, mu_out, solve, iterate):
    """cluster's steps written out one by one: (labels, rank, lambda, lambda*)."""
    spectrum = solve(graph)
    if algorithm == "fiedler":
        labels = spectral.sign_partition(spectrum.eigenvector(2))
        return labels, 2, float(spectrum.values(2, 2)[0]), None
    lambda_star = spectral.ideal_eigenvalue(mu_in, mu_out, graph.n)
    report = spectral.select_eigenpair(spectrum, lambda_star)
    labels = spectral.sign_partition(report.eigenvector)
    if algorithm == "hosc_li":
        labels = spectral.local_improvement(graph, labels, iterate=iterate)
    return labels, report.selected_index, report.lambda_selected, lambda_star


@pytest.mark.parametrize("solve", [spectral.Spectrum, spectral.eigendecompose],
                         ids=["partial", "full"])
@pytest.mark.parametrize("algorithm,iterate", [
    ("hosc", False), ("hosc_li", False), ("hosc_li", True), ("fiedler", False)])
def test_cluster_matches_step_by_step_composition(solve, algorithm, iterate):
    # seed 1: one majority pass and the iterated vote give different labels
    for seed in range(3):
        params = SgbmParams(n=300, d=1, f_in=kernels.Indicator(0.2),
                            f_out=kernels.Indicator(0.05), seed=seed)
        graph, _, _ = model.sample_graph(params)
        mu_in = kernels.edge_density(params.f_in)
        mu_out = kernels.edge_density(params.f_out)
        spectrum = solve(graph)
        labels, report = spectral.cluster(spectrum, algorithm, mu_in, mu_out, iterate=iterate)
        reference = composed(graph, algorithm, mu_in, mu_out, solve, iterate)
        assert np.array_equal(labels, reference[0])
        assert (report.selected_index, report.lambda_selected, report.lambda_star) \
            == reference[1:]
        # only eigendecompose solves every vector
        assert (spectrum._eigenvectors is None) == (solve is spectral.Spectrum)
        if algorithm == "fiedler":
            assert report.gap_to_next is None


def test_cluster_defaults_to_partial_spectrum_and_hosc_is_cluster():
    graph, _ = two_cliques(10)
    spectrum = spectral.Spectrum(graph)
    labels, report = spectral.cluster(spectrum, "hosc", 0.9, 0.1)
    assert report.eigenvector is spectrum.eigenvector(report.selected_index)  # read from it
    hosc_labels, hosc_report = spectral.hosc(graph, 0.9, 0.1)
    assert np.array_equal(labels, hosc_labels)
    assert hosc_report.selected_index == report.selected_index
    with pytest.raises(ValueError, match="unknown algorithm"):
        spectral.cluster(spectrum, "motif_baseline", 0.9, 0.1)


def test_hosc_degenerate_model_rejected():
    graph, _ = two_cliques(5)
    with pytest.raises(DegenerateModelError):
        spectral.hosc(graph, 0.3, 0.3)


def test_hosc_gbm_accuracy(sparse_gbm_ensemble):
    """Mean HOSC accuracy at n=2000, r_in=0.08, r_out=0.02.

    At these radii the nearest uninformative limit atom sits 0.0033 from
    the informative one, and empirical eigenvalue fluctuations at n=2000
    are about twice that separation, so selection regularly lands on a
    geometric harmonic and the mean over seeds stalls near 0.86 (0.88
    over 30 seeds, with only ~40% of runs reaching 0.95).  Kept at the
    stated threshold; expected to fail.
    """
    assert float(np.mean(sparse_gbm_ensemble["hosc_accuracy"])) >= 0.95


def test_hosc_invariant_under_node_relabelling():
    for seed in range(4):
        params = SgbmParams(n=50, d=1, f_in=kernels.Indicator(0.2),
                            f_out=kernels.Indicator(0.05), seed=seed)
        graph, truth, _ = model.sample_graph(params)
        perm = np.random.default_rng(seed + 100).permutation(50)
        permuted = Graph(n=50, adjacency=graph.adjacency[np.ix_(perm, perm)])
        labels, _ = spectral.hosc(graph, 0.4, 0.1)
        labels_p, _ = spectral.hosc(permuted, 0.4, 0.1)
        assert spectral.loss(truth, labels) == spectral.loss(truth[perm], labels_p)


# --- the partial path against the full eigh -------------------------------------

def preset_rows(workers):
    """The fig3, fig4 and waxman preset cells the differential test compares."""
    rows, _ = harness.fig3_sweep(n_list=(500, 1000, 2000), seeds=range(4),
                                 algorithms=("hosc", "hosc_li", "fiedler"), workers=workers)
    rows += harness.fig4_sweep(seeds=range(2), workers=workers)[0]
    rows += harness.waxman_sweep(n_list=(500, 2000), seeds=range(2), workers=workers)[0]
    return rows


def test_partial_path_matches_full_eigh_on_preset_cells(tmp_path, monkeypatch, count_routines):
    """Rank, lambda_selected, gap_to_next, accuracy, results.csv and labels.

    The reference runs the same sweeps with eigendecompose, which solves
    every vector first, in place of Spectrum, which solves only the
    vectors asked for.  The windows answer every cell at workers 1 and 2,
    so at OpenBLAS's default thread count and at one thread: no cell solves
    the whole spectrum.  Persisted labels are compared byte for byte: the
    sign rule makes them independent of the solver, not just equal up to a
    swap.
    """
    labels_dir = {}
    run_sweep = harness.run_sweep

    def persisting(config, workers=1):
        config.labels_dir = str(labels_dir["out"])
        return run_sweep(config, workers=workers)

    monkeypatch.setattr(harness, "run_sweep", persisting)
    labels_dir["out"] = tmp_path / "partial_labels"
    whole = count_routines(monkeypatch, "dsyevd")["dsyevd"]
    runs = {workers: preset_rows(workers) for workers in (1, 2)}
    assert whole == []
    labels_dir["out"] = tmp_path / "full_labels"
    monkeypatch.setattr(harness, "Spectrum", spectral.eigendecompose)
    full = preset_rows(2)

    assert len(full) == 12 * 3 + 12 * 2 + 16 * 2
    for rows in runs.values():
        for row, ref in zip(rows, full, strict=True):
            assert (row.n, row.kernel_in, row.seed, row.algorithm) == \
                (ref.n, ref.kernel_in, ref.seed, ref.algorithm)
            assert row.note == ref.note == ""
            assert row.selected_rank == ref.selected_rank
            assert row.accuracy == ref.accuracy
            assert row.lambda_selected == pytest.approx(ref.lambda_selected, rel=1e-10)
            if ref.gap_to_next is not None:
                assert row.gap_to_next == pytest.approx(ref.gap_to_next, rel=1e-6)
    csv_bytes = []
    for name, rows in (("w1", runs[1]), ("w2", runs[2]), ("full", full)):
        harness.write_results(tmp_path / f"{name}.csv", rows)
        csv_bytes.append((tmp_path / f"{name}.csv").read_bytes())
    assert csv_bytes[0] == csv_bytes[1] == csv_bytes[2]

    names = sorted(path.name for path in (tmp_path / "full_labels").glob("*.predicted"))
    assert len(names) == len(full)
    for name in names:
        assert ((tmp_path / "partial_labels" / name).read_bytes()
                == (tmp_path / "full_labels" / name).read_bytes()), name


def test_sign_rule():
    v = np.array([0.1, -0.3, 0.6, -0.7])  # max |v| = 0.7; first entry >= 0.35 is 0.6
    assert np.array_equal(spectral._oriented(v), v)
    assert np.array_equal(spectral._oriented(-v), v)
    w = np.array([-0.5, 0.2, 0.9])  # -0.5 reaches half of 0.9
    assert np.array_equal(spectral._oriented(w), -w)


def test_sign_rule_gives_the_same_labels_on_both_paths():
    for seed in range(6):
        params = SgbmParams(n=300, d=1, f_in=kernels.Indicator(0.15),
                            f_out=kernels.Indicator(0.05), seed=seed)
        graph, _, _ = model.sample_graph(params)
        lambda_star = spectral.ideal_eigenvalue(0.3, 0.1, 300)
        full = spectral.select_eigenpair(spectral.eigendecompose(graph), lambda_star)
        partial = spectral.select_eigenpair(spectral.Spectrum(graph), lambda_star)
        assert np.abs(full.eigenvector - partial.eigenvector).max() <= 1e-9
        assert np.array_equal(spectral.sign_partition(full.eigenvector),
                              spectral.sign_partition(partial.eigenvector))
        labels, _ = spectral.hosc(graph, 0.3, 0.1)
        assert np.array_equal(labels, spectral.sign_partition(full.eigenvector))


def kernel_pair(kind, d):
    return {"indicator": (kernels.Indicator(0.2, d=d), kernels.Indicator(0.05, d=d)),
            "waxman": (kernels.Waxman(1.6, 3.0, d=d), kernels.Waxman(0.5, 3.0, d=d)),
            "constant": (kernels.Constant(0.9, d=d), kernels.Constant(0.1, d=d))}[kind]


def assert_matches_full_solve(graph, partial, lambda_star, ranks=(2,)):
    """The selected pair and each rank in ranks equal eigendecompose's:
    vectors under the sign rule to 1e-10, with the same sign partition."""
    full = spectral.eigendecompose(graph)
    got, want = (spectral.select_eigenpair(s, lambda_star) for s in (partial, full))
    assert got.selected_index == want.selected_index
    pairs = [(got.eigenvector, want.eigenvector)]
    pairs += [(partial.eigenvector(rank), full.eigenvector(rank)) for rank in ranks]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-10
        assert np.array_equal(spectral.sign_partition(got), spectral.sign_partition(want))


def leading_block(f_in, f_out, d, n):
    """(graph, labels) of n nodes; seed n."""
    # the sampler takes even n only: an odd n is the leading block of n + 1
    params = SgbmParams(n=n + n % 2, d=d, f_in=f_in, f_out=f_out, seed=n)
    sampled, labels, _ = model.sample_graph(params)
    return Graph(n=n, adjacency=sampled.adjacency[:n, :n].copy()), labels[:n]


@pytest.mark.parametrize("n", [2, 3, 130, 1000])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("kind", ["indicator", "waxman", "constant"])
def test_tridiagonal_path_matches_eigvalsh_and_eigh(kind, d, n):
    f_in, f_out = kernel_pair(kind, d)
    graph, labels = leading_block(f_in, f_out, d, n)
    partial = spectral.Spectrum(graph)
    eigenvalues = partial.eigenvalues
    assert np.array_equal(eigenvalues, np.linalg.eigvalsh(graph.dense())[::-1])
    lambda_star = spectral.ideal_eigenvalue(kernels.edge_density(f_in),
                                            kernels.edge_density(f_out), n)
    assert_matches_full_solve(graph, partial, lambda_star)
    # eigendecompose, dsyevd with vectors in place on a copy of A, is eigh bit for bit
    full = spectral.eigendecompose(graph)
    values, vectors = np.linalg.eigh(graph.dense())
    assert np.array_equal(full.eigenvalues, values[::-1])
    assert np.array_equal(full.eigenvectors, vectors[:, ::-1])
    # and so is every vector solved after the eigenvalues, which stay eigvalsh's
    assert np.array_equal(partial.eigenvectors, vectors[:, ::-1])
    assert partial.eigenvalues is eigenvalues
    assert (spectral.per_eigenvector_accuracy(partial, labels)
            == spectral.per_eigenvector_accuracy(full, labels))


def split_graph():
    """Two components of 70 and 130 nodes: A is block diagonal."""
    a = np.zeros((200, 200), dtype=np.uint8)
    for lo, hi, seed in ((0, 70, 0), (70, 200, 1)):
        params = SgbmParams(n=hi - lo, d=1, f_in=kernels.Indicator(0.2),
                            f_out=kernels.Indicator(0.05), seed=seed)
        a[lo:hi, lo:hi] = model.sample_graph(params)[0].adjacency
    return Graph(n=200, adjacency=a)


def assert_window_requests_match_eigvalsh(graph, windows=False):
    """count_above and values, asked of a fresh Spectrum, against eigvalsh.
    With windows, the windows answer the counts at random points and the
    values of both ends, and the whole spectrum is not solved for them."""
    w = np.linalg.eigvalsh(graph.dense())[::-1]
    n, tol = graph.n, 1e-12 * max(1.0, w[0])
    spectrum = spectral.Spectrum(graph)
    for x in np.random.default_rng(n).uniform(w[-1] - 1.0, w[0] + 1.0, 50):
        assert spectrum.count_above(x) == np.sum(w > x), x
    middle = max(1, n // 2 - 1), min(n, n // 2 + 2)
    spans = [(1, 1), (n, n), middle, (1, n)]
    for first, last in spans[:2]:
        assert np.abs(spectrum.values(first, last) - w[first - 1:last]).max() <= tol
    if windows:
        assert spectrum._eigenvalues is None and spectrum._ritz
    # at an eigenvalue of eigvalsh, A's own eigenvalue lies on either side
    # of it by roundoff, and so may be counted as above or not
    for x in w:
        assert np.sum(w > x + tol) <= spectrum.count_above(x) <= np.sum(w > x - tol), x
    # ranks first read by different calls are in order up to roundoff
    for first, last in spans:
        got = spectrum.values(first, last)
        assert len(got) == last - first + 1 and np.all(np.diff(got) <= tol)
        assert np.abs(got - w[first - 1:last]).max() <= tol, (first, last)


@pytest.mark.parametrize("n", [2, 3, 130, 1000])
@pytest.mark.parametrize("kind", ["indicator", "waxman"])
def test_window_requests_match_eigvalsh(kind, n):
    f_in, f_out = kernel_pair(kind, 1)
    graph, _ = leading_block(f_in, f_out, 1, n)
    assert_window_requests_match_eigvalsh(graph, windows=n == 1000)
    # selecting from the window picks what selecting from the full list picks
    w = np.linalg.eigvalsh(graph.dense())[::-1]
    full = spectral.eigendecompose(graph)
    for lambda_star in np.random.default_rng(n + 1).uniform(w[-1] - 1.0, w[0] + 1.0, 5):
        got, want = (spectral.select_eigenpair(s, lambda_star)
                     for s in (spectral.Spectrum(graph), full))
        assert got.selected_index == want.selected_index
        assert got.lambda_selected == pytest.approx(want.lambda_selected, rel=1e-12, abs=1e-12)
        assert got.gap_to_next == pytest.approx(want.gap_to_next, rel=1e-9)


def test_sweep_cells_read_no_eigenvalues_alone(monkeypatch, count_routines):
    """hosc, hosc_li and fiedler cells select from the Lanczos windows; only a
    caller that reads every eigenvalue runs dsterf (dsyevd without vectors)."""
    calls = count_routines(monkeypatch, "dsyevd N")["dsyevd N"]
    grid = [harness.GridPoint(n=300, d=1, f_in=f_in, f_out=f_out)
            for f_in, f_out in (kernel_pair("indicator", 1), kernel_pair("waxman", 1))]
    config = harness.SweepConfig(experiment="cells", grid=grid, seeds=[0, 1],
                                 algorithms=("hosc", "hosc_li", "fiedler"))
    rows = harness.run_sweep(config)
    assert len(rows) == 12 and all(row.accuracy is not None for row in rows)
    assert calls == []
    spectral.Spectrum(sampled_graph(300)).eigenvalues
    assert calls == [300]


def test_without_lapack_the_partial_spectrum_is_the_full_solve(monkeypatch):
    """Without the LAPACK routines there is no window, and numpy's eigvalsh
    and eigh solve the whole spectrum by the same rules: eigendecompose is
    eigh, eigenvalues read first are eigvalsh's, and a selection made
    before any read runs one eigh and picks eigendecompose's rank, gap and
    vector."""
    params = SgbmParams(n=300, d=1, f_in=kernels.Indicator(0.2),
                        f_out=kernels.Indicator(0.05), seed=5)
    graph, _, _ = model.sample_graph(params)
    values, vectors = np.linalg.eigh(graph.dense())
    alone = np.linalg.eigvalsh(graph.dense())
    assert not np.array_equal(alone, values)  # so the two reads below are told apart
    monkeypatch.setattr(_openblas, "lapack", lambda: None)
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, name=name, routine=getattr(np.linalg, name)):
            calls.append((name, len(a)))
            return routine(a)
        monkeypatch.setattr(np.linalg, name, counted)
    full = spectral.eigendecompose(graph)
    assert np.array_equal(full.eigenvalues, values[::-1])
    assert np.array_equal(full.eigenvectors, vectors[:, ::-1])
    assert calls == [("eigh", 300)]
    assert np.array_equal(spectral.Spectrum(graph).eigenvalues, alone[::-1])
    assert calls[1:] == [("eigvalsh", 300)]
    partial = spectral.Spectrum(graph)
    lambda_star = spectral.ideal_eigenvalue(0.4, 0.1, 300)
    got, want = (spectral.select_eigenpair(s, lambda_star) for s in (partial, full))
    assert (got.selected_index, got.lambda_selected, got.gap_to_next) == \
        (want.selected_index, want.lambda_selected, want.gap_to_next)
    assert np.array_equal(got.eigenvector, want.eigenvector)
    assert np.array_equal(partial.eigenvector(2), full.eigenvector(2))
    assert np.array_equal(partial.eigenvalues, full.eigenvalues)
    assert calls[2:] == [("eigh", 300)]  # one per spectrum


def whole_spectrum(graph):
    """A Spectrum sent to the whole spectrum on purpose: its eigenvalues are
    read before any request, which drops the windows, so they answer none."""
    spectrum = spectral.Spectrum(graph)
    spectrum.eigenvalues
    return spectrum


def complete_graph(m):
    return Graph(n=m, adjacency=np.ones((m, m), dtype=np.uint8) - np.eye(m, dtype=np.uint8))


def twin_graph():
    """Two disjoint copies of one sampled graph, and its largest eigenvalue.

    Every eigenvalue is doubled, and unlike the integer ones of a clique
    the shifted matrix is not singular in floating point, so only the gap
    test sends it to the full solve.
    """
    params = SgbmParams(n=40, d=1, f_in=kernels.Indicator(0.2),
                        f_out=kernels.Indicator(0.05), seed=0)
    a = model.sample_graph(params)[0].adjacency
    twin = np.zeros((80, 80), dtype=np.uint8)
    twin[:40, :40] = twin[40:, 40:] = a
    return Graph(n=80, adjacency=twin), float(np.linalg.eigvalsh(a.astype(float))[-1])


@pytest.mark.parametrize("graph,lambda_star", [
    (two_cliques(10)[0], 10.0),  # the Perron value 9 of each clique, twice
    (complete_graph(10), -1.0),  # K_10: -1 nine times
    twin_graph(),
], ids=["two_cliques", "K10", "twin"])
def test_repeated_eigenvalue_falls_back_to_full_solve(monkeypatch, count_routines, graph,
                                                      lambda_star):
    """The selected rank, vector and labels are eigendecompose's; the
    eigenvalues stay eigvalsh's, and every vector is solved once."""
    reference = spectral.select_eigenpair(spectral.eigendecompose(graph), lambda_star)
    calls = count_routines(monkeypatch, "dsyevd V")["dsyevd V"]
    partial = spectral.Spectrum(graph)
    eigenvalues = partial.eigenvalues
    report = spectral.select_eigenpair(partial, lambda_star)
    assert calls == [graph.n]
    assert partial.eigenvalues is eigenvalues
    assert np.array_equal(eigenvalues, np.linalg.eigvalsh(graph.dense())[::-1])
    assert report.selected_index == reference.selected_index
    assert np.array_equal(report.eigenvector, reference.eigenvector)
    assert np.array_equal(spectral.sign_partition(report.eigenvector),
                          spectral.sign_partition(reference.eigenvector))
    # a roundoff-level gap: what sent the rank to the full solve
    assert report.gap_to_next <= spectral._GAP_RTOL * max(1.0, eigenvalues[0])
    partial.eigenvector(1)
    assert calls == [graph.n]  # the full solve is kept, not repeated


def isolated_vertex_graph():
    """A sampled 130-node graph whose node 7 has lost its edges: 0 is an
    eigenvalue, with the unit vector at node 7."""
    graph, _ = leading_block(kernels.Indicator(0.2), kernels.Indicator(0.05), 1, 130)
    a = graph.adjacency.copy()
    a[7, :] = a[:, 7] = 0
    return Graph(n=130, adjacency=a)


@pytest.mark.parametrize("graph", [two_cliques(10)[0], complete_graph(10), isolated_vertex_graph(),
                                   split_graph()],
                         ids=["two_cliques", "K10", "isolated_vertex", "split_70_130"])
def test_window_requests_on_repeated_and_split_spectra(graph):
    assert_window_requests_match_eigvalsh(graph)


COUNT_GRAPHS = {
    **{f"{kind}-{n}": lambda kind=kind, n=n: leading_block(*kernel_pair(kind, 1), 1, n)[0]
       for kind in ("indicator", "waxman", "constant") for n in (2, 3, 4, 130, 1000)},
    "K10": lambda: complete_graph(10),
    "two_cliques": lambda: two_cliques(10)[0],
    "isolated_vertex": isolated_vertex_graph,
    "split_70_130": split_graph,
    "edgeless": lambda: Graph(n=10, adjacency=np.zeros((10, 10), dtype=np.uint8)),
}


@pytest.mark.parametrize("name", COUNT_GRAPHS)
def test_count_above_is_the_sturm_count(name):
    """Once the eigenvalues are read, count_above(x) counts eigvalsh's
    eigenvalues above x, at random points and at every eigenvalue."""
    graph = COUNT_GRAPHS[name]()
    w = np.linalg.eigvalsh(graph.dense())[::-1]
    spectrum = whole_spectrum(graph)
    points = np.random.default_rng(graph.n).uniform(w[-1] - 1.0, w[0] + 1.0, 50)
    for x in np.concatenate([points, w]):
        assert spectrum.count_above(x) == np.sum(w > x), x
    assert np.array_equal(spectrum._eigenvalues, w) and spectrum._eigenvectors is None


def failing_routine(*args):
    return 1  # a LAPACK info > 0: no convergence


def test_lapack_failure_falls_back_to_full_solve(monkeypatch, patch_lapack, count_routines):
    """A LAPACK call that fails inside the window on A (dsbtrd on its band,
    dstebz or dstein on the band's tridiagonal form) hands out nothing: the
    whole spectrum answers, with eigh's rank and vector from one full solve."""
    params = SgbmParams(n=200, d=1, f_in=kernels.Indicator(0.2),
                        f_out=kernels.Indicator(0.05), seed=1)
    graph, _, _ = model.sample_graph(params)
    lambda_star = spectral.ideal_eigenvalue(0.4, 0.1, 200)
    full = spectral.eigendecompose(graph)
    reference = spectral.select_eigenpair(full, lambda_star)

    for name in ("dsbtrd", "dstebz", "dstein"):
        with monkeypatch.context() as patch:
            calls = count_routines(patch, "dsyevd V")["dsyevd V"]
            patch_lapack(patch, **{name: failing_routine})
            spectrum = spectral.Spectrum(graph)
            report = spectral.select_eigenpair(spectrum, lambda_star)
        assert calls == [200], name
        assert spectrum._eigenvectors is not None and spectrum._ritz == {}, name
        assert report.selected_index == reference.selected_index
        assert np.array_equal(report.eigenvector, reference.eigenvector)
    # selection on the window reads no dsterf, so a failing one costs it no full
    # solve; the eigenvalues, read after, still fall back to eigh's
    with monkeypatch.context() as patch:
        calls = count_routines(patch, "dsyevd V")["dsyevd V"]
        bound = _openblas.lapack()["dsyevd"]
        # dsyevd that fails without vectors (jobz N, which runs dsterf)
        patch_lapack(patch, dsyevd=lambda *args: 1 if args[1] == b"N" else bound(*args))
        partial = spectral.Spectrum(graph)
        report = spectral.select_eigenpair(partial, lambda_star)
        assert calls == []
        assert report.selected_index == reference.selected_index
        assert np.abs(report.eigenvector - reference.eigenvector).max() <= 1e-10
        assert np.array_equal(partial.eigenvalues, full.eigenvalues)
        assert calls == [200]
        # after the eigenvalues selection reads them: the full solve answers
        report = spectral.select_eigenpair(whole_spectrum(graph), lambda_star)
        assert calls == [200, 200]
        assert report.selected_index == reference.selected_index
        assert np.array_equal(report.eigenvector, reference.eigenvector)
    # without dsyevd there is nothing to fall back on: each request that reads
    # the whole spectrum raises, and a later one tries again; the window, which
    # would answer ranks 1 and 2 without it, is left out
    patch_lapack(monkeypatch, dsyevd=failing_routine)
    failed = spectral.Spectrum(graph)  # solves nothing yet
    failed._window = None  # and no window answers
    for request in (lambda: failed.count_above(0.0), lambda: failed.values(1, 1),
                    lambda: failed.eigenvalues, lambda: failed.eigenvector(2),
                    lambda: failed.eigenvectors):
        with pytest.raises(EigendecompositionError, match="dsyevd failed"):
            request()
    assert failed.solve_s == 0.0 and failed._eigenvalues is failed._eigenvectors is None


def test_spectrum_solves_the_whole_spectrum_once(monkeypatch, count_routines):
    """The constructor solves nothing, nor does a count inside the noise bulk,
    which the window shifted to it answers; the first request that reads the
    whole spectrum solves it once (dsyevd), records how long that took, and
    every later request reuses it."""
    calls = count_routines(monkeypatch, "dsyevd")["dsyevd"]
    graph = sampled_graph(200)
    spectrum = spectral.Spectrum(graph)
    assert calls == [] and spectrum.solve_s == 0.0
    spectrum.count_above(0.0)
    assert calls == [] and spectrum._shifted is not None
    spectrum.values(100, 100)  # far from both ends and from the shift
    assert calls == [200] and spectrum.solve_s > 0.0 and spectrum._shifted is None
    spectrum.eigenvector(2)
    spectrum.eigenvalues
    spectrum.eigenvectors
    assert calls == [200]
    with pytest.raises(DegenerateModelError):
        spectral.hosc(graph, 0.3, 0.3)
    assert calls == [200]


def test_partial_spectrum_solves_each_rank_once(monkeypatch, count_routines):
    """Each rank's checked vector is cached.  A window builds the vectors
    it holds from its basis; once the eigenvalues are read, the first vector
    asked for solves every vector once."""
    params = SgbmParams(n=200, d=1, f_in=kernels.Indicator(0.2),
                        f_out=kernels.Indicator(0.05), seed=2)
    graph, _, _ = model.sample_graph(params)
    calls = count_routines(monkeypatch, "dsyevd V", "window", "shifted window")
    windowed = spectral.Spectrum(graph)
    first = windowed.eigenvector(2)
    assert windowed.eigenvector(2) is first
    windowed.eigenvector(1)
    assert calls == {"dsyevd V": [], "window": [200], "shifted window": []}
    assert windowed._eigenvalues is None
    partial = whole_spectrum(graph)
    first = partial.eigenvector(4)
    assert partial.eigenvector(4) is first
    partial.eigenvector(2)
    assert calls == {"dsyevd V": [200], "window": [200], "shifted window": []}
    with pytest.raises(ValueError):
        spectral.Spectrum(Graph(n=1, adjacency=np.zeros((1, 1), dtype=np.uint8)))


def garbage_dsyevd(*args):
    """Stands in for dsyevd: its eigenvalues, and in place of its vectors an
    answer that is no eigenvector."""
    info = _openblas.function("LAPACKE_dsyevd")(*args)
    args[4][:] = np.random.default_rng(1).standard_normal(args[4].shape)
    return info


def test_residual_check_on_both_paths(monkeypatch, patch_lapack):
    params = SgbmParams(n=200, d=1, f_in=kernels.Indicator(0.2),
                        f_out=kernels.Indicator(0.05), seed=3)
    graph, _, _ = model.sample_graph(params)
    with monkeypatch.context() as patch:
        patch_lapack(patch, dsyevd=garbage_dsyevd)
        spec = spectral.eigendecompose(graph)
        with pytest.raises(EigendecompositionError, match="residual"):
            spec.eigenvector(1)
    garbled_ritz_vectors(monkeypatch)
    with pytest.raises(EigendecompositionError, match="residual"):
        spectral.cluster(spectral.Spectrum(graph), "hosc", 0.4, 0.1)


def test_residual_failure_is_an_error_row_and_exit_4(tmp_path, monkeypatch, capsys,
                                                     patch_lapack):
    patch_lapack(monkeypatch, dsyevd=garbage_dsyevd)
    monkeypatch.setattr(harness, "Spectrum", whole_spectrum)
    point = harness.GridPoint(n=200, d=1, f_in=kernels.Indicator(0.2),
                              f_out=kernels.Indicator(0.05))
    config = harness.SweepConfig(experiment="bad", grid=[point], seeds=[0],
                                 algorithms=("hosc", "fiedler"))
    rows = harness.run_sweep(config)
    assert [row.accuracy for row in rows] == [None, None]
    assert all(row.note.startswith("error: eigenvector at eigenvalue") for row in rows)

    params = SgbmParams(n=200, d=1, f_in=kernels.Indicator(0.2),
                        f_out=kernels.Indicator(0.05), seed=0)
    graph, truth, _ = model.sample_graph(params)
    model.write_graph(tmp_path / "edges.txt", graph, 1, 0)
    model.write_labels(tmp_path / "truth.txt", truth)
    cfg = tmp_path / "run.cfg"
    # with run.labels, sgbm cluster reads the whole spectrum, and so dsyevd's vectors
    cfg.write_text("kernel_in.kind = indicator\nkernel_in.r = 0.2\n"
                   "kernel_out.kind = indicator\nkernel_out.r = 0.05\n"
                   f"run.graph = {tmp_path / 'edges.txt'}\n"
                   f"run.labels = {tmp_path / 'truth.txt'}\n")
    assert cli.main(["cluster", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert "eigensolver failure: eigenvector at eigenvalue" in capsys.readouterr().err


# --- the Lanczos window -------------------------------------------------------------

def garbled_ritz_vectors(monkeypatch):
    """Windows from now on hand out converged Ritz values with vectors that
    are no eigenvector."""
    rng = np.random.default_rng(1)
    monkeypatch.setattr(spectral._Window, "vector",
                        lambda window, coordinates: rng.standard_normal(window.n))


def test_window_residual_failure_is_an_error_row_and_exit_4(monkeypatch, capsys,
                                                            count_routines):
    """The window's vectors pass the same residual check as the whole spectrum's."""
    starts = count_routines(monkeypatch, "window", "shifted window")
    garbled_ritz_vectors(monkeypatch)
    point = harness.GridPoint(n=200, d=1, f_in=kernels.Indicator(0.2),
                              f_out=kernels.Indicator(0.05))
    config = harness.SweepConfig(experiment="bad", grid=[point], seeds=[0],
                                 algorithms=("hosc", "fiedler"))
    rows = harness.run_sweep(config)
    assert starts == {"window": [200], "shifted window": []}
    assert [row.accuracy for row in rows] == [None, None]
    assert all(row.note.startswith("error: eigenvector at eigenvalue") for row in rows)
    # the command line reports it as any eigensolver failure: exit 4
    from sgbm import oracles
    graph = sampled_graph(200)
    monkeypatch.setattr(oracles, "CHECKS", [
        ("window", lambda: (spectral.hosc(graph, 0.4, 0.1) is not None, ""))])
    assert cli.main(["validate", "--quiet"]) == 4
    assert "eigensolver failure: eigenvector at eigenvalue" in capsys.readouterr().err
    assert starts == {"window": [200, 200], "shifted window": []}


@pytest.mark.parametrize("algorithm", ["hosc", "fiedler"])
def test_window_at_its_cap_falls_back_to_the_reduction(monkeypatch, count_routines, algorithm):
    """A window that reaches its cap hands out nothing: every answer is
    eigendecompose's, bit for bit."""
    graph = sampled_graph(1000)
    want_labels, want = spectral.cluster(spectral.eigendecompose(graph), algorithm, 0.4, 0.1)
    starts = count_routines(monkeypatch, "window", "shifted window")
    monkeypatch.setattr(spectral, "_window_cap", lambda n: 8)
    spectrum = spectral.Spectrum(graph)
    labels, got = spectral.cluster(spectrum, algorithm, 0.4, 0.1)
    assert starts == {"window": [1000], "shifted window": []}
    assert spectrum._eigenvectors is not None and spectrum._ritz == {}
    assert (got.selected_index, got.lambda_selected, got.gap_to_next) == \
        (want.selected_index, want.lambda_selected, want.gap_to_next)
    assert np.array_equal(got.eigenvector, want.eigenvector)
    assert np.array_equal(labels, want_labels)


def equal_cliques(count, size):
    """count disjoint cliques of size nodes: the Perron value size - 1, count times."""
    a = np.zeros((count * size, count * size), dtype=np.uint8)
    for start in range(0, count * size, size):
        a[start:start + size, start:start + size] = 1
    np.fill_diagonal(a, 0)
    return Graph(n=count * size, adjacency=a)


@pytest.mark.parametrize("count", [2, 3])
def test_window_sees_a_repeated_eigenvalue(monkeypatch, count_routines, count):
    """From one start vector the window would hold one copy of the Perron value
    and answer wrongly; from two it holds two, and the whole spectrum answers
    with eigendecompose's report."""
    graph = equal_cliques(count, 150 if count == 2 else 100)
    perron = graph.n / count - 1.0
    want = spectral.select_eigenpair(spectral.eigendecompose(graph), perron)
    starts = count_routines(monkeypatch, "window", "shifted window")
    spectrum = spectral.Spectrum(graph)
    got = spectral.select_eigenpair(spectrum, perron)
    assert starts == {"window": [graph.n], "shifted window": []}
    assert spectrum._eigenvectors is not None
    assert (got.selected_index, got.gap_to_next) == (want.selected_index, want.gap_to_next)
    assert np.array_equal(spectral.sign_partition(got.eigenvector),
                          spectral.sign_partition(want.eigenvector))


@pytest.mark.parametrize("f_in,f_out,n,seed", [
    (kernels.Indicator(0.08), kernels.Indicator(0.05), 4000, 3),
    (kernels.Waxman(0.85, 1.0), kernels.Waxman(0.5, 1.0), 2000, 0),
], ids=["fig3", "waxman"])
def test_window_bits_do_not_depend_on_blas_threads(f_in, f_out, n, seed):
    """Every sum over n in the window is einsum's, which no BLAS thread splits,
    so the Ritz value and vector, and the labels, are the same bits with
    OpenBLAS at one thread and at its default count."""
    graph = model.sample_graph(SgbmParams(n=n, d=1, f_in=f_in, f_out=f_out, seed=seed))[0]
    mu_in, mu_out = kernels.edge_density(f_in), kernels.edge_density(f_out)
    runs = []
    for pinned in (False, True):
        spectrum = spectral.Spectrum(graph)
        with harness._one_blas_thread() if pinned else contextlib.nullcontext():
            labels, report = spectral.cluster(spectrum, "hosc", mu_in, mu_out)
        assert spectrum._eigenvalues is None  # answered by the window
        runs.append((report.lambda_selected, report.eigenvector.tobytes(), labels.tobytes()))
    assert runs[0] == runs[1]


# --- the shifted window -------------------------------------------------------------

def test_inertia_counts_the_eigenvalues_above_the_shift():
    """The inertia of dsytrf's D is that of A - sigma I, 2 x 2 blocks included:
    an adjacency matrix's zero diagonal makes dsytrf take them."""
    lapack = _openblas.lapack()
    clique = Graph(n=7, adjacency=np.ones((7, 7), dtype=np.uint8) - np.eye(7, dtype=np.uint8))
    two_by_two = 0
    for graph in (sampled_graph(2), clique, sampled_graph(60), sampled_graph(300)):
        w = np.linalg.eigvalsh(graph.dense())
        for sigma in np.random.default_rng(graph.n).uniform(w[0] - 1.0, w[-1] + 1.0, 20):
            window = spectral._Window.shifted(graph, lapack, sigma)
            assert window.count == np.sum(w > sigma), (graph.n, sigma)
            two_by_two += int(np.sum(window.pivots < 0))
    assert two_by_two > 0


def waxman_cell(q, n=1000, seed=0):
    """(graph, lambda*) of the Waxman preset's cell at q_in = q."""
    grid_index = harness.WAXMAN_Q_GRID.index(q)
    f_in, f_out = kernels.Waxman(q, 1.0), kernels.Waxman(0.5, 1.0)
    params = SgbmParams(n=n, d=1, f_in=f_in, f_out=f_out,
                        seed=harness.cell_seed(0, grid_index, seed))
    lambda_star = spectral.ideal_eigenvalue(kernels.edge_density(f_in),
                                            kernels.edge_density(f_out), n)
    return model.sample_graph(params)[0], lambda_star


def assert_same_report(got, want):
    assert got.selected_index == want.selected_index
    assert got.lambda_selected == pytest.approx(want.lambda_selected, rel=1e-10, abs=1e-10)
    assert got.gap_to_next == pytest.approx(want.gap_to_next, rel=1e-6, abs=1e-9)
    assert np.array_equal(spectral.sign_partition(got.eigenvector),
                          spectral.sign_partition(want.eigenvector))


def test_waxman_grid_routes_each_cell(monkeypatch, count_routines):
    """How each hosc cell of the Waxman q grid at n = 1000 is solved.  At the
    bottom end (q <= 0.35) the window on A stops at a rank inside the bulk
    and one shifted window answers; lambda* inside the bulk margin (q = 0.45,
    0.55) is answered by the window shifted to it; the window on A answers at
    the top end.  No cell solves the whole spectrum.  Each count is
    eigvalsh's, and each report the whole spectrum's."""
    calls = count_routines(monkeypatch, "dsyevd", "dsytrf")
    for q in harness.WAXMAN_Q_GRID:
        graph, lambda_star = waxman_cell(q)
        spectrum = spectral.Spectrum(graph)
        count = spectrum.count_above(lambda_star)
        got = spectral.select_eigenpair(spectrum, lambda_star)
        assert calls == {"dsyevd": [], "dsytrf": [1000] if q <= 0.55 else []}, q
        want = whole_spectrum(graph)
        assert count == want.count_above(lambda_star), q
        assert_same_report(got, spectral.select_eigenpair(want, lambda_star))
        assert np.abs(got.eigenvector - want.eigenvector(got.selected_index)).max() <= 1e-8
        calls["dsyevd"].clear()
        calls["dsytrf"].clear()


def graph_with_clique(clique):
    """A sampled graph on 200 nodes with a disjoint clique on `clique` more:
    -1 is an eigenvalue clique - 1 times, inside the bulk margin."""
    a = np.zeros((200 + clique, 200 + clique), dtype=np.uint8)
    a[:200, :200] = sampled_graph(200).adjacency
    a[200:, 200:] = 1 - np.eye(clique, dtype=np.uint8)
    return Graph(n=200 + clique, adjacency=a)


@pytest.mark.parametrize("case", ["singular", "repeated", "cap", "dsytrf", "dsytrs"])
def test_shifted_window_falls_back_to_the_reduction(monkeypatch, patch_lapack, count_routines,
                                                     case):
    """A shift the window cannot use hands out nothing, and the whole spectrum
    answers with eigendecompose's report.  Each case selects at x, inside
    the bulk margin, where the count shifts at x, then solves the whole
    spectrum.  singular:
    x = -1, an eigenvalue of a clique, makes A - sigma I exactly singular
    (dsytrf info > 0); repeated: two equal cliques repeat the eigenvalue
    nearest x; cap: the window stops at 8 vectors; dsytrf and dsytrs: the
    routine fails, on the Waxman q = 0.45 cell at n = 300."""
    graph, x = {"singular": lambda: (graph_with_clique(20), -1.0),
                "repeated": lambda: (equal_cliques(2, 150), -0.5)}.get(
                    case, lambda: waxman_cell(0.45, n=300))()
    want = spectral.select_eigenpair(spectral.eigendecompose(graph), x)
    if case == "cap":
        monkeypatch.setattr(spectral, "_window_cap", lambda n: 8)
    elif case in ("dsytrf", "dsytrs"):
        patch_lapack(monkeypatch, **{case: failing_routine})
    calls = count_routines(monkeypatch, "dsyevd", "dsytrf", "window", "shifted window")
    spectrum = spectral.Spectrum(graph)
    got = spectral.select_eigenpair(spectrum, x)
    assert calls == {"dsyevd": [graph.n], "dsytrf": [graph.n], "window": [],
                     "shifted window": [] if case in ("singular", "dsytrf") else [graph.n]}
    assert spectrum._shifted is None and spectrum._ritz == {}
    assert_same_report(got, want)


@pytest.mark.parametrize("routine", ["dsytrf", "dsytrs"])
def test_hand_off_falls_back_to_the_reduction(monkeypatch, patch_lapack, count_routines,
                                               routine):
    """Where the window on A stops inside the bulk (the Waxman q = 0.25 cell
    at n = 1000) and the shifted window then fails, the whole spectrum
    answers, with eigendecompose's report."""
    graph, x = waxman_cell(0.25)
    want = spectral.select_eigenpair(spectral.eigendecompose(graph), x)
    patch_lapack(monkeypatch, **{routine: failing_routine})
    calls = count_routines(monkeypatch, "dsyevd", "dsytrf", "window", "shifted window")
    got = spectral.select_eigenpair(spectral.Spectrum(graph), x)
    assert calls == {"dsyevd": [graph.n], "dsytrf": [graph.n], "window": [graph.n],
                     "shifted window": [] if routine == "dsytrf" else [graph.n]}
    assert_same_report(got, want)


def test_end_rank_the_window_stops_short_of_reads_the_whole_spectrum(monkeypatch,
                                                                     count_routines):
    """values(n - 1, n) on the Waxman q = 0.15 cell at n = 1000: the window on
    A stops inside the bulk at rank n - 1.  No shifted window is factored for
    an end rank: the whole spectrum answers, with every vector solved first,
    so the values are eigh's."""
    graph, _ = waxman_cell(0.15)
    calls = count_routines(monkeypatch, "dsyevd N", "dsyevd V", "dsytrf", "window",
                           "shifted window")
    values = spectral.Spectrum(graph).values(999, 1000)
    assert calls == {"dsyevd N": [], "dsyevd V": [1000], "dsytrf": [], "window": [1000],
                     "shifted window": []}
    assert np.array_equal(values, np.linalg.eigh(graph.dense())[0][1::-1])


def test_a_new_shift_drops_the_old_factor():
    """One factor is alive at a time.  A new shift drops the old window's
    factor; the ranks that window cached keep its basis, and their vectors
    are built from it, bit for bit as before."""
    graph, x = waxman_cell(0.25)
    spectrum = spectral.Spectrum(graph)
    spectral.select_eigenpair(spectrum, x)
    old = spectrum._shifted
    rank = min(rank for rank, (*_, window) in spectrum._ritz.items() if window is old)
    vector = spectrum.eigenvector(rank)
    spectrum._shift_to(old.sigma + 1.0)
    assert old.factor is None and spectrum._shifted.factor is not None
    spectrum._vectors.clear()
    assert np.array_equal(spectrum.eigenvector(rank), vector)


# --- the tolerance scale ------------------------------------------------------------

def graph_from_edges(n, pairs):
    a = np.zeros((n, n), dtype=np.uint8)
    for i, j in pairs:
        a[i, j] = a[j, i] = 1
    return Graph(n=n, adjacency=a)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.data())
def test_tolerance_scale_bounds_lambda_1(n, data):
    """sqrt(max_i (A d)_i) >= lambda_1 on any graph: lambda_1^2 is at most the
    largest row sum of A^2."""
    upper = data.draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2))
    i, j = np.triu_indices(n, 1)
    graph = graph_from_edges(n, zip(i[upper], j[upper]))
    lambda_1 = np.linalg.eigvalsh(graph.dense())[-1]
    scale = spectral._tolerance_scale(graph)
    assert scale >= lambda_1 * (1.0 - 1e-12)
    assert scale == max(1.0, np.sqrt(np.max(graph.dense() @ graph.dense().sum(axis=1))))


@pytest.mark.parametrize("n", [2, 5, 40])
def test_tolerance_scale_is_exact_on_stars_and_cliques(n):
    star = graph_from_edges(n, [(0, j) for j in range(1, n)])
    clique = graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    for graph in (star, clique):
        lambda_1 = np.linalg.eigvalsh(graph.dense())[-1]
        assert spectral._tolerance_scale(graph) == pytest.approx(max(1.0, lambda_1), rel=1e-12)
    assert spectral._tolerance_scale(graph_from_edges(n, [])) == 1.0


# --- local_improvement -----------------------------------------------------------

def test_local_improvement_corrects_clique_outlier():
    graph, truth = two_cliques(6)
    noisy = truth.copy()
    noisy[0] = 2
    fixed = spectral.local_improvement(graph, noisy)
    assert np.array_equal(fixed, truth)


def test_local_improvement_fixed_point():
    graph, truth = two_cliques(6)
    assert np.array_equal(spectral.local_improvement(graph, truth), truth)


def test_local_improvement_keeps_strict_majority_nodes():
    params = SgbmParams(n=200, d=1, f_in=kernels.Indicator(0.15),
                        f_out=kernels.Indicator(0.05), seed=7)
    graph, truth, _ = model.sample_graph(params)
    noisy = truth.copy()
    flip = np.random.default_rng(3).choice(200, size=30, replace=False)
    noisy[flip] = 3 - noisy[flip]
    out = spectral.local_improvement(graph, noisy)
    a = graph.dense()
    votes_1 = a @ (noisy == 1)
    votes_2 = a @ (noisy == 2)
    strict = np.where(noisy == 1, votes_1 > votes_2, votes_2 > votes_1)
    assert not np.any(strict & (out != noisy))


def test_local_improvement_iterate_reaches_fixed_point():
    params = SgbmParams(n=200, d=1, f_in=kernels.Indicator(0.15),
                        f_out=kernels.Indicator(0.05), seed=7)
    graph, truth, _ = model.sample_graph(params)
    noisy = truth.copy()
    flip = np.random.default_rng(3).choice(200, size=30, replace=False)
    noisy[flip] = 3 - noisy[flip]
    settled = spectral.local_improvement(graph, noisy, iterate=True)
    assert np.array_equal(spectral.local_improvement(graph, settled), settled)


def float_local_improvement(graph, labels, iterate=False, max_rounds=100):
    """The float64 matvec version local_improvement replaced: the reference."""
    a = graph.adjacency.astype(np.float64)
    current = np.asarray(labels, dtype=np.int8)
    for _ in range(max_rounds if iterate else 1):
        votes_1 = a @ (current == 1).astype(np.float64)
        votes_2 = a @ (current == 2).astype(np.float64)
        updated = np.where(votes_1 > votes_2, 1,
                           np.where(votes_2 > votes_1, 2, current)).astype(np.int8)
        if np.array_equal(updated, current):
            break
        current = updated
    return current


def test_local_improvement_matches_float_reference():
    cases = []
    for seed in range(4):
        params = SgbmParams(n=400, d=1, f_in=kernels.Indicator(0.06),
                            f_out=kernels.Indicator(0.04), seed=seed)
        graph, truth, _ = model.sample_graph(params)
        noisy = truth.copy()
        flip = np.random.default_rng(seed).choice(400, size=120, replace=False)
        noisy[flip] = 3 - noisy[flip]
        cases.append((graph, noisy))
    # n = 1000 is no multiple of the 65-row block Graph.matvec, and so
    # degree_stats, reads A in
    params = SgbmParams(n=1000, d=1, f_in=kernels.Indicator(0.06),
                        f_out=kernels.Indicator(0.04), seed=4)
    graph, truth, _ = model.sample_graph(params)
    noisy = truth.copy()
    flip = np.random.default_rng(4).choice(1000, size=300, replace=False)
    noisy[flip] = 3 - noisy[flip]
    cases.append((graph, noisy))
    # a 4-cycle splits every vote 1:1 (ties), and nodes 4 and 5 are isolated
    a = np.zeros((6, 6), dtype=np.uint8)
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 0)):
        a[i, j] = a[j, i] = 1
    cases.append((Graph(n=6, adjacency=a), np.array([1, 1, 2, 2, 1, 2], dtype=np.int8)))
    cases.append((Graph(n=4, adjacency=np.zeros((4, 4), dtype=np.uint8)),
                  np.array([1, 2, 2, 1], dtype=np.int8)))
    ties = isolated = 0
    for graph, labels in cases:
        deg = graph.adjacency.sum(axis=1)
        votes_1 = graph.adjacency.astype(int) @ (labels == 1)
        ties += int(np.sum((deg > 0) & (2 * votes_1 == deg)))
        isolated += int(np.sum(deg == 0))
        for iterate in (False, True):
            out = spectral.local_improvement(graph, labels, iterate=iterate)
            assert out.dtype == np.int8
            assert np.array_equal(out, float_local_improvement(graph, labels, iterate))
    assert ties > 0 and isolated > 0


def test_local_improvement_rejects_other_labels():
    graph, truth = two_cliques(4)
    bad = truth.copy()
    bad[0] = 0
    with pytest.raises(ValueError):
        spectral.local_improvement(graph, bad)


def test_local_improvement_rejects_labels_beyond_int8():
    """Labels are checked before any cast: 257 and 258 are not 1 and 2."""
    graph, truth = two_cliques(2)
    for bad in (257, 258, 0):
        labels = truth.astype(np.int64)
        labels[0] = bad
        with pytest.raises(ValueError, match="labels must be 1 or 2"):
            spectral.local_improvement(graph, labels)


def test_local_improvement_length_mismatch():
    graph, _ = two_cliques(4)
    with pytest.raises(ValueError):
        spectral.local_improvement(graph, [1, 2, 1])


def test_hosc_li_exact_recovery(exact_recovery_ensemble):
    # n=2000, r_in=0.2, r_out=0.05: expect exact recovery in at least 9 of 10 runs
    exact = sum(1 for m in exact_recovery_ensemble["li_misclassified"] if m == 0)
    assert exact >= 9


# --- loss / accuracy --------------------------------------------------------------

def test_loss_examples():
    assert spectral.loss([1, 1, 2, 2], [1, 1, 2, 2]) == 0.0
    assert spectral.loss([1, 1, 2, 2], [2, 2, 1, 1]) == 0.0
    assert spectral.loss([1, 1, 2, 2], [1, 2, 2, 2]) == 0.25
    assert spectral.accuracy([1, 1, 2, 2], [1, 2, 2, 2]) == 0.75


def test_loss_length_mismatch():
    with pytest.raises(ValueError):
        spectral.loss([1, 2], [1, 2, 1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([1, 2]), min_size=2, max_size=40),
       st.data())
def test_loss_symmetry_and_swap_invariance(truth, data):
    predicted = data.draw(st.lists(st.sampled_from([1, 2]),
                                   min_size=len(truth), max_size=len(truth)))
    truth = np.array(truth)
    predicted = np.array(predicted)
    val = spectral.loss(truth, predicted)
    assert 0.0 <= val <= 0.5
    assert spectral.loss(predicted, truth) == val
    assert spectral.loss(3 - truth, predicted) == val
    assert spectral.loss(truth, 3 - predicted) == val


# --- per_eigenvector_accuracy -------------------------------------------------------

def test_profile_on_cliques():
    graph, truth = two_cliques(10)
    spec = spectral.eigendecompose(graph)
    profile = dict(spectral.per_eigenvector_accuracy(spec, truth))
    assert profile[2] == 1.0


def test_profile_range_and_shape():
    params = SgbmParams(n=100, d=1, f_in=kernels.Indicator(0.2),
                        f_out=kernels.Indicator(0.05), seed=1)
    graph, truth, _ = model.sample_graph(params)
    spec = spectral.eigendecompose(graph)
    profile = spectral.per_eigenvector_accuracy(spec, truth)
    assert [rank for rank, _ in profile] == list(range(1, 101))
    assert all(0.5 <= acc <= 1.0 for _, acc in profile)


def test_profile_length_mismatch():
    graph, _ = two_cliques(4)
    spec = spectral.eigendecompose(graph)
    with pytest.raises(ValueError):
        spectral.per_eigenvector_accuracy(spec, [1, 2])


def test_profile_matches_label_mismatch_formula():
    params = SgbmParams(n=200, d=1, f_in=kernels.Indicator(0.2),
                        f_out=kernels.Indicator(0.05), seed=4)
    graph, truth, _ = model.sample_graph(params)
    spec = spectral.eigendecompose(graph)
    mism = (np.where(spec.eigenvectors > 0, 1, 2) != truth[:, None]).sum(axis=0)
    expected = [(rank + 1, float(1.0 - min(m, 200 - m) / 200)) for rank, m in enumerate(mism)]
    assert spectral.per_eigenvector_accuracy(spec, truth) == expected
    assert spectral.per_eigenvector_accuracy(spec, truth.astype(np.int64)) == expected


@pytest.mark.parametrize("bad", [0, 3, -1])
def test_profile_rejects_labels_other_than_1_and_2(bad):
    graph, truth = two_cliques(4)
    spec = spectral.eigendecompose(graph)
    truth = truth.copy()
    truth[5] = bad
    with pytest.raises(ValueError, match="1 or 2"):
        spectral.per_eigenvector_accuracy(spec, truth)


def test_profile_peak_is_informative_not_fiedler(sparse_gbm_ensemble):
    """The best rank is never 2 at n=2000, r_in=0.08, r_out=0.02.

    The second clause (the peak reaches 0.95) holds for roughly 40% of
    seeds; the mean of the per-seed maxima is about 0.93 because the
    near-degenerate limit atoms mix the informative eigenvector with
    spatial harmonics.  Kept at the stated threshold; expected to fail.
    """
    best = [max(profile) for profile in sparse_gbm_ensemble["profiles"]]
    best_rank = [int(np.argmax(profile)) + 1 for profile in sparse_gbm_ensemble["profiles"]]
    assert all(rank != 2 for rank in best_rank)
    assert float(np.mean(best)) >= 0.95
