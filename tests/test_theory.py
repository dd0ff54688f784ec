import tracemalloc

import numpy as np
import pytest

from sgbm import kernels, model, spectral, theory
from sgbm.kernels import Constant, Indicator, Waxman
from sgbm.model import Graph, SgbmParams
from sgbm.spectral import DegenerateModelError


def two_cliques(half):
    n = 2 * half
    a = np.zeros((n, n), dtype=np.uint8)
    a[:half, :half] = 1
    a[half:, half:] = 1
    np.fill_diagonal(a, 0)
    return Graph(n=n, adjacency=a)


# --- limiting_atoms ---------------------------------------------------------

def test_sbm_atoms():
    measure = theory.limiting_atoms(Constant(0.9), Constant(0.1), K=3)
    by_family = {}
    for atom in measure.atoms:
        by_family.setdefault(atom.family, {})[atom.location] = atom.lattice_count
    assert by_family["sum"] == {0.5: 1, 0.0: 6}
    assert by_family["difference"] == {0.4: 1, 0.0: 6}
    assert measure.tail_bound == 0.0


def test_gbm_informative_atom():
    measure = theory.limiting_atoms(Indicator(0.08), Indicator(0.02), K=16)
    diffs = [a.location for a in measure.atoms if a.family == "difference"]
    assert any(abs(loc - 0.06) < 1e-12 for loc in diffs)


def test_equal_kernels_cancel():
    measure = theory.limiting_atoms(Indicator(0.1), Indicator(0.1), K=5)
    diffs = [a for a in measure.atoms if a.family == "difference"]
    assert len(diffs) == 1
    assert diffs[0].location == 0.0
    assert diffs[0].lattice_count == 11


def test_atom_counts_cover_lattice():
    measure = theory.limiting_atoms(Indicator(0.1, d=2), Waxman(0.8, 2.0, d=2), K=4)
    for family in ("sum", "difference"):
        total = sum(a.lattice_count for a in measure.atoms if a.family == family)
        assert total == 9 * 9
    assert measure.cutoff == 4
    assert measure.tail_bound > 0.0


def test_limiting_atoms_validation():
    with pytest.raises(ValueError):
        theory.limiting_atoms(Indicator(0.1), Indicator(0.2), K=0)
    with pytest.raises(ValueError):
        theory.limiting_atoms(Indicator(0.1), Indicator(0.2, d=2), K=4)


# --- limiting_moment ----------------------------------------------------------

def test_sbm_second_moment():
    got = theory.limiting_moment(Constant(0.9), Constant(0.1), 2, K=4)
    assert got == pytest.approx(0.5**2 + 0.4**2, abs=1e-15)


def test_second_moment_matches_convolution():
    # K must reach ~1e6 here: indicator coefficients decay like 1/k, so the
    # squared tail shrinks only like 1/K.  The radius sits halfway between
    # nodes of the convolution grid, keeping the oracle itself near 1e-7.
    grid = 4096
    kern = Indicator(1024.5 / grid)
    lattice = theory.limiting_moment(kern, kern, 2, K=1_000_000)
    oracle = kernels.convolution_at_zero([kern, kern], grid)
    assert lattice == pytest.approx(oracle, abs=1e-6)


def test_first_moment_is_kernel_at_zero():
    # partial Fourier sums of the indicator at an interior point converge
    # like 1/K; K=4000 brings the truncation error under 1e-4
    got = theory.limiting_moment(Indicator(0.3), Indicator(0.3), 1, K=4000)
    assert got == pytest.approx(1.0, abs=1e-4)


def test_moment_validation():
    with pytest.raises(ValueError):
        theory.limiting_moment(Indicator(0.1), Indicator(0.2), 0, K=4)


def test_moments_consistent_with_atoms():
    f_in, f_out = Indicator(0.12), Waxman(0.7, 3.0)
    measure = theory.limiting_atoms(f_in, f_out, K=32)
    for m in (1, 2, 3, 4):
        from_atoms = sum(a.lattice_count * a.location**m for a in measure.atoms)
        assert theory.limiting_moment(f_in, f_out, m, K=32) == pytest.approx(
            from_atoms, abs=1e-9)


# --- empirical_moment ------------------------------------------------------------

def test_empirical_first_moment_is_zero():
    params = SgbmParams(n=100, d=1, f_in=Indicator(0.2), f_out=Indicator(0.05), seed=3)
    graph, _, _ = model.sample_graph(params)
    spectrum = spectral.eigendecompose(graph)
    assert abs(theory.empirical_moment(spectrum, 1)) < 1e-9


def test_empirical_moment_single_edge():
    a = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    spectrum = spectral.eigendecompose(Graph(n=2, adjacency=a))
    assert theory.empirical_moment(spectrum, 2) == pytest.approx(0.5, abs=1e-12)


def test_empirical_moment_validation():
    a = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    spectrum = spectral.eigendecompose(Graph(n=2, adjacency=a))
    with pytest.raises(ValueError):
        theory.empirical_moment(spectrum, 0)


def test_empirical_moments_near_limit(moment_ensemble):
    # indicator kernels at n=1000: means over 10 seeds track the truncated
    # lattice sums for m=3 and m=4
    f_in, f_out = moment_ensemble["f_in"], moment_ensemble["f_out"]
    n = moment_ensemble["n"]
    for m in (3, 4):
        limit = theory.limiting_moment(f_in, f_out, m, K=200)
        observed = float(np.mean(moment_ensemble["moments"][m]))
        tolerance = max(0.1 * abs(limit), 5.0 / np.sqrt(n))
        assert abs(observed - limit) <= tolerance, (m, observed, limit)


# --- isolation_check ----------------------------------------------------------------

def test_sbm_isolation():
    report = theory.isolation_check(Constant(0.9), Constant(0.1), K=5)
    assert report.min_gap_sum == pytest.approx(0.2, abs=1e-12)
    assert report.min_gap_diff == pytest.approx(0.8, abs=1e-12)
    assert report.epsilon == pytest.approx(0.1, abs=1e-12)
    assert report.satisfied


def test_zero_out_density_breaks_isolation():
    report = theory.isolation_check(Constant(0.5), Constant(0.0), K=5)
    assert report.min_gap_sum == 0.0
    assert not report.satisfied


def test_gbm_isolation_holds():
    report = theory.isolation_check(Indicator(0.08), Indicator(0.02), K=200)
    assert report.satisfied
    assert report.min_gap_sum > 0.0
    assert report.min_gap_diff > 0.0
    assert report.epsilon > 0.0


def test_isolation_degenerate_model():
    with pytest.raises(DegenerateModelError):
        theory.isolation_check(Indicator(0.1), Indicator(0.1), K=5)


# --- spectrum_match --------------------------------------------------------------------

def test_sbm_spikes_match_atoms():
    params = SgbmParams(n=1000, d=1, f_in=Constant(0.9), f_out=Constant(0.1), seed=0)
    graph, _, _ = model.sample_graph(params)
    spectrum = spectral.eigendecompose(graph)
    measure = theory.limiting_atoms(Constant(0.9), Constant(0.1), K=8)
    match = theory.spectrum_match(spectrum, measure, threshold=0.1, window=0.05)
    assert len(match.entries) == 2
    nearest = sorted(entry[1] for entry in match.entries)
    assert nearest == [0.4, 0.5]
    assert match.max_distance < 0.05
    assert match.outlier_count == 0


def test_empty_graph_has_no_spikes():
    graph = Graph(n=10, adjacency=np.zeros((10, 10), dtype=np.uint8))
    spectrum = spectral.eigendecompose(graph)
    measure = theory.limiting_atoms(Indicator(0.08), Indicator(0.02), K=8)
    match = theory.spectrum_match(spectrum, measure, threshold=0.01, window=0.02)
    assert match.entries == []
    assert match.outlier_count == 0
    assert match.max_distance == 0.0


def test_spectrum_match_needs_positive_threshold():
    graph = Graph(n=4, adjacency=np.zeros((4, 4), dtype=np.uint8))
    spectrum = spectral.eigendecompose(graph)
    measure = theory.limiting_atoms(Indicator(0.1), Indicator(0.05), K=4)
    with pytest.raises(ValueError):
        theory.spectrum_match(spectrum, measure, threshold=0.0, window=0.02)
    with pytest.raises(ValueError, match="threshold"):
        theory.spectrum_match(spectrum, measure, threshold=np.nan, window=0.02)
    with pytest.raises(ValueError, match="window"):
        theory.spectrum_match(spectrum, measure, threshold=0.02, window=np.nan)
    with pytest.raises(ValueError, match="threshold"):
        theory.spectrum_match(spectrum, measure, threshold=np.inf, window=0.02)
    with pytest.raises(ValueError, match="window"):
        theory.spectrum_match(spectrum, measure, threshold=0.02, window=np.inf)


# --- rayleigh_bound ----------------------------------------------------------------------

def test_rayleigh_exact_eigenvector():
    params = SgbmParams(n=200, d=1, f_in=Indicator(0.2), f_out=Indicator(0.05), seed=1)
    graph, _, _ = model.sample_graph(params)
    spectrum = spectral.eigendecompose(graph)
    report = theory.rayleigh_bound(spectrum.eigenvectors[:, 0], spectrum)
    assert report.closest_rank == 1
    assert report.residual <= 1e-10 * graph.n
    assert report.sine_bound <= 1e-8
    # sqrt(1 - cos^2) can only resolve angles down to sqrt(machine eps)
    assert report.actual_sine <= 1e-7


def test_rayleigh_planted_on_cliques():
    # the planted vector is an exact eigenvector of the two-clique graph,
    # but its eigenvalue is doubly degenerate, so only the residual is
    # meaningful (delta collapses and the bound blows up)
    graph = two_cliques(10)
    planted = np.array([1.0] * 10 + [-1.0] * 10) / np.sqrt(20)
    spectrum = spectral.eigendecompose(graph)
    report = theory.rayleigh_bound(planted, spectrum)
    assert report.rho == pytest.approx(9.0, abs=1e-12)
    assert report.residual <= 1e-12


def test_rayleigh_bound_dominates_on_sbm(sbm_instances):
    for inst in sbm_instances:
        report = theory.rayleigh_bound(inst["planted"], inst["spectrum"])
        assert report.actual_sine <= report.sine_bound


def rayleigh_instance(n, seed):
    params = SgbmParams(n=n, d=1, f_in=Indicator(0.2), f_out=Indicator(0.05), seed=seed)
    graph, _, _ = model.sample_graph(params)
    vector = np.random.default_rng(seed).standard_normal(n)
    return graph, vector, spectral.eigendecompose(graph)


def test_rayleigh_report_matches_the_dense_product():
    graph, v, spectrum = rayleigh_instance(300, 4)
    report = theory.rayleigh_bound(v, spectrum)
    av = graph.dense() @ v
    rho = float(v @ av) / float(v @ v)
    residual = float(np.linalg.norm(av - rho * v))
    assert abs(report.rho - rho) <= 1e-12
    assert abs(report.residual - residual) <= 1e-12
    assert report.sine_bound == pytest.approx(residual / (np.linalg.norm(v) * report.delta),
                                              rel=1e-12)


def test_rayleigh_bound_reads_one_eigenvector(sbm_instances):
    """On the SBM draws of sgbm validate's check, a Spectrum whose vectors
    are not solved gives the full solve's report, and solves one vector."""
    for inst in sbm_instances[:3]:
        graph, planted = inst["graph"], inst["planted"]
        spectrum = spectral.Spectrum(graph)
        report = theory.rayleigh_bound(planted, spectrum)
        want = theory.rayleigh_bound(planted, inst["spectrum"])
        assert spectrum._eigenvectors is None and spectrum._eigenvalues is None  # no dsterf
        assert report.closest_rank == want.closest_rank
        for name in ("rho", "residual", "delta", "sine_bound", "actual_sine"):
            assert abs(getattr(report, name) - getattr(want, name)) <= 1e-12, name


def test_rayleigh_bound_allocates_by_row_block():
    """A v comes from row blocks of the uint8 adjacency, never from one
    n x n float64 copy (8 MB here)."""
    _, v, spectrum = rayleigh_instance(1000, 5)
    tracemalloc.start()
    try:
        theory.rayleigh_bound(v, spectrum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_rayleigh_validation():
    graph = two_cliques(4)
    spectrum = spectral.eigendecompose(graph)
    with pytest.raises(ValueError):
        theory.rayleigh_bound(np.zeros(8), spectrum)
    with pytest.raises(ValueError):
        theory.rayleigh_bound(np.ones(5), spectrum)


# --- trace_lipschitz_check ---------------------------------------------------------------

def _random_graph(n, p, rng):
    upper = np.triu((rng.random((n, n)) < p).astype(np.uint8), 1)
    return Graph(n=n, adjacency=upper + upper.T)


def test_trace_identical_graphs():
    graph = two_cliques(5)
    lhs, rhs = theory.trace_lipschitz_check(graph, graph, 3)
    assert lhs == 0.0
    assert rhs == 0.0


def test_trace_first_power_always_zero():
    rng = np.random.default_rng(0)
    a, b = _random_graph(20, 0.4, rng), _random_graph(20, 0.4, rng)
    lhs, rhs = theory.trace_lipschitz_check(a, b, 1)
    assert lhs == 0.0
    assert rhs >= 0.0


def test_trace_bound_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(4, 31))
        a = _random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
        b = _random_graph(n, float(rng.uniform(0.1, 0.9)), rng)
        m = int(rng.integers(1, 6))
        lhs, rhs = theory.trace_lipschitz_check(a, b, m)
        assert lhs <= rhs + 1e-9


def test_trace_eigenvalue_path_matches_direct():
    rng = np.random.default_rng(5)
    a, b = _random_graph(70, 0.3, rng), _random_graph(70, 0.3, rng)
    lhs, rhs = theory.trace_lipschitz_check(a, b, 3)
    direct = abs(np.trace(np.linalg.matrix_power(a.dense(), 3))
                 - np.trace(np.linalg.matrix_power(b.dense(), 3)))
    assert lhs == pytest.approx(direct, rel=1e-9, abs=1e-6)
    assert lhs <= rhs


def test_trace_eigenvalue_path_is_eigvalsh():
    rng = np.random.default_rng(8)
    a, b = _random_graph(100, 0.3, rng), _random_graph(100, 0.3, rng)
    for m in (2, 3, 4):
        lhs, _ = theory.trace_lipschitz_check(a, b, m)
        traces = [float(np.sum(np.linalg.eigvalsh(g.dense()) ** m)) for g in (a, b)]
        assert lhs == abs(traces[0] - traces[1])


def test_trace_validation():
    rng = np.random.default_rng(0)
    a = _random_graph(10, 0.5, rng)
    b = _random_graph(12, 0.5, rng)
    with pytest.raises(ValueError):
        theory.trace_lipschitz_check(a, b, 2)
    with pytest.raises(ValueError):
        theory.trace_lipschitz_check(a, a, 0)


# --- coefficients ------------------------------------------------------------------------

def test_coefficient_table_symmetries():
    kern = Waxman(0.8, 2.5, d=2)
    ks = np.array([[1, 2], [2, 1], [-1, 2], [1, -2], [-2, -1]])
    vals = kernels.coefficients(kern, ks)
    assert np.allclose(vals, vals[0], atol=1e-12)
    single = kernels.fourier_coeff(kern, [1, 2])
    assert vals[0] == pytest.approx(single, abs=1e-10)


def test_coefficient_table_constant():
    vals = kernels.coefficients(Constant(0.6), np.array([[0], [1], [-3]]))
    assert np.allclose(vals, [0.6, 0.0, 0.0], atol=1e-15)
