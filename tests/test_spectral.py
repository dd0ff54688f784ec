import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgbm import kernels, model, spectral
from sgbm.model import Graph, SgbmParams
from sgbm.spectral import DegenerateModelError, Spectrum


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


# --- ideal_eigenvalue ---------------------------------------------------------

def test_ideal_eigenvalue_values():
    assert spectral.ideal_eigenvalue(0.16, 0.04, 2000) == pytest.approx(120.0)
    assert spectral.ideal_eigenvalue(0.1, 0.4, 100) == pytest.approx(-15.0)


def test_ideal_eigenvalue_degenerate():
    with pytest.raises(DegenerateModelError):
        spectral.ideal_eigenvalue(0.3, 0.3, 100)


# --- select_eigenpair ---------------------------------------------------------

def test_select_closest():
    spec = Spectrum(eigenvalues=np.array([3.0, -1.0, -1.0, -1.0]),
                    eigenvectors=np.eye(4))
    report = spectral.select_eigenpair(spec, 2.0)
    assert report.lambda_selected == 3.0
    assert report.selected_index == 1
    assert report.gap_to_next == pytest.approx(4.0)


def test_select_tie_prefers_larger():
    spec = Spectrum(eigenvalues=np.array([2.0, 0.0]), eigenvectors=np.eye(2))
    report = spectral.select_eigenpair(spec, 1.0)
    assert report.lambda_selected == 2.0
    assert report.selected_index == 1
    assert report.gap_to_next == pytest.approx(2.0)


def test_select_empty_spectrum():
    spec = Spectrum(eigenvalues=np.array([]), eigenvectors=np.zeros((0, 0)))
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
