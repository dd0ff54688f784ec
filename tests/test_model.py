import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgbm import kernels, model
from sgbm.model import Graph, SgbmParams


# --- torus geometry --------------------------------------------------------

class RecordingKernel:
    """Draws no edge, and records every distance the sampler evaluates it at."""

    def __init__(self, d):
        self.d, self.seen = d, []

    def profile(self, dist):
        self.seen.append(np.array(dist))
        return np.zeros_like(dist)


def sampled_distance(x, y):
    """The torus distance sample_graph hands its kernels for two nodes at x and y."""
    kernel = RecordingKernel(len(x))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "sample_positions", lambda n, d, rng: np.array([x, y], float))
        model.sample_graph(SgbmParams(n=2, d=len(x), f_in=kernel, f_out=kernel, seed=0))
    assert all(seen.shape == (1, 1) for seen in kernel.seen)
    return float(kernel.seen[0][0, 0])


def test_displacement_wraps_around():
    assert sampled_distance([0.4], [-0.4]) == pytest.approx(0.2, abs=1e-12)


def test_displacement_zero():
    assert sampled_distance([0.1, -0.3], [0.1, -0.3]) == 0.0


def test_displacement_linf():
    assert sampled_distance([0.25, 0.0], [-0.25, 0.1]) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    x=st.lists(st.floats(-0.5, 0.499), min_size=3, max_size=3),
    y=st.lists(st.floats(-0.5, 0.499), min_size=3, max_size=3),
)
def test_displacement_stays_in_fundamental_domain(x, y):
    dist = sampled_distance(x, y)
    assert 0.0 <= dist <= 0.5
    # the wrapped difference of each coordinate, against the plain one
    plain = np.abs(np.subtract(x, y))
    assert dist == pytest.approx(np.max(np.minimum(plain, 1.0 - plain)), abs=1e-12)
    assert sampled_distance(y, x) == pytest.approx(dist, abs=1e-12)


# --- parameter validation --------------------------------------------------

def test_params_reject_odd_n():
    kern = kernels.Constant(0.5)
    with pytest.raises(ValueError):
        SgbmParams(n=7, d=1, f_in=kern, f_out=kern, seed=0)
    with pytest.raises(ValueError):
        SgbmParams(n=0, d=1, f_in=kern, f_out=kern, seed=0)


def test_params_reject_dimension_mismatch():
    with pytest.raises(ValueError):
        SgbmParams(n=4, d=2, f_in=kernels.Constant(0.5), f_out=kernels.Constant(0.2), seed=0)


def test_params_reject_oversized_seed():
    kern = kernels.Constant(0.5)
    with pytest.raises(ValueError):
        SgbmParams(n=4, d=1, f_in=kern, f_out=kern, seed=2**64)


def test_graph_shape_check():
    with pytest.raises(ValueError):
        Graph(n=3, adjacency=np.zeros((2, 2), dtype=np.uint8))


# --- labelling -------------------------------------------------------------

def test_labelling_n2():
    labels = model.sample_labelling(2, np.random.default_rng(0))
    assert sorted(labels) == [1, 2]


def test_labelling_balance_and_determinism():
    a = model.sample_labelling(1000, np.random.default_rng(42))
    b = model.sample_labelling(1000, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert int(np.sum(a == 1)) == 500
    assert int(np.sum(a == 2)) == 500


def test_labelling_rejects_odd():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        model.sample_labelling(5, rng)
    with pytest.raises(ValueError):
        model.sample_labelling(0, rng)


# --- pair_uniform ----------------------------------------------------------

def test_pair_uniform_symmetric_and_deterministic():
    u1 = model.pair_uniform(123, 4, 17)
    u2 = model.pair_uniform(123, 17, 4)
    assert u1 == u2
    assert u1 == model.pair_uniform(123, 4, 17)
    assert 0.0 <= u1 < 1.0


def test_pair_uniform_vectorized():
    i = np.arange(100)
    j = np.arange(100, 200)
    u = model.pair_uniform(7, i, j)
    assert u.shape == (100,)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert np.array_equal(u, model.pair_uniform(7, j, i))


def test_pair_uniform_seed_sensitivity():
    i, j = np.meshgrid(np.arange(50), np.arange(50))
    a = model.pair_uniform(1, i, j)
    b = model.pair_uniform(2, i, j)
    off = ~np.eye(50, dtype=bool)
    assert not np.any(a[off] == b[off])
    # crude uniformity: the mean of 50*49 draws sits near 1/2
    assert abs(a[off].mean() - 0.5) < 0.02


_MASK64 = 2**64 - 1


def _splitmix64(z):
    """splitmix64 finalizer on Python ints, reduced mod 2**64 by hand."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("i, j", [(0, 1), (5, 3), (2**32 - 2, 2**32 - 1)])
def test_pair_uniform_matches_pure_python_splitmix64(seed, i, j):
    lo, hi = min(i, j), max(i, j)
    expected = _splitmix64(_splitmix64(seed) ^ ((lo << 32) | hi)) * 2.0**-64
    assert model.pair_uniform(seed, i, j) == expected
    assert model.pair_uniform(seed, j, i) == expected
    assert model.pair_uniform(seed, np.array([i, j]), np.array([j, i])).tolist() == [expected] * 2


# --- sample_graph -----------------------------------------------------------

def test_deterministic_kernels_give_block_matching():
    params = SgbmParams(n=4, d=1, f_in=kernels.Constant(1.0),
                        f_out=kernels.Constant(0.0), seed=3)
    graph, labels, positions = model.sample_graph(params)
    assert positions.shape == (4, 1)
    assert graph.edge_count() == 2
    assert type(graph.edge_count()) is int  # a Python int, as json.dumps needs
    deg = graph.adjacency.sum(axis=1)
    assert np.all(deg == 1)
    i, j = np.nonzero(np.triu(graph.adjacency))
    assert np.all(labels[i] == labels[j])


def test_probability_one_pair_still_draws_a_coin(monkeypatch):
    """An edge needs u < p, so a coin of exactly 1.0 drops even a p = 1 pair."""
    real = model.pair_uniform

    def coin_one_for_first_pair(seed, i, j):
        u = np.array(real(seed, i, j))
        i, j = np.broadcast_arrays(i, j)
        u[((i == 0) & (j == 1)) | ((i == 1) & (j == 0))] = 1.0
        return u

    monkeypatch.setattr(model, "pair_uniform", coin_one_for_first_pair)
    params = SgbmParams(n=4, d=1, f_in=kernels.Constant(1.0),
                        f_out=kernels.Constant(1.0), seed=0)
    graph, _, _ = model.sample_graph(params)
    expected = np.ones((4, 4), dtype=np.uint8) - np.eye(4, dtype=np.uint8)
    expected[0, 1] = expected[1, 0] = 0
    assert np.array_equal(graph.adjacency, expected)


def test_all_zero_kernel_gives_empty_graph():
    params = SgbmParams(n=6, d=1, f_in=kernels.Constant(0.0),
                        f_out=kernels.Constant(0.0), seed=0)
    graph, _, _ = model.sample_graph(params)
    assert not np.any(graph.adjacency)
    assert graph.edge_count() == 0


def test_adjacency_is_symmetric_hollow_binary():
    params = SgbmParams(n=300, d=2, f_in=kernels.Indicator(0.2, d=2),
                        f_out=kernels.Indicator(0.1, d=2), seed=11)
    graph, labels, positions = model.sample_graph(params)
    a = graph.adjacency
    assert a.dtype == np.uint8
    assert np.array_equal(a, a.T)
    assert not np.any(np.diag(a))
    assert set(np.unique(a)) <= {0, 1}
    assert positions.shape == (300, 2)
    assert np.all(positions >= -0.5) and np.all(positions < 0.5)


def test_sample_graph_repeatable():
    params = SgbmParams(n=200, d=1, f_in=kernels.Indicator(0.1),
                        f_out=kernels.Indicator(0.05), seed=99)
    g1, l1, p1 = model.sample_graph(params)
    g2, l2, p2 = model.sample_graph(params)
    assert np.array_equal(g1.adjacency, g2.adjacency)
    assert np.array_equal(l1, l2)
    assert np.array_equal(p1, p2)


def test_mean_degree_matches_edge_densities(sparse_gbm_ensemble):
    # n=2000, r_in=0.08, r_out=0.02: expect (n/2-1)*0.16 + (n/2)*0.04
    expected = 999 * 0.16 + 1000 * 0.04
    observed = float(np.mean(sparse_gbm_ensemble["mean_degree"]))
    assert abs(observed - expected) <= 0.05 * expected


def test_constant_kernel_edge_count_binomial():
    p_in, p_out = 0.5, 0.2
    n, n_seeds = 200, 50
    counts = []
    for seed in range(n_seeds):
        params = SgbmParams(n=n, d=1, f_in=kernels.Constant(p_in),
                            f_out=kernels.Constant(p_out), seed=seed)
        graph, _, _ = model.sample_graph(params)
        counts.append(graph.edge_count())
    intra = 2 * (n // 2) * (n // 2 - 1) // 2
    inter = (n // 2) ** 2
    mean = intra * p_in + inter * p_out
    var = intra * p_in * (1 - p_in) + inter * p_out * (1 - p_out)
    se_of_mean = np.sqrt(var / n_seeds)
    assert abs(np.mean(counts) - mean) <= 4.0 * se_of_mean


def single_block_adjacency(params):
    """The sampler's adjacency computed over all n x n pairs in one block.

    Reference for the row-blocked sample_graph: labels and positions come
    from the same seeded generator, each coin from pair_uniform.
    """
    n = params.n
    rng = np.random.default_rng(params.seed)
    labels = model.sample_labelling(n, rng)
    positions = model.sample_positions(n, params.d, rng)
    disp = np.mod(positions[:, None, :] - positions[None, :, :] + 0.5, 1.0) - 0.5
    dist = np.max(np.abs(disp), axis=-1)
    prob = np.where(labels[:, None] == labels[None, :],
                    params.f_in.profile(dist),
                    params.f_out.profile(dist))
    ids = np.arange(n)
    u = model.pair_uniform(params.seed, ids[:, None], ids[None, :])
    adjacency = ((u < prob) & (ids[None, :] > ids[:, None])).astype(np.uint8)
    return adjacency | adjacency.T, labels, positions


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("make_kernels", [
    lambda d: (kernels.Constant(0.3, d=d), kernels.Constant(0.1, d=d)),
    lambda d: (kernels.Indicator(0.3, d=d), kernels.Indicator(0.15, d=d)),
    lambda d: (kernels.Waxman(0.7, 1.0, d=d), kernels.Waxman(0.4, 2.0, d=d)),
], ids=["constant", "indicator", "waxman"])
def test_sample_graph_matches_single_block_reference(make_kernels, d):
    f_in, f_out = make_kernels(d)
    # n = 2 is a single pair; 130 is one block; 300 and 1000 end in a ragged block
    for n in (2, 4, 130, 300, 1000):
        for seed in (0, 1, 2):
            params = SgbmParams(n=n, d=d, f_in=f_in, f_out=f_out, seed=seed)
            graph, labels, positions = model.sample_graph(params)
            adjacency, ref_labels, ref_positions = single_block_adjacency(params)
            if n > 4:  # a few pairs may all land on one side by chance
                assert 0 < graph.edge_count() < n * (n - 1) // 2
            assert np.array_equal(graph.adjacency, adjacency)
            assert np.array_equal(labels, ref_labels)
            assert np.array_equal(positions, ref_positions)


def test_sample_graph_writes_each_block_with_its_transpose():
    """Each block is written into both triangles as it is sampled; the result
    is the upper triangle symmetrized as a | a.T, at an n that no block's
    row count divides (1234 = 23 * 53 + 15 for the first block)."""
    params = SgbmParams(n=1234, d=1, f_in=kernels.Waxman(0.7, 1.0),
                        f_out=kernels.Waxman(0.4, 2.0), seed=5)
    graph = model.sample_graph(params)[0]
    upper = np.triu(graph.adjacency, k=1)
    assert np.array_equal(graph.adjacency, upper | upper.T)
    assert np.array_equal(graph.adjacency, single_block_adjacency(params)[0])


# --- degree_stats ------------------------------------------------------------

def test_degree_stats_disjoint_edges():
    a = np.zeros((4, 4), dtype=np.uint8)
    a[0, 1] = a[1, 0] = 1
    a[2, 3] = a[3, 2] = 1
    stats = model.degree_stats(Graph(n=4, adjacency=a), [1, 1, 2, 2])
    assert np.all(stats.z_in == 1)
    assert np.all(stats.z_out == 0)


def test_degree_stats_complete_graph():
    a = np.ones((4, 4), dtype=np.uint8) - np.eye(4, dtype=np.uint8)
    stats = model.degree_stats(Graph(n=4, adjacency=a), [1, 2, 1, 2])
    assert np.all(stats.z_in == 1)
    assert np.all(stats.z_out == 2)


def test_degree_stats_length_mismatch():
    a = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        model.degree_stats(Graph(n=4, adjacency=a), [1, 2, 1])


def test_degree_stats_sum_identities():
    params = SgbmParams(n=400, d=1, f_in=kernels.Indicator(0.15),
                        f_out=kernels.Indicator(0.05), seed=5)
    graph, labels, _ = model.sample_graph(params)
    stats = model.degree_stats(graph, labels)
    assert np.all(stats.z_in >= 0) and np.all(stats.z_out >= 0)
    assert np.array_equal(stats.z_in + stats.z_out, graph.adjacency.sum(axis=1))
    same = labels[:, None] == labels[None, :]
    intra_edges = int((graph.adjacency * same).sum()) // 2
    assert int(stats.z_in.sum()) == 2 * intra_edges
    assert int(stats.z_out.sum()) == 2 * (graph.edge_count() - intra_edges)


def same_label_product_degree_stats(graph, labels):
    """The n x n same-label mask times A that degree_stats replaced: the reference."""
    a = graph.adjacency
    same = (labels[:, None] == labels[None, :]).astype(np.uint8)
    z_in = (a * same).sum(axis=1).astype(np.int64)
    return z_in, a.sum(axis=1).astype(np.int64) - z_in


def test_degree_stats_matches_same_label_product():
    cases = [(Graph(n=4, adjacency=np.zeros((4, 4), dtype=np.uint8)), [1, 2, 2, 1]),
             (Graph(n=4, adjacency=np.ones((4, 4), dtype=np.uint8) - np.eye(4, dtype=np.uint8)),
              [2, 2, 2, 2])]
    for seed, (f_in, f_out) in enumerate([(kernels.Indicator(0.15), kernels.Indicator(0.05)),
                                          (kernels.Waxman(0.5, 1.0), kernels.Waxman(0.9, 1.0)),
                                          (kernels.Constant(0.9), kernels.Constant(0.1))]):
        params = SgbmParams(n=300, d=1, f_in=f_in, f_out=f_out, seed=seed)
        graph, labels, _ = model.sample_graph(params)
        cases += [(graph, labels), (graph, labels.astype(np.int64))]
    for graph, labels in cases:
        stats = model.degree_stats(graph, labels)
        z_in, z_out = same_label_product_degree_stats(graph, np.asarray(labels))
        assert stats.z_in.dtype == stats.z_out.dtype == np.int64
        assert np.array_equal(stats.z_in, z_in) and np.array_equal(stats.z_out, z_out)
    with pytest.raises(ValueError, match="1 or 2"):
        model.degree_stats(cases[0][0], [0, 1, 1, 0])


def test_degree_margin_rarely_below_floor(degree_margin_ensemble):
    """Runs where some node has z_in - z_out under sqrt(2 (mu_in+mu_out) n log n).

    The concentration argument predicts violations in at most a quarter
    of runs at these parameters.  Observed: the mean margin itself
    (about 60 at n=2000, r_in=0.08, r_out=0.05) sits far below the
    floor (about 89), so essentially every run violates.  The bound
    kicks in only at much larger n.  Kept at the stated rate; expected
    to fail.
    """
    fraction = float(np.mean(degree_margin_ensemble["violated"]))
    assert fraction <= 0.25


# --- file round trips ---------------------------------------------------------

def test_graph_round_trip(tmp_path):
    params = SgbmParams(n=60, d=2, f_in=kernels.Indicator(0.2, d=2),
                        f_out=kernels.Indicator(0.1, d=2), seed=8)
    graph, labels, positions = model.sample_graph(params)
    path = tmp_path / "edges.txt"
    model.write_graph(path, graph, d=2, seed=8)
    back, d, seed = model.read_graph(path)
    assert (d, seed) == (2, 8)
    assert back.n == 60
    assert np.array_equal(back.adjacency, graph.adjacency)

    lpath = tmp_path / "labels.txt"
    model.write_labels(lpath, labels)
    assert np.array_equal(model.read_labels(lpath), labels)

    ppath = tmp_path / "positions.csv"
    model.write_positions(ppath, positions)
    data = np.loadtxt(ppath, delimiter=",", skiprows=1)
    assert np.allclose(data, positions)


def test_read_graph_rejects_malformed(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("10 1\n0 1\n")
    with pytest.raises(ValueError):
        model.read_graph(bad_header)

    bad_line = tmp_path / "b.txt"
    bad_line.write_text("4 1 0\n0 1 2\n")
    with pytest.raises(ValueError):
        model.read_graph(bad_line)

    out_of_range = tmp_path / "c.txt"
    out_of_range.write_text("4 1 0\n1 9\n")
    with pytest.raises(ValueError):
        model.read_graph(out_of_range)

    self_loop = tmp_path / "d.txt"
    self_loop.write_text("4 1 0\n2 2\n")
    with pytest.raises(ValueError):
        model.read_graph(self_loop)

    # a 10^18-byte adjacency: refused at once, with nothing allocated
    too_large = tmp_path / "e.txt"
    too_large.write_text("1000000000 1 0\n")
    with pytest.raises(ValueError, match=r"e\.txt: header has n = 1000000000: no memory"):
        model.read_graph(too_large)


# The per-edge loops that write_graph and read_graph replaced, kept as the
# reference the array versions are checked against.

def loop_write_graph(path, graph, d, seed):
    i, j = np.nonzero(np.triu(graph.adjacency, k=1))
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {d} {seed}\n")
        for a, b in zip(i, j):
            fh.write(f"{a} {b}\n")


def loop_read_graph(path):
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"{path}: expected header 'n d seed'")
        n, d, seed = int(header[0]), int(header[1]), int(header[2])
        adjacency = np.zeros((n, n), dtype=np.uint8)
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'i j'")
            a, b = int(parts[0]), int(parts[1])
            if not (0 <= a < b < n):
                raise ValueError(f"{path}:{line_no}: need 0 <= i < j < n, got {a} {b}")
            adjacency[a, b] = adjacency[b, a] = 1
    return Graph(n=n, adjacency=adjacency), d, seed


def _io_graphs():
    """Sampled graphs in d = 1 (over 2**16 edges, more than one row block of
    write_graph holds) and d = 2, a graph without edges, and n = 2 with and
    without its edge."""
    graphs = []
    for n, d, r_in, r_out, seed in ((1000, 1, 0.2, 0.05, 3), (300, 2, 0.2, 0.1, 4)):
        params = SgbmParams(n=n, d=d, f_in=kernels.Indicator(r_in, d=d),
                            f_out=kernels.Indicator(r_out, d=d), seed=seed)
        graphs.append((model.sample_graph(params)[0], d, seed))
    graphs.append((Graph(n=50, adjacency=np.zeros((50, 50), dtype=np.uint8)), 1, 0))
    pair = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    graphs.append((Graph(n=2, adjacency=pair), 3, 2**64 - 1))
    graphs.append((Graph(n=2, adjacency=np.zeros_like(pair)), 1, 9))
    return graphs


def _digit_edge_graphs():
    """Two graphs at n = 1002, where write_graph's row blocks are 65 rows:
    one with edges on the ids where the digit count changes (9/10, 99/100,
    999/1000/1001), a row (500) whose only edge lies below the diagonal and
    empty row blocks between edges, and one whose edges all lie in the last
    row block (rows 975-1001)."""
    n = 1002
    graphs = []
    for edges in ([(0, 1), (0, 1001), (9, 10), (9, 500), (10, 99), (99, 100), (100, 999),
                   (998, 999), (999, 1000), (999, 1001), (1000, 1001)],
                  [(975, 976), (980, 1001), (1000, 1001)]):
        adjacency = np.zeros((n, n), dtype=np.uint8)
        i, j = np.array(edges).T
        adjacency[i, j] = adjacency[j, i] = 1
        graphs.append((Graph(n=n, adjacency=adjacency), 1, 0))
    assert not graphs[0][0].adjacency[500, 501:].any()
    return graphs


def test_write_graph_matches_loop_writer(tmp_path):
    graphs = _io_graphs()
    assert graphs[0][0].edge_count() > 2**16
    for k, (graph, d, seed) in enumerate(graphs + _digit_edge_graphs()):
        new, old = tmp_path / f"new{k}.txt", tmp_path / f"old{k}.txt"
        model.write_graph(new, graph, d, seed)
        loop_write_graph(old, graph, d, seed)
        assert new.read_bytes() == old.read_bytes()


def test_id_words_spell_every_id_below_ten_million():
    """The digit table at both sides of every power of ten up to 10**7 - 1,
    built from those ids alone, with no n x n array."""
    ids = np.array(sorted({k for p in range(8) for k in (10**p - 2, 10**p - 1, 10**p, 10**p + 1)
                           if 0 <= k < 10**7}))
    left, right = model._id_words(ids)
    assert ids[0] == 0 and ids[-1] == 10**7 - 1
    for k, lw, rw in zip(ids.tolist(), left, right):
        assert lw.tobytes().lstrip(b"\0") == f"{k} ".encode()
        assert rw.tobytes().lstrip(b"\0") == f"{k}\n".encode()
        assert lw.tobytes().count(b"\0") == 7 - len(str(k))


def test_read_graph_matches_loop_reader(tmp_path):
    texts = [
        "4 1 0\n",                                # no edges
        "4 1 0\n\n0 1\n   \n2 3\n\n",             # blank lines are skipped
        "4 1 0\n  0\t1  \n1 3",                   # tabs, padding, no final newline
        "4 1 0\r\n0 1\r\n2 3\r\n",                 # CRLF
        "4 2 7\n0 1\n0 1\n+1 2\n",                 # duplicate edge, explicit sign
        "0 1 0\n",                                # empty graph
    ]
    for k, (graph, d, seed) in enumerate(_io_graphs()):
        path = tmp_path / f"g{k}.txt"
        loop_write_graph(path, graph, d, seed)
        texts.append(path.read_text())
    for k, text in enumerate(texts):
        path = tmp_path / f"t{k}.txt"
        path.write_text(text)
        new, old = model.read_graph(path), loop_read_graph(path)
        assert new[1:] == old[1:]
        assert new[0].n == old[0].n
        assert np.array_equal(new[0].adjacency, old[0].adjacency)


@pytest.mark.parametrize("text", [
    "",                              # no header
    "10 1\n0 1\n",                   # short header
    "4 1 0 9\n",                     # long header
    "4 x 0\n",                       # non-integer header
    "-1 1 0\n",                      # negative n
    "99999999999999999999 1 0\n",    # n too large to allocate
    "4 1 0\n0 1 2\n",                # three tokens
    "4 1 0\n0\n",                    # one token
    "4 1 0\n0 1\n\n1 2 3\n",          # three tokens after a blank line
    "4 1 0\n1 9\n",                  # j beyond n
    "4 1 0\n0 4\n",                  # j == n
    "4 1 0\n2 2\n",                  # self-loop
    "4 1 0\n2 1\n",                  # reversed pair
    "4 1 0\n-1 2\n",                 # negative index
    "4 1 0\n# comment\n0 1\n",        # comment line
    "4 1 0\n0 1 # comment\n",         # trailing comment
    "4 1 0\n0 1.5\n",                # non-integer token
    "4 1 0\n0 one\n",                # word
    "4 1 0\n0x1 2\n",                # hex
])
def test_read_graph_rejects_what_loop_reader_rejects(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        loop_read_graph(path)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        model.read_graph(path)


@pytest.mark.parametrize("text", [
    "20 1 0\n1_0 12\n",              # digit separator
    "20 1 0\n\u0661 2\n",             # non-ASCII digit (Arabic-Indic one)
    "2_0 1 0\n1 12\n",               # digit separator in the header
    "20 1 \u0661\n1 12\n",            # non-ASCII digit in the header
    "4 -1 0\n",                      # negative d
    "4 1 -5\n",                      # negative seed
    "4 1 18446744073709551616\n",    # seed of 2**64
    "-0 1 0\n",                      # minus zero in the header
    "4 1 0\n-0 1\n",                 # minus zero on an edge line
])
def test_read_graph_stricter_than_loop_reader(tmp_path, text):
    """Integer spellings Python's int() takes but the file format does not:
    every integer is ASCII digits with an optional '+', below 2**64."""
    path = tmp_path / "odd.txt"
    path.write_text(text, encoding="utf-8")
    loop_read_graph(path)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        model.read_graph(path)


def test_graph_io_memory_is_the_adjacency_and_the_edge_array(tmp_path):
    """At n = 2000 (generate_cluster_gbm's kernels) write_graph holds no more
    than one row block's bytes at a time, and read_graph no more than the uint8
    adjacency and the parsed uint64 edge array, n^2 + 16 E bytes, with 10%
    to spare: no copy of the file's text and no n x n temporary."""
    n = 2000
    params = SgbmParams(n=n, d=1, f_in=kernels.Indicator(0.12),
                        f_out=kernels.Indicator(0.05), seed=0)
    graph = model.sample_graph(params)[0]
    path = tmp_path / "edges.txt"
    peaks = []
    for io_call in (lambda: model.write_graph(path, graph, 1, 0), lambda: model.read_graph(path)):
        tracemalloc.start()
        try:
            back = io_call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert np.array_equal(back[0].adjacency, graph.adjacency)
    assert peaks[0] <= 1e6
    assert peaks[1] <= 1.1 * (n * n + 16 * graph.edge_count())


def test_read_labels_rejects_bad_values(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("1\n3\n2\n")
    with pytest.raises(ValueError):
        model.read_labels(path)


@pytest.mark.parametrize("text", [
    "",                  # empty file
    "\n \n",             # blank lines only
    "1\n3\n2\n",         # a label other than 1 or 2
    "1\n257\n",          # beyond int8
    "1\n-1\n",           # negative
    "# truth\n1\n2\n",   # comment line
    "1\n2 # node 1\n",   # trailing comment
    "1 2\n",             # two labels on a line
    "1\n2\n1 2\n",        # a ragged line
    "1\none\n",          # word
    "1\n1.5\n",          # non-integer
])
def test_read_labels_rejects_what_read_graph_would(tmp_path, text):
    """Every rejection is a ValueError that names the path, with no numpy warning."""
    path = tmp_path / "labels.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            model.read_labels(path)


def test_read_labels_skips_blank_lines(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("1\n\n2\n  \n2\n")
    labels = model.read_labels(path)
    assert labels.dtype == np.int8 and labels.shape == (3,)
    assert np.array_equal(labels, [1, 2, 2])
