"""Soft geometric block model sampling on the flat torus.

A sample is (graph, labels, positions): a balanced random labelling into
communities {1, 2}, i.i.d. uniform latent positions on T^d, and an
independent Bernoulli edge for every unordered pair {i, j} with success
probability F_in(X_i - X_j) when the labels agree and F_out otherwise.

Edge draws come from a counter-based generator keyed on
(seed, min(i, j), max(i, j)), so the adjacency matrix is bit-identical
no matter how sampling work is scheduled or chunked.

This module owns two rules the rest of the package shares: check_labels,
the one check on a labelling, and write_csv, which writes every CSV file.
"""

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SgbmParams",
    "Graph",
    "DegreeStats",
    "sample_labelling",
    "sample_positions",
    "sample_graph",
    "pair_uniform",
    "check_labels",
    "degree_stats",
    "write_graph",
    "read_graph",
    "write_labels",
    "read_labels",
    "write_positions",
    "write_csv",
]


@dataclass(frozen=True)
class SgbmParams:
    n: int
    d: int
    f_in: object
    f_out: object
    seed: int

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise ValueError(f"n must be even and >= 2 for balanced blocks, got {self.n}")
        if self.d < 1:
            raise ValueError("dimension must be a positive integer")
        if self.f_in.d != self.d or self.f_out.d != self.d:
            raise ValueError("kernels must share the model dimension")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass
class Graph:
    n: int
    adjacency: np.ndarray  # (n, n) uint8, symmetric, zero diagonal

    def __post_init__(self):
        a = self.adjacency
        if a.shape != (self.n, self.n):
            raise ValueError(f"adjacency shape {a.shape} does not match n = {self.n}")

    def dense(self):
        """Adjacency as float64, the form LAPACK wants: a fresh n x n copy on
        every call, which spectral.Spectrum overwrites in place: dsyevd
        leaves the eigenvectors in it, dsytrf the Bunch-Kaufman factor of
        A - sigma I.
        Residual checks and rayleigh_bound use matvec, not this."""
        return self.adjacency.astype(np.float64)

    def matvec(self, vector):
        """A v for a vector or an (n, k) block of them, a block of rows at a
        time, about 2**16 entries each: the uint8 adjacency is cast to float64
        half a megabyte at a time, never as one n x n temporary."""
        rows = max(1, 2**16 // self.n)
        out = np.empty((self.n,) + np.shape(vector)[1:])
        for start in range(0, self.n, rows):
            out[start:start + rows] = self.adjacency[start:start + rows] @ vector
        return out

    def edge_count(self):
        return int(np.count_nonzero(self.adjacency)) // 2


@dataclass
class DegreeStats:
    z_in: np.ndarray  # same-label neighbor counts
    z_out: np.ndarray  # different-label neighbor counts


# --- counter-based pair randomness --------------------------------------
#
# splitmix64 finalizer: a stateless uint64 -> uint64 mixer.  Each unordered
# pair maps to one counter, so edge draws need no sequential stream and no
# coordination between workers.

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_MULT2 = np.uint64(0x94D049BB133111EB)


def _mix64(z):
    """splitmix64 finalizer, in place on a uint64 array, which it returns."""
    t = np.empty_like(z)
    with np.errstate(over="ignore"):  # modular arithmetic is the point
        z += _SM_GAMMA
        z ^= np.right_shift(z, 30, out=t)
        z *= _SM_MULT1
        z ^= np.right_shift(z, 27, out=t)
        z *= _SM_MULT2
        z ^= np.right_shift(z, 31, out=t)
    return z


def pair_uniform(seed, i, j):
    """Uniform[0, 1] draw for unordered pair {i, j}, independent of order.

    Vectorized over i, j arrays.  The counter packs (min, max) into one
    word (node ids fit easily in 32 bits at this scale) and is whitened
    twice against the seed.  The uint64 -> float64 cast rounds every word
    at or above 2**64 - 2048 up to 2**64, so a draw can be exactly 1.0.
    """
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    z = np.minimum(i, j)
    z <<= np.uint64(32)
    z |= np.maximum(i, j)
    z ^= _mix64(np.array(seed, dtype=np.uint64))
    u = _mix64(z).astype(np.float64)
    u *= 2.0**-64
    return u


def sample_labelling(n, rng):
    """Uniformly random balanced labelling into {1, 2}."""
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    labels = np.ones(n, dtype=np.int8)
    labels[rng.choice(n, size=n // 2, replace=False)] = 2
    return labels


def sample_positions(n, d, rng):
    """i.i.d. uniform positions on [-1/2, 1/2)^d."""
    return rng.random((n, d)) - 0.5


def sample_graph(params):
    """Sample (Graph, labels, positions) from the model.

    Labels and positions come from a seeded numpy generator; each edge
    coin comes from pair_uniform, so the matrix does not depend on the
    row-block size used below.  Only pairs j > i are evaluated.
    """
    n, d = params.n, params.d
    rng = np.random.default_rng(params.seed)
    labels = sample_labelling(n, rng)
    positions = sample_positions(n, d, rng)

    adjacency = np.zeros((n, n), dtype=np.uint8)
    ids = np.arange(n, dtype=np.uint64)
    # a block is rows [start, stop) against columns start+1 .. n-1, about
    # 2**16 pairs, so each of the ~10 live (rows, columns) float64 or uint64
    # temporaries stays near 0.5 MB
    start = 0
    while start < n - 1:
        stop = min(n - 1, start + max(1, 2**16 // (n - start - 1)))
        rows, cols = slice(start, stop), slice(start + 1, n)
        dist = None
        for axis in range(d):
            # torus wrap of the difference; x - floor(x) equals np.mod(x, 1.0)
            # bit for bit here, since x lies in (-1/2, 3/2)
            x = positions[rows, axis, None] - positions[None, cols, axis]
            x += 0.5
            x -= np.floor(x)
            x -= 0.5
            np.abs(x, out=x)
            dist = x if dist is None else np.maximum(dist, x, out=dist)
        same = labels[rows, None] == labels[None, cols]
        prob = np.where(same, params.f_in.profile(dist), params.f_out.profile(dist))
        edge = pair_uniform(params.seed, ids[rows, None], ids[None, cols]) < prob
        edge &= ids[None, cols] > ids[rows, None]  # strict upper triangle only
        # each pair is in one block; its mirror is written with it, so no
        # strided n x n pass is left to symmetrize.  |=, as the two writes
        # overlap on the block's diagonal square
        adjacency[rows, cols] |= edge
        adjacency[cols, rows] |= edge.T
        start = stop
    return Graph(n=n, adjacency=adjacency), labels, positions


def check_labels(labels, n):
    """labels as an array, once it has shape (n,) and every entry is 1 or 2:
    the one label rule, checked before any cast."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels have shape {labels.shape}, graph has n = {n}")
    if not np.all((labels == 1) | (labels == 2)):
        raise ValueError("labels must be 1 or 2")
    return labels


def degree_stats(graph, labels):
    """Per-node counts of same-label and different-label neighbors.

    z_in - z_out is the degree margin: a node whose margin is negative has
    more neighbours with the other label, which is what
    spectral.local_improvement switches on.
    """
    labels = check_labels(labels, graph.n)
    # the degrees and the neighbours labelled 1 in one pass over A: A times
    # the all-ones vector and the label-1 indicator, with no copy of A's
    # columns; integer sums far below 2**53 are exact in float64
    counts = graph.matvec(np.stack([np.ones(graph.n), labels == 1], axis=1)).astype(np.int64)
    degree, ones = counts[:, 0], counts[:, 1]
    z_in = np.where(labels == 1, ones, degree - ones)
    return DegreeStats(z_in=z_in, z_out=degree - z_in)


# --- file formats --------------------------------------------------------
#
# Edge list: header "n d seed", then one "i j" line per edge, 0-indexed,
# i < j, in row-major order (by i, then by j).  write_graph spells each id
# from a 7-digit slot, enough for every n up to 10**7.  Labels: one of {1, 2}
# per line.  Every integer in both is read by _uints.  Positions: CSV with d
# coordinate columns, written like every CSV by write_csv.


def _uints(lines):
    """The rows of whitespace-separated integers in lines (an open file or a
    list of strings), as a 2-d uint64 array: the one integer rule of the input
    files, ASCII digits with an optional '+', below 2**64.  Blank lines are
    skipped, so an empty input gives zero rows; a '#' is an error, not a
    comment.  Anything else raises ValueError."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype=np.uint64, ndmin=2, comments=None)


def _id_words(ids):
    """Two uint64 tables with one word per id in ids (at most 10**7 - 1): the
    id's ASCII digits, then ' ' in the left table and '\n' in the right,
    right-aligned behind zero bytes.  Seven digit bytes hold every id of an
    n x n uint8 adjacency that fits in memory."""
    chars = np.zeros((2, len(ids), 8), dtype=np.uint8)
    chars[0, :, 7], chars[1, :, 7] = ord(" "), ord("\n")
    size = np.maximum(ids, 1)  # 0 has one digit, as 1 has
    for place in range(7):
        digit = ids // 10**place % 10 + ord("0")
        chars[:, :, 6 - place] = np.where(size >= 10**place, digit, 0)
    left, right = chars.view(np.uint64)[..., 0]
    return left, right


def write_graph(path, graph, d, seed):
    """The edge list of graph, with the header "n d seed": one "i j" line per
    edge, i < j, in row-major order.  Each id comes from the 7-digit slot of
    its _id_words word, which holds every n up to 10**7.  A block of rows,
    about 2**16 entries as in Graph.matvec, is written at a time: each edge's
    two words side by side, as bytes, with the zero bytes dropped."""
    n = graph.n
    left, right = _id_words(np.arange(n))
    rows = max(1, 2**16 // n)
    with open(path, "wb") as fh:
        fh.write(f"{n} {d} {seed}\n".encode())
        # the last row has no entry above the diagonal
        for start in range(0, n - 1, rows):
            # rows start.. against columns start + 1.., as in sample_graph; i
            # and j count from those two starts, so the pair is i < j at j >= i
            block = graph.adjacency[start:start + rows, start + 1:] != 0
            i, j = divmod(np.flatnonzero(block), n - start - 1)
            above = j >= i
            words = np.stack([left[start:][i[above]], right[start + 1:][j[above]]], axis=1)
            fh.write(words.tobytes().translate(None, b"\0"))


def read_graph(path):
    """Returns (Graph, d, seed) from an edge-list file, parsed from the open
    file by _uints, so a negative n, d or seed is rejected.  The header must
    be three integers.  Blank lines are skipped; anything else that is not an
    'i j' pair with i < j < n raises ValueError naming the path, and so does
    an n whose n x n adjacency cannot be allocated.
    """
    try:
        with open(path) as fh:
            header = _uints([fh.readline()])
            if header.shape != (1, 3):
                raise ValueError("expected header 'n d seed' of three integers")
            n, d, seed = map(int, header[0])
            edges = _uints(fh)
        # no edge lines read as zero rows of one column
        if len(edges) and edges.shape[1] != 2:
            raise ValueError("expected 'i j' on every edge line")
        i, j = edges.reshape(-1, 2).T
        bad = np.flatnonzero((i >= j) | (j >= n))
        if len(bad):
            k = bad[0]
            raise ValueError(f"edge {k + 1}: need 0 <= i < j < n, got {i[k]} {j[k]}")
        try:
            adjacency = np.zeros((n, n), dtype=np.uint8)
        except MemoryError:
            raise ValueError(f"header has n = {n}: no memory for the n x n adjacency") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    adjacency[i, j] = 1
    adjacency[j, i] = 1
    return Graph(n=n, adjacency=adjacency), d, seed


def write_labels(path, labels):
    with open(path, "w") as fh:
        fh.write("".join([f"{lab}\n" for lab in np.asarray(labels, dtype=np.int64).tolist()]))


def read_labels(path):
    """Labels from a file of one 1 or 2 per line, read by _uints.

    Blank lines are skipped, as in read_graph.  An empty file, a comment
    line ('#') or any other line raises ValueError naming the path.
    """
    try:
        with open(path) as fh:
            labels = _uints(fh)
        if labels.shape[1] != 1 or not len(labels):
            raise ValueError("expected one label per line")
        labels = check_labels(labels[:, 0], len(labels))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return labels.astype(np.int8)


def write_positions(path, positions):
    write_csv(path, [f"x{axis}" for axis in range(positions.shape[1])],
              (map(repr, row) for row in positions.tolist()))


def write_csv(path, header, rows):
    """A CSV file: the header's names, then each row's cells, already
    formatted as strings, joined by commas as they are."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
