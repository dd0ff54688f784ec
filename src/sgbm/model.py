"""Soft geometric block model sampling on the flat torus.

A sample is (graph, labels, positions): a balanced random labelling into
communities {1, 2}, i.i.d. uniform latent positions on T^d, and an
independent Bernoulli edge for every unordered pair {i, j} with success
probability F_in(X_i - X_j) when the labels agree and F_out otherwise.

Edge draws come from a counter-based generator keyed on
(seed, min(i, j), max(i, j)), so the adjacency matrix is bit-identical
no matter how sampling work is scheduled or chunked.
"""

import io
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SgbmParams",
    "Graph",
    "DegreeStats",
    "sample_labelling",
    "sample_positions",
    "sample_graph",
    "degree_stats",
    "write_graph",
    "read_graph",
    "write_labels",
    "read_labels",
    "write_positions",
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
        every call, which spectral.Spectrum overwrites in place with its
        tridiagonal reduction (dsytrd) and keeps as the reflectors.
        Residual checks and rayleigh_bound use matvec, not this."""
        return self.adjacency.astype(np.float64)

    def matvec(self, vector):
        """A v, a block of rows at a time, about 2**16 entries each: the uint8
        adjacency is cast to float64 half a megabyte at a time, never as one
        n x n temporary."""
        rows = max(1, 2**16 // self.n)
        out = np.empty(self.n)
        for start in range(0, self.n, rows):
            out[start:start + rows] = self.adjacency[start:start + rows] @ vector
        return out

    def edge_count(self):
        return int(self.adjacency.sum()) // 2


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
    """Uniform[0,1) draw for unordered pair {i, j}, independent of order.

    Vectorized over i, j arrays.  The counter packs (min, max) into one
    word (node ids fit easily in 32 bits at this scale) and is whitened
    twice against the seed.
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
        adjacency[rows, cols] = edge
        start = stop
    adjacency |= adjacency.T
    return Graph(n=n, adjacency=adjacency), labels, positions


def degree_stats(graph, labels):
    """Per-node counts of same-label and different-label neighbors."""
    labels = np.asarray(labels)
    if labels.shape != (graph.n,):
        raise ValueError(f"labels have shape {labels.shape}, graph has n = {graph.n}")
    if not np.all((labels == 1) | (labels == 2)):
        raise ValueError("labels must be 1 or 2")
    a = graph.adjacency
    # integer counts on the uint8 matrix, as local_improvement votes: no n x n temporary
    degree = a.sum(axis=1, dtype=np.int64)
    ones = a[:, labels == 1].sum(axis=1, dtype=np.int64)  # neighbours labelled 1
    z_in = np.where(labels == 1, ones, degree - ones)
    return DegreeStats(z_in=z_in, z_out=degree - z_in)


# --- file formats --------------------------------------------------------
#
# Edge list: header "n d seed", then one "i j" line per edge, 0-indexed,
# i < j, in row-major order.  Labels: one of {1, 2} per line.  Positions:
# CSV with d coordinate columns.

_ASCII_INT = re.compile(r"[+-]?[0-9]+")  # the integers np.loadtxt takes on edge lines
_WRITE_CHUNK = 1 << 12  # edge lines joined per write, so few line strings live at once


def write_graph(path, graph, d, seed):
    i, j = np.nonzero(np.triu(graph.adjacency, k=1))
    names = [str(k) for k in range(graph.n)]
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {d} {seed}\n")
        for start in range(0, len(i), _WRITE_CHUNK):
            stop = start + _WRITE_CHUNK
            fh.write("".join([f"{names[a]} {names[b]}\n"
                              for a, b in zip(i[start:stop].tolist(), j[start:stop].tolist())]))


def read_graph(path):
    """Returns (Graph, d, seed) from an edge-list file.

    The header must be three ASCII integers.  Blank lines are skipped;
    anything else that is not an 'i j' pair of ASCII integers with
    0 <= i < j < n raises ValueError naming the path, and so does an n
    whose n x n adjacency cannot be allocated.
    """
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 3 or not all(_ASCII_INT.fullmatch(tok) for tok in header):
                raise ValueError("expected header 'n d seed' of three ASCII integers")
            header = [int(tok) for tok in header]
            if header[0] < 0:
                raise ValueError("expected header 'n d seed' with n >= 0")
            body = fh.read()
        n, d, seed = header
        # comments=None: a '#' line is an error, not a skipped comment
        edges = (np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2, comments=None)
                 if body.strip() else np.empty((0, 2), dtype=np.int64))
        if edges.shape[1] != 2:
            raise ValueError("expected 'i j' on every edge line")
        i, j = edges[:, 0], edges[:, 1]
        bad = np.flatnonzero((i < 0) | (i >= j) | (j >= n))
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
        for lab in labels:
            fh.write(f"{int(lab)}\n")


def read_labels(path):
    """Labels from a file of one 1 or 2 per line.

    Blank lines are skipped, as in read_graph.  An empty file, a comment
    line ('#') or any other line raises ValueError naming the path.
    """
    try:
        with open(path) as fh:
            text = fh.read()
        if not text.strip():
            raise ValueError("no labels")
        labels = np.loadtxt(io.StringIO(text), dtype=np.int8, ndmin=2, comments=None)
        if labels.shape[1] != 1:
            raise ValueError("expected one label per line")
        if not np.all((labels == 1) | (labels == 2)):
            raise ValueError("labels must be 1 or 2")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return labels[:, 0]


def write_positions(path, positions):
    n, d = positions.shape
    header = ",".join(f"x{axis}" for axis in range(d))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in positions:
            fh.write(",".join(repr(float(c)) for c in row) + "\n")
