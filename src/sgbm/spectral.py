"""Eigendecomposition, informative-eigenpair selection, and partitioning.

The clustering pipeline, cluster(): compute the spectrum of the
adjacency matrix, pick the eigenvalue closest to the ideal value
lambda* = n (mu_in - mu_out) / 2, and split nodes by the sign of the
matching eigenvector.  The informative eigenvalue is generally NOT the
second largest: geometric graphs park several spatial harmonics above
it, which is the whole reason selection is by value rather than by rank.

One class, Spectrum, gives the spectrum, each part solved on first use:
clustering reads the count of the eigenvalues above lambda*, the
eigenvalues of four ranks around it and one eigenvector, from a Lanczos
window where lambda* lies outside the noise bulk and from one kept
tridiagonal reduction otherwise; the per-eigenvector accuracy profile
reads every eigenvector.  Every reader of a graph's spectrum (cluster,
the motif baseline's fallback, rayleigh_bound) is handed one Spectrum and
reads its graph from it, so each graph is solved once.

Local improvement, the paper's small adjustment for strong consistency,
switches every node whose degree margin z_in - z_out (model.degree_stats)
is negative.  Labels are checked by model.check_labels alone.
"""

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _openblas
from .model import check_labels, degree_stats, pair_uniform

__all__ = [
    "Spectrum",
    "SelectionReport",
    "EigendecompositionError",
    "DegenerateModelError",
    "eigendecompose",
    "ideal_eigenvalue",
    "select_eigenpair",
    "sign_partition",
    "cluster",
    "hosc",
    "local_improvement",
    "loss",
    "accuracy",
    "per_eigenvector_accuracy",
]


class EigendecompositionError(RuntimeError):
    """The symmetric eigensolver failed to converge, or an eigenvector failed
    its residual check."""


class DegenerateModelError(ValueError):
    """mu_in = mu_out: the target eigenvalue is undefined."""


# Both tolerances are relative to the spectral radius max(lambda_1, 1); A >= 0, so
# lambda_1 >= |lambda_n| (Perron-Frobenius; Horn and Johnson, Matrix Analysis, 8.3.1).
# A returned eigenvector must satisfy ||A v - lambda v|| <= _RESIDUAL_RTOL * radius;
# divide-and-conquer eigenvectors and those from inverse iteration on the
# tridiagonal form both reach about 1e-15 * radius * sqrt(n).
_RESIDUAL_RTOL = 1e-9
# Below this distance to the nearest other eigenvalue, inverse iteration
# cannot single out one eigenvector (a repeated eigenvalue).
_GAP_RTOL = 1e-8
# local_improvement(iterate=True) stops here if the majority vote has not settled
_LI_MAX_ROUNDS = 100

# The Lanczos window starts from _BLOCK vectors at once.  From one start vector a
# Krylov space holds one vector of each eigenspace, so a repeated eigenvalue would
# show once and shift every rank below it; from two it shows at least twice, and
# the _GAP_RTOL test sends it to the reduction.
_BLOCK = 2
# the window is solved at _WINDOW_FIRST basis vectors, then every _WINDOW_STEP more
_WINDOW_FIRST, _WINDOW_STEP = 40, 20
# count_above(x) tries the window where |x| >= _BULK_MARGIN * 2 sqrt(n p (1 - p)),
# the edge of the noise bulk of a graph of edge density p (Furedi and Komlos,
# Combinatorica 1981); nearer the bulk the window would converge too slowly
_BULK_MARGIN = 1.5
# values(first, last) without a count tries the window within _END_RANKS of an end
_END_RANKS = 3


def _window_cap(n):
    """Most basis vectors the window grows to before the reduction answers."""
    return min(n, max(_WINDOW_FIRST, n // 4))


def _gap_at(spectrum, rank, point=None):
    """Distance from point, whose nearest eigenvalue is the rank-th (default: that
    one), to the nearest other eigenvalue, rank - 1 or rank + 1; inf if none."""
    first = max(1, rank - 1)
    near = spectrum.values(first, min(spectrum.n, rank + 1))
    point = near[rank - first] if point is None else point
    others = np.abs(np.delete(near, rank - first) - point)
    return float(others.min()) if len(others) else np.inf


def _oriented(vector):
    """The sign rule: the first entry with |v_i| >= max|v| / 2 is positive.

    Half the maximum leaves a wide margin, so two solvers that agree to
    roundoff pick the same entry.
    """
    magnitude = np.abs(vector)
    first = int(np.argmax(magnitude >= 0.5 * magnitude.max()))
    return vector if vector[first] > 0 else -vector


def _checked(graph, value, vector, radius):
    """vector under the sign rule, once ||A v - value v|| passes; else raise."""
    difference = graph.matvec(vector) - value * vector
    residual = float(np.linalg.norm(difference))
    if not residual <= _RESIDUAL_RTOL * radius:
        raise EigendecompositionError(
            f"eigenvector at eigenvalue {value:.6g} has residual {residual:.3g}, "
            f"above {_RESIDUAL_RTOL * radius:.3g}")
    return _oriented(vector)


class Spectrum:
    """Every eigenpair of a graph's adjacency matrix A, each solved on first use.

    The constructor does no work.  A request is answered in one of two
    ways, and solve_s adds up the wall time of the solves behind them.

    The Lanczos window answers count_above(x) where |x| lies outside the
    noise bulk (_BULK_MARGIN), and values and eigenvector requests for
    ranks near an end (_END_RANKS) or already held, as long as A has not
    been reduced.  It is a block Lanczos run (Parlett, The Symmetric
    Eigenvalue Problem, ch. 13) on Graph.matvec from _BLOCK fixed start
    vectors, with two classical Gram-Schmidt passes against every basis
    vector.  The projection of A on the basis is banded; dsbtrd makes it
    tridiagonal and dstebz and dstein give its Ritz pairs.  A Ritz pair
    has converged when its residual, read off the band, is at most
    _RESIDUAL_RTOL times max(1, the top Ritz value).  The basis grows by
    _WINDOW_STEP vectors until every rank the request reads has converged,
    in one run of ranks from an end: count_above(x) reads the ranks
    through two past x.  The window hands out nothing else: when the
    basis reaches _window_cap(n) first, a rank read lies within _GAP_RTOL
    of a neighbour (a repeated eigenvalue, whose copies the window may
    not all hold), or a rank yet to converge lies inside the noise bulk,
    the reduction answers.  Every sum over n is taken by einsum, which no
    BLAS thread splits, so the window's bits do not depend on the BLAS
    thread count.

    Every other request reduces one float64 copy of A to tridiagonal form,
    T = Q^T A Q (LAPACK dsytrd, in place: the copy then holds the
    Householder reflectors of Q), drops the window, and is answered from
    T and the reflectors from then on (LAPACK Users' Guide, section 2.4.4;
    Parlett, ch. 4):

    - count_above(x): how many eigenvalues exceed x, dstebz's count of
      the eigenvalues of T in (x, inf]: a few Sturm counts, O(n) each
      (Parlett, section 3.3), and no bisection.
    - values(first, last): the eigenvalues of ranks first..last by
      bisection on T (dstebz), O(n) per eigenvalue, cached by rank with
      the block of T each lies in.  Selection and eigenvector(rank)
      read these, so clustering never solves every eigenvalue.
    - eigenvalues: every eigenvalue of T by dstedc without vectors,
      sorted descending, for callers that print or scan the whole
      spectrum.  Without vectors dstedc runs dsterf, as eigvalsh's dsyevd
      does, so they equal eigvalsh's bit for bit.
    - eigenvector(rank): inverse iteration on T (dstein, O(n)) at the
      value and block that values bisected for that rank, mapped back
      through the reflectors (dormtr, O(n^2), unblocked on one column):
      the dsyevx pipeline.  It reads rank 1 for the radius,
      max(1, lambda_1), and ranks rank +- 1 for the gap.  Vectors are
      cached by rank, whichever way they were solved.
    - eigenvectors: every eigenvector of T by divide and conquer
      (dstedc), mapped back by one dormtr over all n columns: dsyevd's
      own inner steps, so the pairs equal eigh's bit for bit.  The
      reflectors are dropped after it.

    count_above and values read the full list of eigenvalues only when
    dstebz fails.  That list is fixed at its first read: dstedc's
    (eigh's) if every vector was solved by then, otherwise those of
    dstedc without vectors (eigvalsh's).  eigenvector(rank) reads its
    column of eigenvectors once every vector is solved, for a repeated
    eigenvalue (too close to another for inverse iteration to single out
    one vector), and when a LAPACK call fails or returns a vector that
    is not finite; so do the eigenvalues when dstedc without vectors
    fails.  Without these routines in numpy's OpenBLAS, eigh gives every
    pair.  Callers only ask for what they read: how an eigenpair is
    solved is decided here alone.
    """

    def __init__(self, graph):
        if graph.n < 2:
            raise ValueError("need at least two nodes")
        self.graph, self.n = graph, graph.n
        self.solve_s = 0.0  # wall time of the window and the reduction, once run
        self._eigenvalues = self._eigenvectors = self._d = None
        self._vectors, self._bisected = {}, {}
        self._basis = None  # the window's Lanczos vectors, as rows
        self._ritz = {}  # rank: (value, coordinates in the basis) of a converged Ritz pair
        self._lapack = _openblas.lapack()

    def _reduced(self):
        """Whether T and the reflectors are at hand: False without LAPACK,
        else True, after dsytrd on the first call.  Every request that reads
        them asks this first.  The reduction drops the window; a failed one
        raises and keeps nothing, so the next request tries again."""
        if self._lapack is None:
            return False
        if self._d is not None:
            return True
        start, n = time.perf_counter(), self.n
        self._basis, self._ritz = None, {}
        # A is symmetric, so its C-order copy read in Fortran order is A itself
        reflectors = self.graph.dense()
        d, e, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
        _raise_on_failure("dsytrd", self._lapack["dsytrd"](
            _openblas.COL_MAJOR, b"L", n, reflectors, n, d, e, tau))
        self._reflectors, self._d, self._e, self._tau = reflectors, d, e, tau
        # where T splits into blocks: every dstebz call writes the same ends here
        self._split = np.zeros(n, np.int64)
        self.solve_s += time.perf_counter() - start
        return True

    def count_above(self, x):
        """How many eigenvalues are greater than x.

        From the window, the converged Ritz values: every rank above x and
        two past it, counted from the end x is nearer.  On T, dstebz over
        (x, inf] at an infinite tolerance: it counts by the signs of the
        LDL^T pivots of T - x I and bisects nothing.
        """
        x = float(x)
        if self._d is None and abs(x) >= _BULK_MARGIN * self._bulk_edge:
            top = x > 0
            ranks = self._window(lambda theta: (min(self.n, int(np.sum(theta > x)) + 2), 0)
                                 if top else (0, min(self.n, int(np.sum(theta <= x)) + 2)))
            if ranks is not None:
                values = np.array([self._ritz[rank][0] for rank in ranks])
                return int(np.sum(values > x)) if top else self.n - int(np.sum(values <= x))
        found = self._dstebz(b"V", x, np.inf, 0, 0, np.inf)
        if found is None:
            return int(np.sum(self.eigenvalues > x))
        return len(found[0])

    @cached_property
    def _bulk_edge(self):
        """2 sqrt(n p (1 - p)) at the graph's edge density p: the edge of the
        noise bulk of a random graph with A's degrees on average."""
        n = self.n
        p = self.graph.edge_count() / (n * (n - 1) / 2)
        return 2.0 * np.sqrt(n * p * (1.0 - p))

    def values(self, first, last):
        """The eigenvalues of ranks first..last (1 = largest), descending.

        Ranks the window holds, or can solve within _END_RANKS of an end
        together with the next rank inward (which the gap reads), are
        answered from it.  Otherwise one bisection on T (dstebz) over the
        span of the ranks not cached yet; each rank keeps the value, and
        the block of T, it is first given.  When dstebz fails they are
        read from eigenvalues.
        """
        if not 1 <= first <= last <= self.n:
            raise ValueError(f"ranks {first}..{last} outside 1..{self.n}")
        n, ranks = self.n, range(first, last + 1)
        if any(rank not in self._ritz for rank in ranks):
            if last <= _END_RANKS:
                self._window(lambda theta: (min(n, last + 1), 0))
            elif first > n - _END_RANKS:
                self._window(lambda theta: (0, min(n, n + 2 - first)))
        if all(rank in self._ritz for rank in ranks):
            return np.array([self._ritz[rank][0] for rank in ranks])
        missing = [rank for rank in ranks if rank not in self._bisected]
        if missing:
            span = range(missing[0], missing[-1] + 1)
            # dstebz counts from the smallest eigenvalue, from 1
            found = self._dstebz(b"I", 0.0, 0.0, n + 1 - span[-1], n + 1 - span[0], 0.0)
            if found is None or len(found[0]) != len(span):
                return self.eigenvalues[first - 1:last]
            self._bisected = {**dict(zip(reversed(span), zip(*found))), **self._bisected}
        return np.array([self._bisected[rank][0] for rank in ranks])

    def _window(self, needed):
        """The ranks 1..top and n + 1 - bottom..n, for (top, bottom) =
        needed(Ritz values, descending), in order, once every one has
        converged in the window; they are then cached in _ritz.  The basis
        grows until they have.  None, and the reduction answers, once A is
        reduced, without LAPACK, at the cap, when the basis holds no new
        direction, or when _converged gives up."""
        if self._d is not None or self._lapack is None:
            return None
        start, n = time.perf_counter(), self.n
        try:
            if self._basis is None and not self._grow(min(_window_cap(n), _WINDOW_FIRST)):
                return None
            while True:
                found = self._converged(*needed(self._theta))
                if found is not None:
                    for rank, pair in found.items():
                        self._ritz.setdefault(rank, pair)
                    return sorted(found) or None
                if (self._length == self._done or self._done >= _window_cap(n)
                        or not self._grow(min(_window_cap(n), self._done + _WINDOW_STEP))):
                    return None
        finally:
            self.solve_s += time.perf_counter() - start

    def _grow(self, size):
        """Extend the window's Lanczos basis block by block until the first
        `size` columns of H = Q^T A Q are complete (or no new direction is
        left), then solve for the Ritz values; False when LAPACK fails."""
        n, b = self.n, _BLOCK
        if self._basis is None:
            self._basis, self._band = np.empty((0, n)), np.empty((0, b + 1))
            self._length = self._done = 0
        # a step appends at most b vectors past the b pending ones
        capacity = max(size + 2 * b, len(self._basis))
        if capacity > len(self._basis):
            self._basis = np.concatenate([self._basis[:self._length],
                                          np.empty((capacity - self._length, n))])
            self._band = np.concatenate([self._band, np.zeros((capacity - len(self._band), b + 1))])
        if self._length == 0:
            starts = np.stack([pair_uniform(0, np.arange(n), n + j) - 0.5 for j in range(b)])
            self._extend(starts, None)
        while self._done < size and self._length > self._done:
            first = self._done
            self._done = self._length
            block = np.ascontiguousarray(self._basis[first:self._done].T)
            self._extend(self.graph.matvec(block).T, first)
        return self._solve_window()

    def _extend(self, rows, first):
        """Append each row to the basis, orthogonalized against every basis
        vector by two classical Gram-Schmidt passes and normalized, unless
        what is left is roundoff.  With first, row c is A q_j, j = first + c,
        and its coefficients fill column j of the lower band of H."""
        for c, w in enumerate(rows):
            scale = max(1.0, np.sqrt(np.einsum("i,i->", w, w)))
            coefficients = 0.0
            for _ in range(2):
                basis = self._basis[:self._length]
                h = np.einsum("kn,n->k", basis, w)
                w = w - np.einsum("kn,k->n", basis, h)
                coefficients = coefficients + h
            norm = np.sqrt(np.einsum("i,i->", w, w))
            if first is not None:
                j = first + c
                self._band[j, :self._length - j] = coefficients[j:]
            if norm <= self.n * np.finfo(float).eps * scale:
                continue
            if first is not None:
                self._band[j, self._length - j] = norm
            self._basis[self._length] = w / norm
            self._length += 1

    def _solve_window(self):
        """Ritz values of H's leading block of complete columns, descending:
        dsbtrd makes the band tridiagonal, keeping its rotations, and dstebz
        bisects every eigenvalue; False when either fails."""
        size = self._done
        width = min(_BLOCK, size - 1)
        band = self._band[:size, :width + 1].copy()
        for offset in range(1, width + 1):
            band[size - offset:, offset] = 0.0  # rows past size couple to the next block
        # LAPACKE checks the rotations for NaN on entry
        d, e, rotations = np.empty(size), np.empty(max(1, size - 1)), np.zeros((size, size))
        if self._lapack["dsbtrd"](_openblas.COL_MAJOR, b"V", b"L", size, width, band,
                                  width + 1, d, e, rotations, size) != 0:
            return False
        m, nsplit = np.zeros(1, np.int64), np.zeros(1, np.int64)
        theta, blocks, split = np.zeros(size), np.zeros(size, np.int64), np.zeros(size, np.int64)
        if self._lapack["dstebz"](b"A", b"E", size, 0.0, 0.0, 0, 0, 0.0, d, e, m, nsplit,
                                  theta, blocks, split) != 0 or m[0] != size:
            return False
        self._tridiagonal = d, e, rotations, blocks[::-1], split
        self._theta = theta[::-1]
        return True

    def _converged(self, top, bottom):
        """{rank: (value, coordinates in the basis)} for the Ritz pairs of
        ranks 1..top and n + 1 - bottom..n, once every one has converged;
        None before.  {} (give up) when one lies within _GAP_RTOL of a
        neighbouring Ritz value, when LAPACK fails, or when one yet to
        converge lies inside the noise bulk, where eigenvalues crowd and the
        window would converge on it slowly."""
        n, size, b = self.n, self._done, _BLOCK
        theta, radius = self._theta, max(1.0, float(self._theta[0]))
        if top + bottom > size and size < n:
            return None
        # rank r is Ritz value r - 1 from the top, or n - r from the bottom
        index = {**{rank: rank - 1 for rank in range(1, top + 1)},
                 **{rank: size - 1 - (n - rank) for rank in range(n + 1 - bottom, n + 1)}}
        if any(np.sum(np.abs(theta[max(0, i - 1):i + 2] - theta[i]) <= _GAP_RTOL * radius) > 1
               for i in index.values()):
            return {}
        # H's rows past the leading block, on its last b columns: what the residual reads
        tail = range(max(0, size - b), size)
        coupling = np.array([[self._band[j, i - j] if i - j <= b else 0.0 for j in tail]
                             for i in range(size, self._length)]).reshape(-1, len(tail))
        found, pending = {}, []
        for rank, i in index.items():
            coordinates = self._ritz_coordinates(i)
            if coordinates is None:
                return {}
            residual = np.sqrt(np.sum((coupling @ coordinates[tail.start:]) ** 2))
            if residual <= _RESIDUAL_RTOL * radius:
                found[rank] = float(theta[i]), coordinates
            else:
                pending.append(abs(theta[i]))
        if not pending:
            return found
        return {} if min(pending) < self._bulk_edge else None

    def _ritz_coordinates(self, i):
        """Unit eigenvector of H's leading block for its (i + 1)-th largest
        eigenvalue, in the window's basis: dstein on the tridiagonal form,
        turned back by dsbtrd's rotations; None when dstein fails."""
        d, e, rotations, blocks, split = self._tridiagonal
        size = len(d)
        value, block = np.zeros(size), np.zeros(1, np.int64)
        value[0], block[0] = self._theta[i], blocks[i]
        vector, failed = np.zeros(size), np.zeros(1, np.int64)
        if self._lapack["dstein"](_openblas.COL_MAJOR, size, d, e, 1, value, block, split,
                                  vector, size, failed) != 0:
            return None
        # rotations holds Q column-major, so Q z is a sum over its rows
        return np.einsum("ji,j->i", rotations, vector)

    def _dstebz(self, kind, vl, vu, il, iu, abstol):
        """dstebz on T with range kind ("V": the eigenvalues in (vl, vu];
        "I": those of indices il..iu, counted from the smallest): (values
        ascending, their blocks), or None without LAPACK or when dstebz
        fails."""
        if not self._reduced():
            return None
        n = self.n
        m, nsplit = np.zeros(1, np.int64), np.zeros(1, np.int64)
        value, block = np.zeros(n), np.zeros(n, np.int64)
        info = self._lapack["dstebz"](kind, b"E", n, vl, vu, il, iu, abstol, self._d, self._e,
                                      m, nsplit, value, block, self._split)
        return (value[:m[0]], block[:m[0]]) if info == 0 else None

    @property
    def eigenvalues(self):
        """Every eigenvalue, sorted descending."""
        if self._eigenvalues is None:
            if self._reduced():
                # compz N: dstedc runs dsterf and references no vectors
                values = self._d.copy()
                if self._lapack["dstedc"](_openblas.COL_MAJOR, b"N", self.n, values,
                                          self._e.copy(), np.empty(1), 1) == 0:
                    self._eigenvalues = values[::-1]
            if self._eigenvalues is None:
                self._solve_all()
        return self._eigenvalues

    @property
    def eigenvectors(self):
        """(n, n) array: column i pairs with eigenvalues[i]."""
        if self._eigenvectors is None:
            self._solve_all()
        return self._eigenvectors

    def eigenvector(self, rank):
        """Eigenvector of rank (1 = largest eigenvalue), residual-checked,
        under the sign rule."""
        if rank not in self._vectors:
            radius = max(1.0, float(self.values(1, 1)[0]))
            value = float(self.values(rank, rank)[0])
            pinned = self._eigenvectors is None and _gap_at(self, rank) > _GAP_RTOL * radius
            vector = self._pinned_vector(rank) if pinned else None
            if vector is None:
                vector = self.eigenvectors[:, rank - 1]
            self._vectors[rank] = _checked(self.graph, value, vector, radius)
        return self._vectors[rank]

    def _pinned_vector(self, rank):
        """Unit eigenvector of A for rank: the window's Ritz vector when the
        window holds the rank, else inverse iteration at the value values
        bisected for it.  None without LAPACK, when dstebz fails, a LAPACK
        call reports failure or the vector is not finite."""
        if rank in self._ritz:
            coordinates = self._ritz[rank][1]
            return np.einsum("kn,k->n", self._basis[:len(coordinates)], coordinates)
        if self._lapack is None:
            return None
        self.values(rank, rank)  # bisects a rank whose value came from a dropped window
        if rank not in self._bisected:
            return None
        lapack, n = self._lapack, self.n
        # LAPACKE checks all n entries of the values for NaN
        value, block = np.zeros(n), np.zeros(1, np.int64)
        value[0], block[0] = self._bisected[rank]
        vector, failed = np.zeros(n), np.zeros(1, np.int64)
        info = lapack["dstein"](_openblas.COL_MAJOR, n, self._d, self._e, 1, value, block,
                                self._split, vector, n, failed)
        if info == 0:
            # a one-double workspace, below dormqr's blocked size, takes its
            # unblocked path (dorm2r), as LAPACKE_dormtr's allocation does
            info = lapack["dormtr_work"](_openblas.COL_MAJOR, b"L", b"L", b"N", n, 1,
                                         self._reflectors, n, self._tau, vector, n,
                                         np.empty(1), 1)
        return vector if info == 0 and np.all(np.isfinite(vector)) else None

    def _solve_all(self):
        """Every eigenpair, as dsyevd computes them; eigh without LAPACK."""
        if not self._reduced():
            try:
                values, vectors = np.linalg.eigh(self.graph.dense())
            except np.linalg.LinAlgError as exc:
                raise EigendecompositionError(str(exc)) from exc
        else:
            n = self.n
            values, rows = self._d.copy(), np.empty((n, n))
            _raise_on_failure("dstedc", self._lapack["dstedc"](
                _openblas.COL_MAJOR, b"I", n, values, self._e.copy(), rows, n))
            # dormqr's whole blocked workspace (n * nb + 65 * 64 doubles, nb <= 64), as
            # dsyevd passes it: with the n * nb that LAPACKE_dormtr allocates, dormqr
            # shrinks its block and the vectors differ from dsyevd's in the last bits
            work = np.empty(n * 64 + 65 * 64)
            _raise_on_failure("dormtr", self._lapack["dormtr_work"](
                _openblas.COL_MAJOR, b"L", b"L", b"N", n, n, self._reflectors, n, self._tau,
                rows, n, work, len(work)))
            vectors = rows.T  # column-major: row i of rows pairs with values[i]
            self._reflectors = None  # every later request reads the vectors
        self._eigenvectors = vectors[:, ::-1]
        if self._eigenvalues is None:
            self._eigenvalues = values[::-1]


def _raise_on_failure(name, info):
    """MemoryError when LAPACKE could not allocate a workspace, EigendecompositionError
    for any other nonzero info."""
    if info in _openblas.MEMORY_ERRORS:
        raise MemoryError(f"LAPACKE_{name} could not allocate its workspace (info {info})")
    if info != 0:
        raise EigendecompositionError(f"LAPACK {name} failed (info {info})")


@dataclass
class SelectionReport:
    lambda_star: float
    selected_index: int  # rank, 1 = largest eigenvalue
    lambda_selected: float
    gap_to_next: float  # distance to the nearest other eigenvalue
    eigenvector: np.ndarray


def eigendecompose(graph):
    """Spectrum(graph) with every eigenvector solved first, so that its
    eigenvalues and eigenvectors equal numpy's eigh bit for bit (in
    descending order)."""
    spectrum = Spectrum(graph)
    spectrum.eigenvectors
    return spectrum


def ideal_eigenvalue(mu_in, mu_out, n):
    """lambda* = n (mu_in - mu_out) / 2; negative for disassociative models."""
    if mu_in == mu_out:
        raise DegenerateModelError(
            "mu_in equals mu_out: communities are statistically indistinguishable")
    return n * (mu_in - mu_out) / 2.0


def select_eigenpair(spectrum, lambda_star):
    """Eigenpair whose eigenvalue is closest to lambda*.

    It reads count_above(lambda*) and the window of ranks around that
    count, never the whole spectrum.  The eigenvector comes from
    spectrum.eigenvector(), so it is residual-checked and follows the
    sign rule.  Exact distance ties go to the larger eigenvalue.
    gap_to_next is the distance from the chosen eigenvalue to the
    nearest other one, the quantity that controls how trustworthy the
    selection is.
    """
    n = spectrum.n
    if n == 0:
        raise ValueError("empty spectrum")
    # ranks 1..above lie above lambda*, so the nearest is rank above or above + 1
    above = spectrum.count_above(lambda_star)
    first = max(1, above - 1)
    window = spectrum.values(first, min(n, above + 2))
    # argmin returns the first minimizer; descending order makes that the
    # larger eigenvalue on a tie
    rank = first + int(np.argmin(np.abs(window - lambda_star)))
    return SelectionReport(
        lambda_star=float(lambda_star),
        selected_index=rank,
        lambda_selected=float(window[rank - first]),
        gap_to_next=_gap_at(spectrum, rank),
        eigenvector=spectrum.eigenvector(rank),
    )


def sign_partition(eigenvector):
    """Label 1 where the entry is positive, label 2 otherwise (zeros to 2)."""
    v = np.asarray(eigenvector)
    return np.where(v > 0, 1, 2).astype(np.int8)


def cluster(spectrum, algorithm, mu_in, mu_out, iterate=False):
    """(labels, SelectionReport) for algorithm hosc, hosc_li or fiedler on
    spectrum.graph.

    hosc splits by the sign of the eigenvector nearest lambda*, and
    hosc_li then runs local_improvement(iterate=iterate); fiedler splits
    by rank 2 and leaves lambda_star and gap_to_next None.  lambda* is
    computed before spectrum is read, so a degenerate model raises before
    any solve.
    """
    if algorithm == "fiedler":
        report = SelectionReport(None, 2, float(spectrum.values(2, 2)[0]), None,
                                 spectrum.eigenvector(2))
    elif algorithm in ("hosc", "hosc_li"):
        report = select_eigenpair(spectrum, ideal_eigenvalue(mu_in, mu_out, spectrum.n))
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    labels = sign_partition(report.eigenvector)
    if algorithm == "hosc_li":
        labels = local_improvement(spectrum.graph, labels, iterate=iterate)
    return labels, report


def hosc(graph, mu_in, mu_out):
    """Spectral clustering through the eigenvalue nearest lambda*."""
    return cluster(Spectrum(graph), "hosc", mu_in, mu_out)


def local_improvement(graph, labels, iterate=False):
    """Switch every node that more neighbours outvote, one synchronous pass.

    A node moves to 3 - label where model.degree_stats gives z_out > z_in,
    a negative degree margin; a tie, isolated nodes included, keeps its
    label.  Labels must be 1 or 2 (model.check_labels).  All margins are
    taken against the input labelling, so the result does not depend on
    node order.  iterate=True repeats the pass until a fixed point, capped
    at _LI_MAX_ROUNDS; the default single pass is the canonical algorithm.
    """
    current = check_labels(labels, graph.n).astype(np.int8)
    for _ in range(_LI_MAX_ROUNDS if iterate else 1):
        stats = degree_stats(graph, current)
        updated = np.where(stats.z_out > stats.z_in, 3 - current, current)
        if np.array_equal(updated, current):
            break
        current = updated
    return current


def loss(truth, predicted):
    """Misclassified fraction, minimized over the global label swap."""
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if truth.shape != predicted.shape:
        raise ValueError(f"length mismatch: {truth.shape} vs {predicted.shape}")
    mismatches = int(np.sum(truth != predicted))
    return min(mismatches, len(truth) - mismatches) / len(truth)


def accuracy(truth, predicted):
    return 1.0 - loss(truth, predicted)


def per_eigenvector_accuracy(spectrum, truth):
    """Accuracy of the sign partition of every eigenvector, by rank.

    Returns a list of (rank, accuracy) with rank 1 = largest eigenvalue.
    This is the profile that shows which harmonic carries the communities.
    Truth labels must be 1 or 2 (model.check_labels).
    """
    n = spectrum.n
    truth = check_labels(truth, n)
    # positive entries predict label 1: a mismatch per node and rank, on booleans
    mism = ((spectrum.eigenvectors > 0) != (truth == 1)[:, None]).sum(axis=0)
    losses = np.minimum(mism, n - mism) / n
    return [(rank + 1, float(1.0 - losses[rank])) for rank in range(n)]
