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
window on A where lambda* lies outside the noise bulk.  Inside the bulk,
and where that window's count stops at a rank inside it, a shift-invert
Lanczos window on (A - sigma I)^-1 answers, its count certified by the
inertia of a Bunch-Kaufman factorization.  The per-eigenvector accuracy
profile reads the ranks it is given: sgbm cluster gives it those of
profile_ranks, outside the bulk, which the window on A holds too.  What
neither window answers, and every read of the eigenvalues or eigenvectors
(a profile of every rank included), reads the whole spectrum, solved once
by LAPACK dsyevd: LAPACKE's where it is bound, else inside numpy's
eigvalsh or eigh.
Every reader of a graph's spectrum (cluster, the motif baseline's
fallback, rayleigh_bound) is handed one Spectrum and reads its graph from
it, so each graph is solved once.

Local improvement, the paper's small adjustment for strong consistency,
switches every node whose degree margin z_in - z_out (model.degree_stats)
is negative.  Labels are checked by model.check_labels alone.
"""

import contextlib
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
    "profile_ranks",
]


class EigendecompositionError(RuntimeError):
    """The symmetric eigensolver failed to converge, or an eigenvector failed
    its residual check."""


class DegenerateModelError(ValueError):
    """mu_in = mu_out: the target eigenvalue is undefined."""


# Both tolerances are relative to the scale max(1, sqrt(max_i (A d)_i)), d the
# degree vector (_tolerance_scale).  It bounds the spectral radius: lambda_1^2 is
# the spectral radius of A^2 >= 0, at most its largest row sum, max_i (A d)_i; and
# A >= 0, so lambda_1 >= |lambda_n| (Perron-Frobenius; Horn and Johnson, Matrix
# Analysis, ch. 8).  It is exact on regular graphs and stars, and no solve runs
# to learn it.
# A returned eigenvector must satisfy ||A v - lambda v|| <= _RESIDUAL_RTOL * scale;
# divide-and-conquer eigenvectors reach about 1e-15 * scale * sqrt(n).
_RESIDUAL_RTOL = 1e-9
# A Ritz value this near a neighbouring one may be a repeated eigenvalue, whose
# copies a window may not all hold; this near a shift, it makes A - sigma I
# singular to roundoff.
_GAP_RTOL = 1e-8
# local_improvement(iterate=True) stops here if the majority vote has not settled
_LI_MAX_ROUNDS = 100

# A Lanczos window starts from _BLOCK vectors at once.  From one start vector a
# Krylov space holds one vector of each eigenspace, so a repeated eigenvalue would
# show once and shift every rank past it; from two it shows at least twice, and
# the _GAP_RTOL test sends it to the whole spectrum.
_BLOCK = 2
# the window on A is solved at _WINDOW_FIRST basis vectors, then every _WINDOW_STEP
# more; the shifted window at _SHIFT_FIRST, then every _SHIFT_STEP more: the ranks
# nearest a shift mostly converge in 20-30 vectors, and a solve of the band costs
# far less than the dsytrs calls that grow the basis
_WINDOW_FIRST, _WINDOW_STEP = 40, 20
_SHIFT_FIRST, _SHIFT_STEP = 20, 10
# count_above(x) tries the window on A where |x| >= _BULK_MARGIN * 2 sqrt(n p (1 - p)),
# the edge of the noise bulk of a graph of edge density p (Furedi and Komlos,
# Combinatorica 1981); nearer the bulk it would converge too slowly, and the window
# shifted to x answers
_BULK_MARGIN = 1.5
# values(first, last) without a count tries the window on A within _END_RANKS of an end
_END_RANKS = 3
# profile_ranks reads the ranks beyond _PROFILE_EDGES times the bulk edge.  On the
# fig3, fig4 and Waxman preset cells every multiple from 1.5 to 6 holds the same
# best-splitting ranks, and 3 is the smallest whose count the window on A
# converges in its first 40-60 vectors: 1.5 and 2 cost ten times as much
_PROFILE_EDGES = 3.0


def _window_cap(n):
    """Most basis vectors a window grows to before the whole spectrum answers:
    n / 4, but no more than 240, as a band solve (dsbev) costs m^3, 1.5 s at
    m = 1000; no preset cell or sgbm cluster run has used over 120."""
    return min(n, max(_WINDOW_FIRST, min(n // 4, 240)))


def _tolerance_scale(graph):
    """max(1, sqrt(max_i (A d)_i)) for the degree vector d = A 1: an upper
    bound on lambda_1, and the scale of every tolerance here.  The sums are
    integers far below 2**53, so they are exact in float64."""
    return max(1.0, float(np.sqrt(graph.matvec(graph.matvec(np.ones(graph.n))).max())))


def _gap_at(spectrum, rank, point=None):
    """Distance from point, whose nearest eigenvalue is the rank-th (default: that
    one), to the nearest other eigenvalue, rank - 1 or rank + 1; inf if none."""
    first = max(1, rank - 1)
    near = spectrum.values(first, min(spectrum.n, rank + 1))
    point = near[rank - first] if point is None else point
    others = np.abs(np.delete(near, rank - first) - point)
    return float(others.min()) if len(others) else np.inf


def _count_past(values, n, count, x, down):
    """(how many eigenvalues exceed x, whether that is exact), walked from
    count, how many exceed a point s above x (down) or at or below it, past
    every rank whose value in values ({rank: eigenvalue}) lies between s and
    x.  The walk stops at the first rank past x or missing from values; the
    count is exact when that rank is in values, or there is none."""
    if down:
        while count < n and values.get(count + 1, -np.inf) > x:
            count += 1
    else:
        while count > 0 and values.get(count, np.inf) <= x:
            count -= 1
    stop = count + 1 if down else count
    return count, not 1 <= stop <= n or stop in values


def _positive_inertia(factor, pivots):
    """How many eigenvalues of a symmetric matrix are positive, from its
    Bunch-Kaufman factorization L D L^T (dsytrf, lower, column-major): by
    Sylvester's law of inertia, those of D.  A 1 x 1 block counts by its sign;
    a 2 x 2 block (pivots[k] = pivots[k + 1] < 0) by its determinant, one
    positive eigenvalue when it is negative, else two or none by its trace."""
    diagonal, pivots = factor.diagonal().tolist(), pivots.tolist()
    positive, k = 0, 0
    while k < len(pivots):
        if pivots[k] > 0:
            positive += diagonal[k] > 0
            k += 1
        else:
            # D(k + 1, k) in column-major order is row k, column k + 1 of the C array
            det = diagonal[k] * diagonal[k + 1] - factor[k, k + 1] ** 2
            positive += 1 if det < 0 else 2 * (diagonal[k] + diagonal[k + 1] > 0)
            k += 2
    return positive


def _oriented(vectors):
    """The sign rule, on each column of an (n, k) block: the first entry with
    |v_i| >= max|v| / 2 is positive.

    Half the maximum leaves a wide margin, so two solvers that agree to
    roundoff pick the same entry.
    """
    magnitude = np.abs(vectors)
    first = np.argmax(magnitude >= 0.5 * magnitude.max(axis=0), axis=0)
    return vectors * np.where(vectors[first, np.arange(vectors.shape[1])] > 0, 1, -1)


def _checked(graph, values, vectors, scale):
    """The (n, k) block of vectors under the sign rule, once every column
    passes ||A v - value v|| (one Graph.matvec pass); else raise for the
    first that fails."""
    residuals = np.linalg.norm(graph.matvec(vectors) - values * vectors, axis=0)
    failed = np.flatnonzero(~(residuals <= _RESIDUAL_RTOL * scale))
    if len(failed):
        raise EigendecompositionError(
            f"eigenvector at eigenvalue {values[failed[0]]:.6g} has residual "
            f"{residuals[failed[0]]:.3g}, above {_RESIDUAL_RTOL * scale:.3g}")
    return _oriented(vectors)


class _Window:
    """One block Lanczos run (Parlett, The Symmetric Eigenvalue Problem, ch. 13)
    from _BLOCK fixed start vectors, with two classical Gram-Schmidt passes
    against every basis vector: on A through Graph.matvec, or, with a shift
    sigma, on (A - sigma I)^-1 through the Bunch-Kaufman factorization of
    A - sigma I (dsytrf, solved by dsytrs; Ericsson and Ruhe, Math. Comp.
    1980).  The projection of the operator on the basis is banded, and one
    dsbev call gives every Ritz pair.  values holds the eigenvalues of A they
    stand for, descending: the Ritz value theta on A, sigma + 1 / theta on
    the inverse; coordinates (row k: the basis coordinates of pair k) and
    residuals (pair k's residual on A) are aligned with it.  Ranks are
    counted from two anchors: on A from rank 1 at the top and rank n at the
    bottom, on the inverse from count, the inertia's number of eigenvalues
    above sigma, just above sigma and count + 1 just below it.  Every sum
    over n is taken by einsum, which no BLAS thread splits.
    """

    def __init__(self, graph, lapack, sigma=None):
        self.graph, self.n, self._lapack, self.sigma = graph, graph.n, lapack, sigma
        self.basis = None  # the Lanczos vectors, as rows

    @classmethod
    def shifted(cls, graph, lapack, sigma):
        """The window on (A - sigma I)^-1, its count read off the factor's
        inertia; None when dsytrf fails or A - sigma I is singular (info > 0)."""
        n = graph.n
        factor, pivots = graph.dense(), np.zeros(n, np.int64)
        factor.flat[::n + 1] -= sigma
        if lapack["dsytrf"](_openblas.COL_MAJOR, b"L", n, factor, n, pivots) != 0:
            return None
        window = cls(graph, lapack, sigma)
        window.factor, window.pivots = factor, pivots
        window.count = _positive_inertia(factor, pivots)
        return window

    def grow(self, size):
        """Extend the basis block by block until the first `size` columns of
        H = Q^T op Q are complete (or no new direction is left), then solve for
        the Ritz values; False when LAPACK fails."""
        n, b = self.n, _BLOCK
        if self.basis is None:
            self.basis, self._band = np.empty((0, n)), np.empty((0, b + 1))
            self.length = self.done = 0
        # a step appends at most b vectors past the b pending ones
        capacity = max(size + 2 * b, len(self.basis))
        if capacity > len(self.basis):
            self.basis = np.concatenate([self.basis[:self.length],
                                         np.empty((capacity - self.length, n))])
            self._band = np.concatenate([self._band, np.zeros((capacity - len(self._band), b + 1))])
        if self.length == 0:
            starts = np.stack([pair_uniform(0, np.arange(n), n + j) - 0.5 for j in range(b)])
            self._extend(starts, None)
        while self.done < size and self.length > self.done:
            first = self.done
            self.done = self.length
            image = self._apply(self.basis[first:self.done])
            if image is None:
                return False
            self._extend(image, first)
        return self._solve()

    def _apply(self, rows):
        """The operator on each row: A q by Graph.matvec, or (A - sigma I)^-1 q
        by dsytrs on a copy, which it overwrites; None when dsytrs fails."""
        if self.sigma is None:
            return self.graph.matvec(np.ascontiguousarray(rows.T)).T
        solved = rows.copy()
        info = self._lapack["dsytrs"](_openblas.COL_MAJOR, b"L", self.n, len(solved), self.factor,
                                      self.n, self.pivots, solved, self.n)
        return solved if info == 0 else None

    def _extend(self, rows, first):
        """Append each row to the basis, orthogonalized against every basis
        vector by two classical Gram-Schmidt passes and normalized, unless
        what is left is roundoff.  With first, row c is op q_j, j = first + c,
        and its coefficients fill column j of the lower band of H."""
        for c, w in enumerate(rows):
            scale = max(1.0, np.sqrt(np.einsum("i,i->", w, w)))
            coefficients = 0.0
            for _ in range(2):
                basis = self.basis[:self.length]
                h = np.einsum("kn,n->k", basis, w)
                w = w - np.einsum("kn,k->n", basis, h)
                coefficients = coefficients + h
            norm = np.sqrt(np.einsum("i,i->", w, w))
            if first is not None:
                j = first + c
                self._band[j, :self.length - j] = coefficients[j:]
            if norm <= self.n * np.finfo(float).eps * scale:
                continue
            if first is not None:
                self._band[j, self.length - j] = norm
            self.basis[self.length] = w / norm
            self.length += 1

    def _solve(self):
        """Every Ritz pair of H's leading block of complete columns, by one
        dsbev call on a copy of its band; then values, coordinates and
        residuals, aligned.  False when dsbev fails.

        dsbev reduces the band to tridiagonal form and runs the implicit QR
        iteration (dsteqr), whose rotations dlasr applies with no BLAS-3
        call, so its bits do not depend on the OpenBLAS thread count; those
        of dsbevd, the divide-and-conquer driver, do.  The residual of
        A y - value y is read off the band: on A it is the coupling to the
        pending vectors; on the inverse, (A - sigma I)^-1 y = theta y + r
        with r in their span, so A y - (sigma + 1 / theta) y =
        -(A - sigma I) r / theta.
        """
        size, b = self.done, _BLOCK
        width = min(b, size - 1)
        band = self._band[:size, :width + 1].copy()
        for offset in range(1, width + 1):
            band[size - offset:, offset] = 0.0  # rows past size couple to the next block
        theta, vectors = np.empty(size), np.empty((size, size))
        if self._lapack["dsbev"](_openblas.COL_MAJOR, b"V", b"L", size, width, band, width + 1,
                                 theta, vectors, size) != 0:
            return False
        # dsbev's values ascend; column-major, so row k of vectors holds pair k's coordinates
        theta, vectors = theta[::-1], vectors[::-1]
        # H's rows past the leading block, on its last b columns
        tail = range(max(0, size - b), size)
        coupling = np.array([[self._band[j, i - j] if i - j <= b else 0.0 for j in tail]
                             for i in range(size, self.length)]).reshape(-1, len(tail))
        r = np.einsum("pj,kj->pk", coupling, vectors[:, tail.start:])  # column k: pair k's r
        if self.sigma is None:
            self.values, self.coordinates = theta, vectors
            self.residuals = np.sqrt(np.sum(r ** 2, axis=0))
            return True
        # (A - sigma I) on the pending vectors
        pending = self.basis[size:self.length]
        image = self.graph.matvec(np.ascontiguousarray(pending.T)).T - self.sigma * pending
        image = np.einsum("kn,kp->pn", image, r)
        # sigma + 1 / theta falls as theta rises on either side of 0, so the values
        # descend over the positive thetas ascending, then the negative ones
        self.above = above = int(np.sum(theta > 0))
        order = np.concatenate([np.arange(above)[::-1], np.arange(above, size)[::-1]])
        with np.errstate(divide="ignore"):
            self.values = self.sigma + 1.0 / theta[order]
            residuals = np.sqrt(np.einsum("pn,pn->p", image, image)) / np.abs(theta)
        self.coordinates, self.residuals = vectors[order], residuals[order]
        return True

    def runs(self, top, bottom):
        """Two lists of (rank, position in values): `top` ranks from the upper
        anchor up and `bottom` ranks from the lower anchor down, each outward
        from its anchor; None while the basis is too small to hold them."""
        size = len(self.values)
        if self.sigma is None:
            if top + bottom > size and size < self.n:
                return None
            ends = ((1, 0, 1, top), (self.n, size - 1, -1, bottom))
        else:
            if top > self.above or bottom > size - self.above:
                return None
            ends = ((self.count, self.above - 1, -1, top), (self.count + 1, self.above, 1, bottom))
        return [[(rank + step * j, position + step * j) for j in range(length)]
                for rank, position, step, length in ends]


class Spectrum:
    """Every eigenpair of a graph's adjacency matrix A, each solved on first use.

    The constructor does no work.  A request is answered by one of two
    Lanczos windows, or else from the whole spectrum, and solve_s adds up
    the wall time of the solves behind them.  Every tolerance is relative
    to _tolerance_scale(graph), an upper bound on lambda_1 that costs two
    Graph.matvec passes over A.

    Two Lanczos windows (_Window) answer until the whole spectrum is read.  A
    Ritz pair has converged when its residual on A, read off the band, is at
    most _RESIDUAL_RTOL times the scale.  A window grows (by _WINDOW_STEP
    vectors on A, _SHIFT_STEP shifted) until every rank a request reads has
    converged, in one run of ranks outward from an anchor, and hands out
    those ranks' values; each rank's value and Ritz vector are cached as it
    converges, so no request reads a window's basis later.

    - The window on A answers count_above(x) where |x| lies outside the
      noise bulk (_BULK_MARGIN), reading the ranks through two past x from
      the end x is nearer, and values and eigenvector requests for ranks
      near an end (_END_RANKS).  When a rank a count reads has yet to
      converge and lies inside the noise bulk, it keeps each run up to
      that rank and the shifted window takes over at that rank's Ritz
      value; a values request it stops short of goes to the whole spectrum.
    - The shifted window on (A - sigma I)^-1 (Ericsson and Ruhe, Math.
      Comp. 1980; Grimes, Lewis and Simon, SIAM J. Matrix Anal. Appl. 1994)
      answers count_above(x) inside the margin at sigma = x, and where the
      window on A stops a count, at that window's Ritz value for the rank
      it stopped at.  The inertia of the Bunch-Kaufman factor of A - sigma I
      counts the eigenvalues above sigma; the k-th largest Ritz value of
      the inverse is rank count - k + 1, the k-th most negative rank
      count + k.  A count at x is exact only from that inertia and every
      eigenvalue between sigma and x held; the window converges those and
      the two ranks past x on either side, which selection reads.  It then
      answers values requests for ranks near sigma.  One factor is kept at
      a time.

    Each window hands out nothing when its basis reaches _window_cap(n), a
    rank read lies within _GAP_RTOL of a neighbour (a repeated eigenvalue,
    whose copies the window may not all hold), A - sigma I is singular or
    has an eigenvalue within _GAP_RTOL of sigma, or a LAPACK call fails.

    What no window answers, and every request after the first such one,
    reads the whole spectrum (_whole): one LAPACK dsyevd call in place on a
    float64 copy of A, made after the windows are dropped, the routine
    numpy's eigvalsh and eigh call.  Where LAPACKE is not bound, there is no
    window, and eigvalsh and eigh themselves solve it, by the same rules.

    - eigenvalues: dsyevd without vectors, sorted descending, equal to
      eigvalsh's bit for bit.  count_above(x) counts those above x, and
      values(first, last) reads its ranks from them; while no eigenvalue
      is known, every vector is solved first (_listed), so a selection
      that reaches the whole spectrum is eigendecompose's.
    - eigenvectors: dsyevd with vectors, every pair equal to eigh's bit
      for bit; the copy of A then holds them, and eigenvectors is a view
      of it.  eigenvector(rank) reads its column.

    The eigenvalues are fixed at their first read: eigh's if every vector
    was solved by then, otherwise eigvalsh's, or eigh's when dsyevd
    without vectors fails.  Vectors are cached by rank, whichever way they
    were solved; vectors(ranks) reads several at once, residual-checked in
    one Graph.matvec pass, and source(rank) names what holds a rank.
    Callers only ask for what they read: how an eigenpair is solved is
    decided here alone.
    """

    def __init__(self, graph):
        if graph.n < 2:
            raise ValueError("need at least two nodes")
        self.graph, self.n = graph, graph.n
        self.solve_s = 0.0  # wall time of the windows and the whole spectrum, once run
        self._eigenvalues = self._eigenvectors = None
        self._vectors = {}
        self._ritz = {}  # rank: (value, vector, route) of a converged Ritz pair
        self._lapack = _openblas.lapack()
        # the window on A, and on (A - sigma I)^-1 once a shift is factored; both
        # are dropped by the whole spectrum's solve, and neither is made without LAPACK
        self._window = None if self._lapack is None else _Window(graph, self._lapack)
        self._shifted = None

    @cached_property
    def _scale(self):
        return _tolerance_scale(self.graph)

    def _whole(self, vectors):
        """Every eigenvalue, descending, into _eigenvalues unless known, and with
        vectors every eigenvector into _eigenvectors, column i paired with
        eigenvalue i: one LAPACK dsyevd, jobz V or N, in place on a fresh float64
        copy of A; or, where LAPACKE is not bound, numpy's eigh or eigvalsh, which
        call it.  It drops both windows first, so that one n x n copy of A is
        alive at a time; a failure raises and keeps nothing, so the next request
        tries again."""
        start, n = time.perf_counter(), self.n
        self._window = self._shifted = None
        self._ritz = {}
        # A is symmetric, so its C-order copy read in Fortran order is A itself
        a = self.graph.dense()
        if self._lapack is None:
            try:
                w, a = np.linalg.eigh(a) if vectors else (np.linalg.eigvalsh(a), None)
            except np.linalg.LinAlgError as exc:
                raise EigendecompositionError(str(exc)) from exc
        else:
            w = np.empty(n)
            info = self._lapack["dsyevd"](_openblas.COL_MAJOR, b"V" if vectors else b"N", b"L",
                                          n, a, n, w)
            if info in _openblas.MEMORY_ERRORS:
                raise MemoryError(f"LAPACKE_dsyevd could not allocate its workspace (info {info})")
            if info != 0:
                raise EigendecompositionError(f"LAPACK dsyevd failed (info {info})")
            a = a.T  # column-major: row i of the copy pairs with w[i]
        self.solve_s += time.perf_counter() - start
        if self._eigenvalues is None:
            self._eigenvalues = w[::-1]
        if vectors:
            self._eigenvectors = a[:, ::-1]

    def count_above(self, x):
        """How many eigenvalues are greater than x.

        Outside the bulk margin, from the window on A: the converged Ritz
        values of every rank above x and two past it, counted from the end x
        is nearer.  Where that window stops at a rank inside the bulk, from
        the window shifted to that rank's Ritz value, and inside the margin
        from the window shifted to x: the inertia at sigma and the held
        eigenvalues between sigma and x.  Where a window gives up, from the
        eigenvalues, eigh's (_listed).
        """
        x, n = float(x), self.n
        if self._window is not None:
            sigma = x
            if abs(x) >= _BULK_MARGIN * self.bulk_edge:
                top = x > 0
                sigma = self._run(self._window, lambda window: (
                    (min(n, int(np.sum(window.values > x)) + 2), 0) if top
                    else (0, min(n, int(np.sum(window.values <= x)) + 2))))
                if sigma is True:
                    return _count_past(self._held(), n, 0 if top else n, x, top)[0]
            # the inertia at sigma, walked past the held eigenvalues between sigma and x
            window = None if sigma is None else self._shift_to(sigma)
            if window is not None and self._run(
                    window, lambda window: self._around(window, x)) is True:
                count, exact = _count_past(self._held(), n, window.count, x, x < sigma)
                if exact:
                    return count
        return int(np.sum(self._listed() > x))

    @cached_property
    def bulk_edge(self):
        """2 sqrt(n p (1 - p)) at the graph's edge density p: the edge of the
        noise bulk of a random graph with A's degrees on average."""
        n = self.n
        p = self.graph.edge_count() / (n * (n - 1) / 2)
        return 2.0 * np.sqrt(n * p * (1.0 - p))

    def _held(self):
        """{rank: eigenvalue} for every rank a window holds."""
        return {rank: value for rank, (value, *_) in self._ritz.items()}

    def _around(self, window, x):
        """The runs (top, bottom) of the shifted window that reach every rank
        from sigma to x and the two past x on either side, by the window's
        Ritz values where no rank is held yet."""
        n, sigma = self.n, window.sigma
        # position k of the window's values stands for rank k + 1 + count - above
        values = {window.count - window.above + 1 + position: float(value)
                  for position, value in enumerate(window.values)} | self._held()
        down = x < sigma
        count = _count_past(values, n, window.count, x, down)[0]
        between = range(window.count + 1, count + 1) if down else range(count + 1, window.count + 1)
        return self._extent(window, [*between, *range(max(1, count - 1), min(n, count + 2) + 1)])

    def _extent(self, window, ranks):
        """The runs (top, bottom) of the shifted window that reach every one of
        ranks that no window holds yet."""
        count = window.count
        missing = [rank for rank in ranks if rank not in self._ritz]
        return (max([count + 1 - rank for rank in missing if rank <= count], default=0),
                max([rank - count for rank in missing if rank > count], default=0))

    def _shift_to(self, sigma):
        """The window shifted to sigma, factored on first use in place of any
        other; None when dsytrf fails or A - sigma I is singular."""
        if self._shifted is None or self._shifted.sigma != sigma:
            start = time.perf_counter()
            self._shifted = None  # one factor at a time: the old window goes first
            self._shifted = _Window.shifted(self.graph, self._lapack, sigma)
            self.solve_s += time.perf_counter() - start
        return self._shifted

    def values(self, first, last):
        """The eigenvalues of ranks first..last (1 = largest), descending.

        Ranks a window holds, or the window on A can solve within _END_RANKS
        of an end together with the next rank inward (which the gap reads),
        or the shifted window can solve once it is factored, are answered
        from it; any other span is read from eigenvalues (_listed).
        """
        if not 1 <= first <= last <= self.n:
            raise ValueError(f"ranks {first}..{last} outside 1..{self.n}")
        ranks = range(first, last + 1)
        if self._window is not None and any(rank not in self._ritz for rank in ranks):
            self._hold(ranks)
        if all(rank in self._ritz for rank in ranks):
            return np.array([self._ritz[rank][0] for rank in ranks])
        return self._listed()[first - 1:last]

    def _listed(self):
        """eigenvalues, for a count or values request no window answers.  While
        no eigenvalue is known, every eigenpair is solved first: each caller goes
        on to read the vector of a rank no window holds, and eigh's values are
        the ones its column pairs with, so a repeated eigenvalue is split into
        ranks as eigendecompose splits it."""
        if self._eigenvalues is None:
            self._whole(True)
        return self._eigenvalues

    def _hold(self, ranks):
        """Converge ranks in a window where one can: the window on A near an end,
        elsewhere the shifted window, once factored, for ranks within _END_RANKS
        of its shift.  What is left, a rank the window on A stopped short of
        inside the bulk included, the eigenvalues answer."""
        n = self.n
        if ranks[-1] <= _END_RANKS or ranks[0] > n - _END_RANKS:
            top = ranks[-1] <= _END_RANKS
            self._run(self._window, lambda window: (
                (min(n, ranks[-1] + 1), 0) if top else (0, min(n, n + 2 - ranks[0]))))
        elif self._shifted is not None and max(self._extent(self._shifted, ranks)) <= _END_RANKS:
            self._run(self._shifted, lambda window: self._extent(window, ranks))

    def _run(self, window, needed):
        """Grow window until every rank of the runs (top, bottom) = needed(window)
        has converged, cache them in _ritz, and return True.  None, and the
        whole spectrum answers, at the cap, when the basis holds no new direction,
        or when _converged gives up.  The window on A also stops when a rank
        yet to converge lies inside the noise bulk, where it would converge
        slowly: it caches each run up to its first such rank and returns the
        Ritz value of the first, where a shifted window converges fast."""
        start, n = time.perf_counter(), self.n
        first, step = ((_WINDOW_FIRST, _WINDOW_STEP) if window.sigma is None
                       else (_SHIFT_FIRST, _SHIFT_STEP))
        try:
            if window.basis is None and not window.grow(min(_window_cap(n), first)):
                return None
            while True:
                found = self._converged(window, *needed(window))
                if found is False:
                    return None
                if found is not None:
                    converged, pending = found
                    inside = (window.sigma is None and pending
                              and min(map(abs, pending)) < self.bulk_edge)
                    if not pending or inside:
                        route = "window on A" if window.sigma is None else "shifted window"
                        for rank, (value, coordinates) in converged.items():
                            if rank not in self._ritz:
                                vector = np.einsum("kn,k->n", window.basis[:len(coordinates)],
                                                   coordinates)
                                self._ritz[rank] = value, vector, route
                        return pending[0] if inside else True
                if (window.length == window.done or window.done >= _window_cap(n)
                        or not window.grow(min(_window_cap(n), window.done + step))):
                    return None
        finally:
            self.solve_s += time.perf_counter() - start

    def _converged(self, window, top, bottom):
        """For the runs (top, bottom) of window: None while its basis is too
        small to hold them; False (give up) when one lies within _GAP_RTOL of
        a neighbouring value; else (converged, pending):
        {rank: (value, coordinates)} for each run up to its first Ritz pair
        yet to converge, and the values of those yet to converge, in run
        order."""
        runs = window.runs(top, bottom)
        if runs is None:
            return None
        values, tolerance = window.values, _GAP_RTOL * self._scale
        if any(np.sum(np.abs(values[max(0, i - 1):i + 2] - values[i]) <= tolerance) > 1
               for run in runs for _, i in run):
            return False
        # an eigenvalue that near sigma makes A - sigma I singular to roundoff: its
        # inertia and the other Ritz values are then not to be trusted
        if window.sigma is not None and np.any(
                np.abs(values[max(0, window.above - 1):window.above + 1] - window.sigma) <= tolerance):
            return False
        converged, pending = {}, []
        for run in runs:
            stalled = False
            for rank, position in run:
                if window.residuals[position] > _RESIDUAL_RTOL * self._scale:
                    pending.append(float(values[position]))
                    stalled = True
                elif not stalled:
                    converged[rank] = float(values[position]), window.coordinates[position]
        return converged, pending

    @property
    def eigenvalues(self):
        """Every eigenvalue, sorted descending."""
        if self._eigenvalues is None:
            # a failed solve without vectors leaves them to the full solve:
            # dstedc can converge where dsterf did not
            with contextlib.suppress(EigendecompositionError, MemoryError):
                self._whole(False)
        return self._listed()

    @property
    def eigenvectors(self):
        """(n, n) array: column i pairs with eigenvalues[i]."""
        if self._eigenvectors is None:
            self._whole(True)
        return self._eigenvectors

    def eigenvector(self, rank):
        """Eigenvector of rank (1 = largest eigenvalue): vectors([rank])[0]."""
        return self.vectors([rank])[0]

    def vectors(self, ranks):
        """The eigenvector of each rank, residual-checked, under the sign
        rule: the Ritz vector when a window holds the rank, else its column of
        eigenvectors.  Ranks are read in turn, and those not yet cached are
        checked together by one Graph.matvec pass over their block."""
        missing = [rank for rank in ranks if rank not in self._vectors]
        if missing:
            values, columns = [], []
            for rank in missing:
                values.append(float(self.values(rank, rank)[0]))
                if rank in self._ritz:
                    columns.append(self._ritz[rank][1])
                else:
                    columns.append(self.eigenvectors[:, rank - 1])
            block = _checked(self.graph, np.array(values), np.stack(columns, axis=1), self._scale)
            self._vectors.update(zip(missing, block.T))
        return [self._vectors[rank] for rank in ranks]

    def source(self, rank):
        """What answers rank now: "window on A" or "shifted window" while one
        holds it, else "whole spectrum" once that is solved, else None."""
        if rank in self._ritz:
            return self._ritz[rank][2]
        return "whole spectrum" if self._eigenvalues is not None else None


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


def profile_ranks(spectrum, selected):
    """The ranks sgbm cluster profiles, ascending: every rank whose eigenvalue
    lies beyond _PROFILE_EDGES times the noise bulk's edge, above or below,
    counted by count_above, and selected with its two neighbours."""
    n, edge = spectrum.n, _PROFILE_EDGES * spectrum.bulk_edge
    top, bottom = spectrum.count_above(edge), spectrum.count_above(-edge)
    return sorted({*range(1, top + 1), *range(bottom + 1, n + 1),
                   *range(max(1, selected - 1), min(n, selected + 1) + 1)})


def per_eigenvector_accuracy(spectrum, truth, ranks=None):
    """Accuracy of the sign partition of each eigenvector of ranks (default:
    every rank), read through spectrum.vectors, so residual-checked.

    Returns a list of (rank, accuracy) with rank 1 = largest eigenvalue.
    This is the profile that shows which harmonic carries the communities.
    Truth labels must be 1 or 2 (model.check_labels).
    """
    n = spectrum.n
    label_1 = check_labels(truth, n) == 1
    ranks = range(1, n + 1) if ranks is None else ranks
    # positive entries predict label 1: a mismatch per node, counted on booleans
    mism = np.array([np.count_nonzero((vector > 0) != label_1)
                     for vector in spectrum.vectors(ranks)])
    losses = np.minimum(mism, n - mism) / n
    return [(rank, float(1.0 - loss)) for rank, loss in zip(ranks, losses)]
