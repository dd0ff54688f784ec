"""Eigendecomposition, informative-eigenpair selection, and partitioning.

The clustering pipeline, cluster(): compute the spectrum of the
adjacency matrix, pick the eigenvalue closest to the ideal value
lambda* = n (mu_in - mu_out) / 2, and split nodes by the sign of the
matching eigenvector.  The informative eigenvalue is generally NOT the
second largest: geometric graphs park several spatial harmonics above
it, which is the whole reason selection is by value rather than by rank.

One class, Spectrum, gives the spectrum from one kept tridiagonal
reduction, made on the first request: clustering reads dstebz's count of
the eigenvalues above lambda*, the eigenvalues of four ranks around it by
bisection, and one eigenvector; the per-eigenvector accuracy profile
reads every eigenvector.  Every reader of a graph's spectrum (cluster,
the motif baseline's fallback, rayleigh_bound) is handed one Spectrum and
reads its graph from it, so the reduction runs once per graph.

A one-pass neighbor-majority relabelling serves as local improvement.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import _openblas

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

    The constructor does no work.  The first request reduces one float64
    copy of A to tridiagonal form, T = Q^T A Q (LAPACK dsytrd, in place:
    the copy then holds the Householder reflectors of Q), and
    reduction_s records how long that took.  Every request is answered
    from T and the reflectors (LAPACK Users' Guide, section 2.4.4;
    Parlett, The Symmetric Eigenvalue Problem, ch. 4):

    - count_above(x): how many eigenvalues exceed x, dstebz's count of
      the eigenvalues of T in (x, inf]: a few Sturm counts, O(n) each
      (Parlett, section 3.3), and no bisection.
    - values(first, last): the eigenvalues of ranks first..last by
      bisection on T (dstebz), O(n) per eigenvalue, cached by rank with
      the block of T each lies in.  Selection and eigenvector(rank)
      read these, so clustering runs no dsterf.
    - eigenvalues: every eigenvalue of T by dsterf, sorted descending,
      for callers that print or scan the whole spectrum.  eigvalsh's
      dsyevd makes the same two calls, so they equal its bit for bit.
    - eigenvector(rank): inverse iteration on T (dstein, O(n)) at the
      value and block that values bisected for that rank, mapped back
      through the reflectors (dormtr, O(n^2)): the dsyevx pipeline.
      It reads rank 1 for the radius, max(1, lambda_1), and ranks
      rank +- 1 for the gap.  Vectors are cached by rank.
    - eigenvectors: every eigenvector of T by divide and conquer
      (dstedc), mapped back by one dormtr over all n columns: dsyevd's
      own inner steps, so the pairs equal eigh's bit for bit.  The
      reflectors are dropped after it.

    count_above and values read the full list of eigenvalues only when
    dstebz fails.  That list is fixed at its first read: dstedc's
    (eigh's) if every vector was solved by then, otherwise dsterf's
    (eigvalsh's).  eigenvector(rank) reads its column of eigenvectors
    once every vector is solved, for a repeated eigenvalue (too close to
    another for inverse iteration to single out one vector), and when a
    LAPACK call fails or returns a vector that is not finite; so do the
    eigenvalues when dsterf fails.  Without these routines in numpy's
    OpenBLAS, eigh gives every pair.  Callers only ask for what they
    read: how an eigenvector is solved is decided here alone.
    """

    def __init__(self, graph):
        if graph.n < 2:
            raise ValueError("need at least two nodes")
        self.graph, self.n = graph, graph.n
        self.reduction_s = 0.0  # wall time of the reduction, once it has run
        self._eigenvalues = self._eigenvectors = self._d = None
        self._vectors, self._bisected = {}, {}
        self._lapack = _openblas.lapack()

    def _reduced(self):
        """Whether T and the reflectors are at hand: False without LAPACK,
        else True, after dsytrd on the first call.  Every request that reads
        them asks this first.  A failed reduction raises and keeps nothing,
        so the next request tries again."""
        if self._lapack is None:
            return False
        if self._d is not None:
            return True
        start, n = time.perf_counter(), self.n
        # A is symmetric, so its C-order copy read in Fortran order is A itself
        reflectors = self.graph.dense()
        d, e, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
        _raise_on_failure("dsytrd", self._lapack["dsytrd"](
            _openblas.COL_MAJOR, b"L", n, reflectors, n, d, e, tau))
        self._reflectors, self._d, self._e, self._tau = reflectors, d, e, tau
        # where T splits into blocks: every dstebz call writes the same ends here
        self._split = np.zeros(n, np.int64)
        self.reduction_s = time.perf_counter() - start
        return True

    def count_above(self, x):
        """How many eigenvalues are greater than x.

        dstebz over (x, inf] at an infinite tolerance: it counts by the
        signs of the LDL^T pivots of T - x I and bisects nothing.
        """
        found = self._dstebz(b"V", float(x), np.inf, 0, 0, np.inf)
        if found is None:
            return int(np.sum(self.eigenvalues > x))
        return len(found[0])

    def values(self, first, last):
        """The eigenvalues of ranks first..last (1 = largest), descending.

        One bisection on T (dstebz) over the span of the ranks not cached
        yet; each rank keeps the value, and the block of T, it is first
        given.  When dstebz fails they are read from eigenvalues.
        """
        if not 1 <= first <= last <= self.n:
            raise ValueError(f"ranks {first}..{last} outside 1..{self.n}")
        ranks = range(first, last + 1)
        missing = [rank for rank in ranks if rank not in self._bisected]
        if missing:
            span = range(missing[0], missing[-1] + 1)
            # dstebz counts from the smallest eigenvalue, from 1
            found = self._dstebz(b"I", 0.0, 0.0, self.n + 1 - span[-1], self.n + 1 - span[0], 0.0)
            if found is None or len(found[0]) != len(span):
                return self.eigenvalues[first - 1:last]
            self._bisected = {**dict(zip(reversed(span), zip(*found))), **self._bisected}
        return np.array([self._bisected[rank][0] for rank in ranks])

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
                values = self._d.copy()
                if self._lapack["dsterf"](self.n, values, self._e.copy()) == 0:
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
            vector = self._tridiagonal_vector(rank) if pinned else None
            if vector is None:
                vector = self.eigenvectors[:, rank - 1]
            self._vectors[rank] = _checked(self.graph, value, vector, radius)
        return self._vectors[rank]

    def _tridiagonal_vector(self, rank):
        """Unit eigenvector of A at the value values bisected for rank, or
        None when it was not bisected, a LAPACK call reports failure or
        the vector is not finite."""
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
            info = lapack["dormtr"](_openblas.COL_MAJOR, b"L", b"L", b"N", n, 1,
                                    self._reflectors, n, self._tau, vector, n)
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
    any reduction.
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
    """Reassign every node to its neighbors' majority label, one synchronous pass.

    Labels must be 1 or 2.  All counts are taken against the input
    labelling, so the result does not depend on node order.  Ties (equal
    counts, including isolated nodes) keep the input label.  iterate=True
    repeats the pass until a fixed point, capped at _LI_MAX_ROUNDS; the
    default single pass is the canonical algorithm.
    """
    labels = np.asarray(labels, dtype=np.int8)
    if labels.shape != (graph.n,):
        raise ValueError(f"labels have shape {labels.shape}, graph has n = {graph.n}")
    if not np.all((labels == 1) | (labels == 2)):
        raise ValueError("labels must be 1 or 2")
    a = graph.adjacency
    # integer vote counts on the uint8 matrix: exact, and no float64 n x n copy
    degree = a.sum(axis=1, dtype=np.int64)
    current = labels
    for _ in range(_LI_MAX_ROUNDS if iterate else 1):
        votes_1 = a[:, current == 1].sum(axis=1, dtype=np.int64)
        votes_2 = degree - votes_1
        updated = np.where(votes_1 > votes_2, 1, np.where(votes_2 > votes_1, 2, current))
        updated = updated.astype(np.int8)
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
    Truth labels must be 1 or 2.
    """
    truth = np.asarray(truth)
    n = spectrum.n
    if truth.shape != (n,):
        raise ValueError(f"truth has shape {truth.shape}, spectrum has n = {n}")
    if not np.all((truth == 1) | (truth == 2)):
        raise ValueError("truth labels must be 1 or 2")
    # positive entries predict label 1: a mismatch per node and rank, on booleans
    mism = ((spectrum.eigenvectors > 0) != (truth == 1)[:, None]).sum(axis=0)
    losses = np.minimum(mism, n - mism) / n
    return [(rank + 1, float(1.0 - losses[rank])) for rank in range(n)]
