"""Eigendecomposition, informative-eigenpair selection, and partitioning.

The clustering pipeline: diagonalize the adjacency matrix, pick the
eigenvalue closest to the ideal value lambda* = n (mu_in - mu_out) / 2,
and split nodes by the sign of the matching eigenvector.  The informative
eigenvalue is generally NOT the second largest: geometric graphs park
several spatial harmonics above it, which is the whole reason selection
is by value rather than by rank.

A one-pass neighbor-majority relabelling serves as local improvement.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Spectrum",
    "SelectionReport",
    "EigendecompositionError",
    "DegenerateModelError",
    "eigendecompose",
    "ideal_eigenvalue",
    "select_eigenpair",
    "sign_partition",
    "hosc",
    "local_improvement",
    "loss",
    "accuracy",
    "per_eigenvector_accuracy",
]


class EigendecompositionError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


class DegenerateModelError(ValueError):
    """mu_in = mu_out: the target eigenvalue is undefined."""


@dataclass
class Spectrum:
    eigenvalues: np.ndarray  # length n, sorted descending
    eigenvectors: np.ndarray  # (n, n), column i pairs with eigenvalues[i]

    @property
    def n(self):
        return len(self.eigenvalues)


@dataclass
class SelectionReport:
    lambda_star: float
    selected_index: int  # rank, 1 = largest eigenvalue
    lambda_selected: float
    gap_to_next: float  # distance to the nearest other eigenvalue
    eigenvector: np.ndarray


def eigendecompose(graph):
    """Full symmetric eigendecomposition, eigenvalues sorted descending."""
    if graph.n < 2:
        raise ValueError("need at least two nodes")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(graph.dense())
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(str(exc)) from exc
    order = slice(None, None, -1)  # eigh returns ascending
    return Spectrum(eigenvalues=eigenvalues[order].copy(),
                    eigenvectors=eigenvectors[:, order].copy())


def ideal_eigenvalue(mu_in, mu_out, n):
    """lambda* = n (mu_in - mu_out) / 2; negative for disassociative models."""
    if mu_in == mu_out:
        raise DegenerateModelError(
            "mu_in equals mu_out: communities are statistically indistinguishable")
    return n * (mu_in - mu_out) / 2.0


def select_eigenpair(spectrum, lambda_star):
    """Eigenpair whose eigenvalue is closest to lambda*.

    Exact distance ties go to the larger eigenvalue.  gap_to_next is the
    distance from the chosen eigenvalue to the nearest other one, the
    quantity that controls how trustworthy the selection is.
    """
    lam = spectrum.eigenvalues
    if len(lam) == 0:
        raise ValueError("empty spectrum")
    # argmin returns the first minimizer; descending order makes that the
    # larger eigenvalue on a tie
    idx = int(np.argmin(np.abs(lam - lambda_star)))
    others = np.abs(np.delete(lam, idx) - lam[idx])
    gap = float(others.min()) if len(others) else np.inf
    return SelectionReport(
        lambda_star=float(lambda_star),
        selected_index=idx + 1,
        lambda_selected=float(lam[idx]),
        gap_to_next=gap,
        eigenvector=spectrum.eigenvectors[:, idx],
    )


def sign_partition(eigenvector):
    """Label 1 where the entry is positive, label 2 otherwise (zeros to 2)."""
    v = np.asarray(eigenvector)
    return np.where(v > 0, 1, 2).astype(np.int8)


def hosc(graph, mu_in, mu_out):
    """Spectral clustering through the eigenvalue nearest lambda*."""
    lambda_star = ideal_eigenvalue(mu_in, mu_out, graph.n)
    spectrum = eigendecompose(graph)
    report = select_eigenpair(spectrum, lambda_star)
    return sign_partition(report.eigenvector), report


def local_improvement(graph, labels, iterate=False, max_rounds=100):
    """Reassign every node to its neighbors' majority label, one synchronous pass.

    Labels must be 1 or 2.  All counts are taken against the input
    labelling, so the result does not depend on node order.  Ties (equal
    counts, including isolated nodes) keep the input label.  iterate=True
    repeats the pass until a fixed point, capped at max_rounds; the
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
    rounds = max_rounds if iterate else 1
    for _ in range(rounds):
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
    """
    truth = np.asarray(truth)
    n = spectrum.n
    if truth.shape != (n,):
        raise ValueError(f"truth has shape {truth.shape}, spectrum has n = {n}")
    preds = np.where(spectrum.eigenvectors > 0, 1, 2)  # column per rank
    mism = (preds != truth[:, None]).sum(axis=0)
    losses = np.minimum(mism, n - mism) / n
    return [(rank + 1, float(1.0 - losses[rank])) for rank in range(n)]
