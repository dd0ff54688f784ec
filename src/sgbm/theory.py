"""Limiting spectrum of the scaled adjacency matrix and related oracles.

For a model with kernels F_in, F_out the eigenvalue distribution of A/n
converges to a purely atomic measure with one atom per lattice index k
in each of two families:

    sum family:        (F_in_hat(k) + F_out_hat(k)) / 2
    difference family: (F_in_hat(k) - F_out_hat(k)) / 2

The difference atom at k = 0 is the informative one; clustering works
when it is isolated from every other atom.  Everything here is computed
on the truncated lattice ||k||_inf <= K together with a tail bound, so
callers can tell truncation error from model failure.
"""

from dataclasses import dataclass, field

import numpy as np

from .kernels import coefficients, edge_density
from .spectral import DegenerateModelError, Spectrum, _gap_at, select_eigenpair

__all__ = [
    "Atom",
    "LimitingMeasure",
    "IsolationReport",
    "SpectrumMatch",
    "RayleighReport",
    "DEFAULT_LATTICE_CUTOFF",
    "limiting_atoms",
    "limiting_moment",
    "empirical_moment",
    "isolation_check",
    "check_match_range",
    "spectrum_match",
    "rayleigh_bound",
    "trace_lipschitz_check",
]

DEFAULT_LATTICE_CUTOFF = 64


@dataclass(frozen=True)
class Atom:
    location: float
    lattice_count: int  # number of lattice indices sharing this location
    family: str  # "sum" or "difference"


@dataclass
class LimitingMeasure:
    atoms: list
    cutoff: int
    tail_bound: float  # max of |F_in_hat| + |F_out_hat| on the cutoff shell

    def locations(self):
        return np.array([a.location for a in self.atoms])


@dataclass
class IsolationReport:
    min_gap_sum: float
    min_gap_diff: float
    epsilon: float
    satisfied: bool
    tail_bound: float


@dataclass
class SpectrumMatch:
    threshold: float
    window: float
    entries: list = field(default_factory=list)  # (eigenvalue/n, nearest atom, distance)
    max_distance: float = 0.0
    outlier_count: int = 0


@dataclass
class RayleighReport:
    rho: float
    residual: float
    delta: float
    sine_bound: float
    actual_sine: float
    closest_rank: int  # 1 = largest eigenvalue


def _lattice_box(d, K):
    """All integer vectors with ||k||_inf <= K, shape ((2K+1)^d, d)."""
    axis = np.arange(-K, K + 1)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _families(f_in, f_out, K):
    """Lattice box, both families, both coefficient tables, and the tail bound."""
    if f_in.d != f_out.d:
        raise ValueError("kernels must share dimension")
    ks = _lattice_box(f_in.d, K)
    c_in = coefficients(f_in, ks)
    c_out = coefficients(f_out, ks)
    shell = np.max(np.abs(ks), axis=1) == K
    tail = float(np.max(np.abs(c_in[shell]) + np.abs(c_out[shell]), initial=0.0))
    return ks, (c_in + c_out) / 2.0, (c_in - c_out) / 2.0, c_in, c_out, tail


def limiting_atoms(f_in, f_out, K=DEFAULT_LATTICE_CUTOFF):
    """Truncated limiting measure; atoms grouped by location within a family.

    Grouping is at 12 decimals: coefficients of mirrored lattice indices
    are equal in exact arithmetic and agree to roundoff here.
    """
    if not K >= 1:  # NaN fails too
        raise ValueError(f"K must be >= 1, got {K}")
    _, sums, diffs, _, _, tail = _families(f_in, f_out, K)
    atoms = []
    for family, values in (("sum", sums), ("difference", diffs)):
        locations, counts = np.unique(np.round(values, 12), return_counts=True)
        for loc, cnt in zip(locations[::-1], counts[::-1]):  # descending
            atoms.append(Atom(location=float(loc), lattice_count=int(cnt), family=family))
    return LimitingMeasure(atoms=atoms, cutoff=K, tail_bound=tail)


def limiting_moment(f_in, f_out, m, K=DEFAULT_LATTICE_CUTOFF):
    """Truncated m-th moment of the limiting measure: sum of atom^m."""
    if m < 1:
        raise ValueError("moment order must be >= 1")
    _, sums, diffs, _, _, _ = _families(f_in, f_out, K)
    return float(np.sum(sums**m) + np.sum(diffs**m))


def empirical_moment(spectrum, m):
    """m-th moment of the scaled eigenvalue list, sum_i (lambda_i / n)^m."""
    if m < 1:
        raise ValueError("moment order must be >= 1")
    scaled = spectrum.eigenvalues / spectrum.n
    return float(np.sum(scaled**m))


def isolation_check(f_in, f_out, K=DEFAULT_LATTICE_CUTOFF):
    """Distance of every non-informative atom from the informative one.

    The informative atom sits at (mu_in - mu_out) / 2; in unscaled
    coefficient terms the conditions are

        F_in_hat(k) + F_out_hat(k) != mu_in - mu_out   for all k,
        F_in_hat(k) - F_out_hat(k) != mu_in - mu_out   for all k != 0.

    Reported gaps are the minima of those absolute differences over the
    truncated lattice.  epsilon is the multiplicity-one margin: half of
    each gap, floored by |mu_in - mu_out| / 4.  The check is satisfied
    when both gaps clear the truncation tail bound, so a gap that could
    be an artifact of truncation never counts as isolation.
    """
    mu_in = edge_density(f_in)
    mu_out = edge_density(f_out)
    if mu_in == mu_out:
        raise DegenerateModelError("mu_in equals mu_out: isolation is undefined")
    target = mu_in - mu_out
    ks, _, _, c_in, c_out, tail = _families(f_in, f_out, K)
    gap_sum = float(np.min(np.abs((c_in + c_out) - target)))
    gap_diff = float(np.min(np.abs((c_in - c_out)[ks.any(axis=1)] - target)))  # k != 0
    epsilon = min(gap_sum / 2.0, gap_diff / 2.0, abs(target) / 4.0)
    satisfied = bool(gap_sum > tail and gap_diff > tail)
    return IsolationReport(min_gap_sum=gap_sum, min_gap_diff=gap_diff,
                           epsilon=epsilon, satisfied=satisfied, tail_bound=tail)


def check_match_range(threshold, window):
    """ValueError unless 0 < threshold < inf and 0 <= window < inf (NaN fails both)."""
    if not 0 < threshold < np.inf:
        raise ValueError(f"threshold must be finite and > 0, got {threshold}")
    if not 0 <= window < np.inf:
        raise ValueError(f"window must be finite and >= 0, got {window}")


def spectrum_match(spectrum, measure, threshold, window):
    """Compare eigenvalues of A/n above a bulk threshold to the atoms.

    Every |lambda_i / n| > threshold is matched to its nearest atom
    location; entries farther than window count as outliers.
    """
    check_match_range(threshold, window)
    locations = measure.locations()
    scaled = spectrum.eigenvalues / spectrum.n
    report = SpectrumMatch(threshold=float(threshold), window=float(window))
    for value in scaled[np.abs(scaled) > threshold]:
        dist = np.abs(locations - value)
        nearest = int(np.argmin(dist))
        report.entries.append((float(value), float(locations[nearest]), float(dist[nearest])))
    if report.entries:
        report.max_distance = max(entry[2] for entry in report.entries)
        report.outlier_count = sum(1 for entry in report.entries if entry[2] > window)
    return report


def rayleigh_bound(v, spectrum):
    """Sine-angle bound for a test vector against its nearest eigenvector.

    rho is the Rayleigh quotient of v; the bound says the angle between v
    and the eigenvector whose eigenvalue is closest to rho has
    |sin| <= ||A v - rho v|| / (||v|| * delta), with delta the distance
    from rho to the nearest OTHER eigenvalue.  delta comes from the
    computed spectrum: the guarantee of an order-n gap is asymptotic and
    the diagnostic must be honest at finite n.  delta = 0 (rho at a
    repeated eigenvalue) is reported as an unbounded (inf) bound.
    A is the adjacency of spectrum.graph.  select_eigenpair(spectrum, rho) picks
    the closest eigenvalue and its eigenvector, and _gap_at its neighbours,
    so only those are read, and of the eigenvectors only its own.
    """
    graph = spectrum.graph
    v = np.asarray(v, dtype=float)
    if v.shape != (graph.n,):
        raise ValueError(f"test vector has shape {v.shape}, graph has n = {graph.n}")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("test vector must be nonzero")
    av = graph.matvec(v)
    rho = float(v @ av) / float(v @ v)
    residual = float(np.linalg.norm(av - rho * v))
    closest = select_eigenpair(spectrum, rho)
    rank = closest.selected_index
    delta = _gap_at(spectrum, rank, rho)
    sine_bound = residual / (norm * delta) if delta > 0 else np.inf
    unit = v / norm
    cosine = min(1.0, abs(float(unit @ closest.eigenvector)))
    actual = float(np.sqrt(max(0.0, 1.0 - cosine**2)))
    return RayleighReport(rho=rho, residual=residual, delta=delta,
                          sine_bound=sine_bound, actual_sine=actual, closest_rank=rank)


def trace_lipschitz_check(a, b, m):
    """lhs = |Tr A^m - Tr B^m|, rhs = m n^(m-2) * (ordered-pair Hamming distance).

    The Hamming distance counts ordered pairs, i.e. both triangles of the
    symmetric difference.  Small n uses direct matrix powering; larger n
    goes through the eigenvalues of Spectrum, which equal eigvalsh's.
    """
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    if m < 1:
        raise ValueError("power must be >= 1")
    n = a.n

    def trace_power(graph):
        if n <= 64:
            dense = graph.dense()
            acc = np.eye(n)
            for _ in range(m):
                acc = acc @ dense
            return float(np.trace(acc))
        ascending = Spectrum(graph).eigenvalues[::-1]  # eigvalsh's order: the sum rounds the same
        return float(np.sum(ascending**m))

    lhs = abs(trace_power(a) - trace_power(b))
    hamming = int(np.sum(a.adjacency != b.adjacency))
    rhs = m * float(n) ** (m - 2) * hamming
    return lhs, rhs
