"""Shared fixtures: stand-ins for the LAPACK routines spectral.Spectrum
calls, counts of its solves, and Monte-Carlo ensembles.

The expensive fixtures are session-scoped and store summaries, not
spectra: a 2000x2000 eigenvector matrix is 32 MB, so holding ten of
them would be wasteful when the assertions only need eigenvalues,
selected ranks, and accuracy profiles.
"""

import time

import numpy as np
import pytest

from sgbm import _openblas, kernels, model, spectral

# the argument that holds n, for each LAPACKE routine the tests count
_N_ARGUMENT = {"dsyevd": 3, "dsytrf": 2}


def _patch_lapack(monkeypatch, **stand_ins):
    """Spectrum objects built from now on call the stand-ins in place of
    the LAPACK routines of those names; returns the routines bound before."""
    real = _openblas.lapack()
    monkeypatch.setattr(_openblas, "lapack", lambda: {**real, **stand_ins})
    return real


def _count_routines(monkeypatch, *names, delay=0.0):
    """{name: [n, ...]}: n for every call of each LAPACK routine named by
    the Spectrum objects built from now on, each call after a sleep of
    delay seconds.  "dsyevd N" and "dsyevd V" count only the dsyevd calls
    without and with vectors (jobz); "dsyevd" counts both.  "window" and
    "shifted window" count the Lanczos windows started, on A and on
    (A - sigma I)^-1, each start after the same sleep."""
    calls = {name: [] for name in names}

    def counted(routine):
        n_at = _N_ARGUMENT[routine]

        def call(*args):
            keys = [routine] + ([f"dsyevd {args[1].decode()}"] if routine == "dsyevd" else [])
            for key in keys:
                if key in calls:
                    calls[key].append(args[n_at])
            time.sleep(delay)
            return real[routine](*args)
        return call

    grow = spectral._Window.grow

    def counted_grow(window, size):
        key = "window" if window.sigma is None else "shifted window"
        if window.basis is None and key in calls:
            calls[key].append(window.n)
            time.sleep(delay)
        return grow(window, size)

    routines = {name.split()[0] for name in names if "window" not in name}
    real = _patch_lapack(monkeypatch, **{routine: counted(routine) for routine in routines})
    monkeypatch.setattr(spectral._Window, "grow", counted_grow)
    return calls


@pytest.fixture
def patch_lapack():
    """The function patch_lapack(monkeypatch, **stand_ins)."""
    return _patch_lapack


@pytest.fixture
def count_routines():
    """The function count_routines(monkeypatch, *names, delay=0.0)."""
    return _count_routines


class FixedSpectrum:
    """A spectrum given by its eigenpairs, for tests of code that reads one:
    eigenvalues, eigenvectors (column i pairs with eigenvalues[i]) and n,
    count_above(x) and values(first, last) read from eigenvalues, and
    eigenvector(rank) as the column itself."""

    def __init__(self, eigenvalues, eigenvectors=None):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self.eigenvectors = eigenvectors
        self.n = len(self.eigenvalues)

    def count_above(self, x):
        return int(np.sum(self.eigenvalues > x))

    def values(self, first, last):
        return self.eigenvalues[first - 1:last]

    def eigenvector(self, rank):
        return self.eigenvectors[:, rank - 1]


@pytest.fixture
def fixed_spectrum():
    """The FixedSpectrum class."""
    return FixedSpectrum


@pytest.fixture(scope="session")
def sparse_gbm_ensemble():
    """10 GBM draws at n=2000, r_in=0.08, r_out=0.02, seeds 0..9.

    Returns a dict with per-seed HOSC accuracy, selected rank, the full
    per-rank accuracy profile, the eigenvalues, and the wall time.
    """
    f_in, f_out = kernels.Indicator(0.08), kernels.Indicator(0.02)
    mu_in, mu_out = kernels.edge_density(f_in), kernels.edge_density(f_out)
    data = {"f_in": f_in, "f_out": f_out, "n": 2000, "hosc_accuracy": [],
            "selected_rank": [], "profiles": [], "eigenvalues": [],
            "mean_degree": []}
    start = time.perf_counter()
    for seed in range(10):
        params = model.SgbmParams(n=2000, d=1, f_in=f_in, f_out=f_out, seed=seed)
        graph, labels, _ = model.sample_graph(params)
        data["mean_degree"].append(graph.adjacency.sum(axis=1).mean())
        spectrum = spectral.eigendecompose(graph)
        report = spectral.select_eigenpair(
            spectrum, spectral.ideal_eigenvalue(mu_in, mu_out, 2000))
        pred = spectral.sign_partition(report.eigenvector)
        data["hosc_accuracy"].append(spectral.accuracy(labels, pred))
        data["selected_rank"].append(report.selected_index)
        data["profiles"].append([acc for _, acc in
                                 spectral.per_eigenvector_accuracy(spectrum, labels)])
        data["eigenvalues"].append(spectrum.eigenvalues)
    data["elapsed_s"] = time.perf_counter() - start
    return data


@pytest.fixture(scope="session")
def exact_recovery_ensemble():
    """10 GBM draws at n=2000, r_in=0.2, r_out=0.05: HOSC and HOSC-LI results."""
    f_in, f_out = kernels.Indicator(0.2), kernels.Indicator(0.05)
    out = {"hosc_accuracy": [], "li_misclassified": []}
    for seed in range(10):
        params = model.SgbmParams(n=2000, d=1, f_in=f_in, f_out=f_out, seed=seed)
        graph, labels, _ = model.sample_graph(params)
        pred, _ = spectral.hosc(graph, 0.4, 0.1)
        out["hosc_accuracy"].append(spectral.accuracy(labels, pred))
        refined = spectral.local_improvement(graph, pred)
        out["li_misclassified"].append(int(round(spectral.loss(labels, refined) * 2000)))
    return out


@pytest.fixture(scope="session")
def degree_margin_ensemble():
    """20 GBM draws at n=2000, r_in=0.08, r_out=0.05: degree margin checks.

    For each run, records whether any node has
    z_in - z_out < sqrt(2 (mu_in + mu_out) n log n).
    """
    f_in, f_out = kernels.Indicator(0.08), kernels.Indicator(0.05)
    n = 2000
    floor = np.sqrt(2.0 * (0.16 + 0.10) * n * np.log(n))
    violated = []
    for seed in range(20):
        params = model.SgbmParams(n=n, d=1, f_in=f_in, f_out=f_out, seed=seed)
        graph, labels, _ = model.sample_graph(params)
        stats = model.degree_stats(graph, labels)
        violated.append(bool(np.any(stats.z_in - stats.z_out < floor)))
    return {"floor": floor, "violated": violated}


@pytest.fixture(scope="session")
def fig3_data():
    """The full accuracy-versus-n preset: rows plus the (n, algorithm) table."""
    from sgbm import harness
    rows, table = harness.fig3_sweep()
    return {"rows": rows, "table": table}


@pytest.fixture(scope="session")
def moment_ensemble():
    """Spectral moments m=3,4 of 10 GBM draws at n=1000, r_in=0.08, r_out=0.02."""
    from sgbm import theory
    f_in, f_out = kernels.Indicator(0.08), kernels.Indicator(0.02)
    moments = {3: [], 4: []}
    for seed in range(10):
        params = model.SgbmParams(n=1000, d=1, f_in=f_in, f_out=f_out, seed=seed)
        graph, _, _ = model.sample_graph(params)
        spectrum = spectral.eigendecompose(graph)
        for m in (3, 4):
            moments[m].append(theory.empirical_moment(spectrum, m))
    return {"f_in": f_in, "f_out": f_out, "n": 1000, "moments": moments}


@pytest.fixture(scope="session")
def sbm_instances():
    """10 SBM draws (n=500, p_in=0.9, p_out=0.1) with spectra and planted vectors."""
    out = []
    for seed in range(10):
        params = model.SgbmParams(n=500, d=1, f_in=kernels.Constant(0.9),
                                  f_out=kernels.Constant(0.1), seed=seed)
        graph, labels, _ = model.sample_graph(params)
        spectrum = spectral.eigendecompose(graph)
        planted = np.where(np.asarray(labels) == 1, 1.0, -1.0) / np.sqrt(500)
        out.append({"graph": graph, "labels": labels, "spectrum": spectrum,
                    "planted": planted})
    return out
