"""Property oracles behind `sgbm validate`, also called by the acceptance tests.

Each check runs at fixed parameters and seeds and returns (ok, detail),
detail being a one-line summary of what was measured.
"""

import numpy as np

from . import kernels, model, spectral, theory


def fourier_quadrature_agreement():
    """Indicator(0.17) closed-form coefficients against quadrature, d = 1, 2, ||k|| <= 50."""
    worst = 0.0
    for d in (1, 2):
        kern = kernels.Indicator(0.17, d=d)
        axis = np.arange(-50, 51)
        ks = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
        analytic = kernels.coefficients(kern, ks)
        quad = kernels.fourier_coeff_grid(kern, ks, 256)
        worst = max(worst, float(np.max(np.abs(analytic - quad))))
    return worst <= 1e-10, f"max |analytic - quadrature| = {worst:.2e} (allowed 1e-10)"


def convolution_identity():
    """F * ... * F (0) by FFT against the lattice sum of F_hat^m.

    An indicator's F_hat decays like 1/k, so m = 2 needs a cutoff of 1e6.
    Radii sit halfway between grid nodes, where the FFT oracle is exact to 1e-7.
    """
    grid_n = 4096
    worst = 0.0
    for kern, m, cutoff in (
        (kernels.Indicator(1024.5 / grid_n), 2, 1_000_000),
        (kernels.Indicator(1024.5 / grid_n), 3, 500),
        (kernels.Indicator(409.5 / grid_n), 4, 500),
        (kernels.Waxman(0.9, 4.0), 2, 500),
    ):
        ks = np.arange(-cutoff, cutoff + 1).reshape(-1, 1)
        lattice = float(np.sum(kernels.coefficients(kern, ks) ** m))
        oracle = kernels.convolution_at_zero([kern] * m, grid_n)
        worst = max(worst, abs(oracle - lattice))
    return worst <= 1e-6, f"max |oracle - lattice sum| = {worst:.2e} (allowed 1e-6)"


def trace_lipschitz():
    """|Tr A^m - Tr B^m| <= m n^(m-2) Hamming(A, B) on 200 random pairs at n = 30."""
    rng = np.random.default_rng(7)
    n, failures = 30, 0
    for _ in range(200):
        m = int(rng.integers(1, 6))
        a = (rng.random((n, n)) < 0.3).astype(np.uint8)
        b = (rng.random((n, n)) < 0.3).astype(np.uint8)
        for mat in (a, b):
            mat &= ~np.eye(n, dtype=bool)
            mat |= mat.T
        lhs, rhs = theory.trace_lipschitz_check(
            model.Graph(n=n, adjacency=a), model.Graph(n=n, adjacency=b), m)
        if lhs > rhs + 1e-9:
            failures += 1
    return failures == 0, f"{200 - failures}/200 trials satisfied the bound"


def degree_concentration():
    """z_in - z_out >= sqrt(2 mu n log n) at n = 2000, r_in = 0.2, r_out = 0.05."""
    f_in = kernels.Indicator(0.2)
    f_out = kernels.Indicator(0.05)
    mu = kernels.edge_density(f_in) + kernels.edge_density(f_out)
    n, bad_runs = 2000, 0
    for seed in range(20):
        params = model.SgbmParams(n=n, d=1, f_in=f_in, f_out=f_out, seed=seed)
        graph, labels, _ = model.sample_graph(params)
        stats = model.degree_stats(graph, labels)
        if np.any(stats.z_in - stats.z_out < np.sqrt(2.0 * mu * n * np.log(n))):
            bad_runs += 1
    return bad_runs <= 5, f"{bad_runs}/20 runs had a node below the floor (allowed 5)"


def rayleigh_angle_bound():
    """The planted vector's sine bound holds on 10 SBM draws, n = 500, p = 0.9 / 0.1."""
    violations = 0
    for seed in range(10):
        params = model.SgbmParams(n=500, d=1, f_in=kernels.Constant(0.9),
                                  f_out=kernels.Constant(0.1), seed=seed)
        graph, labels, _ = model.sample_graph(params)
        spectrum = spectral.Spectrum(graph)
        planted = np.where(np.asarray(labels) == 1, 1.0, -1.0) / np.sqrt(graph.n)
        report = theory.rayleigh_bound(graph, planted, spectrum)
        if report.actual_sine > report.sine_bound + 1e-12:
            violations += 1
    return violations == 0, f"{10 - violations}/10 instances satisfied the bound"


CHECKS = (
    ("fourier quadrature agreement", fourier_quadrature_agreement),
    ("convolution identity", convolution_identity),
    ("trace lipschitz", trace_lipschitz),
    ("degree concentration", degree_concentration),
    ("rayleigh angle bound", rayleigh_angle_bound),
)
