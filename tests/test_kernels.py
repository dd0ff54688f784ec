import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sgbm import kernels, theory
from sgbm.kernels import Constant, Indicator, Waxman


# --- construction ---------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(ValueError):
        Constant(1.5)
    with pytest.raises(ValueError):
        Constant(-0.1)
    with pytest.raises(ValueError):
        Indicator(0.5)
    with pytest.raises(ValueError):
        Indicator(0.0)
    with pytest.raises(ValueError):
        Waxman(0.0, 1.0)
    with pytest.raises(ValueError):
        Waxman(0.5, -1.0)
    with pytest.raises(ValueError):
        Indicator(0.2, d=0)


VALID_PARAMS = {Constant: dict(p=0.3), Indicator: dict(r=0.2), Waxman: dict(q=0.7, s=1.5)}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls,name", [(cls, name) for cls, params in VALID_PARAMS.items()
                                      for name in (*params, "d")])
def test_constructor_rejects_non_finite(cls, name, bad):
    with pytest.raises(ValueError):
        cls(**VALID_PARAMS[cls] | {name: bad})


# --- profile --------------------------------------------------------------

def test_eval_constant_anywhere():
    kern = Constant(0.3)
    for x in (0.0, 0.1, -0.49, 0.25):
        assert kern.profile(abs(x)) == 0.3


def test_eval_indicator_inside_outside():
    kern = Indicator(0.2)
    assert kern.profile(0.1) == 1.0
    assert kern.profile(0.3) == 0.0


def test_eval_waxman_at_half():
    kern = Waxman(1.0, 2.0)
    assert kern.profile(0.5) == pytest.approx(np.exp(-1.0), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    x=st.lists(st.floats(-0.5, 0.4999), min_size=2, max_size=2),
    q=st.floats(0.1, 3.0),
    s=st.floats(0.0, 10.0),
)
def test_eval_is_even_radial_and_bounded(x, q, s):
    dist = np.max(np.abs(x))
    for kern in (Constant(0.4, d=2), Indicator(0.3, d=2), Waxman(q, s, d=2)):
        assert 0.0 <= kern.profile(dist) <= 1.0


# --- fourier_coeff --------------------------------------------------------

def test_indicator_coeff_at_zero():
    assert kernels.fourier_coeff(Indicator(0.25), [0]) == pytest.approx(0.5, abs=1e-15)


def test_indicator_coeff_sine_zero():
    assert kernels.fourier_coeff(Indicator(0.25), [2]) == pytest.approx(0.0, abs=1e-15)


def test_indicator_coeff_k1_closed_form():
    assert kernels.fourier_coeff(Indicator(0.25), [1]) == pytest.approx(1.0 / np.pi, abs=1e-14)


def test_constant_coeff():
    assert kernels.fourier_coeff(Constant(0.7), [0]) == 0.7
    assert kernels.fourier_coeff(Constant(0.7), [3]) == 0.0


def test_coeff_rejects_bad_index():
    with pytest.raises(ValueError):
        kernels.fourier_coeff(Indicator(0.2), [0, 1])
    with pytest.raises(ValueError):
        kernels.fourier_coeff(Indicator(0.2), [0.5])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fourier_coeff_is_coefficient_table_row(d):
    """The single-index and batch paths agree bit for bit."""
    kerns = [Constant(0.35, d=d), Indicator(0.08, d=d), Indicator(0.17, d=d),
             Indicator(0.3, d=d), Waxman(0.7, 2.0, d=d), Waxman(1.6, 3.0, d=d)]
    for kern in kerns:
        for k in ([0, 0, 0], [1, 0, 0], [-2, 3, 1], [5, 5, -7]):
            k = k[:d]
            assert kernels.fourier_coeff(kern, k) == kernels.coefficients(kern, [k])[0]


def canonical_rows_by_row_unique(ks):
    """The row-wise np.unique (axis=0) that kernels._canonical_rows replaced."""
    canon, inverse = np.unique(np.sort(np.abs(ks), axis=1), axis=0, return_inverse=True)
    return canon, inverse.ravel()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_canonical_rows_match_row_unique(d, monkeypatch):
    """One integer key per row gives the row-wise unique's rows and inverse,
    and so the same coefficients, bit for bit."""
    rng = np.random.default_rng(d)
    random_rows = rng.integers(-9, 10, size=(300, d))
    batches = [
        theory._lattice_box(d, 3),  # every sign and permutation of each canonical row
        np.concatenate([random_rows, random_rows[::-1], -random_rows]),  # duplicates
        np.zeros((1, d), dtype=int),  # k = 0 alone: a box of one key
        np.array([[0] * (d - 1) + [-12], [12] + [0] * (d - 1), [0] * d]),
    ]
    kerns = [Waxman(0.7, 2.0, d=d), Waxman(1.6, 3.0, d=d)]
    got = {}
    for bi, ks in enumerate(batches):
        canon, inverse = kernels._canonical_rows(ks)
        want_canon, want_inverse = canonical_rows_by_row_unique(ks)
        assert canon.dtype == want_canon.dtype and np.array_equal(canon, want_canon)
        assert np.array_equal(inverse, want_inverse)
        for ki, kern in enumerate(kerns):
            got[bi, ki] = kernels.coefficients(kern, ks)
    monkeypatch.setattr(kernels, "_canonical_rows", canonical_rows_by_row_unique)
    for (bi, ki), values in got.items():
        assert np.array_equal(values, kernels.coefficients(kerns[ki], batches[bi]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_constant_and_indicator_coefficients_are_their_closed_forms(d):
    """The layer-cake rule gives Constant's p [k = 0] and Indicator's
    (2r)^d prod_j sinc(2 pi k_j r) back bit for bit on the K = 64 lattice
    box, in the very floating-point expressions the closed forms are
    written in."""
    ks = theory._lattice_box(d, 64)
    for p in (0.0, 0.35, 1.0):
        expected = np.where(np.all(ks == 0, axis=1), p, 0.0)
        assert np.array_equal(kernels.coefficients(Constant(p, d=d), ks), expected)
    for r in (0.08, 0.17, 0.3):
        expected = (2.0 * r) ** d * np.prod(np.sinc(2.0 * np.pi * ks * r / np.pi), axis=1)
        assert np.array_equal(kernels.coefficients(Indicator(r, d=d), ks), expected)


def region_split_coeff_2d(kern, k, nodes=400):
    """Waxman F_hat(k) at d = 2 from the defining double integral, split by
    which coordinate is largest.  On |x_2| <= |x_1| the kernel depends on
    |x_1| alone, and the inner integral over x_2 is 2|x_1| sinc(2 pi k_2 x_1);
    likewise with the axes swapped.  So F_hat(k) is the 1-D integral over
    t in [0, 1/2] of 4 t f(t) (cos(2 pi k_1 t) sinc(2 pi k_2 t) + the same
    with k_1, k_2 swapped), taken by Gauss-Legendre on panels split where
    f is clipped.  It integrates f itself, not -df as the layer-cake rule does."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    clip = min(max(math.log(kern.q) / kern.s, 0.0), 0.5)
    total = 0.0
    for lo, hi in ((0.0, clip), (clip, 0.5)):
        t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        both = sum(np.cos(2 * np.pi * a * t) * np.sinc(2 * b * t) for a, b in (k, k[::-1]))
        total += 0.5 * (hi - lo) * float(np.sum(w * 4.0 * t * kern.profile(t) * both))
    return total


def test_waxman_d2_coefficients_match_region_split_oracle():
    ks = [(0, 0), (1, 0), (3, 2), (7, 7), (0, 13), (20, -5)]
    for kern in (Waxman(1.6, 3.0, d=2), Waxman(0.7, 2.0, d=2), Waxman(1.3, 5.0, d=2)):
        got = kernels.coefficients(kern, ks)
        want = [region_split_coeff_2d(kern, k) for k in ks]
        assert np.max(np.abs(got - want)) <= 1e-13, kern


# --- fourier_coeff_grid at one index -------------------------------------

def test_quadrature_matches_closed_form():
    got = kernels.fourier_coeff_grid(Indicator(0.25), [1], 2048)[0]
    assert got == pytest.approx(1.0 / np.pi, abs=1e-10)


def test_quadrature_constant_integrand():
    got = kernels.fourier_coeff_grid(Constant(0.7), [0], 2048)[0]
    assert got == pytest.approx(0.7, abs=1e-12)


def test_quadrature_waxman_density_bounds():
    got = kernels.fourier_coeff_grid(Waxman(0.9, 4.0), [0], 512)[0]
    assert 0.0 < got < 0.9


def test_quadrature_dimension_cap():
    with pytest.raises(ValueError):
        kernels.fourier_coeff_grid(Indicator(0.2, d=3), [0, 0, 0], 64)


def test_quadrature_minimum_nodes():
    with pytest.raises(ValueError):
        kernels.fourier_coeff_grid(Indicator(0.2), [0], 8)


# --- edge_density ---------------------------------------------------------

def test_edge_density_values():
    assert kernels.edge_density(Indicator(0.08)) == pytest.approx(0.16, abs=1e-15)
    assert kernels.edge_density(Constant(0.55)) == 0.55
    assert kernels.edge_density(Indicator(0.1, d=2)) == pytest.approx(0.04, abs=1e-15)


def test_edge_density_of_a_saturated_waxman_is_one():
    """ln(2) / 0.5 lies beyond 1/2, so F = 1 on the whole torus: the floor
    f(1/2) = 1 with no layer above it (the grid gave 1.0000000000000002)."""
    assert kernels.edge_density(Waxman(2.0, 0.5)) == 1.0


@settings(max_examples=60, deadline=None)
@given(kern=st.one_of(
    st.builds(Constant, st.floats(0.0, 1.0), st.sampled_from([1, 2, 3, 4])),
    st.builds(Indicator, st.floats(1e-6, 0.5, exclude_max=True), st.sampled_from([1, 2, 3, 4])),
    st.builds(Waxman, st.floats(1e-3, 50.0), st.floats(0.0, 50.0),
              st.sampled_from([1, 2, 3, 4]))))
@example(kern=Waxman(50.0, 5e-324))  # log(q) / s overflows; the clip radius must not divide
def test_edge_density_is_a_probability(kern):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        density = kernels.edge_density(kern)
    assert 0.0 <= density <= 1.0


# --- spectrum of coefficients: evenness, domination, decay ----------------

@settings(max_examples=40, deadline=None)
@given(k=st.integers(-200, 200), r=st.floats(0.01, 0.49))
def test_indicator_coeff_even_and_dominated(k, r):
    kern = Indicator(r)
    c = kernels.fourier_coeff(kern, [k])
    assert kernels.fourier_coeff(kern, [-k]) == pytest.approx(c, abs=1e-15)
    assert abs(c) <= kernels.fourier_coeff(kern, [0]) + 1e-15 <= 1.0 + 1e-15


@settings(max_examples=15, deadline=None)
@given(k=st.integers(-60, 60), q=st.floats(0.2, 2.0), s=st.floats(0.5, 8.0))
def test_waxman_coeff_even_and_dominated(k, q, s):
    kern = Waxman(q, s)
    c = kernels.fourier_coeff(kern, [k])
    assert kernels.fourier_coeff(kern, [-k]) == pytest.approx(c, abs=1e-12)
    assert abs(c) <= kernels.fourier_coeff(kern, [0]) + 1e-10


def test_coeff_decay_at_large_k():
    ks = np.arange(150, 201).reshape(-1, 1)
    for kern in (Indicator(0.08), Indicator(0.3), Waxman(0.9, 2.0)):
        tail = [abs(kernels.fourier_coeff(kern, k)) for k in ks]
        assert max(tail) < 0.01
        assert max(tail) < kernels.edge_density(kern)


def test_batch_grid_agrees_with_single_calls():
    kern = Waxman(1.3, 5.0, d=2)
    ks = np.array([[0, 0], [1, 0], [0, 1], [-2, 3], [3, -2], [5, 5]])
    batch = kernels.fourier_coeff_grid(kern, ks, 256)
    singles = [kernels.fourier_coeff_grid(kern, k, 256)[0] for k in ks]
    assert np.allclose(batch, singles, atol=1e-12)


def test_waxman_edge_density_default_grid_at_d3():
    """F_hat(0) at d = 3 in bounded memory, against the radial integral of
    q exp(-s r) times the l-infinity radius density 24 r^2."""
    kern = Waxman(0.7, 2.0, d=3)
    x, w = np.polynomial.legendre.leggauss(64)
    r = 0.25 * (x + 1.0)
    radial = 0.25 * float(np.sum(w * 0.7 * np.exp(-2.0 * r) * 24.0 * r**2))
    tracemalloc.start()
    try:
        density = kernels.fourier_coeff(kern, [0, 0, 0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert density == pytest.approx(radial, rel=1e-13)
    assert peak < 400e6
    assert kernels.edge_density(kern) == density


def waxman_density_closed_form(q, s, d):
    """F_hat(0) of Waxman(q, s) at integer d in elementary functions: (2c)^d
    inside the clip radius c, plus the integral of q e^(-sr) d 2^d r^(d-1)
    over [c, 1/2], where the integral of r^m e^(-sr) from a to b is
    m! / s^(m+1) (P(a) - P(b)) with P(x) = e^(-sx) sum_{j<=m} (sx)^j / j!."""
    c = min(max(math.log(q) / s, 0.0), 0.5)
    m = d - 1

    def p(x):
        return math.exp(-s * x) * sum((s * x) ** j / math.factorial(j) for j in range(m + 1))

    return (2 * c) ** d + q * d * 2**d * math.factorial(m) / s ** (m + 1) * (p(c) - p(0.5))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("q,s", [(0.7, 2.0), (1.6, 3.0), (1.3, 5.0), (0.45, 1.0)])
def test_waxman_edge_density_matches_closed_form(q, s, d):
    """The layer-cake rule is exact to roundoff in every dimension."""
    kern = Waxman(q, s, d=d)
    assert kernels.edge_density(kern) == pytest.approx(waxman_density_closed_form(q, s, d),
                                                       rel=1e-13)


# --- convolution oracle ----------------------------------------------------

def test_convolution_constants_multiply():
    got = kernels.convolution_at_zero([Constant(0.3), Constant(0.5)], 1024)
    assert got == pytest.approx(0.15, abs=1e-12)


def test_convolution_preconditions():
    with pytest.raises(ValueError):
        kernels.convolution_at_zero([Constant(0.3)], 1024)
    with pytest.raises(ValueError):
        kernels.convolution_at_zero([Constant(0.3, d=2), Constant(0.5, d=2)], 64)


def test_convolution_lattice_identity_indicator():
    """F * ... * F (0) equals the lattice sum of F_hat^m.

    The cutoff needed for 1e-6 depends on m: F_hat decays like 1/k, so
    sum of squares converges like 1/K and needs K = 1e6, while m >= 3
    already converges like 1/K^2 and K = 500 suffices.  Radii sit halfway
    between grid nodes so the oracle itself is accurate to ~1e-7.
    """
    grid = 4096
    for r, m, cutoff in ((1024.5 / grid, 2, 1_000_000),
                         (1024.5 / grid, 3, 500),
                         (409.5 / grid, 4, 500)):
        kern = Indicator(r)
        ks = np.arange(-cutoff, cutoff + 1)
        coeff = 2.0 * r * np.sinc(2.0 * ks * r)  # np.sinc(x) = sin(pi x)/(pi x)
        lattice = float(np.sum(coeff**m))
        oracle = kernels.convolution_at_zero([kern] * m, grid)
        assert oracle == pytest.approx(lattice, abs=1e-6), (r, m)


def test_convolution_mixed_kernels():
    grid = 4096
    f = Indicator(1024.5 / grid)
    g = Indicator(409.5 / grid)
    ks = np.arange(-500, 501).reshape(-1, 1)
    cf = np.array([kernels.fourier_coeff(f, k) for k in ks])
    cg = np.array([kernels.fourier_coeff(g, k) for k in ks])
    lattice = float(np.sum(cf * cg * cg))
    oracle = kernels.convolution_at_zero([f, g, g], grid)
    assert oracle == pytest.approx(lattice, abs=1e-6)


# --- config round trip ------------------------------------------------------

def test_config_round_trip():
    for kern in (Constant(0.4, d=2), Indicator(0.12), Waxman(0.7, 1.5)):
        block = kernels.kernel_to_config(kern)
        back = kernels.kernel_from_config(block, kern.d)
        assert back == kern


def test_config_rejects_extras_and_gaps():
    with pytest.raises(ValueError):
        kernels.kernel_from_config({"kind": "indicator", "r": "0.2", "s": "1"}, 1)
    with pytest.raises(ValueError):
        kernels.kernel_from_config({"kind": "indicator"}, 1)
    with pytest.raises(ValueError):
        kernels.kernel_from_config({"kind": "gaussian", "r": "0.2"}, 1)
    with pytest.raises(ValueError):
        kernels.kernel_from_config({"kind": "waxman", "q": "0.5", "s": "abc"}, 1)
