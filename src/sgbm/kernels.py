"""Connectivity probability functions on the flat torus.

A kernel maps a displacement x in T^d = [-1/2, 1/2)^d to an edge
probability F(x) in [0, 1].  All kernels here are radial in the
l-infinity torus norm, so F is even and its Fourier coefficients

    F_hat(k) = integral of F(x) exp(-2i pi <k, x>) dx,   k integer vector

are real.  Three families are supported:

* Constant(p): F(x) = p, the classical block-model edge probability.
* Indicator(r): F(x) = 1 if ||x||_inf <= r else 0 (hard radius).
* Waxman(q, s): F(x) = min(1, q * exp(-s ||x||_inf)).

Each family is a frozen dataclass with a config name, kind, and the
three methods through which the rest of the package tells families
apart: profile(dist), F as a vectorized function of the l-infinity norm;
coeffs(ks), F_hat for every row of an (m, d) integer array; and
breakpoints(), the radii in (0, 1/2) where the profile is not analytic.

Constant and Indicator coefficients have closed forms, Indicator's being
(2r)^d prod_j sinc(2 pi k_j r); Waxman falls back to Gauss-Legendre
quadrature.  The quadrature is composite: the integration axis is split
at the breakpoints so that each panel sees an analytic integrand.  Plain
Gauss-Legendre across a jump stalls near 1e-3 accuracy no matter the
node count.  At d >= 2 the tensor grid's integrand still has kinks on
the diagonals |x_a| = |x_b|, where it converges only like nodes^-2
(about 1e-6 at the default grid), so Waxman's F_hat(0) there comes from
a 1-D rule over the radius instead.
"""

from dataclasses import astuple, dataclass, fields
from functools import lru_cache

import numpy as np

__all__ = [
    "Constant",
    "Indicator",
    "Waxman",
    "eval_kernel",
    "fourier_coeff",
    "fourier_coeff_quadrature",
    "fourier_coeff_grid",
    "edge_density",
    "convolution_at_zero",
    "kernel_from_config",
    "kernel_to_config",
]

MAX_QUADRATURE_DIM = 3  # tensor grids beyond d=3 are a cost cliff
DEFAULT_NODES_PER_DIM = 256
_QUADRATURE_CHUNK = 2**22  # grid points sampled at once; about 32 MB of float64


def _validate(kernel, in_range, message):
    """Constructor check shared by the kernels: finite fields, d >= 1, then the kind's range."""
    if not np.all(np.isfinite(astuple(kernel))):
        raise ValueError(f"kernel parameters must be finite, got {kernel}")
    if kernel.d < 1:
        raise ValueError("dimension must be a positive integer")
    if not in_range:
        raise ValueError(message)


@dataclass(frozen=True)
class Constant:
    """F(x) = p for every displacement."""

    kind = "constant"
    p: float
    d: int = 1

    def __post_init__(self):
        _validate(self, 0.0 <= self.p <= 1.0, f"constant kernel needs 0 <= p <= 1, got {self.p}")

    def profile(self, dist):
        return np.full_like(np.asarray(dist, dtype=float), self.p)

    def coeffs(self, ks):
        return np.where(np.all(ks == 0, axis=1), float(self.p), 0.0)

    def breakpoints(self):
        return ()


@dataclass(frozen=True)
class Indicator:
    """F(x) = 1 when ||x||_inf <= r, else 0.  Requires 0 < r < 1/2."""

    kind = "indicator"
    r: float
    d: int = 1

    def __post_init__(self):
        _validate(self, 0.0 < self.r < 0.5,
                  f"indicator radius must satisfy 0 < r < 1/2, got {self.r}")

    def profile(self, dist):
        return (np.asarray(dist) <= self.r).astype(float)

    def coeffs(self, ks):
        return (2.0 * self.r) ** self.d * np.prod(_sinc(2.0 * np.pi * ks * self.r), axis=1)

    def breakpoints(self):
        return (self.r,)


@dataclass(frozen=True)
class Waxman:
    """F(x) = min(1, q * exp(-s ||x||_inf)) with q > 0 and s >= 0."""

    kind = "waxman"
    q: float
    s: float
    d: int = 1

    def __post_init__(self):
        _validate(self, self.q > 0.0 and self.s >= 0.0,
                  f"waxman kernel needs q > 0 and s >= 0, got q = {self.q}, s = {self.s}")

    def profile(self, dist):
        return np.minimum(1.0, self.q * np.exp(-self.s * np.asarray(dist)))

    def coeffs(self, ks):
        # sign flips and coordinate permutations of k leave the coefficient
        # unchanged, so only the canonical rows are integrated
        canon = np.sort(np.abs(ks), axis=1)
        unique, inverse = np.unique(canon, axis=0, return_inverse=True)
        values = np.empty(len(unique))
        rest = slice(0, None)
        if self.d >= 2 and len(unique) and not unique[0].any():
            # F_hat(0), the first canonical row, by the radial rule: the tensor
            # grid is not split at the kinks of the l-infinity norm on the
            # diagonals.  d = 1 keeps the grid's value, which the radial rule
            # matches only to roundoff.
            values[0] = _radial_mean(self)
            rest = slice(1, None)
        values[rest] = fourier_coeff_grid(self, unique[rest])
        return values[inverse.ravel()]

    def breakpoints(self):
        if self.q > 1.0 and self.s > 0.0:
            clip = np.log(self.q) / self.s  # radius where q e^{-s r} crosses 1
            if clip < 0.5:
                return (clip,)
        return ()


_KINDS = {cls.kind: cls for cls in (Constant, Indicator, Waxman)}


def eval_kernel(kernel, displacement):
    """Edge probability for one displacement vector in [-1/2, 1/2)^d."""
    x = np.atleast_1d(np.asarray(displacement, dtype=float))
    if x.shape != (kernel.d,):
        raise ValueError(f"displacement has shape {x.shape}, kernel dimension is {kernel.d}")
    return float(kernel.profile(np.max(np.abs(x))))


def _sinc(x):
    """sin(x)/x with the removable singularity filled in; np.sinc uses pi*x."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


def _check_lattice_index(kernel, k):
    k = np.atleast_1d(np.asarray(k))
    if k.shape != (kernel.d,):
        raise ValueError(f"lattice index has shape {k.shape}, kernel dimension is {kernel.d}")
    if not np.all(k == np.round(k)):
        raise ValueError("lattice index must have integer coordinates")
    return k.astype(int).reshape(1, -1)  # a one-row batch


def fourier_coeff(kernel, k):
    """Fourier coefficient F_hat(k): one row of the kernel's coeffs."""
    return float(kernel.coeffs(_check_lattice_index(kernel, k))[0])


def _axis_rule(kernel, nodes_per_panel):
    """Composite Gauss-Legendre nodes and weights on [-1/2, 1/2], split at 0 and +-breakpoints."""
    base_x, base_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    breaks = {0.0, *kernel.breakpoints()}
    edges = sorted({-0.5, 0.5} | breaks | {-b for b in breaks})
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        xs.append(0.5 * (lo + hi) + half * base_x)
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def _radial_mean(kernel):
    """F_hat(0) = integral over [0, 1/2] of F(r) d 2^d r^(d-1) dr.

    d 2^d r^(d-1) is the density of the l-infinity norm of a uniform
    point of the torus.  The Gauss-Legendre panels split at the
    breakpoints, so each sees an analytic integrand.
    """
    base_x, base_w = np.polynomial.legendre.leggauss(DEFAULT_NODES_PER_DIM)
    edges = [0.0, *kernel.breakpoints(), 0.5]
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        r = 0.5 * (lo + hi) + half * base_x
        total += half * float(np.sum(base_w * kernel.profile(r) * r ** (kernel.d - 1)))
    return kernel.d * 2.0**kernel.d * total


def fourier_coeff_grid(kernel, ks, nodes_per_dim=None):
    """Quadrature estimates of F_hat for a whole batch of lattice indices.

    ks is an (m, d) integer array.  The kernel is sampled on the tensor
    grid, then contracted axis by axis with exp(-2i pi k_j x); rows
    sharing a leading index prefix share the partial contraction.  Time
    grows like nodes^d, hence the d <= 3 cap; memory stays near
    _QUADRATURE_CHUNK points plus one nodes^(d-1) partial sum per
    distinct leading index.

    nodes_per_dim=None picks the per-panel node count from the largest
    requested frequency: Gauss-Legendre needs node counts proportional
    to the oscillation count or the estimate is garbage, so the default
    is max(256, 3 * max|k_j|).  Pass an explicit count to pin the rule.
    """
    if kernel.d > MAX_QUADRATURE_DIM:
        raise ValueError(f"quadrature supports d <= {MAX_QUADRATURE_DIM}, got d = {kernel.d}")
    ks = np.atleast_2d(np.asarray(ks))
    if ks.shape[1] != kernel.d:
        raise ValueError(f"lattice indices have dimension {ks.shape[1]}, kernel has {kernel.d}")
    if nodes_per_dim is None:
        kmax = int(np.max(np.abs(ks))) if ks.size else 0
        nodes_per_dim = max(DEFAULT_NODES_PER_DIM, 3 * kmax)
    if nodes_per_dim < 16:
        raise ValueError("need at least 16 quadrature nodes per dimension")
    if not len(ks):
        return np.empty(0)
    x, w = _axis_rule(kernel, nodes_per_dim)
    d, m = kernel.d, len(x)
    phases = {}  # per unique k entry: complex exponential over the axis nodes
    for kj in np.unique(ks):
        phases[kj] = np.exp(-2j * np.pi * kj * x)

    # the first axis is contracted over chunks of its nodes, so at most about
    # _QUADRATURE_CHUNK grid points are sampled at once; each distinct leading
    # k keeps one running partial sum.  One chunk covers d <= 2 and small
    # d = 3 grids.
    leading = ks[:, 0]
    partial = {}
    rows_per_chunk = max(1, _QUADRATURE_CHUNK // m ** (d - 1))
    for lo in range(0, m, rows_per_chunk):
        chunk = slice(lo, lo + rows_per_chunk)
        # l-infinity distance and the outer product of axis weights, by broadcasting
        dist = np.abs(x[chunk]).reshape((-1,) + (1,) * (d - 1))
        for axis in range(1, d):
            dist = np.maximum(dist, np.abs(x).reshape(_axis_shape(d, axis)))
        weighted = kernel.profile(dist)
        for axis in range(d):
            weighted = weighted * (w[chunk] if axis == 0 else w).reshape(_axis_shape(d, axis))
        for val in np.unique(leading):
            part = np.tensordot(phases[val][chunk], weighted, axes=([0], [0]))
            if val in partial:
                partial[val] += part
            else:
                partial[val] = part

    out = np.empty(len(ks))

    def contract(tensor, rows, axis):
        if axis == d:
            # even kernels have real coefficients; the imaginary part is roundoff
            out[rows] = tensor.real
            return
        leading = ks[rows, axis]
        for val in np.unique(leading):
            sub = rows[leading == val]
            contract(np.tensordot(phases[val], tensor, axes=([0], [0])), sub, axis + 1)

    for val, tensor in partial.items():
        contract(tensor, np.flatnonzero(leading == val), 1)
    return out


def _axis_shape(d, axis):
    """Broadcast shape that lays a 1-D array of axis nodes along `axis` of d."""
    shape = [1] * d
    shape[axis] = -1
    return shape


def fourier_coeff_quadrature(kernel, k, nodes_per_dim):
    """Single-coefficient quadrature oracle (independent of the closed forms)."""
    return float(fourier_coeff_grid(kernel, _check_lattice_index(kernel, k), nodes_per_dim)[0])


@lru_cache
def edge_density(kernel):
    """Mean edge probability, F_hat(0), within [0, 1].  Memoised: kernels are frozen and finite.

    Clipped to [0, 1]: where F = 1 everywhere (a Waxman kernel clipped
    beyond 1/2), the quadrature weights sum to 1 only to roundoff.
    """
    return min(1.0, max(0.0, fourier_coeff(kernel, np.zeros(kernel.d, dtype=int))))


def convolution_at_zero(kernels, grid_points_per_dim):
    """Iterated circular convolution F_1 * ... * F_m evaluated at 0, d = 1 only.

    Uses trapezoidal integration on a uniform grid over [0, 1) (on the
    torus the trapezoid rule is the plain node average), with repeated
    single convolutions done by FFT.  This is a validation oracle for
    the Fourier code, not a production path.

    Grid placement note: a jump that falls exactly midway between two
    nodes is integrated to near machine precision; a jump sitting on a
    node costs O(1/grid) instead.  Callers that want 1e-6 agreement
    with lattice sums should pick radii of the form (j + 1/2) / grid.
    """
    kernels = list(kernels)
    if len(kernels) < 2:
        raise ValueError("need at least two kernels to convolve")
    if any(kern.d != 1 for kern in kernels):
        raise ValueError("convolution oracle is restricted to d = 1")
    n = int(grid_points_per_dim)
    if n < 2:
        raise ValueError("grid must have at least 2 points")
    x = np.arange(n) / n
    dist = np.minimum(x, 1.0 - x)  # torus distance to 0
    h = 1.0 / n
    transforms = [np.fft.rfft(kern.profile(dist)) for kern in kernels]
    acc = transforms[0]
    for ft in transforms[1:]:
        acc = acc * ft * h
    return float(np.fft.irfft(acc, n)[0])


# --- config block (de)serialization ------------------------------------


def _param_names(cls):
    return tuple(f.name for f in fields(cls) if f.name != "d")


def kernel_from_config(block, d):
    """Build a kernel from a {key: string} config block.

    Expected keys: kind in {constant, indicator, waxman} plus exactly the
    parameters of that kind (p / r / q,s).  Anything else is an error.
    """
    if "kind" not in block:
        raise ValueError("kernel block is missing 'kind'")
    kind = block["kind"].strip().lower()
    if kind not in _KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}, expected constant, indicator or waxman")
    cls = _KINDS[kind]
    wanted = set(_param_names(cls))
    given = set(block) - {"kind"}
    if given != wanted:
        raise ValueError(f"kernel kind {kind!r} takes keys {sorted(wanted)}, got {sorted(given)}")
    return cls(d=d, **{name: float(block[name]) for name in wanted})


def kernel_to_config(kernel):
    """Inverse of kernel_from_config (dimension travels separately)."""
    return {"kind": kernel.kind,
            **{name: repr(getattr(kernel, name)) for name in _param_names(type(kernel))}}
