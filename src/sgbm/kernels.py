"""Connectivity probability functions on the flat torus.

A kernel maps a displacement x in T^d = [-1/2, 1/2)^d to an edge
probability F(x) in [0, 1].  Every kernel here is radial in the
l-infinity torus norm, F(x) = f(||x||_inf), with a profile f that does
not increase on [0, 1/2].  So F is even, its Fourier coefficients

    F_hat(k) = integral of F(x) exp(-2i pi <k, x>) dx,   k integer vector

are real, and F is a mixture of cube indicators, the layer-cake
representation (Lieb & Loss, Analysis, 2nd ed., 2001, Thm 1.13):

    F(x) = f(1/2) + integral over r of 1{||x||_inf <= r} (-df(r)).

A cube of half-width r has the coefficients (2r)^d prod_j sinc(2 pi k_j r),
so in every dimension d >= 1

    F_hat(k) = f(1/2) [k = 0] + integral of (2r)^d prod_j sinc(2 pi k_j r) (-df(r)).

Three families are supported:

* Constant(p): F(x) = p, the classical block-model edge probability.
* Indicator(r): F(x) = 1 if ||x||_inf <= r else 0 (hard radius).
* Waxman(q, s): F(x) = min(1, q * exp(-s ||x||_inf)).

Each family is a frozen dataclass with a config name, kind, and the two
methods through which the rest of the package tells families apart:
profile(dist), f as a vectorized function of the l-infinity norm; and
layers(), the measure -df as point masses (r, mass) and density panels
(lo, hi, density) on which -f' is analytic.  Constant has no layers,
Indicator one unit mass at r, and Waxman the density q s exp(-s r) from
its clip radius (where q exp(-s r) falls through 1) out to 1/2.

coefficients(kernel, ks) is the one rule for every family: the floor
f(1/2) at k = 0, each mass times the cube's closed form, and each panel
by one Gauss-Legendre rule of 2 max|k| + 64 nodes.  A panel's integrand
is analytic, so the rule is exact to roundoff.  fourier_coeff_grid is
an independent tensor-grid quadrature of the defining integral, kept at
d <= 2 as an oracle.
"""

from dataclasses import astuple, dataclass, fields
from functools import lru_cache
import math

import numpy as np

__all__ = [
    "Constant",
    "Indicator",
    "Waxman",
    "eval_kernel",
    "coefficients",
    "fourier_coeff",
    "fourier_coeff_grid",
    "edge_density",
    "convolution_at_zero",
    "kernel_from_config",
    "kernel_to_config",
]

MAX_QUADRATURE_DIM = 2  # the tensor-grid oracle's cost grows like nodes^d
PANEL_NODES = 64  # Gauss-Legendre nodes per density panel, plus 2 per unit of max|k|


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

    def layers(self):
        return (), ()


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

    def layers(self):
        return ((self.r, 1.0),), ()


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

    def layers(self):
        log_q = math.log(self.q)
        if log_q >= 0.5 * self.s:  # q exp(-s r) >= 1 out to the corner: F = 1 everywhere
            return (), ()
        clip = log_q / self.s if log_q > 0.0 else 0.0  # where q exp(-s r) falls through 1
        return (), ((clip, 0.5, lambda r: self.q * self.s * np.exp(-self.s * r)),)


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


def _cube(ks, r):
    """F_hat of the cube ||x||_inf <= r for every row of ks: (2r)^d prod_j sinc(2 pi k_j r)."""
    return (2.0 * r) ** ks.shape[1] * np.prod(_sinc(2.0 * np.pi * ks * r), axis=1)


def _canonical_rows(ks):
    """Distinct rows of sorted |k|, lexicographic, and the inverse map, by a 1-D unique on
    each row's C-order place in the (max|k| + 1)^d box, which must hold under 2**63 places."""
    sorted_abs = np.sort(np.abs(ks), axis=1)
    box = (int(sorted_abs.max(initial=0)) + 1,) * ks.shape[1]
    keys, inverse = np.unique(np.ravel_multi_index(sorted_abs.T, box), return_inverse=True)
    return np.stack(np.unravel_index(keys, box), axis=1), inverse


def coefficients(kernel, ks):
    """F_hat(k) for every row of an (m, d) integer array, by the layer-cake rule.

    Panels are integrated over the canonical rows only: sign flips and
    coordinate permutations of k leave the coefficient unchanged.
    """
    ks = np.atleast_2d(np.asarray(ks, dtype=int))
    if ks.shape[1] != kernel.d:
        raise ValueError(f"lattice indices have dimension {ks.shape[1]}, kernel has {kernel.d}")
    masses, panels = kernel.layers()
    out = np.where(np.all(ks == 0, axis=1), float(kernel.profile(0.5)), 0.0)
    for r, mass in masses:
        out = out + mass * _cube(ks, r)
    if panels:
        canon, inverse = _canonical_rows(ks)
        kmax = int(canon.max(initial=0))
        x, w = np.polynomial.legendre.leggauss(2 * kmax + PANEL_NODES)
        for lo, hi, density in panels:
            half = 0.5 * (hi - lo)
            r = 0.5 * (lo + hi) + half * x
            # sinc(2 pi k r) for k = 0..kmax; one (canonical row, node) product
            # per axis, so memory stays at two rows-by-nodes arrays at any d
            table = _sinc(2.0 * np.pi * np.arange(kmax + 1)[:, None] * r)
            product = table[canon[:, 0]]
            for axis in range(1, kernel.d):
                product *= table[canon[:, axis]]
            out = out + (product @ (half * w * density(r) * (2.0 * r) ** kernel.d))[inverse]
    return out


def fourier_coeff(kernel, k):
    """Fourier coefficient F_hat(k): one row of coefficients."""
    return float(coefficients(kernel, _check_lattice_index(kernel, k))[0])


def _axis_rule(kernel, nodes_per_panel):
    """Composite Gauss-Legendre nodes and weights on [-1/2, 1/2], split at 0
    and at +-the radii of the kernel's layers, where the profile may jump or kink."""
    base_x, base_w = np.polynomial.legendre.leggauss(nodes_per_panel)
    masses, panels = kernel.layers()
    breaks = {0.0, *(r for r, _ in masses), *(e for lo, hi, _ in panels for e in (lo, hi))}
    edges = sorted({-0.5, 0.5} | breaks | {-b for b in breaks})
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        xs.append(0.5 * (lo + hi) + half * base_x)
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def fourier_coeff_grid(kernel, ks, nodes_per_dim):
    """Tensor-grid quadrature of F_hat for a batch of lattice indices, d <= 2.

    An oracle independent of the layer-cake rule: it integrates F itself
    times exp(-2i pi <k, x>) over the torus, nodes_per_dim Gauss-Legendre
    nodes per panel of each axis.  At d = 2 the integrand still kinks on
    the diagonals |x_1| = |x_2|, where the grid converges only like
    nodes^-2.  Gauss-Legendre needs node counts proportional to the
    oscillation count, so pass at least about 3 max|k_j| nodes.
    """
    if kernel.d > MAX_QUADRATURE_DIM:
        raise ValueError(f"quadrature supports d <= {MAX_QUADRATURE_DIM}, got d = {kernel.d}")
    ks = np.atleast_2d(np.asarray(ks))
    if ks.shape[1] != kernel.d:
        raise ValueError(f"lattice indices have dimension {ks.shape[1]}, kernel has {kernel.d}")
    if nodes_per_dim < 16:
        raise ValueError("need at least 16 quadrature nodes per dimension")
    x, w = _axis_rule(kernel, nodes_per_dim)
    values, index = np.unique(ks, return_inverse=True)
    phases = np.exp(-2j * np.pi * np.outer(values, x))  # one row per distinct entry of k
    dist = np.abs(x)
    if kernel.d == 1:
        table = phases @ (w * kernel.profile(dist))
    else:
        table = phases @ (kernel.profile(np.maximum.outer(dist, dist)) * np.outer(w, w)) @ phases.T
    # even kernels have real coefficients; the imaginary part is roundoff
    return table[tuple(index.reshape(ks.shape).T)].real


@lru_cache
def edge_density(kernel):
    """Mean edge probability, F_hat(0), within [0, 1].  Memoised: kernels are frozen and finite.

    Clipped to [0, 1]: where F is 1 nearly everywhere (a Waxman kernel
    clipped just short of 1/2), floor plus panel sum to 1 only to roundoff.
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
