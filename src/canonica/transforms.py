"""Numerical engines for the canonical transforms.

Two quadrature paths:

* ``chirp-fft``: modulate / FFT-convolve / modulate, using the quadratic
  phase decomposition of the linear kernel.  Default for oscillatory
  linear-kernel transforms on uniform full-line grids whose input and
  output steps match.
* ``gauss-legendre``: composite Gauss-Legendre panels over the input grid
  support, with the sampled field interpolated onto the quadrature nodes
  by a quintic spline.  Panels are sized so each spans at most pi/4 of
  kernel phase at the fastest output point.

Bessel-I kernels are evaluated through the exponentially scaled form, so
heat-type kernels never overflow.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import make_interp_spline
from scipy.signal import fftconvolve

from . import specfun
from .common import (
    DivergenceRisk,
    GeometryMismatch,
    IntegrabilityViolation,
    TruncationWarning,
)
from .fields import (
    AnalyticField,
    Grid1D,
    GridKind,
    Linear,
    Radial,
    RadialDim,
    RadialType,
    SampledField,
)
from .symplectic import SympMat2, mat_fourier, mat_free, mat_laplace

GEOMETRIC_B_TOL = 1e-10
EDGE_WARN_LEVEL = 1e-6
MAX_EXPONENT = 700.0
_MAX_PANELS = 3000


@dataclass(frozen=True)
class QuadratureConfig:
    scheme: str = "auto"  # "auto" | "gauss-legendre" | "chirp-fft"
    panels: int | None = None
    nodes_per_panel: int = 64
    truncation_radius: float | None = None
    apodization: float | None = None  # Gaussian width; None disables

    def __post_init__(self):
        if self.scheme not in ("auto", "gauss-legendre", "chirp-fft"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.panels is not None and self.panels < 1:
            raise ValueError("panels must be positive")
        if self.nodes_per_panel < 2:
            raise ValueError("nodes_per_panel must be at least 2")
        if self.truncation_radius is not None and self.truncation_radius <= 0:
            raise ValueError("truncation_radius must be positive")
        if self.apodization is not None and self.apodization <= 0:
            raise ValueError("apodization width must be positive")


DEFAULT_CONFIG = QuadratureConfig()


def default_apodization(grid: Grid1D) -> float:
    """Quarter-span Gaussian width used for non-decaying analytic sources."""
    return grid.span / 4.0


# ---------------------------------------------------------------------------
# transform specifications

@dataclass(frozen=True)
class LinearCT:
    matrix: SympMat2


@dataclass(frozen=True)
class Geometric:
    matrix: SympMat2


@dataclass(frozen=True)
class FresnelProp:
    zeta: float


@dataclass(frozen=True)
class FrFT:
    alpha: float


@dataclass(frozen=True)
class FrLaplace:
    alpha: float


@dataclass(frozen=True)
class PoissonProp:
    t: float

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("diffusion time must be positive")


@dataclass(frozen=True)
class RadialCT:
    matrix: SympMat2
    n_dim: float
    m: int


@dataclass(frozen=True)
class Hankel:
    m: int


@dataclass(frozen=True)
class FrHankel:
    m: int
    alpha: float


@dataclass(frozen=True)
class HankelType:
    kind: int
    nu: float
    nu_prime: float

    def __post_init__(self):
        if self.kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        if self.nu < -0.5:
            raise ValueError("nu must be >= -1/2")


@dataclass(frozen=True)
class RadialLaplace:
    kind: int
    nu: float
    nu_prime: float

    def __post_init__(self):
        if self.kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        if self.nu < -0.5:
            raise ValueError("nu must be >= -1/2")


@dataclass(frozen=True)
class FrRadialLaplace:
    """Fractional-order version of the first radial-Laplace-type transform."""

    alpha: float
    nu: float
    nu_prime: float


@dataclass(frozen=True)
class BesselExp:
    """Kernel representation of exp(beta * B^dagger_{nu,nu'}).

    beta > 0 is the real heat-like regime; the string tag "i/2" selects the
    quarter-turn continuation, whose oscillatory kernel conjugates to the
    first Hankel-type transform.
    """

    beta: float | str
    nu: float
    nu_prime: float

    def __post_init__(self):
        if self.beta == "i/2":
            return
        if not isinstance(self.beta, (int, float)) or self.beta <= 0:
            raise ValueError("beta must be positive or the tag 'i/2'")


@dataclass(frozen=True)
class RadialHeatProp:
    t: float
    mu: float

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("diffusion time must be positive")
        if self.mu <= 1:
            raise ValueError("mu must exceed 1")


@dataclass(frozen=True)
class BarutGirardello:
    n_dim: float
    m: int


TransformSpec = (
    LinearCT | Geometric | FresnelProp | FrFT | FrLaplace | PoissonProp
    | RadialCT | Hankel | FrHankel | HankelType | RadialLaplace
    | FrRadialLaplace | BesselExp | RadialHeatProp | BarutGirardello
)


# ---------------------------------------------------------------------------
# quadrature plumbing

def _panel_count(cfg: QuadratureConfig, phase_total: float, count: int) -> int:
    if cfg.panels is not None:
        return cfg.panels
    by_phase = math.ceil(abs(phase_total) / (math.pi / 4.0))
    by_field = math.ceil(count / cfg.nodes_per_panel)
    return min(max(by_phase, by_field, 4), _MAX_PANELS)


def _gl_nodes(lo: float, hi: float, panels: int, nodes: int):
    base_x, base_w = leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xq = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    wq = (half[:, None] * base_w[None, :]).ravel()
    return xq, wq


def _interpolant(field: SampledField):
    x = field.grid.points
    k = min(5, field.grid.count - 1)
    spl = make_interp_spline(x, field.values, k=k)

    def ev(pts):
        pts = np.asarray(pts, dtype=float)
        inside = (pts >= x[0]) & (pts <= x[-1])
        out = np.zeros(pts.shape, dtype=complex)
        if np.any(inside):
            out[inside] = spl(pts[inside])
        return out

    return ev


def _edge_check(field: SampledField, cfg: QuadratureConfig):
    peak = float(np.max(np.abs(field.values)))
    if peak == 0.0:
        return
    if field.grid.kind == GridKind.HALF_LINE:
        edge = abs(field.values[-1]) / peak  # the axis end is not a truncation edge
    else:
        edge = max(abs(field.values[0]), abs(field.values[-1])) / peak
    if cfg.apodization is None and edge > EDGE_WARN_LEVEL:
        warnings.warn(
            f"field magnitude at grid edge is {edge:.2e} of peak; "
            "widen the grid or enable apodization",
            TruncationWarning,
            stacklevel=3,
        )


def _source_nodes(field: SampledField, cfg: QuadratureConfig, phase_total: float,
                  edge_check: bool = True):
    """Quadrature nodes/weights and interpolated (optionally apodized) samples.

    Truncation and apodization are centred on the axis for half-line grids
    and on the grid midpoint for full-line grids.
    """
    if edge_check:
        _edge_check(field, cfg)
    lo, hi = field.grid.start, field.grid.end
    center = 0.0 if field.grid.kind == GridKind.HALF_LINE else 0.5 * (lo + hi)
    if cfg.truncation_radius is not None:
        lo = max(lo, center - cfg.truncation_radius)
        hi = min(hi, center + cfg.truncation_radius)
    panels = _panel_count(cfg, phase_total, field.grid.count)
    xq, wq = _gl_nodes(lo, hi, panels, cfg.nodes_per_panel)
    fq = _interpolant(field)(xq)
    if cfg.apodization is not None:
        fq = fq * np.exp(-((xq - center) ** 2) / (2.0 * cfg.apodization**2))
    return xq, wq, fq


def _guarded_exp(expo: np.ndarray) -> np.ndarray:
    if float(np.max(expo.real)) > MAX_EXPONENT:
        raise DivergenceRisk("kernel exponent overflows double precision")
    return np.exp(expo)


def _require_full_line(field: SampledField):
    if field.grid.kind != GridKind.FULL_LINE or not isinstance(field.geometry, Linear):
        raise GeometryMismatch("linear transform needs a full-line, linear-geometry field")


def _require_half_line(field: SampledField):
    if field.grid.kind != GridKind.HALF_LINE:
        raise GeometryMismatch("radial transform needs a half-line field")


def _check_radial_index(field: SampledField, m: int):
    geo = field.geometry
    if isinstance(geo, (Radial, RadialDim)) and geo.m != m:
        raise GeometryMismatch(f"field azimuthal index {geo.m} != transform order {m}")


def _kernel_beats_growth(field: SampledField, xq, wq, fq, kern_tail_expo):
    """Reject sampled inputs whose growth outruns a decaying kernel.

    kern_tail_expo(y) is the most pessimistic kernel exponent over the output
    grid; if |f(y)| e^{expo(y)} peaks in the outer 5% of the nodes, the
    integral is dominated by the truncated tail and cannot be trusted.
    """
    mag = np.abs(fq)
    if not np.any(mag > 0):
        return
    with np.errstate(divide="ignore"):
        score = np.log(np.where(mag > 0, mag, np.min(mag[mag > 0]))) + kern_tail_expo(xq)
    peak = int(np.argmax(score))
    if peak >= int(0.95 * (len(xq) - 1)) and score[peak] > score[len(xq) // 2] + 1.0:
        raise DivergenceRisk(
            "input growth outruns the kernel decay; the truncated tail dominates"
        )


def _require_gaussian_decay(field: SampledField, rate: float = 0.25):
    """Reject inputs that cannot tame an exp(+r r') kernel.

    The field must decay faster than exp(-rate * r^2) over the outer fifth
    of its grid and be negligible at the edge.
    """
    r = field.grid.points
    mag = np.abs(field.values)
    peak = float(mag.max())
    if peak == 0.0:
        return
    j = int(0.8 * (len(r) - 1))
    scaled = mag * np.exp(rate * r**2)
    if scaled[-1] > scaled[j] * (1.0 + 1e-9) or mag[-1] > 1e-8 * peak:
        raise DivergenceRisk(
            "input does not decay like exp(-r^2/4); the Bessel-I kernel integral is untrustworthy"
        )


# ---------------------------------------------------------------------------
# linear-kernel engines

def _integrability(mat: SympMat2):
    if mat.is_real():
        return
    if mat.is_l_form():
        # Laplace-family matrices sit on/outside the Im(A/B) >= 0 boundary;
        # they are admitted with convergence delegated to the input's
        # Gaussian decay, checked separately.
        return
    if abs(mat.a) <= GEOMETRIC_B_TOL:
        if abs(mat.b.imag) > 1e-12:
            raise IntegrabilityViolation("complex matrix with A = 0 needs real B")
        return
    ratio = mat.a / mat.b
    if ratio.imag < -1e-12:
        raise IntegrabilityViolation(f"Im(A/B) = {ratio.imag} < 0")


def _tail_gaussian_rate(x: np.ndarray, mag: np.ndarray) -> float:
    """Estimated g of the tail envelope exp(-g x^2 / 2), min over both ends."""
    floor = float(np.max(mag)) * 1e-300 + 1e-300
    logm = np.log(np.maximum(mag, floor))
    n = len(x)
    rates = []
    for j1, j2 in ((int(0.75 * (n - 1)), n - 1), (int(0.25 * (n - 1)), 0)):
        dx2 = x[j2] ** 2 - x[j1] ** 2
        if abs(dx2) > 1e-12:
            rates.append(2.0 * (logm[j1] - logm[j2]) / dx2)
    return min(rates) if rates else 0.0


def _lform_support_check(mat: SympMat2, field: SampledField, outmax: float, xmax: float):
    """Convergence and support adequacy for real-exponent (L-form) kernels.

    The integrand exp((A x'^2 - 2 x x')/2B) f(x') needs the source decay
    rate g to beat A/B, and its stationary point x/(gB - A) (plus a couple
    of widths) to sit inside the sampled support.
    """
    a, b = mat.a.real, mat.b.imag
    g_est = _tail_gaussian_rate(field.grid.points, np.abs(field.values))
    lam = a / b
    if g_est <= lam + 1e-12:
        raise DivergenceRisk(
            f"source decay rate {g_est:.3f} does not beat the kernel growth {lam:.3f}"
        )
    peak = outmax / abs(b * (g_est - lam))
    width = 1.0 / math.sqrt(g_est - lam)
    if peak + 2.0 * width > xmax:
        warnings.warn(
            f"kernel stationary point {peak:.2f} (+2 widths) exceeds the source "
            f"support {xmax:.2f}; shrink the output window or widen the source grid",
            TruncationWarning,
            stacklevel=4,
        )


def _linear_phase_total(mat: SympMat2, xmax: float, outmax: float) -> float:
    return (abs(mat.a) * xmax**2 + 2.0 * outmax * xmax) / (2.0 * abs(mat.b))


def _linear_ct_gl(mat: SympMat2, field: SampledField, out_x: np.ndarray,
                  cfg: QuadratureConfig, matching: complex) -> np.ndarray:
    xmax = max(abs(field.grid.start), abs(field.grid.end))
    outmax = float(np.max(np.abs(out_x))) if len(out_x) else 0.0
    if mat.is_l_form() and not mat.is_real():
        _lform_support_check(mat, field, outmax, xmax)
    xq, wq, fq = _source_nodes(field, cfg, _linear_phase_total(mat, xmax, outmax))
    b = mat.b
    expo = (0.5j / b) * (
        mat.a * xq[None, :] ** 2 + mat.d * out_x[:, None] ** 2
        - 2.0 * out_x[:, None] * xq[None, :]
    )
    kern = _guarded_exp(expo)
    pref = matching / cmath.sqrt(2j * math.pi * b)
    return pref * (kern @ (wq * fq))


def _linear_ct_chirp_fft(mat: SympMat2, field: SampledField, out_grid: Grid1D,
                         cfg: QuadratureConfig, matching: complex) -> np.ndarray:
    h = field.grid.step
    if abs(out_grid.step - h) > 1e-12 * h:
        raise ValueError("chirp-fft path needs matching input/output steps")
    _edge_check(field, cfg)
    x = field.grid.points
    f = field.values
    if cfg.apodization is not None:
        center = 0.5 * (x[0] + x[-1])
        f = f * np.exp(-((x - center) ** 2) / (2.0 * cfg.apodization**2))
    b = mat.b
    g = f * np.exp((0.5j / b) * (mat.a - 1.0) * x**2)
    n, m_out = field.grid.count, out_grid.count
    delta = out_grid.start - field.grid.start
    lags = delta + h * np.arange(-(n - 1), m_out)
    z = np.exp((0.5j / b) * lags**2)
    conv = fftconvolve(g, z)[n - 1 : n - 1 + m_out]
    pref = matching * h / cmath.sqrt(2j * math.pi * b)
    xo = out_grid.points
    return pref * np.exp((0.5j / b) * (mat.d - 1.0) * xo**2) * conv


def _use_chirp_fft(mat: SympMat2, field: SampledField, out_grid: Grid1D,
                   cfg: QuadratureConfig) -> bool:
    if cfg.scheme == "chirp-fft":
        return True
    if cfg.scheme != "auto":
        return False
    return (
        mat.is_real(1e-12)
        and field.grid.kind == GridKind.FULL_LINE
        and out_grid.kind == GridKind.FULL_LINE
        and abs(out_grid.step - field.grid.step) <= 1e-12 * field.grid.step
        and cfg.truncation_radius is None
    )


def linear_ct(mat: SympMat2, field: SampledField, out_grid: Grid1D,
              cfg: QuadratureConfig = DEFAULT_CONFIG, matching: complex = 1.0,
              evol_shift: float = 0.0) -> SampledField:
    """Apply the kernel transform of `mat` to a sampled linear-geometry field."""
    _require_full_line(field)
    if abs(mat.b) <= GEOMETRIC_B_TOL:
        return geometric(mat, field, out_grid)
    _integrability(mat)
    if _use_chirp_fft(mat, field, out_grid, cfg):
        vals = _linear_ct_chirp_fft(mat, field, out_grid, cfg, matching)
    else:
        vals = _linear_ct_gl(mat, field, out_grid.points, cfg, matching)
    return SampledField(out_grid, vals, field.geometry, field.evol + evol_shift)


def geometric(mat: SympMat2, field: SampledField, out_grid: Grid1D) -> SampledField:
    """Imaging-limit transform (B = 0): chirp modulation plus rescaling."""
    if abs(mat.b) > GEOMETRIC_B_TOL:
        raise ValueError("geometric transform needs B = 0")
    if abs(mat.a.imag) > 1e-12:
        raise ValueError("geometric resampling implemented for real A only")
    _require_full_line(field)
    a = mat.a.real
    x = field.grid.points
    pts = out_grid.points / a
    # band-limited (sinc) interpolation of the samples at the rescaled points
    interp = np.sinc((pts[:, None] - x[None, :]) / field.grid.step) @ field.values
    vals = interp * np.exp(0.5j * (mat.c / mat.a) * out_grid.points**2) / cmath.sqrt(complex(a))
    return SampledField(out_grid, vals, field.geometry, field.evol)


def fresnel_propagate(field: SampledField, zeta: float, out_grid: Grid1D,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    return linear_ct(mat_free(zeta), field, out_grid, cfg, evol_shift=zeta)


def frft(field: SampledField, alpha: float, out_grid: Grid1D,
         cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Fractional Fourier transform, mathematical normalization."""
    phi = alpha * math.pi / 2.0
    return linear_ct(mat_fourier(alpha), field, out_grid, cfg,
                     matching=cmath.exp(0.5j * phi))


def fr_laplace(field: SampledField, alpha: float, out_grid: Grid1D,
               cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Fractional bilateral Laplace transform on a real output grid.

    Carries the i^(alpha/2) matching factor, so alpha = 1 reproduces
    (2 pi i)^(-1/2) times the bilateral Laplace integral.
    """
    matching = cmath.exp(0.25j * math.pi * alpha)
    return linear_ct(mat_laplace(alpha), field, out_grid, cfg, matching=matching)


def poisson_propagate(field, t: float, out_grid: Grid1D,
                      cfg: QuadratureConfig = DEFAULT_CONFIG,
                      source_evol: float = 0.0) -> SampledField:
    """Diffuse by t > 0: Gaussian-kernel convolution of the input data.

    Sampled inputs integrate over their grid support; analytic or callable
    inputs use Gauss-Hermite quadrature, which is exact for polynomials.
    """
    if t <= 0:
        raise ValueError("diffusion time must be positive")
    xo = out_grid.points
    if isinstance(field, SampledField):
        _require_full_line(field)
        xq, wq, fq = _source_nodes(field, cfg, 0.0, edge_check=False)
        xo_min, xo_max = float(np.min(xo)), float(np.max(xo))
        _kernel_beats_growth(field, xq, wq, fq,
                             lambda y: -np.minimum((y - xo_max) ** 2, (y - xo_min) ** 2) / (2.0 * t))
        kern = _guarded_exp(-((xo[:, None] - xq[None, :]) ** 2) / (2.0 * t))
        vals = (kern @ (wq * fq)) / math.sqrt(2.0 * math.pi * t)
        return SampledField(out_grid, vals, field.geometry, field.evol + t)
    if isinstance(field, AnalyticField):
        fn = lambda y: field.eval(y, source_evol)  # noqa: E731
    else:
        fn = field
    nodes, weights = hermgauss(max(64, cfg.nodes_per_panel))
    shift = math.sqrt(2.0 * t) * nodes
    vals = np.zeros(len(xo), dtype=complex)
    for s, w in zip(shift, weights):
        vals += w * np.asarray(fn(xo + s), dtype=complex)
    vals /= math.sqrt(math.pi)
    return SampledField(out_grid, vals, Linear(), source_evol + t)


# ---------------------------------------------------------------------------
# radial engines

def _bessel_sum(name: str, ro: np.ndarray, nodes, bessel, nu: float, k: float,
                expo=None, cross: float = 0.0, row: float = 0.0,
                col: float = 0.0) -> np.ndarray:
    """Quadrature of the radial kernel shared by the Bessel-J and Bessel-I engines.

    Returns sum_j exp(expo(r, y_j)) Z_nu(|k| r y_j) (r y_j)^cross r^row y_j^col
    w_j f_j for every output point r, with Z = specfun.bessel_j or
    specfun.bessel_i_scaled; Bessel-I engines fold the +|k| r y of the scaled
    function into expo.  On the axis the kernel behaves like r^(nu+cross+row):
    a positive power gives a zero row, power zero the finite limit
    (|k| y/2)^nu / Gamma(nu+1) y^cross y^col e^{expo(0, y)}, and a negative
    power has no finite value, so an r = 0 output point is rejected.
    """
    xq, wq, fq = nodes
    power = nu + cross + row
    axis = ro == 0.0
    if power < -1e-12 and np.any(axis):
        raise ValueError(f"{name}: output grid must start above r = 0 for these parameters")
    k = abs(k)
    wf = wq * fq if col == 0.0 else wq * xq**col * fq
    rxy = ro[:, None] * xq[None, :]
    kern = bessel(nu, rxy if k == 1.0 else k * rxy)
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 rows are set below
        if cross != 0.0:
            kern *= rxy**cross
        if expo is not None:
            ekern = _guarded_exp(expo(ro[:, None], xq[None, :]))
            ekern *= kern
            kern = ekern
        vals = kern @ wf
        if row != 0.0:
            vals *= ro**row
    if np.any(axis):
        if abs(power) <= 1e-12:
            limit = (0.5 * k * xq) ** nu / math.gamma(nu + 1.0) * xq**cross
            if expo is not None:
                limit = limit * _guarded_exp(expo(0.0, xq))
            vals[axis] = limit @ wf
        else:
            vals[axis] = 0.0
    return vals


def hankel(field: SampledField, m: int, out_grid: Grid1D,
           cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Hankel transform of order m with the r' dr' measure."""
    _require_half_line(field)
    _check_radial_index(field, m)
    ro = out_grid.points
    nodes = _source_nodes(field, cfg, field.grid.end * float(np.max(ro)))
    vals = _bessel_sum("hankel", ro, nodes, specfun.bessel_j, m, 1.0, col=1.0)
    return SampledField(out_grid, vals, field.geometry, field.evol)


def _resample_half_line(field: SampledField, out_grid: Grid1D) -> SampledField:
    vals = _interpolant(field)(out_grid.points)
    return SampledField(out_grid, vals, field.geometry, field.evol)


def fr_hankel(field: SampledField, m: int, alpha: float, out_grid: Grid1D,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Fractional Hankel transform of order m (2-periodic in alpha)."""
    _require_half_line(field)
    _check_radial_index(field, m)
    phi = alpha * math.pi / 2.0
    s, c = math.sin(phi), math.cos(phi)
    if abs(s) <= GEOMETRIC_B_TOL:
        return _resample_half_line(field, out_grid)
    ro = out_grid.points
    nodes = _source_nodes(
        field, cfg,
        (abs(c) * field.grid.end**2 + 2 * field.grid.end * float(np.max(ro))) / (2 * abs(s)),
    )
    sign = (-1.0) ** m if s < 0 else 1.0
    pref = cmath.exp(1j * (m + 1) * (phi - math.pi / 2.0)) / s
    vals = _bessel_sum("fr_hankel", ro, nodes, specfun.bessel_j, m, 1.0 / s,
                       expo=lambda x, y: (0.5j * c / s) * (y**2 + x**2), col=1.0)
    return SampledField(out_grid, pref * sign * vals, field.geometry, field.evol)


def radial_ct(field: SampledField, mat: SympMat2, n_dim: float, m_idx: int,
              out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG,
              evol_shift: float = 0.0) -> SampledField:
    """Radial canonical transform for a real matrix, dimension n, index m.

    Kernel ((-i)^(m+n/2)/B) (r r')^(1-n/2) exp(i(A r'^2 + D r^2)/2B)
    J_{n/2+m-1}(r r'/B) against the r'^(n-1) dr' measure; A acts on the
    input variable, matching the radial diffraction-integral convention.
    """
    _require_half_line(field)
    _check_radial_index(field, m_idx)
    if not mat.is_real(1e-12):
        raise ValueError("radial_ct handles real matrices; use the Laplace-type kernels otherwise")
    if abs(mat.b) <= GEOMETRIC_B_TOL:
        return _radial_geometric(field, mat, n_dim, m_idx, out_grid)
    a, b, d = mat.a.real, mat.b.real, mat.d.real
    nu = n_dim / 2.0 + m_idx - 1.0
    if b < 0 and abs(nu - round(nu)) > 1e-9:
        raise ValueError("negative B with non-integer Bessel order is not supported")
    sign = (-1.0) ** round(nu) if b < 0 else 1.0  # J_nu parity for negative kernel argument
    ro = out_grid.points
    nodes = _source_nodes(
        field, cfg,
        (abs(a) * field.grid.end**2 + abs(d) * float(np.max(ro)) ** 2
         + 2 * field.grid.end * float(np.max(ro))) / (2 * abs(b)),
    )
    pref = (-1j) ** (m_idx + n_dim / 2.0) / b
    vals = _bessel_sum("radial_ct", ro, nodes, specfun.bessel_j, nu, 1.0 / b,
                       expo=lambda x, y: (0.5j / b) * (a * y**2 + d * x**2),
                       cross=1.0 - n_dim / 2.0, col=n_dim - 1.0)
    return SampledField(out_grid, pref * sign * vals, field.geometry, field.evol + evol_shift)


def _radial_geometric(field: SampledField, mat: SympMat2, n_dim: float, m_idx: int,
                      out_grid: Grid1D) -> SampledField:
    a = mat.a.real
    pts = out_grid.points / abs(a)
    interp = _interpolant(field)(pts)
    parity = (-1.0) ** m_idx if a < 0 else 1.0
    pref = parity * complex(a) ** (-n_dim / 2.0)
    vals = pref * np.exp(0.5j * (mat.c / mat.a) * out_grid.points**2) * interp
    return SampledField(out_grid, vals, field.geometry, field.evol)


def radial_propagate(field: SampledField, zeta: float, m_idx: int, out_grid: Grid1D,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Free propagation of a radial wavefunction by zeta (Bessel-J kernel)."""
    return radial_ct(field, mat_free(zeta), 2.0, m_idx, out_grid, cfg, evol_shift=zeta)


def hankel_type(field: SampledField, kind: int, nu: float, nu_prime: float,
                out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """First or second Hankel-type transform of order nu, parameter nu'."""
    _require_half_line(field)
    geo = field.geometry
    if isinstance(geo, RadialType) and (abs(geo.nu - nu) > 1e-12 or abs(geo.nu_prime - nu_prime) > 1e-12):
        raise GeometryMismatch("field radial-type parameters do not match the transform")
    ro = out_grid.points
    nodes = _source_nodes(field, cfg, field.grid.end * float(np.max(ro)))
    weight = 1.0 + 2.0 * nu_prime  # on the output variable (kind 1) or the input (kind 2)
    vals = _bessel_sum("hankel_type", ro, nodes, specfun.bessel_j, nu, 1.0, cross=-nu_prime,
                       row=weight if kind == 1 else 0.0, col=0.0 if kind == 1 else weight)
    return SampledField(out_grid, vals, field.geometry, field.evol)


def radial_laplace(field: SampledField, kind: int, nu: float, nu_prime: float,
                   out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Radial-Laplace-type transform (Bessel-I kernel, phase exp(-i pi (1+nu)))."""
    _require_half_line(field)
    _require_gaussian_decay(field)
    ro = out_grid.points
    nodes = _source_nodes(field, cfg, 0.0)
    weight = 1.0 + 2.0 * nu_prime
    vals = _bessel_sum("radial_laplace", ro, nodes, specfun.bessel_i_scaled, nu, 1.0,
                       expo=lambda x, y: x * y, cross=-nu_prime,
                       row=weight if kind == 1 else 0.0, col=0.0 if kind == 1 else weight)
    phase = cmath.exp(-1j * math.pi * (1.0 + nu))
    return SampledField(out_grid, phase * vals, field.geometry, field.evol)


def fr_radial_laplace(field: SampledField, alpha: float, nu: float, nu_prime: float,
                      out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Fractional first radial-Laplace-type transform.

    Realizes the radial canonical transform of the hyperbolic-rotation matrix
    [[cos phi, i sin phi], [i sin phi, cos phi]]; alpha = 1 coincides with
    radial_laplace(kind=1).
    """
    _require_half_line(field)
    _require_gaussian_decay(field)
    phi = alpha * math.pi / 2.0
    s, c = math.sin(phi), math.cos(phi)
    if abs(s) <= GEOMETRIC_B_TOL:
        return _resample_half_line(field, out_grid)
    ro = out_grid.points
    nodes = _source_nodes(field, cfg, 0.0)
    vals = _bessel_sum("fr_radial_laplace", ro, nodes, specfun.bessel_i_scaled, nu, 1.0 / s,
                       expo=lambda x, y: (0.5 * c / s) * (y**2 + x**2) + x * y / abs(s),
                       cross=-nu_prime, row=1.0 + 2.0 * nu_prime)
    # phase of the J -> I rotation folded with the kernel's (-i)^(m+n/2)/B
    phase = cmath.exp(-0.5j * math.pi * (nu + 1.0)) / (1j * s) \
        * cmath.exp(-0.5j * math.pi * math.copysign(1.0, s) * nu)
    return SampledField(out_grid, phase * vals, field.geometry, field.evol)


def bessel_exp(field: SampledField, beta: float, nu: float, nu_prime: float,
               out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Functional form of exp(beta B^dagger): Gaussian-I kernel, beta > 0."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    _require_half_line(field)
    ro = out_grid.points
    nodes = _source_nodes(field, cfg, 0.0, edge_check=False)
    ro_max = float(np.max(ro))
    _kernel_beats_growth(field, *nodes, lambda y: -((y - ro_max) ** 2) / (4.0 * beta))
    vals = _bessel_sum("bessel_exp", ro, nodes, specfun.bessel_i_scaled, nu, 1.0 / (2.0 * beta),
                       expo=lambda x, y: -((x - y) ** 2) / (4.0 * beta),
                       cross=-nu_prime, row=1.0 + 2.0 * nu_prime)
    return SampledField(out_grid, vals / (2.0 * beta), field.geometry, field.evol)


def bessel_exp_quarter_turn(field: SampledField, nu: float, nu_prime: float,
                            out_grid: Grid1D,
                            cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """exp((i/2) B^dagger): the oscillatory continuation of the heat kernel.

    Kernel -i e^{-i pi nu/2} x^{1+2nu'} (xy)^{-nu'} e^{i(x^2+y^2)/2} J_nu(xy);
    sandwiching it between e^{-i x^2/2} modulations and the i^{nu+1} factor
    reproduces the first Hankel-type transform.
    """
    _require_half_line(field)
    ro = out_grid.points
    nodes = _source_nodes(field, cfg, field.grid.end * float(np.max(ro)))
    vals = _bessel_sum("bessel_exp_quarter_turn", ro, nodes, specfun.bessel_j, nu, 1.0,
                       expo=lambda x, y: 0.5j * (x**2 + y**2),
                       cross=-nu_prime, row=1.0 + 2.0 * nu_prime)
    phase = -1j * cmath.exp(-0.5j * math.pi * nu)
    return SampledField(out_grid, phase * vals, field.geometry, field.evol)


def radial_heat_propagate(field, t: float, mu: float, out_grid: Grid1D,
                          cfg: QuadratureConfig = DEFAULT_CONFIG,
                          source_evol: float = 0.0) -> SampledField:
    """Diffuse a radial profile by t > 0 in effective dimension mu."""
    if t <= 0:
        raise ValueError("diffusion time must be positive")
    if mu <= 1:
        raise ValueError("mu must exceed 1")
    ro = out_grid.points
    if isinstance(field, SampledField):
        _require_half_line(field)
        nodes = _source_nodes(field, cfg, 0.0, edge_check=False)
        ro_max = float(np.max(ro))
        _kernel_beats_growth(field, *nodes, lambda y: -((y - ro_max) ** 2) / (2.0 * t))
        evol = field.evol + t
        geometry = field.geometry
    else:
        hi = out_grid.end + 12.0 * math.sqrt(t)
        panels = _panel_count(cfg, 0.0, out_grid.count)
        xq, wq = _gl_nodes(0.0, hi, panels, cfg.nodes_per_panel)
        fn = (lambda y: field.eval(y, source_evol)) if isinstance(field, AnalyticField) else field
        nodes = (xq, wq, np.asarray(fn(xq), dtype=complex))
        evol = source_evol + t
        geometry = RadialDim(mu, 0)
    vals = _bessel_sum("radial_heat_propagate", ro, nodes, specfun.bessel_i_scaled,
                       mu / 2.0 - 1.0, 1.0 / t, expo=lambda x, y: -((x - y) ** 2) / (2.0 * t),
                       row=1.0 - mu / 2.0, col=mu / 2.0)
    return SampledField(out_grid, vals / t, geometry, evol)


def barut_girardello(field: SampledField, n_dim: float, m_idx: int, out_grid: Grid1D,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Bessel-I radial transform built on the Bargmann matrix, forward direction."""
    _require_half_line(field)
    _require_gaussian_decay(field)
    ro = out_grid.points
    nodes = _source_nodes(field, cfg, 0.0)
    vals = _bessel_sum("barut_girardello", ro, nodes, specfun.bessel_i_scaled,
                       n_dim / 2.0 + m_idx - 1.0, math.sqrt(2.0),
                       expo=lambda x, y: -0.5 * (x**2 + y**2) + math.sqrt(2.0) * x * y,
                       cross=1.0 - n_dim / 2.0)
    return SampledField(out_grid, math.sqrt(2.0) * vals, field.geometry, field.evol)


# ---------------------------------------------------------------------------
# dispatch

# CLI name -> (spec class, engine call).  Each call looks its engine up by the
# module-global name when it runs, so a rebound engine is what apply reaches.
TRANSFORMS = {
    "linear-ct": (LinearCT, lambda s, f, g, c: linear_ct(s.matrix, f, g, c)),
    "geometric": (Geometric, lambda s, f, g, c: geometric(s.matrix, f, g)),
    "fresnel-prop": (FresnelProp, lambda s, f, g, c: fresnel_propagate(f, s.zeta, g, c)),
    "frft": (FrFT, lambda s, f, g, c: frft(f, s.alpha, g, c)),
    "fr-laplace": (FrLaplace, lambda s, f, g, c: fr_laplace(f, s.alpha, g, c)),
    "poisson-prop": (PoissonProp, lambda s, f, g, c: poisson_propagate(f, s.t, g, c)),
    "radial-ct": (RadialCT, lambda s, f, g, c: radial_ct(f, s.matrix, s.n_dim, s.m, g, c)),
    "hankel": (Hankel, lambda s, f, g, c: hankel(f, s.m, g, c)),
    "fr-hankel": (FrHankel, lambda s, f, g, c: fr_hankel(f, s.m, s.alpha, g, c)),
    "hankel-type": (HankelType,
                    lambda s, f, g, c: hankel_type(f, s.kind, s.nu, s.nu_prime, g, c)),
    "radial-laplace": (RadialLaplace,
                       lambda s, f, g, c: radial_laplace(f, s.kind, s.nu, s.nu_prime, g, c)),
    "fr-radial-laplace": (FrRadialLaplace, lambda s, f, g, c: fr_radial_laplace(
        f, s.alpha, s.nu, s.nu_prime, g, c)),
    "bessel-exp": (BesselExp, lambda s, f, g, c: (
        bessel_exp_quarter_turn(f, s.nu, s.nu_prime, g, c) if s.beta == "i/2"
        else bessel_exp(f, s.beta, s.nu, s.nu_prime, g, c))),
    "radial-heat-prop": (RadialHeatProp,
                         lambda s, f, g, c: radial_heat_propagate(f, s.t, s.mu, g, c)),
    "barut-girardello": (BarutGirardello,
                         lambda s, f, g, c: barut_girardello(f, s.n_dim, s.m, g, c)),
}


def apply(spec: TransformSpec, field: SampledField, out_grid: Grid1D,
          cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Apply a transform specification to a sampled field."""
    for spec_cls, run in TRANSFORMS.values():
        if type(spec) is spec_cls:
            return run(spec, field, out_grid, cfg)
    raise TypeError(f"unknown transform spec {spec!r}")


def with_evol(field: SampledField, evol: float) -> SampledField:
    return replace(field, evol=evol)
