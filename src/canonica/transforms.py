"""Numerical engines for the canonical transforms.

Every transform runs through one of three paths:

* ``chirp-fft``: modulate / FFT-convolve / modulate, using the quadratic
  phase decomposition of the linear kernel.  Default for oscillatory
  linear-kernel transforms on uniform full-line grids whose input and
  output steps match.
* ``gauss-legendre``: the linear or radial kernel on composite
  Gauss-Legendre panels over the input grid support, with the sampled field
  interpolated onto the quadrature nodes by a quintic spline.  Panels are
  sized so each spans at most pi/4 of kernel phase at the fastest output
  point; real-exponent (L-form) kernels have no phase and are sized by the
  sample count alone.  Only Gaussian-convolution kernels accept a callable
  f(y): it is evaluated on panels over the output window widened by
  12 sqrt(tau), starting at the axis on half-line grids.
* B = 0: the point map of the kernel, read off the field's quintic spline.

Bessel-I kernels are evaluated through the exponentially scaled form, so
heat-type kernels never overflow, and real kernels are applied in float64.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import fft

from . import specfun
from .common import (
    DivergenceRisk,
    GeometryMismatch,
    IntegrabilityViolation,
    TruncationWarning,
)
from .fields import (
    Grid1D,
    GridKind,
    Linear,
    Radial,
    RadialDim,
    RadialType,
    SampledField,
)
from .symplectic import (
    SympMat2,
    mat_bargmann,
    mat_fourier,
    mat_free,
    mat_laplace,
    mat_poisson,
    reduce_order,
)

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

def _real_exponent(mat: SympMat2) -> bool:
    """True for L-form matrices with imaginary B, whose kernels do not oscillate."""
    return mat.is_l_form() and not mat.is_real()


def _gaussian_variance(mat: SympMat2) -> float | None:
    """tau when `mat` is the Gaussian convolution [[1, -i tau], [0, 1]], tau > 0, else None."""
    if _real_exponent(mat) and mat.a == 1.0 and mat.d == 1.0 and mat.b.imag < 0.0:
        return -mat.b.imag
    return None


def _panel_count(cfg: QuadratureConfig, mat: SympMat2, xmax: float, outmax: float,
                 count: int) -> int:
    """Panels over the source: at most pi/4 of kernel phase each, and at least
    one per nodes_per_panel samples.

    The phase of the kernel of `mat` across a source |y| <= xmax at the
    fastest output point |x| <= outmax is (|A| xmax^2 + 2 outmax xmax)/(2|B|);
    real-exponent (L-form) kernels have none.  A count above _MAX_PANELS is
    capped with a TruncationWarning.
    """
    if cfg.panels is not None:
        return cfg.panels
    phase = 0.0 if _real_exponent(mat) else (
        (abs(mat.a) * xmax**2 + 2.0 * outmax * xmax) / (2.0 * abs(mat.b)))
    by_phase = math.ceil(phase / (math.pi / 4.0))
    by_field = math.ceil(count / cfg.nodes_per_panel)
    wanted = max(by_phase, by_field, 4)
    if wanted > _MAX_PANELS:
        warnings.warn(f"the kernel asks for {wanted} quadrature panels; {_MAX_PANELS} are used, "
                      "which under-resolves its phase", TruncationWarning, stacklevel=4)
    return min(wanted, _MAX_PANELS)


def _gl_nodes(lo: float, hi: float, panels: int, nodes: int):
    base_x, base_w = leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xq = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    wq = (half[:, None] * base_w[None, :]).ravel()
    return xq, wq


def _interpolant(field: SampledField):
    from scipy.interpolate import make_interp_spline  # slow to import; only the spline paths need it

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


def _kernel_nodes(field, cfg: QuadratureConfig, mat: SympMat2, out_grid: Grid1D):
    """Quadrature nodes, weights and input values for the kernel of `mat`,
    behind the guard the matrix calls for.

    A Gaussian convolution gets the growth guard and alone accepts a callable
    f(y) (rule in the module docstring).  Other kernels get the edge check,
    after the convergence and support check if L-form.  Truncation and
    apodization are centred on the axis (half-line) or the grid midpoint.
    """
    out_x = out_grid.points
    outmax = float(np.max(np.abs(out_x)))
    tau = _gaussian_variance(mat)
    if not isinstance(field, SampledField):
        if tau is None:
            raise TypeError("only Gaussian-convolution kernels accept a callable input")
        reach = 12.0 * math.sqrt(tau)
        lo = 0.0 if out_grid.kind == GridKind.HALF_LINE else out_grid.start - reach
        hi = out_grid.end + reach
        panels = _panel_count(cfg, mat, max(abs(lo), abs(hi)), outmax, out_grid.count)
        xq, wq = _gl_nodes(lo, hi, panels, cfg.nodes_per_panel)
        return xq, wq, np.asarray(field(xq), dtype=complex)
    lo, hi = field.grid.start, field.grid.end
    xmax = max(abs(lo), abs(hi))
    if tau is None:
        if _real_exponent(mat):
            _lform_support_check(mat, field, outmax, xmax)
        _edge_check(field, cfg)
    center = 0.0 if field.grid.kind == GridKind.HALF_LINE else 0.5 * (lo + hi)
    panels = _panel_count(cfg, mat, xmax, outmax, field.grid.count)
    if cfg.truncation_radius is not None:
        lo = max(lo, center - cfg.truncation_radius)
        hi = min(hi, center + cfg.truncation_radius)
    xq, wq = _gl_nodes(lo, hi, panels, cfg.nodes_per_panel)
    fq = _interpolant(field)(xq)
    if cfg.apodization is not None:
        fq = fq * np.exp(-((xq - center) ** 2) / (2.0 * cfg.apodization**2))
    if tau is not None:
        # a half-line source has one tail, whose most pessimistic output point is the outer end
        ends = ((float(np.max(out_x)),) if field.grid.kind == GridKind.HALF_LINE
                else (float(np.min(out_x)), float(np.max(out_x))))
        _kernel_beats_growth(field, (xq, wq, fq), tau, ends)
    return xq, wq, fq


def _kernel_exponent(mat: SympMat2, x, y, xy: float):
    """Exponent i (A y^2 + D x^2 + xy x y) / 2B of a kernel of `mat`, or None when it is 0.

    The linear kernel has xy = -2.  The radial kernel leaves the x y term to
    its Bessel function (xy = 0), except that an L-form B = i beta restores
    the e^{x y/|beta|} the scaled I_nu leaves out (xy = 2 sgn beta).  The
    real L-form exponent (|xy| = 2) is computed as
    ((y + xy x/2)^2 + (A - 1) y^2 + (D - 1) x^2)/(2 beta), so that a Gaussian
    convolution (A = D = 1) gets -(y - x)^2/(2 tau) without cancellation.
    """
    if _real_exponent(mat):
        beta, a, d = mat.b.imag, mat.a.real, mat.d.real
        expo = y + 0.5 * xy * x
        np.square(expo, out=expo)
        if a != 1.0 or d != 1.0:
            expo += (a - 1.0) * y**2
            expo += (d - 1.0) * x**2
        expo /= 2.0 * beta
        return expo
    if mat.a == 0 and mat.d == 0 and xy == 0.0:
        return None
    expo = mat.a * y**2 + mat.d * x**2
    if xy:
        expo += xy * x * y
    expo *= 0.5j / mat.b
    return expo


def _guarded_exp(expo: np.ndarray) -> np.ndarray:
    """exp(expo), computed in place; DivergenceRisk if it would overflow."""
    if float(np.max(expo.real)) > MAX_EXPONENT:
        raise DivergenceRisk("kernel exponent overflows double precision")
    return np.exp(expo, out=expo)


def _matvec(kern: np.ndarray, v: np.ndarray) -> np.ndarray:
    """kern @ v for a complex v; a real kernel is applied to the real and imaginary
    parts in turn, since `real @ complex` first copies it to complex."""
    if np.isrealobj(kern):
        return kern @ v.real + 1j * (kern @ v.imag)
    return kern @ v


def _point_map(mat: SympMat2, field: SampledField, out_x: np.ndarray, power: float,
               nu: float) -> np.ndarray:
    """The B = 0 kernel of order nu, a point map: |A|^(-power) e^{i C x^2/2A}
    f(x/A), read off the field's spline; on a half-line grid the point is x/|A|.

    For A < 0 the kernel's B -> 0 limit depends on the side of B = 0 the
    matrix sits on: e^{-i pi (nu+1)} from B > 0 or B in i R+ (and at B = 0
    exactly), e^{+i pi (nu+1)} from B < 0 or B in -i R+, which is where the
    orders alpha = -2 of the fractional families land.  The linear kernel is
    the nu = -1/2 case, the limit -+i of (iB/A)^(1/2)/(iB)^(1/2).  The side
    is read from the sign of the residual B (|B| <= GEOMETRIC_B_TOL): for
    mat_fourier(+-2) and mat_laplace(+-2) that is the sign of sin(+-pi),
    which is the side alpha approaches from, but a matrix composed to B ~ 0
    gets the branch its rounding lands on.
    """
    a = mat.a.real
    pts = out_x / (abs(a) if field.grid.kind == GridKind.HALF_LINE else a)
    vals = (abs(a) ** (-power) * np.exp(0.5j * (mat.c / mat.a) * out_x**2)
            * _interpolant(field)(pts))
    if a < 0:
        side = -1.0 if (mat.b.real or mat.b.imag) < 0 else 1.0
        vals *= cmath.exp(-1j * math.pi * (nu + 1.0) * side)
    return vals


def _output(field, out_grid: Grid1D, vals: np.ndarray, evol_shift: float, geometry):
    """The output field; a callable input has no geometry of its own and evolution value 0."""
    if isinstance(field, SampledField):
        return SampledField(out_grid, vals, field.geometry, field.evol + evol_shift)
    return SampledField(out_grid, vals, geometry, evol_shift)


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


def _kernel_beats_growth(field: SampledField, nodes, tau: float, out_ends):
    """Reject sampled inputs whose growth outruns a Gaussian-convolution kernel.

    The kernel decays like exp(-(x - y)^2 / (2 tau)); its most pessimistic
    exponent is taken over the output points x in out_ends.  If
    |f(y)| e^{expo(y)} peaks in the outer 5% of the nodes at either end of a
    full-line grid, or at the outer end of a half-line grid (the axis is no
    tail), the integral is dominated by the truncated tail and cannot be
    trusted.
    """
    xq, _, fq = nodes
    mag = np.abs(fq)
    if not np.any(mag > 0):
        return
    tail = np.max([-((xq - x) ** 2) for x in out_ends], axis=0) / (2.0 * tau)
    with np.errstate(divide="ignore"):
        score = np.log(np.where(mag > 0, mag, np.min(mag[mag > 0]))) + tail
    peak, last = int(np.argmax(score)), len(xq) - 1
    in_tail = peak >= int(0.95 * last) or (
        field.grid.kind != GridKind.HALF_LINE and peak <= last - int(0.95 * last))
    if in_tail and score[peak] > score[len(xq) // 2] + 1.0:
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


def _tail_gaussian_rate(field: SampledField) -> float:
    """Estimated g of the tail envelope exp(-g x^2 / 2): the min over both ends
    of a full-line grid, the outer end of a half-line grid (the axis is no tail)."""
    x, mag = field.grid.points, np.abs(field.values)
    floor = float(np.max(mag)) * 1e-300 + 1e-300
    logm = np.log(np.maximum(mag, floor))
    n = len(x)
    ends = [(int(0.75 * (n - 1)), n - 1)]
    if field.grid.kind != GridKind.HALF_LINE:
        ends.append((int(0.25 * (n - 1)), 0))
    rates = []
    for j1, j2 in ends:
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
    g_est = _tail_gaussian_rate(field)
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


def _linear_ct_gl(mat: SympMat2, field, out_grid: Grid1D, cfg: QuadratureConfig,
                  matching: complex) -> np.ndarray:
    xq, wq, fq = _kernel_nodes(field, cfg, mat, out_grid)
    kern = _guarded_exp(_kernel_exponent(mat, out_grid.points[:, None], xq[None, :], -2.0))
    return matching / cmath.sqrt(2j * math.pi * mat.b) * _matvec(kern, wq * fq)


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
    size = fft.next_fast_len(n + len(z) - 1)
    conv = fft.ifft(fft.fft(g, size) * fft.fft(z, size))[n - 1 : n - 1 + m_out]
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
        vals = matching * geometric(mat, field, out_grid).values
    else:
        _integrability(mat)
        if _use_chirp_fft(mat, field, out_grid, cfg):
            vals = _linear_ct_chirp_fft(mat, field, out_grid, cfg, matching)
        else:
            vals = _linear_ct_gl(mat, field, out_grid, cfg, matching)
    return SampledField(out_grid, vals, field.geometry, field.evol + evol_shift)


def geometric(mat: SympMat2, field: SampledField, out_grid: Grid1D) -> SampledField:
    """Imaging-limit transform (B = 0): chirp modulation plus rescaling."""
    if abs(mat.b) > GEOMETRIC_B_TOL:
        raise ValueError("geometric transform needs B = 0")
    if abs(mat.a.imag) > 1e-12:
        raise ValueError("geometric resampling implemented for real A only")
    _require_full_line(field)
    vals = _point_map(mat, field, out_grid.points, 0.5, -0.5)
    return SampledField(out_grid, vals, field.geometry, field.evol)


def fresnel_propagate(field: SampledField, zeta: float, out_grid: Grid1D,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    return linear_ct(mat_free(zeta), field, out_grid, cfg, evol_shift=zeta)


def frft(field: SampledField, alpha: float, out_grid: Grid1D,
         cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Fractional Fourier transform, mathematical normalization.

    4-periodic in alpha: the order is reduced to (-2, 2] first, since the
    matching factor e^{i pi alpha/4} alone would flip sign under alpha + 4.
    """
    alpha = reduce_order(alpha)
    return linear_ct(mat_fourier(alpha), field, out_grid, cfg,
                     matching=cmath.exp(0.25j * math.pi * alpha))


def fr_laplace(field: SampledField, alpha: float, out_grid: Grid1D,
               cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Fractional bilateral Laplace transform on a real output grid.

    Carries the i^(alpha/2) matching factor, so alpha = 1 reproduces
    (2 pi i)^(-1/2) times the bilateral Laplace integral.  4-periodic in
    alpha, as `frft` is: the order is reduced to (-2, 2] first.
    """
    alpha = reduce_order(alpha)
    return linear_ct(mat_laplace(alpha), field, out_grid, cfg,
                     matching=cmath.exp(0.25j * math.pi * alpha))


def poisson_propagate(field, t: float, out_grid: Grid1D,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Diffuse by t > 0: the kernel transform of mat_poisson(t), a Gaussian
    convolution of the input data.

    A sampled field is integrated over its grid support, a callable f(y)
    over the output window widened by 12 sqrt(t).
    """
    if t <= 0:
        raise ValueError("diffusion time must be positive")
    if isinstance(field, SampledField):
        _require_full_line(field)
    vals = _linear_ct_gl(mat_poisson(t), field, out_grid, cfg, 1.0)
    return _output(field, out_grid, vals, t, Linear())


# ---------------------------------------------------------------------------
# radial engines
#
# Each radial engine is the kernel of one matrix: it names the matrix, the
# Bessel order nu, the weight powers (cross, row, col) of r y, r and y, and a
# matching factor (the table in the README's numerical notes).

_HANKEL_MAT = SympMat2(0.0, 1.0, -1.0, 0.0)
_RADIAL_LAPLACE_MAT = SympMat2(0.0, 1j, 1j, 0.0)


def _dim_weights(n_dim: float):
    """Weight powers (cross, row, col) of the n-dimensional radial kernel."""
    return (1.0 - n_dim / 2.0, 0.0, n_dim - 1.0)


def _type_weights(kind: int, nu_prime: float):
    """Weight powers (cross, row, col) of the first or second Hankel-type kernel."""
    if kind not in (1, 2):
        raise ValueError(f"kind must be 1 or 2, got {kind!r}")
    weight = 1.0 + 2.0 * nu_prime  # on the output variable (kind 1) or the input (kind 2)
    return (-nu_prime, weight, 0.0) if kind == 1 else (-nu_prime, 0.0, weight)


def _bessel_sum(name: str, mat: SympMat2, ro: np.ndarray, nodes, nu: float,
                weights) -> np.ndarray:
    """Quadrature of the radial kernel of `mat`, shared by every radial engine.

    Returns (-i)^(nu+1)/B sum_j e^{i(A y_j^2 + D r^2)/2B} J_nu(r y_j/B)
    (r y_j)^cross r^row y_j^col w_j f_j for every output point r.  Real B
    gives the Bessel-J kernel, with the J_nu parity (integer nu only) for
    B < 0.  An L-form B = i beta gives the Bessel-I kernel through
    J_nu(r y/(i beta)) = e^{-i pi nu sgn(beta)/2} I_nu(r y/|beta|), evaluated
    as the exponentially scaled I_nu.  On the axis the kernel behaves like
    r^(nu+cross+row): a positive power gives a zero row, power zero the finite
    limit (y/2|B|)^nu / Gamma(nu+1) y^cross y^col e^{expo(0, y)}, and a
    negative power has no finite value, so an r = 0 output point is rejected.
    """
    xq, wq, fq = nodes
    cross, row, col = weights
    power = nu + cross + row
    axis = ro == 0.0
    if power < -1e-12 and np.any(axis):
        raise ValueError(f"{name}: output grid must start above r = 0 for these parameters")
    if _real_exponent(mat):
        beta = mat.b.imag
        bessel, k, xy = specfun.bessel_i_scaled, 1.0 / abs(beta), 2.0 * math.copysign(1.0, beta)
        rotation = cmath.exp(-0.5j * math.pi * nu * math.copysign(1.0, beta))
        pref = (-1j) ** (nu + 1.0) / mat.b * rotation
    else:
        b = mat.b.real
        if b < 0 and abs(nu - round(nu)) > 1e-9:
            raise ValueError("negative B with non-integer Bessel order is not supported")
        bessel, k, xy = specfun.bessel_j, 1.0 / abs(b), 0.0
        pref = (-1j) ** (nu + 1.0) / b * ((-1.0) ** round(nu) if b < 0 else 1.0)
    wf = wq * fq if col == 0.0 else wq * xq**col * fq
    rxy = ro[:, None] * xq[None, :]
    kern = bessel(nu, rxy if k == 1.0 else k * rxy)
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 rows are set below
        if cross != 0.0:
            kern *= rxy**cross
        expo = _kernel_exponent(mat, ro[:, None], xq[None, :], xy)
        if expo is not None:
            ekern = _guarded_exp(expo)
            ekern *= kern
            kern = ekern
        vals = _matvec(kern, wf)
        if row != 0.0:
            vals *= ro**row
    if np.any(axis):
        if abs(power) <= 1e-12:
            limit = (0.5 * k * xq) ** nu / math.gamma(nu + 1.0) * xq**cross
            expo = _kernel_exponent(mat, 0.0, xq, xy)
            if expo is not None:
                limit = limit * _guarded_exp(expo)
            vals[axis] = limit @ wf
        else:
            vals[axis] = 0.0
    return pref * vals


def _radial(name: str, field, mat: SympMat2, out_grid: Grid1D, cfg: QuadratureConfig,
            nu: float, weights, matching: complex = 1.0, evol_shift: float = 0.0,
            geometry=None) -> SampledField:
    """Matching factor times the radial kernel of `mat` applied to a half-line
    field, or to a callable of the given `geometry` (Gaussian convolutions only).

    At B = 0 the kernel is the point map r -> r/|A|: |A|^(-cross-col)
    e^{i C r^2/2A} f(r/|A|), times e^{-i pi (nu+1)} for A < 0 (`_point_map`
    has the sign of the phase), where the stationary point comes from the
    other half of J_nu.  This form needs
    2 cross + row + col = 1, which holds for every engine that reaches B = 0.

    Towards the input axis the kernel behaves like y^(nu+cross+col).  A power
    <= -1 is not integrable, so a source grid that starts on the axis with a
    field not negligible there (above EDGE_WARN_LEVEL of its peak) is
    rejected.  Only the axis sample is read: a field that vanishes at the
    axis, or a grid that starts above it, is summed as given.  Callable
    inputs (Gaussian convolutions) have power mu - 1 > 0.
    """
    ro = out_grid.points
    if abs(mat.b) <= GEOMETRIC_B_TOL:
        cross, _, col = weights
        vals = _point_map(mat, field, ro, cross + col, nu)
    else:
        power = nu + weights[0] + weights[2]
        if (power <= -1.0 + 1e-12 and isinstance(field, SampledField)
                and field.grid.start == 0.0
                and abs(field.values[0]) > EDGE_WARN_LEVEL * np.max(np.abs(field.values))):
            raise ValueError(f"{name}: the kernel ~ y^{power:g} is not integrable at y = 0")
        vals = _bessel_sum(name, mat, ro, _kernel_nodes(field, cfg, mat, out_grid), nu, weights)
    return _output(field, out_grid, matching * vals, evol_shift, geometry)


def hankel(field: SampledField, m: int, out_grid: Grid1D,
           cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Hankel transform of order m with the r' dr' measure."""
    _require_half_line(field)
    _check_radial_index(field, m)
    return _radial("hankel", field, _HANKEL_MAT, out_grid, cfg, m, _dim_weights(2.0),
                   1j ** (m + 1))


def fr_hankel(field: SampledField, m: int, alpha: float, out_grid: Grid1D,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Fractional Hankel transform of order m (2-periodic in alpha)."""
    _require_half_line(field)
    _check_radial_index(field, m)
    return _radial("fr_hankel", field, mat_fourier(alpha), out_grid, cfg, m, _dim_weights(2.0),
                   cmath.exp(0.5j * math.pi * (m + 1) * alpha))


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
    return _radial("radial_ct", field, mat, out_grid, cfg, n_dim / 2.0 + m_idx - 1.0,
                   _dim_weights(n_dim), evol_shift=evol_shift)


def radial_propagate(field: SampledField, zeta: float, m_idx: int, out_grid: Grid1D,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Free propagation of a radial wavefunction by zeta (Bessel-J kernel)."""
    return radial_ct(field, mat_free(zeta), 2.0, m_idx, out_grid, cfg, evol_shift=zeta)


def hankel_type(field: SampledField, kind: int, nu: float, nu_prime: float,
                out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """First or second Hankel-type transform of order nu, parameter nu'."""
    weights = _type_weights(kind, nu_prime)
    _require_half_line(field)
    geo = field.geometry
    if isinstance(geo, RadialType) and (abs(geo.nu - nu) > 1e-12 or abs(geo.nu_prime - nu_prime) > 1e-12):
        raise GeometryMismatch("field radial-type parameters do not match the transform")
    return _radial("hankel_type", field, _HANKEL_MAT, out_grid, cfg, nu, weights, 1j ** (nu + 1.0))


def radial_laplace(field: SampledField, kind: int, nu: float, nu_prime: float,
                   out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Radial-Laplace-type transform (Bessel-I kernel, phase exp(-i pi (1+nu)))."""
    weights = _type_weights(kind, nu_prime)
    _require_half_line(field)
    _require_gaussian_decay(field)
    return _radial("radial_laplace", field, _RADIAL_LAPLACE_MAT, out_grid, cfg, nu, weights)


def fr_radial_laplace(field: SampledField, alpha: float, nu: float, nu_prime: float,
                      out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Fractional first radial-Laplace-type transform.

    Realizes the radial canonical transform of the hyperbolic-rotation matrix
    [[cos phi, i sin phi], [i sin phi, cos phi]]; alpha = 1 coincides with
    radial_laplace(kind=1).
    """
    _require_half_line(field)
    _require_gaussian_decay(field)
    return _radial("fr_radial_laplace", field, mat_laplace(alpha), out_grid, cfg, nu,
                   _type_weights(1, nu_prime))


def bessel_exp(field: SampledField, beta: float, nu: float, nu_prime: float,
               out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Functional form of exp(beta B^dagger): Gaussian-I kernel, beta > 0."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    _require_half_line(field)
    return _radial("bessel_exp", field, mat_poisson(2.0 * beta), out_grid, cfg, nu,
                   _type_weights(1, nu_prime))


def bessel_exp_quarter_turn(field: SampledField, nu: float, nu_prime: float,
                            out_grid: Grid1D,
                            cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """exp((i/2) B^dagger): the oscillatory continuation of the heat kernel.

    Kernel -i e^{-i pi nu/2} x^{1+2nu'} (xy)^{-nu'} e^{i(x^2+y^2)/2} J_nu(xy);
    sandwiching it between e^{-i x^2/2} modulations and the i^{nu+1} factor
    reproduces the first Hankel-type transform.
    """
    _require_half_line(field)
    return _radial("bessel_exp_quarter_turn", field, mat_free(1.0), out_grid, cfg, nu,
                   _type_weights(1, nu_prime))


def radial_heat_propagate(field, t: float, mu: float, out_grid: Grid1D,
                          cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Diffuse a radial profile by t > 0 in effective dimension mu.

    A sampled field is integrated over its grid support, a callable f(r)
    over [0, r_max + 12 sqrt(t)].
    """
    if t <= 0:
        raise ValueError("diffusion time must be positive")
    if mu <= 1:
        raise ValueError("mu must exceed 1")
    if isinstance(field, SampledField):
        _require_half_line(field)
    return _radial("radial_heat_propagate", field, mat_poisson(t), out_grid, cfg, mu / 2.0 - 1.0,
                   _dim_weights(mu), evol_shift=t, geometry=RadialDim(mu, 0))


def barut_girardello(field: SampledField, n_dim: float, m_idx: int, out_grid: Grid1D,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Bessel-I radial transform built on the Bargmann matrix, forward direction."""
    _require_half_line(field)
    _require_gaussian_decay(field)
    return _radial("barut_girardello", field, mat_bargmann(), out_grid, cfg,
                   n_dim / 2.0 + m_idx - 1.0, (1.0 - n_dim / 2.0, 0.0, 0.0))


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
