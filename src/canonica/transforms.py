"""Numerical engines for the canonical transforms.

Each transform is the kernel of one matrix, described by one record
(`_Kernel`: `TRANSFORMS` maps each spec to its record) and built once for its
grids as a `Plan` by one builder, `_plan`, which reads one of three paths off
the matrix:

* ``chirp-fft``: modulate / FFT-convolve / modulate, using the quadratic
  phase decomposition of the linear kernel: the rectangle rule on the input
  samples.  Taken for a real matrix when the output grid is full-line with
  the input's step h and h resolves the kernel's frequency |A y - x|/|B| at
  every input point y and output point x: max |A y - x| h < pi |B|, the max
  over the grids' end points (Koc, Ozaktas, Candan & Kutay, IEEE Trans.
  Signal Process. 56, 2008).  Every other linear kernel takes
  Gauss-Legendre.
* ``gauss-legendre``: the linear or radial kernel on composite
  Gauss-Legendre panels over the input grid support, with the sampled field
  interpolated onto the quadrature nodes by a quintic spline.  Panels are
  sized so each spans at most pi/4 of kernel phase at the fastest output
  point; real-exponent (L-form) kernels have no phase and get 4 nodes per
  width when they decay.  Only Gaussian-convolution kernels accept a callable
  f(y): it is evaluated on panels over the output window widened by
  12 sqrt(tau), starting at the axis on half-line grids.
* ``point-map`` (B = 0): the point map of the kernel, read off the field's
  quintic spline.

The plan holds the nodes, the weights and the finished kernel (refused above
_MAX_KERNEL_BYTES); calling it on a field runs the guards, the spline at the
nodes and the matvec.  Every engine, `linear_ct`, `radial_ct`, `plan` and `apply`
build a plan through `_plan`.

Bessel-I kernels are evaluated through the exponentially scaled form, so
heat-type kernels never overflow.  Bessel-J kernels apply their chirps as a
column and a row vector, so every radial kernel is real and is applied in
float64.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
import warnings
from collections.abc import Callable
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
    RadialDim,
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
_MAX_KERNEL_BYTES = 1 << 30  # a plan refuses a larger kernel before it allocates it
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


@dataclass(frozen=True)
class QuadratureConfig:
    nodes_per_panel: int = 64
    apodization: float | None = None  # Gaussian width; None disables

    def __post_init__(self):
        if self.nodes_per_panel < 2:
            raise ValueError("nodes_per_panel must be at least 2")
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

    def __post_init__(self):
        if abs(self.matrix.b) > GEOMETRIC_B_TOL:
            raise ValueError("geometric transform needs B = 0")


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


def _check_kind_and_order(spec):
    if spec.kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    if spec.nu < -0.5:
        raise ValueError("nu must be >= -1/2")


@dataclass(frozen=True)
class HankelType:
    kind: int
    nu: float
    nu_prime: float
    __post_init__ = _check_kind_and_order


@dataclass(frozen=True)
class RadialLaplace:
    kind: int
    nu: float
    nu_prime: float
    __post_init__ = _check_kind_and_order


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


@dataclass(frozen=True)
class _Kernel:
    """A transform as the kernel of one matrix (a row of the README's kernel table):
    its Bessel order nu (None: the linear kernel), the weight powers (cross, row,
    col) of r y, r and y, the matching factor and the evolution shift; the output
    geometry of a callable input (Gaussian convolutions only) and the guards that
    check each field first.  `name` labels the radial kernel's errors."""

    name: str
    matrix: SympMat2
    nu: float | None = None
    weights: tuple = (0.0, 0.0, 0.0)
    matching: complex = 1.0
    evol_shift: float = 0.0
    geometry: object = None
    guards: tuple = ()


@dataclass(frozen=True, eq=False)
class Plan:
    """A kernel built for one input grid (None: a callable f(y)) and one output
    grid; call it on a field.  A field on another grid is rejected.  `nbytes`
    is the size of the kernel (FFT'd chirp, point-map factor) it holds."""

    kernel: _Kernel
    in_grid: Grid1D | None
    out_grid: Grid1D
    nbytes: int
    run: Callable  # field -> output values

    def __call__(self, field) -> SampledField:
        grid = field.grid if isinstance(field, SampledField) else None
        if grid != self.in_grid:
            raise GeometryMismatch(f"the plan is built for input grid {self.in_grid}, not {grid}")
        for guard in self.kernel.guards:
            guard(field)
        shift = self.kernel.evol_shift
        if grid is None:
            return SampledField(self.out_grid, self.run(field), self.kernel.geometry, shift)
        return SampledField(self.out_grid, self.run(field), field.geometry, field.evol + shift)


# ---------------------------------------------------------------------------
# quadrature plumbing

def _warn(message: str):
    """A TruncationWarning attributed to the first caller outside the package."""
    frame, level = sys._getframe(), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, TruncationWarning, stacklevel=level)


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
    """Panels over the source: at most pi/4 of kernel phase each, at least 4
    nodes per width of a decaying real-exponent kernel, and at least one
    panel per nodes_per_panel samples.

    The phase of the kernel of `mat` across a source |y| <= xmax at the
    fastest output point |x| <= outmax is (|A| xmax^2 + 2 outmax xmax)/(2|B|).
    Real-exponent (L-form, B = i beta) kernels have none; with A/beta < 0 they
    are Gaussians of width sqrt(-beta/A) in y, narrow near B = 0.  A count
    above _MAX_PANELS is capped with a TruncationWarning.
    """
    if not _real_exponent(mat):
        phase = (abs(mat.a) * xmax**2 + 2.0 * outmax * xmax) / (2.0 * abs(mat.b))
        by_kernel = math.ceil(phase / (math.pi / 4.0))
    elif mat.a.real * mat.b.imag < 0:
        width = math.sqrt(-mat.b.imag / mat.a.real)
        by_kernel = math.ceil(8.0 * xmax / (width * cfg.nodes_per_panel))
    else:
        by_kernel = 0
    by_field = math.ceil(count / cfg.nodes_per_panel)
    wanted = max(by_kernel, by_field, 4)
    if wanted > _MAX_PANELS:
        _warn(f"the kernel asks for {wanted} quadrature panels; {_MAX_PANELS} are used, "
              "which under-resolves the kernel")
    return min(wanted, _MAX_PANELS)


def _kernel_bytes(rows: int, cols: int, real: bool) -> int:
    """Bytes of a rows x cols kernel; ValueError above _MAX_KERNEL_BYTES."""
    nbytes = rows * cols * (8 if real else 16)
    if nbytes > _MAX_KERNEL_BYTES:
        raise ValueError(f"the {rows} x {cols} kernel needs {nbytes} bytes, above the "
                         f"{_MAX_KERNEL_BYTES} byte ceiling; use fewer output points or nodes")
    return nbytes


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


def _apodization(cfg: QuadratureConfig, x: np.ndarray, center: float):
    """The Gaussian apodization window at x, or None when it is off."""
    width = cfg.apodization
    return None if width is None else np.exp(-((x - center) ** 2) / (2.0 * width**2))


def _edge_check(field: SampledField, cfg: QuadratureConfig):
    peak = float(np.max(np.abs(field.values)))
    if peak == 0.0:
        return
    if field.grid.kind == GridKind.HALF_LINE:
        edge = abs(field.values[-1]) / peak  # the axis end is not a truncation edge
    else:
        edge = max(abs(field.values[0]), abs(field.values[-1])) / peak
    if cfg.apodization is None and edge > EDGE_WARN_LEVEL:
        _warn(f"field magnitude at grid edge is {edge:.2e} of peak; "
              "widen the grid or enable apodization")


def _kernel_nodes(cfg: QuadratureConfig, mat: SympMat2, in_grid: Grid1D | None,
                  out_grid: Grid1D):
    """Quadrature nodes and weights for the kernel of `mat`, and the function
    that reads a field at the nodes behind the guard the matrix calls for.

    A Gaussian convolution gets the growth guard and alone takes a callable
    f(y) (in_grid None; rule in the module docstring).  Other kernels get the
    edge check, after the convergence and support check if L-form.
    Apodization is centred on the axis (half-line) or the grid midpoint.
    """
    out_x = out_grid.points
    outmax = float(np.max(np.abs(out_x)))
    tau = _gaussian_variance(mat)
    if in_grid is None:
        reach = 12.0 * math.sqrt(tau)
        lo = 0.0 if out_grid.kind == GridKind.HALF_LINE else out_grid.start - reach
        hi = out_grid.end + reach
        panels = _panel_count(cfg, mat, max(abs(lo), abs(hi)), outmax, out_grid.count)
        xq, wq = _gl_nodes(lo, hi, panels, cfg.nodes_per_panel)
        return xq, wq, lambda f: np.asarray(f(xq), dtype=complex)
    lo, hi = in_grid.start, in_grid.end
    xmax = max(abs(lo), abs(hi))
    center = 0.0 if in_grid.kind == GridKind.HALF_LINE else 0.5 * (lo + hi)
    panels = _panel_count(cfg, mat, xmax, outmax, in_grid.count)
    xq, wq = _gl_nodes(lo, hi, panels, cfg.nodes_per_panel)
    window = _apodization(cfg, xq, center)
    # a half-line source has one tail, whose most pessimistic output point is the outer end
    ends = ((float(np.max(out_x)),) if in_grid.kind == GridKind.HALF_LINE
            else (float(np.min(out_x)), float(np.max(out_x))))

    def values(field):
        if tau is None:
            if _real_exponent(mat):
                _lform_support_check(mat, field, outmax, xmax)
            _edge_check(field, cfg)
        fq = _interpolant(field)(xq)
        if window is not None:
            fq = fq * window
        if tau is not None:
            _kernel_beats_growth(field, (xq, wq, fq), tau, ends)
        return fq

    return xq, wq, values


def _kernel_exponent(mat: SympMat2, x, y, xy: float):
    """Exponent i (A y^2 + D x^2 + xy x y) / 2B of a kernel of `mat`.

    The linear kernel has xy = -2.  The radial Bessel-I kernel (L-form
    B = i beta) restores the e^{x y/|beta|} the scaled I_nu leaves out
    (xy = 2 sgn beta); the Bessel-J kernel applies its chirps as vectors and
    never calls this.  The real L-form exponent is computed as
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
    expo = mat.a * y**2 + mat.d * x**2
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


def _point_map(mat: SympMat2, in_grid: Grid1D, out_x: np.ndarray, power: float, nu: float):
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

    Returns the bytes held and the function of the field.
    """
    if abs(mat.a.imag) > 1e-12:
        raise ValueError("geometric resampling implemented for real A only")
    a = mat.a.real
    pts = out_x / (abs(a) if in_grid.kind == GridKind.HALF_LINE else a)
    factor = abs(a) ** (-power) * np.exp(0.5j * (mat.c / mat.a) * out_x**2)
    turn = None
    if a < 0:
        side = -1.0 if (mat.b.real or mat.b.imag) < 0 else 1.0
        turn = cmath.exp(-1j * math.pi * (nu + 1.0) * side)

    def run(field):
        vals = factor * _interpolant(field)(pts)
        if turn is not None:
            vals *= turn
        return vals

    return factor.nbytes, run


def _require_grid(grid: Grid1D | None, kind: str):
    if grid is None or grid.kind != kind:
        raise GeometryMismatch(f"the transform needs a sampled field on a {kind} grid")


def _check_geometry(field: SampledField, **params):
    """Reject a field whose geometry carries other values of the transform's parameters."""
    for key, value in params.items():
        if abs(getattr(field.geometry, key, value) - value) > 1e-12:
            raise GeometryMismatch(f"field {field.geometry} does not match transform {key} {value}")


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
# linear-kernel plans

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
    rate g to beat A/B, and its stationary point x/(gB - A) plus 5 widths
    (a Gaussian tail of e^{-12.5}) to sit inside the sampled support.
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
    if peak + 5.0 * width > xmax:
        _warn(f"kernel stationary point {peak:.2f} (+5 widths) exceeds the source "
              f"support {xmax:.2f}; shrink the output window or widen the source grid")


def _linear_gl(mat: SympMat2, in_grid: Grid1D | None, out_grid: Grid1D,
               cfg: QuadratureConfig, matching: complex):
    xq, wq, values = _kernel_nodes(cfg, mat, in_grid, out_grid)
    out_x = out_grid.points
    nbytes = _kernel_bytes(len(out_x), len(xq), _real_exponent(mat))
    kern = _guarded_exp(_kernel_exponent(mat, out_x[:, None], xq[None, :], -2.0))
    scale = matching / cmath.sqrt(2j * math.pi * mat.b)
    return nbytes, lambda field: scale * _matvec(kern, wq * values(field))


def _chirp_fft(mat: SympMat2, in_grid: Grid1D, out_grid: Grid1D, cfg: QuadratureConfig,
               matching: complex):
    h = in_grid.step
    x = in_grid.points
    window = _apodization(cfg, x, 0.5 * (x[0] + x[-1]))
    b = mat.b
    chirp_in = np.exp((0.5j / b) * (mat.a - 1.0) * x**2)
    n, m_out = in_grid.count, out_grid.count
    delta = out_grid.start - in_grid.start
    lags = delta + h * np.arange(-(n - 1), m_out)
    size = fft.next_fast_len(n + len(lags) - 1)
    z_hat = fft.fft(np.exp((0.5j / b) * lags**2), size)
    chirp_out = (matching * h / cmath.sqrt(2j * math.pi * b)
                 * np.exp((0.5j / b) * (mat.d - 1.0) * out_grid.points**2))

    def run(field):
        _edge_check(field, cfg)
        f = field.values if window is None else field.values * window
        return chirp_out * fft.ifft(fft.fft(f * chirp_in, size) * z_hat)[n - 1 : n - 1 + m_out]

    return z_hat.nbytes, run


def _use_chirp_fft(mat: SympMat2, in_grid: Grid1D, out_grid: Grid1D) -> bool:
    """True where the rule of the module docstring takes chirp-FFT.  The kernel's
    frequency |A y - x|/|B| is linear in y and x, so its max is at the corners
    of the grids.  Only real matrices qualify: the L-form guards run on the
    Gauss-Legendre path."""
    if not mat.is_real(1e-12) or out_grid.kind != GridKind.FULL_LINE:
        return False
    h = in_grid.step
    fastest = max(abs(mat.a.real * y - x) for y in (in_grid.start, in_grid.end)
                  for x in (out_grid.start, out_grid.end))
    return abs(out_grid.step - h) <= 1e-12 * h and fastest * h < math.pi * abs(mat.b.real)


def linear_ct(mat: SympMat2, field: SampledField, out_grid: Grid1D,
              cfg: QuadratureConfig = DEFAULT_CONFIG, matching: complex = 1.0,
              evol_shift: float = 0.0) -> SampledField:
    """Apply the kernel transform of `mat` to a sampled linear-geometry field."""
    return _plan(_Kernel("linear_ct", mat, matching=matching, evol_shift=evol_shift),
                 field.grid, out_grid, cfg)(field)


def geometric(mat: SympMat2, field: SampledField, out_grid: Grid1D) -> SampledField:
    """Imaging-limit transform (B = 0): chirp modulation plus rescaling."""
    return _run(Geometric(mat), field, out_grid, DEFAULT_CONFIG)


def fresnel_propagate(field: SampledField, zeta: float, out_grid: Grid1D,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    return linear_ct(mat_free(zeta), field, out_grid, cfg, evol_shift=zeta)


def frft(field: SampledField, alpha: float, out_grid: Grid1D,
         cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Fractional Fourier transform, mathematical normalization; 4-periodic in alpha."""
    return _run(FrFT(alpha), field, out_grid, cfg)


def fr_laplace(field: SampledField, alpha: float, out_grid: Grid1D,
               cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Fractional bilateral Laplace transform on a real output grid.

    Carries the i^(alpha/2) matching factor, so alpha = 1 reproduces
    (2 pi i)^(-1/2) times the bilateral Laplace integral.  4-periodic in
    alpha, as `frft` is.
    """
    return _run(FrLaplace(alpha), field, out_grid, cfg)


def poisson_propagate(field, t: float, out_grid: Grid1D,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Diffuse by t > 0: the kernel transform of mat_poisson(t), a Gaussian
    convolution of the input data.

    A sampled field is integrated over its grid support, a callable f(y)
    over the output window widened by 12 sqrt(t).
    """
    return _run(PoissonProp(t), field, out_grid, cfg)


# ---------------------------------------------------------------------------
# radial kernels

_HANKEL_MAT = SympMat2(0.0, 1.0, -1.0, 0.0)
_RADIAL_LAPLACE_MAT = SympMat2(0.0, 1j, 1j, 0.0)


def _dim_weights(n_dim: float):
    """Weight powers (cross, row, col) of the n-dimensional radial kernel."""
    return (1.0 - n_dim / 2.0, 0.0, n_dim - 1.0)


def _type_weights(kind: int, nu_prime: float):
    """Weight powers (cross, row, col) of the first or second Hankel-type kernel."""
    weight = 1.0 + 2.0 * nu_prime  # on the output variable (kind 1) or the input (kind 2)
    return (-nu_prime, weight, 0.0) if kind == 1 else (-nu_prime, 0.0, weight)


def _bessel_sum(kernel: _Kernel, in_grid: Grid1D | None, out_grid: Grid1D,
                cfg: QuadratureConfig):
    """Quadrature of a radial kernel, shared by every radial transform.

    Sums (-i)^(nu+1)/B sum_j e^{i(A y_j^2 + D r^2)/2B} J_nu(r y_j/B)
    (r y_j)^cross r^row y_j^col w_j f_j for every output point r.  Real B
    gives the Bessel-J kernel, with the J_nu parity (integer nu only) for
    B < 0; its chirp has no r y term, so it is applied as two vectors,
    e^{iA y^2/2B} in the weights and e^{iD r^2/2B} on the output, around a
    float64 kernel.  An L-form B = i beta gives the Bessel-I kernel through
    J_nu(r y/(i beta)) = e^{-i pi nu sgn(beta)/2} I_nu(r y/|beta|), evaluated
    as the exponentially scaled I_nu times the whole real exponent, whose two
    chirps could overflow apart.  On the axis the kernel behaves like
    r^(nu+cross+row): a positive power gives a zero row, power zero the finite
    limit (y/2|B|)^nu / Gamma(nu+1) y^cross y^col (times e^{expo(0, y)} for
    Bessel-I), and a negative power has no finite value, so an r = 0 output
    point is rejected.

    Towards the input axis the kernel behaves like y^(nu+cross+col).  A power
    <= -1 is not integrable, so a source grid that starts on the axis with a
    field not negligible there (above EDGE_WARN_LEVEL of its peak) is
    rejected.  Only the axis sample is read: a field that vanishes at the
    axis, or a grid that starts above it, is summed as given.  Callable
    inputs (Gaussian convolutions) have power mu - 1 > 0.

    Returns the kernel's bytes and the function of the field.
    """
    name, mat, nu = kernel.name, kernel.matrix, kernel.nu
    cross, row, col = kernel.weights
    ro = out_grid.points
    power = nu + cross + row
    axis = ro == 0.0
    if power < -1e-12 and np.any(axis):
        raise ValueError(f"{name}: output grid must start above r = 0 for these parameters")
    source_power = nu + cross + col
    axis_source = in_grid is not None and in_grid.start == 0.0 and source_power <= -1.0 + 1e-12
    lform = _real_exponent(mat)
    if lform:
        beta = mat.b.imag
        bessel, k, xy = specfun.bessel_i_scaled, 1.0 / abs(beta), 2.0 * math.copysign(1.0, beta)
        rotation = cmath.exp(-0.5j * math.pi * nu * math.copysign(1.0, beta))
        pref = (-1j) ** (nu + 1.0) / mat.b * rotation
    else:
        b = mat.b.real
        if b < 0 and abs(nu - round(nu)) > 1e-9:
            raise ValueError("negative B with non-integer Bessel order is not supported")
        bessel, k = specfun.bessel_j, 1.0 / abs(b)
        pref = (-1j) ** (nu + 1.0) / b * ((-1.0) ** round(nu) if b < 0 else 1.0)
    xq, wq, values = _kernel_nodes(cfg, mat, in_grid, out_grid)
    nbytes = _kernel_bytes(len(ro), len(xq), True)
    w_col = wq if col == 0.0 else wq * xq**col
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 rows are set on apply
        row_factor = ro**row if row != 0.0 else 1.0
        if not lform:  # the Bessel-J chirp, as a column and a row vector
            if mat.a != 0:
                w_col = w_col * np.exp((0.5j / mat.b) * mat.a * xq**2)
            if mat.d != 0:
                row_factor = row_factor * np.exp((0.5j / mat.b) * mat.d * ro**2)
        # one scratch array of the kernel's size: the Bessel argument k r y, then (r y)^cross
        arg = np.multiply(ro[:, None], xq[None, :])
        if k != 1.0:
            arg *= k
        kern = bessel(nu, arg)
        if cross != 0.0:
            np.multiply(ro[:, None], xq[None, :], out=arg)
            kern *= np.power(arg, cross, out=arg)
        del arg
        if lform:
            kern *= _guarded_exp(_kernel_exponent(mat, ro[:, None], xq[None, :], xy))
    limit = None
    if np.any(axis) and abs(power) <= 1e-12:
        limit = (0.5 * k * xq) ** nu / math.gamma(nu + 1.0) * xq**cross
        if lform:
            limit = limit * _guarded_exp(_kernel_exponent(mat, 0.0, xq, xy))

    def run(field):
        if axis_source and abs(field.values[0]) > EDGE_WARN_LEVEL * np.max(np.abs(field.values)):
            raise ValueError(f"{name}: the kernel ~ y^{source_power:g} is not integrable at y = 0")
        wf = w_col * values(field)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = _matvec(kern, wf)
            vals *= row_factor
        if np.any(axis):
            vals[axis] = 0.0 if limit is None else limit @ wf
        return pref * vals

    return nbytes, run


def _plan(kernel: _Kernel, in_grid: Grid1D | None, out_grid: Grid1D,
          cfg: QuadratureConfig) -> Plan:
    """The plan of `kernel` from `in_grid` to `out_grid`: the one builder of every transform.

    The linear kernel (nu None) reads full-line grids, a radial kernel
    half-line ones, or a callable if it gives its output `geometry` and B != 0.
    At B = 0 it is the point map of power cross + col and order nu (power 1/2,
    order -1/2 for the linear kernel), which needs 2 cross + row + col = 1;
    every radial kernel that reaches B = 0 meets it.  The point map and the
    Bessel sum are multiplied by the matching factor; chirp-FFT and
    Gauss-Legendre, chosen as the module docstring says, fold it in.
    """
    mat, nu = kernel.matrix, kernel.nu
    point_map = abs(mat.b) <= GEOMETRIC_B_TOL
    if in_grid is not None or kernel.geometry is None or point_map:
        _require_grid(in_grid, GridKind.FULL_LINE if nu is None else GridKind.HALF_LINE)
    if point_map:
        cross, _, col = kernel.weights
        power, nu = (0.5, -0.5) if nu is None else (cross + col, nu)
        nbytes, run = _point_map(mat, in_grid, out_grid.points, power, nu)
    elif nu is not None:
        nbytes, run = _bessel_sum(kernel, in_grid, out_grid, cfg)
    else:
        _integrability(mat)
        build = _chirp_fft if _use_chirp_fft(mat, in_grid, out_grid) else _linear_gl
        return Plan(kernel, in_grid, out_grid, *build(mat, in_grid, out_grid, cfg, kernel.matching))
    return Plan(kernel, in_grid, out_grid, nbytes, lambda f: kernel.matching * run(f))


def _radial_ct(mat: SympMat2, n_dim: float, m_idx: int, matching: complex = 1.0,
               evol_shift: float = 0.0) -> _Kernel:
    guards = (lambda f: _check_geometry(f, m=m_idx),)
    if not mat.is_real(1e-12):
        if not mat.is_l_form():
            raise ValueError("radial_ct handles real and L-form matrices")
        guards += (_require_gaussian_decay,)
    return _Kernel("radial_ct", mat, n_dim / 2.0 + m_idx - 1.0, _dim_weights(n_dim), matching,
                   evol_shift, guards=guards)


def hankel(field: SampledField, m: int, out_grid: Grid1D,
           cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Hankel transform of order m with the r' dr' measure."""
    return _run(Hankel(m), field, out_grid, cfg)


def fr_hankel(field: SampledField, m: int, alpha: float, out_grid: Grid1D,
              cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Fractional Hankel transform of order m (2-periodic in alpha)."""
    return _run(FrHankel(m, alpha), field, out_grid, cfg)


def radial_ct(field: SampledField, mat: SympMat2, n_dim: float, m_idx: int,
              out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG,
              matching: complex = 1.0, evol_shift: float = 0.0) -> SampledField:
    """Radial canonical transform for a real or L-form matrix, dimension n, index m.

    Kernel matching * ((-i)^(m+n/2)/B) (r r')^(1-n/2) exp(i(A r'^2 + D r^2)/2B)
    J_{n/2+m-1}(r r'/B) against the r'^(n-1) dr' measure; A acts on the
    input variable, matching the radial diffraction-integral convention.
    An L-form matrix gives the Bessel-I kernel and requires exp(-r^2/4) decay.
    """
    kernel = _radial_ct(mat, n_dim, m_idx, matching, evol_shift)
    return _plan(kernel, field.grid, out_grid, cfg)(field)


def radial_propagate(field: SampledField, zeta: float, m_idx: int, out_grid: Grid1D,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Free propagation of a radial wavefunction by zeta (Bessel-J kernel)."""
    return radial_ct(field, mat_free(zeta), 2.0, m_idx, out_grid, cfg, evol_shift=zeta)


def hankel_type(field: SampledField, kind: int, nu: float, nu_prime: float,
                out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """First or second Hankel-type transform of order nu, parameter nu'."""
    return _run(HankelType(kind, nu, nu_prime), field, out_grid, cfg)


def radial_laplace(field: SampledField, kind: int, nu: float, nu_prime: float,
                   out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Radial-Laplace-type transform (Bessel-I kernel, phase exp(-i pi (1+nu)))."""
    return _run(RadialLaplace(kind, nu, nu_prime), field, out_grid, cfg)


def fr_radial_laplace(field: SampledField, alpha: float, nu: float, nu_prime: float,
                      out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Fractional first radial-Laplace-type transform.

    Realizes the radial canonical transform of the hyperbolic-rotation matrix
    [[cos phi, i sin phi], [i sin phi, cos phi]]; alpha = 1 coincides with
    radial_laplace(kind=1).
    """
    return _run(FrRadialLaplace(alpha, nu, nu_prime), field, out_grid, cfg)


def bessel_exp(field: SampledField, beta: float, nu: float, nu_prime: float,
               out_grid: Grid1D, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Functional form of exp(beta B^dagger): Gaussian-I kernel, beta > 0."""
    return _run(BesselExp(beta, nu, nu_prime), field, out_grid, cfg)


def bessel_exp_quarter_turn(field: SampledField, nu: float, nu_prime: float,
                            out_grid: Grid1D,
                            cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """exp((i/2) B^dagger): the oscillatory continuation of the heat kernel.

    Kernel -i e^{-i pi nu/2} x^{1+2nu'} (xy)^{-nu'} e^{i(x^2+y^2)/2} J_nu(xy);
    sandwiching it between e^{-i x^2/2} modulations and the i^{nu+1} factor
    reproduces the first Hankel-type transform.
    """
    return _run(BesselExp("i/2", nu, nu_prime), field, out_grid, cfg)


def radial_heat_propagate(field, t: float, mu: float, out_grid: Grid1D,
                          cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Diffuse a radial profile by t > 0 in effective dimension mu.

    A sampled field is integrated over its grid support, a callable f(r)
    over [0, r_max + 12 sqrt(t)].
    """
    return _run(RadialHeatProp(t, mu), field, out_grid, cfg)


def barut_girardello(field: SampledField, n_dim: float, m_idx: int, out_grid: Grid1D,
                     cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Bessel-I radial transform built on the Bargmann matrix, forward direction."""
    return _run(BarutGirardello(n_dim, m_idx), field, out_grid, cfg)


# ---------------------------------------------------------------------------
# dispatch

def _fractional(name: str, family, alpha: float) -> _Kernel:
    """Order alpha of a fractional family, 4-periodic: alpha is reduced to (-2, 2] before
    the e^{i pi alpha/4} matching factor, which alone would flip sign under alpha + 4."""
    alpha = reduce_order(alpha)
    return _Kernel(name, family(alpha), matching=cmath.exp(0.25j * math.pi * alpha))


# CLI name -> (spec class, the spec's kernel record)
TRANSFORMS = {
    "linear-ct": (LinearCT, lambda s: _Kernel("linear_ct", s.matrix)),
    "geometric": (Geometric, lambda s: _Kernel("geometric", s.matrix)),
    "fresnel-prop": (FresnelProp, lambda s: _Kernel(
        "fresnel_propagate", mat_free(s.zeta), evol_shift=s.zeta)),
    "frft": (FrFT, lambda s: _fractional("frft", mat_fourier, s.alpha)),
    "fr-laplace": (FrLaplace, lambda s: _fractional("fr_laplace", mat_laplace, s.alpha)),
    "poisson-prop": (PoissonProp, lambda s: _Kernel(
        "poisson_propagate", mat_poisson(s.t), evol_shift=s.t, geometry=Linear())),
    "radial-ct": (RadialCT, lambda s: _radial_ct(s.matrix, s.n_dim, s.m)),
    "hankel": (Hankel, lambda s: _Kernel(
        "hankel", _HANKEL_MAT, s.m, _dim_weights(2.0), 1j ** (s.m + 1),
        guards=(lambda f: _check_geometry(f, m=s.m),))),
    "fr-hankel": (FrHankel, lambda s: _Kernel(
        "fr_hankel", mat_fourier(s.alpha), s.m, _dim_weights(2.0),
        cmath.exp(0.5j * math.pi * (s.m + 1) * s.alpha),
        guards=(lambda f: _check_geometry(f, m=s.m),))),
    "hankel-type": (HankelType, lambda s: _Kernel(
        "hankel_type", _HANKEL_MAT, s.nu, _type_weights(s.kind, s.nu_prime), 1j ** (s.nu + 1.0),
        guards=(lambda f: _check_geometry(f, nu=s.nu, nu_prime=s.nu_prime),))),
    "radial-laplace": (RadialLaplace, lambda s: _Kernel(
        "radial_laplace", _RADIAL_LAPLACE_MAT, s.nu, _type_weights(s.kind, s.nu_prime),
        guards=(_require_gaussian_decay,))),
    "fr-radial-laplace": (FrRadialLaplace, lambda s: _Kernel(
        "fr_radial_laplace", mat_laplace(s.alpha), s.nu, _type_weights(1, s.nu_prime),
        guards=(_require_gaussian_decay,))),
    "bessel-exp": (BesselExp, lambda s: _Kernel(
        "bessel_exp_quarter_turn" if s.beta == "i/2" else "bessel_exp",
        mat_free(1.0) if s.beta == "i/2" else mat_poisson(2.0 * s.beta), s.nu,
        _type_weights(1, s.nu_prime))),
    "radial-heat-prop": (RadialHeatProp, lambda s: _Kernel(
        "radial_heat_propagate", mat_poisson(s.t), s.mu / 2.0 - 1.0, _dim_weights(s.mu),
        evol_shift=s.t, geometry=RadialDim(s.mu, 0))),
    "barut-girardello": (BarutGirardello, lambda s: _Kernel(
        "barut_girardello", mat_bargmann(), s.n_dim / 2.0 + s.m - 1.0,
        (1.0 - s.n_dim / 2.0, 0.0, 0.0), guards=(_require_gaussian_decay,))),
}


def plan(spec: TransformSpec, in_grid: Grid1D | None, out_grid: Grid1D,
         cfg: QuadratureConfig = DEFAULT_CONFIG) -> Plan:
    """Build the transform of `spec` from `in_grid` (None: a callable input,
    Gaussian convolutions only) to `out_grid`, to apply to any number of fields."""
    for spec_cls, kernel in TRANSFORMS.values():
        if type(spec) is spec_cls:
            return _plan(kernel(spec), in_grid, out_grid, cfg)
    raise TypeError(f"unknown transform spec {spec!r}")


def _run(spec: TransformSpec, field, out_grid: Grid1D, cfg: QuadratureConfig) -> SampledField:
    """Build the plan of `spec` for the field's grid, then apply it to the field."""
    return plan(spec, field.grid if isinstance(field, SampledField) else None, out_grid, cfg)(field)


def apply(spec: TransformSpec, field, out_grid: Grid1D,
          cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Apply a transform specification to a field: build its plan, then apply it."""
    return _run(spec, field, out_grid, cfg)
