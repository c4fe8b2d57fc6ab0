"""Numerical engines for the canonical transforms.

Each transform is the kernel of one matrix, described once: a function of
its parameters (`frft(alpha)`, `hankel(m)`, ...; `TRANSFORMS` maps each CLI
name to its function) returns its `Kernel` record.  One builder, `plan`,
builds a record once for its grids as a `Plan`, reading one of three paths
off the matrix:

* ``chirp-fft``: modulate / FFT-convolve / modulate, using the quadratic
  phase decomposition of the linear kernel: the rectangle rule on the input
  samples.  Taken for a sampled input when the output grid is full-line with
  the input's step h and h resolves the kernel.  For a real matrix that is
  h resolving the kernel's frequency |A y - x|/|B| at every input point y
  and output point x: max |A y - x| h < pi |B|, the max over the grids' end
  points (Koc, Ozaktas, Candan & Kutay, IEEE Trans. Signal Process. 56,
  2008).  For a Gaussian convolution [[1, -i tau], [0, 1]] both chirps are 1
  and the convolved "chirp" is the Gaussian e^{-lag^2/2 tau}, whose
  spectrum is below 1e-16 of its peak beyond pi/h when
  tau >= 2 ln(1e16) h^2/pi^2 (about 7.47 h^2); for samples that resolve the
  field the rectangle rule then converges exponentially (Trefethen &
  Weideman, SIAM Rev. 56, 2014).  A Gaussian convolution runs the growth
  guard on the samples first, then the edge check; a real matrix runs the
  edge check.  The convolution is circular, on next_fast_len(n + m - 1)
  points for n samples and m outputs: the n + m - 1 lags are all the m
  outputs reach, so none wraps (the chirp-z length of Rabiner, Schafer &
  Rader, Bell Syst. Tech. J. 48, 1969).  Every other linear kernel takes
  Gauss-Legendre.
* ``gauss-legendre``: the linear or radial kernel on composite
  Gauss-Legendre panels over the input grid support, with the sampled field
  interpolated onto the quadrature nodes by a quintic spline.  Panels are
  sized by the Gauss-Legendre remainder bound: each spans at most the phase
  Phi(p) that p nodes integrate to 1e-15 (17 rad for p = 16) at the kernel's
  fastest local frequency; real-exponent (L-form) kernels have no phase and
  get 4 nodes per width when they decay.  A sampled field gets the edge
  check, after the growth guard for a Gaussian convolution, as on
  chirp-FFT.  A source that starts on the axis
  under a kernel ~ y^s, s non-integer, takes Gauss-Jacobi nodes of weight
  y^s on its first panel.  A Gaussian convolution that is linear or carries
  a geometry accepts a callable f(y): it is evaluated on panels over the
  output window widened by 12 sqrt(tau), starting at the axis on half-line
  grids.
* ``point-map`` (B = 0): the point map of the kernel, read off the field's
  quintic spline.

Every field check is read off the `Kernel` record (`_check_field`), so a
matrix gets the same checks whichever function names it.  The plan holds
what depends on the grids alone: the nodes, the weights and the finished
kernel with the matching factor, the chirp-FFT's FFT'd lag chirp and
chirps, or the point-map factor, and the apodization window.  Each path
refuses a plan whose arrays pass _MAX_KERNEL_BYTES before it allocates
them.  Calling the plan on a field multiplies it by the window, then runs
the checks, the spline at the nodes and the matvec or the convolution.
`apply(kernel, field, out_grid)` builds the plan for the field's grid and
calls it.

Bessel-I kernels I_nu(k r y) e^{(A y^2 + D r^2)/2 beta} are built by
`specfun.bessel_i_outer` from the separable forms of I_nu's two expansions:
the series below k r y = 30 and Hankel's expansion above are each a matrix
product of row and column factors, and every other factor joins one
exponential per entry.  Hankel's entries read that exponent in the
cancellation-free form of `_kernel_exponent`, so heat-type kernels never
overflow; the DivergenceRisk guard reads it on every entry that could pass
MAX_EXPONENT.  A Bessel-J kernel of integer order is held as the factors of
`specfun.bessel_j_outer`: J_nu(k r y) is band-limited along the nodes y, so
it is a core J_nu(k r eta) on p Chebyshev points eta times their
interpolation matrix onto the nodes, with p about k max r (max y - min y)/2
+ 12.5 of its cube root, and the plan holds p (N_out + N_nodes) entries
instead of N_out N_nodes.  It applies its chirps and (r y)^cross as a
column and a row vector, so every radial kernel is real and is applied in
float64.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import specfun
from .common import (
    DivergenceRisk,
    GeometryMismatch,
    IntegrabilityViolation,
    KernelRefused,
    TruncationWarning,
)
from .fields import (
    Grid1D,
    GridKind,
    Linear,
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
    metaplectic_phase,
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


@dataclass(frozen=True)
class Kernel:
    """A transform as the kernel of one matrix (a row of the README's kernel table):
    its Bessel order nu (None: the linear kernel), the weight powers (cross, row,
    col) of r y, r and y, the matching factor, the evolution shift and the
    geometry of the fields it reads and writes (None: any).  A value: equal
    records build the same plans.  `name` labels the radial kernel's errors."""

    name: str
    matrix: SympMat2
    nu: float | None = None
    weights: tuple = (0.0, 0.0, 0.0)
    matching: complex = 1.0
    evol_shift: float = 0.0
    geometry: object = None


@dataclass(frozen=True, eq=False)
class Plan:
    """A kernel built for one input grid (None: a callable f(y)) and one output
    grid; call it on a field.  A field on another grid is rejected.  `nbytes`
    is the size of the arrays it holds: the kernel, the chirp-FFT's FFT'd lag
    chirp and chirps, or the point-map factor, and the apodization window."""

    kernel: Kernel
    in_grid: Grid1D | None
    out_grid: Grid1D
    nbytes: int
    run: Callable  # field -> output values
    window: np.ndarray | None  # apodization on in_grid

    def __call__(self, field) -> SampledField:
        grid = field.grid if isinstance(field, SampledField) else None
        if grid != self.in_grid:
            raise GeometryMismatch(f"the plan is built for input grid {self.in_grid}, not {grid}")
        if self.window is not None:
            field = replace(field, values=field.values * self.window)
        _check_field(self.kernel, field)
        values, shift = self.run(field), self.kernel.evol_shift
        if grid is None:
            return SampledField(self.out_grid, values, self.kernel.geometry or Linear(), shift)
        return SampledField(self.out_grid, values, field.geometry, field.evol + shift)


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


def _panel_phase(nodes: int) -> float:
    """Phi(p): the largest phase omega L of e^{i omega y} over a panel of length L
    that p-point Gauss-Legendre integrates to 1e-15 L by its remainder
    L^{2p+1} (p!)^4 / ((2p+1) ((2p)!)^3) max |f^{(2p)}| (Abramowitz & Stegun
    25.4.30), so Phi^{2p} (p!)^4 / ((2p+1) ((2p)!)^3) = 1e-15: 17 rad for p = 16."""
    p = nodes
    log_coeff = 4.0 * math.lgamma(p + 1) - math.log(2 * p + 1) - 3.0 * math.lgamma(2 * p + 1)
    return math.exp((math.log(1e-15) - log_coeff) / (2 * p))


def _panel_count(cfg: QuadratureConfig, mat: SympMat2, lo: float, hi: float, outmax: float,
                 count: int) -> int:
    """Panels over the source [lo, hi]: at most Phi(p) of kernel phase each
    (`_panel_phase`, p = nodes_per_panel), at least 4 nodes per width of a
    decaying real-exponent kernel, and at least one panel per nodes_per_panel
    samples.

    The kernel of `mat` oscillates in y at the local frequency |A y - x|/|B|
    (linear) or at most (|A y| + x)/|B| (Bessel-J: J_nu(x y/B) has frequency
    x/|B|).  Across a source |y| <= xmax at outputs |x| <= outmax both are
    bounded by omega = (|A| xmax + outmax)/|B|, which bounds every derivative
    of the kernel, so a panel of length L errs by the remainder of phase
    omega L.  Real-exponent (L-form, B = i beta) kernels have no phase; with
    A/beta < 0 they are Gaussians of width sqrt(-beta/A) in y, narrow near
    B = 0.  A count above _MAX_PANELS is capped with a TruncationWarning.
    """
    xmax = max(abs(lo), abs(hi))
    if not _real_exponent(mat):
        omega = (abs(mat.a) * xmax + outmax) / abs(mat.b)
        by_kernel = math.ceil(omega * (hi - lo) / _panel_phase(cfg.nodes_per_panel))
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


def _held_bytes(nbytes: int, what: str) -> int:
    """nbytes, the size of the arrays a plan holds for `what`; KernelRefused above
    _MAX_KERNEL_BYTES."""
    if nbytes > _MAX_KERNEL_BYTES:
        raise KernelRefused(f"{what} needs {nbytes} bytes, above the {_MAX_KERNEL_BYTES} "
                            "byte ceiling; use fewer output points, samples or nodes")
    return nbytes


def _kernel_bytes(rows: int, cols: int, real: bool) -> int:
    """Bytes of a rows x cols kernel; KernelRefused above _MAX_KERNEL_BYTES."""
    return _held_bytes(rows * cols * (8 if real else 16), f"the {rows} x {cols} kernel")


@functools.lru_cache(maxsize=64)
def _base_rule(nodes: int, jacobi_power: float = 0.0):
    """The `nodes`-point rule on [-1, 1] as read-only arrays, built once per
    argument: Gauss-Legendre (numpy's `leggauss`, an eigenproblem of Golub &
    Welsch, Math. Comp. 23, 1969), or for jacobi_power s != 0 scipy's
    Gauss-Jacobi rule of weight (1 + x)^s."""
    if jacobi_power == 0.0:
        x, w = leggauss(nodes)
    else:
        from scipy.special import roots_jacobi

        x, w = roots_jacobi(nodes, 0.0, jacobi_power)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_nodes(lo: float, hi: float, panels: int, nodes: int, axis_power: float = 0.0):
    """Composite Gauss-Legendre nodes and weights on [lo, hi], from the cached
    base rules of `_base_rule`.

    A source that starts on the axis under a kernel ~ y^s there, s = axis_power
    non-integer and > -1, is not smooth on the first panel: that panel takes
    the Gauss-Jacobi nodes of the weight y^s (Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013), their weights divided by the y^s the kernel carries.
    """
    base_x, base_w = _base_rule(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xq = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    wq = (half[:, None] * base_w[None, :]).ravel()
    if lo == 0.0 and axis_power > -1.0 and abs(axis_power - round(axis_power)) > 1e-12:
        jac_x, jac_w = _base_rule(nodes, axis_power)  # weight (1 + x)^s on [-1, 1]
        xq[:nodes] = half[0] * (1.0 + jac_x)
        wq[:nodes] = half[0] * jac_w / (1.0 + jac_x) ** axis_power
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


def _edge_check(field: SampledField, ends: tuple):
    """Warn when the field is not negligible at a truncation edge, the samples
    `ends` (0, -1) past which the kernel reaches: both ends of a full-line grid
    and the outer end of a half-line grid when it integrates, the ends its
    mapped points pass on the point map."""
    mag = np.abs(field.values)
    peak = float(np.max(mag))
    edge = max(mag[end] for end in ends) / peak if peak > 0.0 else 0.0
    if edge > EDGE_WARN_LEVEL:
        _warn(f"field magnitude at grid edge is {edge:.2e} of peak; widen the grid")


def _kernel_nodes(cfg: QuadratureConfig, mat: SympMat2, in_grid: Grid1D | None,
                  out_grid: Grid1D, axis_power: float = 0.0):
    """Quadrature nodes and weights for the kernel of `mat`, ~ y^axis_power
    at the input axis (`_gl_nodes`), and the function that reads a field at
    the nodes behind the guard the matrix calls for.

    A callable f(y) (in_grid None; rule in the module docstring) is read at
    the nodes.  A sampled field gets the edge check at both ends of a
    full-line grid and the outer end of a half-line grid, after the growth
    guard for a Gaussian convolution and after the convergence and support
    check for other L-form kernels.
    """
    out_x = out_grid.points
    outmax = float(np.max(np.abs(out_x)))
    tau = _gaussian_variance(mat)
    if in_grid is None:
        reach = 12.0 * math.sqrt(tau)
        lo = 0.0 if out_grid.kind == GridKind.HALF_LINE else out_grid.start - reach
        hi = out_grid.end + reach
        panels = _panel_count(cfg, mat, lo, hi, outmax, out_grid.count)
        xq, wq = _gl_nodes(lo, hi, panels, cfg.nodes_per_panel, axis_power)
        return xq, wq, lambda f: np.asarray(f(xq), dtype=complex)
    lo, hi = in_grid.start, in_grid.end
    xmax = max(abs(lo), abs(hi))
    panels = _panel_count(cfg, mat, lo, hi, outmax, in_grid.count)
    xq, wq = _gl_nodes(lo, hi, panels, cfg.nodes_per_panel, axis_power)
    # a half-line source has one tail, whose most pessimistic output point is the outer end
    half = in_grid.kind == GridKind.HALF_LINE
    out_ends = (float(np.max(out_x)),) if half else (float(np.min(out_x)), float(np.max(out_x)))

    def values(field):
        if tau is None and _real_exponent(mat):
            _lform_support_check(mat, field, outmax, xmax)
        fq = _interpolant(field)(xq)
        if tau is not None:  # before the edge check: a growing field raises, not warns
            _kernel_beats_growth(field, xq, fq, tau, out_ends)
        _edge_check(field, (-1,) if half else (0, -1))
        return fq

    return xq, wq, values


def _kernel_exponent(mat: SympMat2, x, y, xy: float, out=None):
    """Exponent i (A y^2 + D x^2 + xy x y) / 2B of a kernel of `mat`.

    The linear kernel has xy = -2.  The radial Bessel-I kernel (L-form
    B = i beta) restores the e^{x y/|beta|} the scaled I_nu leaves out
    (xy = 2 sgn beta); the Bessel-J kernel applies its chirps as vectors and
    never calls this.  The real L-form exponent is computed as
    ((y + xy x/2)^2 + (A - 1) y^2 + (D - 1) x^2)/(2 beta), so that a Gaussian
    convolution (A = D = 1) gets -(y - x)^2/(2 tau) without cancellation.
    A real exponent is written into `out` when it is given.
    """
    if _real_exponent(mat):
        beta, a, d = mat.b.imag, mat.a.real, mat.d.real
        expo = np.add(y, 0.5 * xy * x, out=out)
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


def _checked_exponent(expo: np.ndarray) -> np.ndarray:
    """expo; DivergenceRisk if its exp would overflow."""
    if float(np.max(expo.real)) > MAX_EXPONENT:
        raise DivergenceRisk("kernel exponent overflows double precision")
    return expo


def _guarded_exp(expo: np.ndarray) -> np.ndarray:
    """exp(expo), computed in place; DivergenceRisk if it would overflow."""
    return np.exp(_checked_exponent(expo), out=expo)


def _matvec(kern: np.ndarray, v: np.ndarray) -> np.ndarray:
    """kern @ v for a complex v; a real kernel is applied to the real and imaginary
    parts in turn, since `real @ complex` first copies it to complex."""
    if np.isrealobj(kern):
        return kern @ v.real + 1j * (kern @ v.imag)
    return kern @ v


def _point_map(kernel: Kernel, in_grid: Grid1D, out_grid: Grid1D, cfg: QuadratureConfig):
    """The B = 0 kernel of order nu, a point map: |A|^(-power) e^{i C x^2/2A}
    f(x/A) times the matching factor, read off the field's spline; on a
    half-line grid the point is x/|A|.  The power is cross + col (every radial
    kernel that reaches B = 0 has 2 cross + row + col = 1), and 1/2 for the
    linear kernel, the nu = -1/2 case.  A mapped point past an end of the grid
    reads 0 there, so it runs the edge check on that end.

    For A < 0 the kernel's B -> 0 limit turns by a phase that depends on the
    side of B = 0 the residual B (|B| <= GEOMETRIC_B_TOL) sits on:
    `metaplectic_phase(nu + 1, mat)`.

    Returns the bytes held and the function of the field.
    """
    mat, out_x = kernel.matrix, out_grid.points
    if abs(mat.a.imag) > 1e-12:
        raise ValueError("geometric resampling implemented for real A only")
    nbytes = _held_bytes(16 * len(out_x), f"the point map onto {len(out_x)} points")
    cross, _, col = kernel.weights
    power, nu = (0.5, -0.5) if kernel.nu is None else (cross + col, kernel.nu)
    a = mat.a.real
    pts = out_x / (abs(a) if in_grid.kind == GridKind.HALF_LINE else a)
    factor = abs(a) ** (-power) * np.exp(0.5j * (mat.c / mat.a) * out_x**2)
    turn = kernel.matching * metaplectic_phase(nu + 1.0, mat)
    ends = tuple(end for end, past in ((0, pts < in_grid.start), (-1, pts > in_grid.end))
                 if np.any(past))

    def run(field):
        if ends:
            _edge_check(field, ends)
        vals = factor * _interpolant(field)(pts)
        return vals * turn if turn != 1 else vals

    return nbytes, run


def _check_field(kernel: Kernel, field):
    """The field checks the record calls for.  A field whose geometry carries
    another value of a parameter of the kernel's geometry is rejected; a
    callable carries none.  A radial kernel of a real-exponent matrix other
    than a Gaussian convolution requires exp(-r^2/4) decay."""
    if kernel.geometry is not None:
        geometry = getattr(field, "geometry", None)
        for key, value in vars(kernel.geometry).items():
            if abs(getattr(geometry, key, value) - value) > 1e-12:
                raise GeometryMismatch(f"field {geometry} does not match transform {key} {value}")
    mat = kernel.matrix
    if kernel.nu is not None and _real_exponent(mat) and _gaussian_variance(mat) is None:
        _require_gaussian_decay(field)


def _kernel_beats_growth(field: SampledField, xq: np.ndarray, fq: np.ndarray, tau: float,
                         out_ends):
    """Reject sampled inputs whose growth outruns a Gaussian-convolution kernel.

    `fq` holds the field's values at the points `xq` (the quadrature nodes,
    or the samples on the chirp-FFT path).  The kernel decays like
    exp(-(x - y)^2 / (2 tau)); its most pessimistic exponent is taken over
    the output points x in out_ends.  If |f(y)| e^{expo(y)} peaks in the
    outer 5% of the points at either end of a full-line grid, or at the outer
    end of a half-line grid (the axis is no tail), the integral is dominated
    by the truncated tail and cannot be trusted.
    """
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


def _linear_gl(kernel: Kernel, in_grid: Grid1D | None, out_grid: Grid1D,
               cfg: QuadratureConfig):
    mat = kernel.matrix
    xq, wq, values = _kernel_nodes(cfg, mat, in_grid, out_grid)
    out_x = out_grid.points
    nbytes = _kernel_bytes(len(out_x), len(xq), _real_exponent(mat))
    kern = _guarded_exp(_kernel_exponent(mat, out_x[:, None], xq[None, :], -2.0))
    scale = kernel.matching / cmath.sqrt(2j * math.pi * mat.b)
    return nbytes, lambda field: scale * _matvec(kern, wq * values(field))


def _lag_chirp(b: complex, h: float, delta: float, n: int, m: int, size: int) -> np.ndarray:
    """e^{i lag^2/2B} at the n + m - 1 lags delta + h k, k = -(n-1) .. m-1, zero-padded
    to `size`.  At delta = 0 it is even in k, so exp runs once per distinct |k|
    (h |k| and 0.0 + h k square to the same bits)."""
    z = np.zeros(size, dtype=complex)
    if delta == 0.0:
        half = np.exp((0.5j / b) * (h * np.arange(max(n, m))) ** 2)
        z[: n - 1] = half[n - 1 : 0 : -1]
        z[n - 1 : n - 1 + m] = half[:m]
    else:
        z[: n + m - 1] = np.exp((0.5j / b) * (delta + h * np.arange(-(n - 1), m)) ** 2)
    return z


def _chirp_fft(kernel: Kernel, in_grid: Grid1D, out_grid: Grid1D, cfg: QuadratureConfig):
    """Modulate by chirp_in, convolve with the lag chirp, modulate by chirp_out,
    keeping entries n-1 .. n+m-2 of the convolution (module docstring).

    chirp_in is 1 when A = 1; chirp_out is the scalar prefactor when D = 1, and
    the prefactor times chirp_in when A = D onto the input's own grid.  `nbytes`
    counts what the plan holds, checked against _MAX_KERNEL_BYTES before any of
    it is allocated: the FFT'd lag chirp and the chirps that are arrays.
    """
    from scipy import fft  # slow to import; only the chirp-FFT path needs it

    mat = kernel.matrix
    n, m_out = in_grid.count, out_grid.count
    size = fft.next_fast_len(n + m_out - 1)
    unit_in = mat.a == 1.0
    nbytes = _held_bytes(
        16 * size + (0 if unit_in else 16 * n) + (0 if mat.d == 1.0 else 16 * m_out),
        f"the chirp-FFT plan of {n} samples onto {m_out} points ({size}-point FFTs)")
    h = in_grid.step
    x = in_grid.points
    tau = _gaussian_variance(mat)
    b = mat.b
    chirp_in = None if unit_in else np.exp((0.5j / b) * (mat.a - 1.0) * x**2)
    chirp_out = kernel.matching * h / cmath.sqrt(2j * math.pi * b)
    if mat.d != 1.0:
        chirp_out = chirp_out * (chirp_in if mat.d == mat.a and out_grid == in_grid else
                                 np.exp((0.5j / b) * (mat.d - 1.0) * out_grid.points**2))
    z_hat = fft.fft(_lag_chirp(b, h, out_grid.start - in_grid.start, n, m_out, size),
                    overwrite_x=True)

    def run(field):
        f = field.values
        if tau is not None:  # before the edge check: a growing field raises, not warns
            _kernel_beats_growth(field, x, f, tau, (out_grid.start, out_grid.end))
        _edge_check(field, (0, -1))
        spec = fft.fft(f if chirp_in is None else f * chirp_in, size)
        spec *= z_hat
        return chirp_out * fft.ifft(spec, overwrite_x=True)[n - 1 : n - 1 + m_out]

    return nbytes, run


def _use_chirp_fft(mat: SympMat2, in_grid: Grid1D | None, out_grid: Grid1D) -> bool:
    """True where the rule of the module docstring takes chirp-FFT: a sampled
    input, a full-line output grid on its step h, and h resolving the kernel.
    A real matrix's kernel frequency |A y - x|/|B| is linear in y and x, so
    its max is at the corners of the grids.  A Gaussian convolution qualifies
    when e^{-tau pi^2/2h^2}, its kernel's spectrum at pi/h, is at most 1e-16.
    Other complex matrices take Gauss-Legendre, where the L-form guards run."""
    if in_grid is None or out_grid.kind != GridKind.FULL_LINE:
        return False
    h = in_grid.step
    if abs(out_grid.step - h) > 1e-12 * h:
        return False
    tau = _gaussian_variance(mat)
    if tau is not None:
        return tau * math.pi**2 / (2.0 * h * h) >= 16.0 * math.log(10.0)
    if not mat.is_real(1e-12):
        return False
    fastest = max(abs(mat.a.real * y - x) for y in (in_grid.start, in_grid.end)
                  for x in (out_grid.start, out_grid.end))
    return fastest * h < math.pi * abs(mat.b.real)


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


def _bessel_sum(kernel: Kernel, in_grid: Grid1D | None, out_grid: Grid1D,
                cfg: QuadratureConfig):
    """Quadrature of a radial kernel, shared by every radial transform.

    Sums (-i)^(nu+1)/B sum_j e^{i(A y_j^2 + D r^2)/2B} J_nu(r y_j/B)
    (r y_j)^cross r^row y_j^col w_j f_j for every output point r.  Real B
    gives the Bessel-J kernel, with the J_nu parity (integer nu only) for
    B < 0; its chirp has no r y term, so it is applied as two vectors,
    e^{iA y^2/2B} in the weights and e^{iD r^2/2B} on the output, and so is
    (r y)^cross = r^cross y^cross, around the float64 factors of
    `specfun.bessel_j_outer`: the call runs
    row_factor (core @ (interp.T @ (w f))), or core @ (w f) where the kernel
    stays dense (a non-integer order, or as many Chebyshev points as nodes).
    Their bytes are refused above _MAX_KERNEL_BYTES before they are built.
    An L-form B = i beta gives the Bessel-I kernel through
    J_nu(r y/(i beta)) = e^{-i pi nu sgn(beta)/2} I_nu(r y/|beta|), built by
    `specfun.bessel_i_outer` (module docstring) with its two chirps and the
    growth of I_nu in one exponent, since apart they could overflow.  On the
    axis the kernel behaves like r^(nu+cross+row): a positive power gives a
    zero row, power zero the finite limit (y/2|B|)^nu / Gamma(nu+1) y^cross
    y^col (times e^{expo(0, y)} for Bessel-I), and a negative power has no
    finite value, so an r = 0 output point is rejected.

    Towards the input axis the kernel behaves like y^(nu+cross+col).  A power
    <= -1 is not integrable, so a source grid that starts on the axis with a
    field not negligible there (above EDGE_WARN_LEVEL of its peak) is
    rejected.  Only the axis sample is read: a field that vanishes at the
    axis, or a grid that starts above it, is summed as given.  Callable
    inputs (Gaussian convolutions) have power mu - 1 > 0.  A non-integer
    power > -1 gets a Gauss-Jacobi first panel (`_gl_nodes`).  A Bessel-J
    argument r y/|B| above the guard of `specfun.bessel_j` is refused
    (KernelRefused) before the nodes are built.

    Returns the bytes the plan holds and the function of the field.
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
        k, xy = 1.0 / abs(beta), 2.0 * math.copysign(1.0, beta)
        rotation = cmath.exp(-0.5j * math.pi * nu * math.copysign(1.0, beta))
        pref = kernel.matching * (-1j) ** (nu + 1.0) / mat.b * rotation
    else:
        b = mat.b.real
        if b < 0 and abs(nu - round(nu)) > 1e-9:
            raise ValueError("negative B with non-integer Bessel order is not supported")
        k = 1.0 / abs(b)
        pref = kernel.matching * (-1j) ** (nu + 1.0) / b * ((-1.0) ** round(nu) if b < 0 else 1.0)
        reach, guard = k * float(np.max(ro)) * in_grid.end, specfun.bessel_j_guard(nu)
        if reach > guard:
            raise KernelRefused(f"{name}: the Bessel argument reaches {reach:.6g}, above the "
                                f"guard {guard:g} of J_{nu:g}; |B| = {abs(b):.3g} is too small "
                                "for these grids")
    xq, wq, values = _kernel_nodes(cfg, mat, in_grid, out_grid, source_power)
    w_col = wq if col == 0.0 else wq * xq**col
    with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 rows are set on apply
        row_factor = ro**row if row != 0.0 else 1.0
        if lform:
            nbytes = _kernel_bytes(len(ro), len(xq), True)
            a, d = mat.a.real, mat.d.real
            # E's rounding, and that of its separable bound, is a few ulps of the squares they sum
            square = (float(np.max(ro)) + float(np.max(xq))) ** 2 / (2.0 * abs(beta))
            ceiling = MAX_EXPONENT - 1e-13 * ((2.0 * abs(a) + 2.0 * abs(d) + 3.0) * square + 30.0)

            # I_nu(z) z^cross e^{(A y^2 + D r^2)/2 beta} at z = k r y; k^-cross on the rows
            # turns z^cross into the kernel's (r y)^cross
            def exponent(rows, cols, out):  # (A y^2 + D r^2)/2 beta + z, under the overflow guard
                _checked_exponent(_kernel_exponent(mat, ro[rows, None], xq[None, cols], xy, out))

            kern = specfun.bessel_i_outer(nu, k * ro, xq, cross, d * ro**2 / (2.0 * beta),
                                          a * xq**2 / (2.0 * beta), exponent, ceiling)
            interp, row_factor = None, row_factor * k**-cross
        else:
            # J_nu(k r y) as a core on the rows and an interpolation matrix on the nodes
            # (`specfun.bessel_j_outer`); the chirps and (r y)^cross = r^cross y^cross join the
            # row and column vectors
            cols = specfun.bessel_j_columns(nu, k * ro, xq)
            if cols == len(xq):
                nbytes = _kernel_bytes(len(ro), cols, True)
            else:
                nbytes = _held_bytes(8 * cols * (len(ro) + len(xq)),
                                     f"the {len(ro)} x {len(xq)} kernel's {cols}-column factors")
            if mat.a != 0:
                w_col = w_col * np.exp((0.5j / mat.b) * mat.a * xq**2)
            if mat.d != 0:
                row_factor = row_factor * np.exp((0.5j / mat.b) * mat.d * ro**2)
            if cross != 0.0:
                w_col, row_factor = w_col * xq**cross, row_factor * ro**cross
            kern, interp = specfun.bessel_j_outer(nu, k * ro, xq)
    limit = None
    if np.any(axis) and abs(power) <= 1e-12:
        limit = (0.5 * k * xq) ** nu / math.gamma(nu + 1.0)
        if lform:  # a Bessel-J plan holds y^cross in w_col
            limit = limit * xq**cross * _guarded_exp(_kernel_exponent(mat, 0.0, xq, xy))

    def run(field):
        if axis_source and abs(field.values[0]) > EDGE_WARN_LEVEL * np.max(np.abs(field.values)):
            raise ValueError(f"{name}: the kernel ~ y^{source_power:g} is not integrable at y = 0")
        wf = w_col * values(field)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = _matvec(kern, wf if interp is None else _matvec(interp.T, wf))
            vals *= row_factor
        if np.any(axis):
            vals[axis] = 0.0 if limit is None else limit @ wf
        return pref * vals

    return nbytes, run


def plan(kernel: Kernel, in_grid: Grid1D | None, out_grid: Grid1D,
         cfg: QuadratureConfig = DEFAULT_CONFIG) -> Plan:
    """The plan of `kernel` from `in_grid` (None: a callable input) to
    `out_grid`, to apply to any number of fields: the one builder of every
    transform.

    The linear kernel (nu None) reads full-line grids and a radial kernel
    half-line ones; a Gaussian convolution that is linear or carries a
    geometry also reads a callable.  The path is the point map at B = 0, else
    the Bessel sum for a radial kernel, else chirp-FFT or Gauss-Legendre as
    the module docstring says; each folds in the matching factor.  With
    `cfg.apodization` the plan holds the Gaussian window on the input grid,
    centred on the axis of a half-line grid and the midpoint of a full-line one.
    """
    if not isinstance(kernel, Kernel):
        raise TypeError(f"a plan is built from a Kernel, not {kernel!r}")
    mat, nu = kernel.matrix, kernel.nu
    point_map = abs(mat.b) <= GEOMETRIC_B_TOL
    takes_callable = (not point_map and _gaussian_variance(mat) is not None
                      and (nu is None or kernel.geometry is not None))
    kind = GridKind.FULL_LINE if nu is None else GridKind.HALF_LINE
    if (in_grid is not None or not takes_callable) and getattr(in_grid, "kind", None) != kind:
        raise GeometryMismatch(f"the transform needs a sampled field on a {kind} grid")
    if point_map:
        build = _point_map
    elif nu is not None:
        build = _bessel_sum
    else:
        _integrability(mat)
        build = _chirp_fft if _use_chirp_fft(mat, in_grid, out_grid) else _linear_gl
    nbytes, run = build(kernel, in_grid, out_grid, cfg)
    window = None
    if in_grid is not None and cfg.apodization is not None:
        center = 0.0 if in_grid.kind == GridKind.HALF_LINE else 0.5 * (in_grid.start + in_grid.end)
        window = np.exp(-((in_grid.points - center) ** 2) / (2.0 * cfg.apodization**2))
        nbytes += window.nbytes
    return Plan(kernel, in_grid, out_grid, nbytes, run, window)


def apply(kernel: Kernel, field, out_grid: Grid1D,
          cfg: QuadratureConfig = DEFAULT_CONFIG) -> SampledField:
    """Apply `kernel` to a field: build its plan for the field's grid, then call it."""
    in_grid = field.grid if isinstance(field, SampledField) else None
    return plan(kernel, in_grid, out_grid, cfg)(field)


# ---------------------------------------------------------------------------
# the transforms: each returns the kernel record of its matrix

def linear_ct(matrix: SympMat2) -> Kernel:
    """The kernel transform of `matrix` on sampled linear-geometry fields."""
    return Kernel("linear_ct", matrix)


def geometric(matrix: SympMat2) -> Kernel:
    """Imaging-limit transform (B = 0): chirp modulation plus rescaling."""
    if abs(matrix.b) > GEOMETRIC_B_TOL:
        raise ValueError("geometric transform needs B = 0")
    return Kernel("geometric", matrix)


def fresnel_propagate(zeta: float) -> Kernel:
    """Free (Fresnel) propagation of a linear wavefunction by zeta."""
    return replace(linear_ct(mat_free(zeta)), evol_shift=zeta)


def _fractional(name: str, family, alpha: float) -> Kernel:
    """Order alpha of a fractional family, 4-periodic: alpha is reduced to (-2, 2] before
    the e^{i pi alpha/4} matching factor, which alone would flip sign under alpha + 4."""
    alpha = reduce_order(alpha)
    return Kernel(name, family(alpha), matching=cmath.exp(0.25j * math.pi * alpha))


def frft(alpha: float) -> Kernel:
    """Fractional Fourier transform, mathematical normalization; 4-periodic in alpha."""
    return _fractional("frft", mat_fourier, alpha)


def fr_laplace(alpha: float) -> Kernel:
    """Fractional bilateral Laplace transform on a real output grid.

    Carries the i^(alpha/2) matching factor, so alpha = 1 reproduces
    (2 pi i)^(-1/2) times the bilateral Laplace integral.  4-periodic in
    alpha, as `frft` is.
    """
    return _fractional("fr_laplace", mat_laplace, alpha)


def poisson_propagate(t: float) -> Kernel:
    """Diffuse by t > 0: the kernel transform of mat_poisson(t), a Gaussian
    convolution of the input data.

    A sampled field is integrated over its grid support (by chirp-FFT where
    the grids resolve the kernel, see the module docstring), a callable f(y)
    over the output window widened by 12 sqrt(t).
    """
    if t <= 0:
        raise ValueError("diffusion time must be positive")
    return Kernel("poisson_propagate", mat_poisson(t), evol_shift=t)


def radial_ct(matrix: SympMat2, n_dim: float, m: int) -> Kernel:
    """Radial canonical transform for a real or L-form matrix, dimension n, index m.

    Kernel ((-i)^(m+n/2)/B) (r r')^(1-n/2) exp(i(A r'^2 + D r^2)/2B)
    J_{n/2+m-1}(r r'/B) against the r'^(n-1) dr' measure; A acts on the
    input variable, matching the radial diffraction-integral convention.
    An L-form matrix gives the Bessel-I kernel; it requires exp(-r^2/4) decay
    unless it is a Gaussian convolution, which runs the growth guard.
    """
    if not matrix.is_real(1e-12) and not matrix.is_l_form():
        raise ValueError("radial_ct handles real and L-form matrices")
    return Kernel("radial_ct", matrix, n_dim / 2.0 + m - 1.0, _dim_weights(n_dim),
                  geometry=RadialDim(n_dim, m))


def radial_propagate(zeta: float, m: int) -> Kernel:
    """Free propagation of a radial wavefunction by zeta (Bessel-J kernel)."""
    return replace(radial_ct(mat_free(zeta), 2.0, m), evol_shift=zeta)


def hankel(m: int) -> Kernel:
    """Hankel transform of order m with the r' dr' measure."""
    return Kernel("hankel", _HANKEL_MAT, m, _dim_weights(2.0), 1j ** (m + 1),
                  geometry=RadialDim(2.0, m))


def fr_hankel(m: int, alpha: float) -> Kernel:
    """Fractional Hankel transform of order m (2-periodic in alpha)."""
    return Kernel("fr_hankel", mat_fourier(alpha), m, _dim_weights(2.0),
                  cmath.exp(0.5j * math.pi * (m + 1) * alpha), geometry=RadialDim(2.0, m))


def _check_kind_and_order(kind: int, nu: float):
    if kind not in (1, 2):
        raise ValueError("kind must be 1 or 2")
    if nu < -0.5:
        raise ValueError("nu must be >= -1/2")


def hankel_type(kind: int, nu: float, nu_prime: float) -> Kernel:
    """First or second Hankel-type transform of order nu, parameter nu'."""
    _check_kind_and_order(kind, nu)
    return Kernel("hankel_type", _HANKEL_MAT, nu, _type_weights(kind, nu_prime), 1j ** (nu + 1.0),
                  geometry=RadialType(nu, nu_prime))


def radial_laplace(kind: int, nu: float, nu_prime: float) -> Kernel:
    """Radial-Laplace-type transform (Bessel-I kernel, phase exp(-i pi (1+nu)))."""
    _check_kind_and_order(kind, nu)
    return Kernel("radial_laplace", _RADIAL_LAPLACE_MAT, nu, _type_weights(kind, nu_prime))


def fr_radial_laplace(alpha: float, nu: float, nu_prime: float) -> Kernel:
    """Fractional first radial-Laplace-type transform.

    Realizes the radial canonical transform of the hyperbolic-rotation matrix
    [[cos phi, i sin phi], [i sin phi, cos phi]]; alpha = 1 coincides with
    radial_laplace(kind=1).
    """
    return Kernel("fr_radial_laplace", mat_laplace(alpha), nu, _type_weights(1, nu_prime))


def bessel_exp(beta: float | str, nu: float, nu_prime: float) -> Kernel:
    """Functional form of exp(beta B^dagger): Gaussian-I kernel, beta > 0.

    The tag beta = "i/2" gives exp((i/2) B^dagger), the oscillatory
    continuation of the heat kernel: kernel
    -i e^{-i pi nu/2} x^{1+2nu'} (xy)^{-nu'} e^{i(x^2+y^2)/2} J_nu(xy);
    sandwiching it between e^{-i x^2/2} modulations and the i^{nu+1} factor
    reproduces the first Hankel-type transform.
    """
    if beta == "i/2":
        return Kernel("bessel_exp_quarter_turn", mat_free(1.0), nu, _type_weights(1, nu_prime))
    if not isinstance(beta, (int, float)) or beta <= 0:
        raise ValueError("beta must be positive or the tag 'i/2'")
    return Kernel("bessel_exp", mat_poisson(2.0 * beta), nu, _type_weights(1, nu_prime))


def radial_heat_propagate(t: float, mu: float) -> Kernel:
    """Diffuse a radial profile by t > 0 in effective dimension mu.

    A sampled field is integrated over its grid support, a callable f(r)
    over [0, r_max + 12 sqrt(t)].
    """
    if t <= 0:
        raise ValueError("diffusion time must be positive")
    if mu <= 1:
        raise ValueError("mu must exceed 1")
    return Kernel("radial_heat_propagate", mat_poisson(t), mu / 2.0 - 1.0, _dim_weights(mu),
                  evol_shift=t, geometry=RadialDim(mu, 0))


def barut_girardello(n_dim: float, m: int) -> Kernel:
    """Bessel-I radial transform built on the Bargmann matrix, forward direction."""
    return Kernel("barut_girardello", mat_bargmann(), n_dim / 2.0 + m - 1.0,
                  (1.0 - n_dim / 2.0, 0.0, 0.0))


# CLI name -> the transform's function of its parameters
TRANSFORMS = {
    "linear-ct": linear_ct, "geometric": geometric, "fresnel-prop": fresnel_propagate,
    "frft": frft, "fr-laplace": fr_laplace, "poisson-prop": poisson_propagate,
    "radial-ct": radial_ct, "hankel": hankel, "fr-hankel": fr_hankel,
    "hankel-type": hankel_type, "radial-laplace": radial_laplace,
    "fr-radial-laplace": fr_radial_laplace, "bessel-exp": bessel_exp,
    "radial-heat-prop": radial_heat_propagate, "barut-girardello": barut_girardello,
}
