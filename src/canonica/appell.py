"""The four families of Appell-type symmetry maps, ordinary and fractional.

Each family is one record (p, n/2), the power p = nu + 1 of its kernel and
half its dimension: (1/2, 1/2) for the PWE and heat, (m + 1, 1) for radial
wave, (mu/2, mu/2) for radial heat; and one (stage, propagator) pair,
`symplectic.appell_factors`.  By the metaplectic representation both paths
act by the pair's product [[A, B], [C, D]]:

* the analytic path (`appell_analytic`) remaps a closed-form solution f to the
  solution pref e^{i C x^2/2A} f(x/A, evol'), evol' the evolution value of B/A.
  pref = e^{i(p_w - n/2) phi} (A e^{-i phi})^{-n/2}, phi = alpha pi/2, is the
  stage's matching factor e^{i p_w phi} (p_w = p for wave, 0 for heat) times
  e^{-i n phi/2} (A e^{-i phi})^{-n/2}; on the wave locus A = 0 it reads B for
  A and phi - pi/2 for phi.  The principal power of A e^{-i phi}, not of A, is
  the branch the operator chain (convolutions of absolutely convergent
  Gaussian integrals) selects; it differs from the naive one by a sign exactly
  when A < 0 and sin phi < 0, as the tests' Gaussian probe chains check;
* the numeric path (`appell_numeric`) maps sampled data at evolution value 0
  by one canonical transform of the product, times the matching factor and
  the pair's `symplectic.metaplectic_phase`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import specfun
from .common import Direction, EquationKind, EquationMismatch, SingularEvol
from .fields import (
    AnalyticField,
    Grid1D,
    GridKind,
    RadialDim,
    SampledField,
    StdHG,
    StdLG,
)
from .symplectic import appell_factors, compose, metaplectic_phase, reduce_order
from . import transforms
from .transforms import DEFAULT_CONFIG, QuadratureConfig

SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class AppellSpec:
    """Which symmetry map to apply.

    equation selects the family; m is the azimuthal index (radial wave
    kind), mu the effective dimension (radial heat kind, mu > 1).  The
    inverse direction is the order-(-alpha) map.  The wave families are
    4-periodic in alpha, which is reduced to (-2, 2]; the caloric ones obey
    A^{alpha+4} = e^{-i pi mu} A^alpha (mu = 1 on the line), so their alpha
    is kept as given.
    """

    equation: EquationKind
    alpha: float = 1.0
    evol: float = 0.0
    direction: Direction = Direction.FORWARD
    m: int = 0
    mu: float = 2.0

    def __post_init__(self):
        alpha = float(self.alpha)
        object.__setattr__(self, "alpha", alpha if self.equation.is_heat else reduce_order(alpha))
        if self.equation is EquationKind.RADIAL_HEAT and self.mu <= 1.0:
            raise ValueError("radial heat maps need mu > 1")
        if self.m < 0:
            raise ValueError("azimuthal index must be nonnegative")

    @property
    def effective_alpha(self) -> float:
        return self.alpha if self.direction is Direction.FORWARD else -self.alpha


def _branch_power(c: float, phi: float, power: float) -> complex:
    """Principal power of c*exp(-i phi), the branch the operator chain selects."""
    return cmath.exp(power * cmath.log(c * cmath.exp(-1j * phi)))


def _family_record(spec: AppellSpec) -> tuple[float, float, float]:
    """The record (p, n/2, p_w) of the map's family (module docstring)."""
    p, half = {EquationKind.PWE: (0.5, 0.5), EquationKind.HEAT: (0.5, 0.5),
               EquationKind.RADIAL_PWE: (spec.m + 1.0, 1.0),
               EquationKind.RADIAL_HEAT: (spec.mu / 2.0, spec.mu / 2.0)}[spec.equation]
    return p, half, 0.0 if spec.equation.is_heat else p


def _check_match(src: AnalyticField, spec: AppellSpec):
    if src.equation is not spec.equation:
        raise EquationMismatch(
            f"field solves {src.equation.value}, map is for {spec.equation.value}"
        )
    if spec.equation is EquationKind.RADIAL_PWE and getattr(src.geometry, "m", 0) != spec.m:
        raise EquationMismatch("azimuthal index of field and map differ")
    if spec.equation is EquationKind.RADIAL_HEAT:
        geo = src.geometry
        if isinstance(geo, RadialDim) and abs(geo.n_dim - spec.mu) > 1e-12:
            raise EquationMismatch("field dimension and map mu differ")


def _decay_radius(fn, start: float = 4.0, cap: float = 48.0) -> float:
    r = start
    while r < cap:
        probe = np.linspace(0.9 * r, r, 5)
        if np.max(np.abs(fn(probe))) < 1e-15 and np.max(np.abs(fn(-probe))) < 1e-15:
            return r
        r *= 1.5
    raise SingularEvol(
        "the field's slice does not decay; its source-plane transform is not "
        "available on the singular locus"
    )


_LOCUS_NODES = 48  # Gauss-Legendre nodes a panel of the on-locus quadrature
_LOCUS_MAX_PANELS = 64
_LOCUS_AGREEMENT = 1e-12  # of the integrand's L1 size


def _locus_quadrature(g, kernel, lo: float, hi: float, k: np.ndarray) -> np.ndarray:
    """The integral of kernel(x) g(x) over [lo, hi] on composite Gauss-Legendre
    panels, for a kernel of modulus <= 1 whose phase moves at most max |k| per
    unit length (e^{-ikx}, J_m(kx)); kernel(x) is the len(k) x len(x) matrix.

    The panel count starts from the kernel's phase rule, at most Phi(48) of
    phase a panel (`transforms._panel_phase`), and doubles until two successive
    rules agree within _LOCUS_AGREEMENT of sum w |g|, the integrand's L1 size.
    That size bounds the integral at every k, so one that vanishes at some k
    still converges.  The finer rule is returned.  The count stops at
    _LOCUS_MAX_PANELS, where an unconverged result comes with a
    TruncationWarning that names the difference reached.
    """
    def rule(panels):
        xq, wq = transforms._gl_nodes(lo, hi, panels, _LOCUS_NODES)
        wg = wq * g(xq)
        return kernel(xq) @ wg, float(np.sum(np.abs(wg)))

    k_max = float(np.max(np.abs(k), initial=0.0))
    panels = math.ceil(k_max * (hi - lo) / transforms._panel_phase(_LOCUS_NODES))
    panels = min(max(1, panels), _LOCUS_MAX_PANELS // 2)
    coarse, _ = rule(panels)
    while True:
        panels = min(2 * panels, _LOCUS_MAX_PANELS)
        fine, size = rule(panels)
        gap = float(np.max(np.abs(fine - coarse), initial=0.0))
        if gap <= _LOCUS_AGREEMENT * size:
            return fine
        if panels == _LOCUS_MAX_PANELS:
            transforms._warn(
                f"the source transform on the singular locus has not converged at "
                f"{panels} panels of {_LOCUS_NODES} nodes: its last two rules differ by "
                f"{gap / size:.2e} of the integrand's size")
            return fine
        coarse = fine


def _fourier_at(src: AnalyticField, zeta: float, k: np.ndarray) -> np.ndarray:
    """Mathematical Fourier transform of the field's fixed-evolution slice."""
    fn = lambda x: src.eval(x, zeta)  # noqa: E731
    radius = _decay_radius(fn)
    kernel = lambda x: np.exp(-1j * np.outer(k, x))  # noqa: E731
    return _locus_quadrature(fn, kernel, -radius, radius, k) / math.sqrt(2.0 * math.pi)


def _hankel_at(src: AnalyticField, m: int, zeta: float, k: np.ndarray) -> np.ndarray:
    fn = lambda x: src.eval(x, zeta)  # noqa: E731
    radius = _decay_radius(lambda x: fn(np.abs(x)))
    # J_m(k x) = sign(k)^m J_m(|k x|) for x >= 0
    kernel = lambda x: specfun.bessel_j(m, np.abs(np.outer(k, x)))  # noqa: E731
    return np.sign(k) ** m * _locus_quadrature(lambda x: x * fn(x), kernel, 0.0, radius, k)


class AppellImage(AnalyticField):
    """Closed-form image of a field under a symmetry map; itself a solution."""

    def __init__(self, src: AnalyticField, spec: AppellSpec):
        _check_match(src, spec)
        self.src = src
        self.spec = spec
        self.equation = src.equation
        self.geometry = src.geometry
        _, self._half, p_w = _family_record(spec)
        self._turn, self._phi = p_w - self._half, spec.effective_alpha * math.pi / 2.0
        self._stage, self._prop = appell_factors(spec.equation, spec.effective_alpha, 1.0)

    def _prefactor(self, c, phi):
        return cmath.exp(1j * self._turn * phi) * _branch_power(c, phi, -self._half)

    def _eval(self, x, evol):
        # A and B of the product; the propagator at evol is [[1, evol * unit], [0, 1]]
        st, unit = self._stage, self._prop.b
        c, bb = (st.a + evol * unit * st.c).real, st.b + evol * unit * st.d
        if abs(c) <= SINGULAR_TOL:
            return self._on_locus(x, evol, bb.real)
        chirp = np.exp(0.5j * x**2 * st.c / c)
        src = self.src.eval(x / c, (bb / c / unit).real)
        return self._prefactor(c, self._phi) * chirp * src

    def _on_locus(self, x, evol, scale):
        """Branch at A = 0: the Fourier (Hankel) transform of the slice at evol, at x/B,
        under the chirp of the map from that slice, [[0, B], [C, D - evol C]]."""
        if self.equation.is_heat:
            raise SingularEvol(f"caloric map prefactor vanishes at t = {evol}")
        k = x / scale
        slice_at = (_hankel_at(self.src, self.spec.m, evol, k) if self.equation.is_radial
                    else _fourier_at(self.src, evol, k))
        chirp = np.exp(0.5j * x**2 * (self._stage.d - evol * self._stage.c) / scale)
        return self._prefactor(scale, self._phi - math.pi / 2.0) * chirp * slice_at


def appell_analytic(src: AnalyticField, spec: AppellSpec) -> AppellImage:
    """Symmetry image of an analytic solution; evaluable anywhere off the
    singular locus of the map."""
    return AppellImage(src, spec)


def appell_numeric(source: SampledField, spec: AppellSpec, out_grid: Grid1D,
                   cfg: QuadratureConfig = DEFAULT_CONFIG,
                   mid_grid: Grid1D | None = None) -> SampledField:
    """Numeric symmetry map of source data at evolution value 0: one kernel transform
    of the propagator to spec.evol times the fractional stage, with its matching
    factor and sign (module docstring).  `mid_grid` is accepted and ignored."""
    if abs(source.evol) > 1e-12:
        raise ValueError("numeric path needs the source data at evolution value 0")
    eq, alpha, evol = spec.equation, spec.effective_alpha, spec.evol
    kind = GridKind.HALF_LINE if eq.is_radial else GridKind.FULL_LINE
    if source.grid.kind != kind:
        raise EquationMismatch(f"{'radial' if eq.is_radial else 'linear'} maps need {kind} sources")
    if eq.is_heat and evol < 0:
        raise ValueError("diffusion time must be positive")
    p, half, p_w = _family_record(spec)
    # a caloric order past +-2 runs as its reduced order times the phase of the wrap
    wrap = alpha - reduce_order(alpha) if abs(alpha) > 2.0 else 0.0
    stage, prop = appell_factors(eq, alpha - wrap, evol)
    mat = compose(prop, stage)
    factor = cmath.exp(0.5j * math.pi * p_w * alpha) * metaplectic_phase(p, stage, prop)
    if wrap:  # A^{alpha+4} = e^{-i pi mu} A^alpha, mu = 2p
        factor *= cmath.exp(-0.5j * math.pi * p * wrap)
    # the radial kernel's order nu = p - 1 is n/2 + m - 1
    kernel = (transforms.radial_ct(mat, 2.0 * half, int(p - half)) if eq.is_radial
              else transforms.linear_ct(mat))
    kernel = replace(kernel, matching=factor, evol_shift=evol)
    return transforms.apply(kernel, source, out_grid, cfg)


def self_appell_eigencheck(mode: str, n: int, alpha: float, zeta: float,
                           grid: Grid1D, m: int = 0) -> float:
    """Max deviation |A^alpha mode - eigenvalue * mode| over the grid.

    mode "hg": eigenvalue (-i)^(alpha n); mode "lg": eigenvalue (-1)^(alpha n).
    """
    if mode == "hg":
        field = StdHG(n)
        spec = AppellSpec(EquationKind.PWE, alpha=alpha)
        eigen = cmath.exp(alpha * n * cmath.log(-1j))
    elif mode == "lg":
        field = StdLG(n, m)
        spec = AppellSpec(EquationKind.RADIAL_PWE, alpha=alpha, m=m)
        # (-1)^(alpha n) read as the square of the (-i) power, so the
        # eigenvalue family stays continuous in alpha and agrees with the
        # fractional Hankel integral: exp(-i pi alpha n)
        eigen = cmath.exp(2.0 * alpha * n * cmath.log(-1j))
    else:
        raise ValueError("mode must be 'hg' or 'lg'")
    image = appell_analytic(field, spec)
    pts = grid.points
    dev = image.eval(pts, zeta) - eigen * field.eval(pts, zeta)
    return float(np.max(np.abs(dev)))
