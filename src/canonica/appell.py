"""The four families of Appell-type symmetry maps, ordinary and fractional.

Each map has two realizations:

* an analytic path (`appell_analytic`) remapping a closed-form solution:
  the output is again evaluable at arbitrary (coordinate, evolution value);
* a numeric path (`appell_numeric`) acting on sampled source data at
  evolution value 0.  Its fractional stage followed by the propagator is,
  by the metaplectic representation, one canonical transform of the product
  T(zeta) F^alpha (wave) or P(t) L^alpha (heat), up to a sign (Moshinsky &
  Quesne, J. Math. Phys. 12, 1971): the path runs that one kernel times the
  stage's matching factor and sigma = exp(-i pi p (s1 + s2 - s1 s2 s - s)/2),
  with s1, s2, s the signs of B of stage, propagator and product (real part
  for wave, imaginary part for L-form matrices) and p = nu + 1 of the kernel:
  1/2 on the line, m + 1 for radial wave (sigma = 1), mu/2 for radial heat.

Branch handling: the square-root (and mu/2-power) prefactors of the
analytic maps are evaluated as principal powers of c * exp(-i phi) rather
than of c alone.  This keeps the prefactor on the branch selected by the
actual operator composition (convolution chains of absolutely convergent
Gaussian integrals), which differs from the naive principal root by a sign
exactly when c < 0 and sin phi < 0; the test suite checks this against
closed-form Gaussian probe chains.
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
)
from .symplectic import SympMat2, compose, mat_fourier, mat_free, mat_laplace, reduce_order
from . import transforms
from .transforms import DEFAULT_CONFIG, QuadratureConfig

SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class AppellSpec:
    """Which symmetry map to apply.

    equation selects the family; m is the azimuthal index (radial wave
    kind), mu the effective dimension (radial heat kind, mu > 1).  The
    inverse direction is the order-(-alpha) map.
    """

    equation: EquationKind
    alpha: float = 1.0
    evol: float = 0.0
    direction: Direction = Direction.FORWARD
    m: int = 0
    mu: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", reduce_order(float(self.alpha)))
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


# the on-locus branch (source-transform) evaluations use 40 panels of 48
# Gauss-Legendre nodes over the slice's decay radius
def _fourier_at(src: AnalyticField, zeta: float, k: np.ndarray) -> np.ndarray:
    """Mathematical Fourier transform of the field's fixed-evolution slice."""
    fn = lambda x: src.eval(x, zeta)  # noqa: E731
    radius = _decay_radius(fn)
    xq, wq = transforms._gl_nodes(-radius, radius, 40, 48)
    return np.exp(-1j * np.outer(k, xq)) @ (wq * fn(xq)) / math.sqrt(2.0 * math.pi)


def _hankel_at(src: AnalyticField, m: int, zeta: float, k: np.ndarray) -> np.ndarray:
    fn = lambda x: src.eval(x, zeta)  # noqa: E731
    radius = _decay_radius(lambda x: fn(np.abs(x)))
    xq, wq = transforms._gl_nodes(0.0, radius, 40, 48)
    # J_m(k x) = sign(k)^m J_m(|k x|) for x >= 0
    return np.sign(k) ** m * (specfun.bessel_j(m, np.abs(np.outer(k, xq))) @ (wq * xq * fn(xq)))


class AppellImage(AnalyticField):
    """Closed-form image of a field under a symmetry map; itself a solution."""

    def __init__(self, src: AnalyticField, spec: AppellSpec):
        _check_match(src, spec)
        self.src = src
        self.spec = spec
        self.equation = src.equation
        self.geometry = src.geometry

    def _eval(self, x, evol):
        spec = self.spec
        alpha = spec.effective_alpha
        phi = alpha * math.pi / 2.0
        s, c0 = math.sin(phi), math.cos(phi)
        eq = spec.equation
        if eq is EquationKind.PWE:
            c = c0 - evol * s
            if abs(c) <= SINGULAR_TOL:
                return self._pwe_on_locus(x, evol, phi, s)
            pref = _branch_power(c, phi, -0.5)
            chirp = np.exp(-0.5j * x**2 * s / c)
            return pref * chirp * self.src.eval(x / c, (s + evol * c0) / c)
        if eq is EquationKind.RADIAL_PWE:
            c = c0 - evol * s
            if abs(c) <= SINGULAR_TOL:
                return self._radial_on_locus(x, evol, phi, s)
            pref = cmath.exp(1j * (spec.m + 1) * phi) / c
            chirp = np.exp(-0.5j * x**2 * s / c)
            return pref * chirp * self.src.eval(x / c, (s + evol * c0) / c)
        if eq is EquationKind.HEAT:
            c = c0 + evol * s
            if abs(c) <= SINGULAR_TOL:
                raise SingularEvol(f"caloric map prefactor vanishes at t = {evol}")
            pref = cmath.exp(-0.5j * phi) * _branch_power(c, phi, -0.5)
            damp = np.exp(-0.5 * x**2 * s / c)
            return pref * damp * self.src.eval(x / c, (evol * c0 - s) / c)
        # radial heat
        c = c0 + evol * s
        if abs(c) <= SINGULAR_TOL:
            raise SingularEvol(f"radial caloric map prefactor vanishes at t = {evol}")
        mu = spec.mu
        pref = cmath.exp(-0.5j * phi * mu) * _branch_power(c, phi, -mu / 2.0)
        damp = np.exp(-0.5 * x**2 * s / c)
        return pref * damp * self.src.eval(x / c, (evol * c0 - s) / c)

    def _pwe_on_locus(self, x, zeta, phi, s):
        """Branch at cos phi = zeta sin phi: Fourier transform of the slice."""
        scale = (1.0 + zeta**2) * s
        pref = _branch_power(scale, phi - math.pi / 2.0, -0.5)
        chirp = np.exp(1j * zeta * x**2 / (1.0 + zeta**2))
        return pref * chirp * _fourier_at(self.src, zeta, x / scale)

    def _radial_on_locus(self, x, zeta, phi, s):
        scale = (1.0 + zeta**2) * s
        pref = cmath.exp(1j * (self.spec.m + 1) * (phi - math.pi / 2.0)) / scale
        chirp = np.exp(1j * zeta * x**2 / (1.0 + zeta**2))
        return pref * chirp * _hankel_at(self.src, self.spec.m, zeta, x / scale)


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
    a = alpha if eq.is_radial else reduce_order(alpha)  # each stage engine's own order
    stage = (mat_laplace if eq.is_heat else mat_fourier)(a)
    prop = SympMat2(1.0, -1j * evol, 0.0, 1.0) if eq.is_heat else mat_free(evol)
    mat = compose(prop, stage)
    matching, p = {  # the stage's matching factor, and the power nu + 1 of its kernel
        EquationKind.PWE: (cmath.exp(0.25j * math.pi * a), 0.5),
        EquationKind.HEAT: (cmath.exp(0.25j * math.pi * (a - alpha)), 0.5),
        EquationKind.RADIAL_PWE: (cmath.exp(0.5j * math.pi * (spec.m + 1) * alpha), spec.m + 1.0),
        EquationKind.RADIAL_HEAT: (1.0, spec.mu / 2.0),
    }[eq]
    # the signs of B1, B2 and B: real parts of wave matrices, imaginary parts of L-form ones
    s1, s2, s = (-1.0 if (x.b.imag if eq.is_heat else x.b.real) < 0 else 1.0
                 for x in (stage, prop, mat))
    factor = matching * cmath.exp(-0.5j * math.pi * p * (s1 + s2 - s1 * s2 * s - s))
    if not eq.is_radial:
        return transforms.linear_ct(mat, source, out_grid, cfg, factor, evol)
    n_dim, m = (spec.mu, 0) if eq.is_heat else (2.0, spec.m)
    out = transforms.radial_ct(source, mat, n_dim, m, out_grid, cfg, evol)
    return replace(out, values=factor * out.values)


def self_appell_eigencheck(mode: str, n: int, alpha: float, zeta: float,
                           grid: Grid1D, m: int = 0) -> float:
    """Max deviation |A^alpha mode - eigenvalue * mode| over the grid.

    mode "hg": eigenvalue (-i)^(alpha n); mode "lg": eigenvalue (-1)^(alpha n).
    """
    from .fields import StdHG, StdLG

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
