"""Symmetry-map tests.

The fractional maps are checked against operator-composition oracles built
from absolutely convergent Gaussian integrals: a Gaussian probe is pushed
through transform-then-propagate entirely in closed form, which pins the
branch of every square root without reference to the display formulas.
"""

import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from canonica.common import (
    CanonicaError,
    Direction,
    DivergenceRisk,
    EquationKind,
    EquationMismatch,
    SingularEvol,
    TruncationWarning,
)
from canonica.fields import (
    AnalyticField,
    BesselBeam,
    BesselGauss,
    Gauss,
    Grid1D,
    GridKind,
    HeatPoly,
    PlaneChirp,
    Radial,
    RadialDim,
    SampledField,
    StdHG,
    StdLG,
    sample,
)
from canonica.appell import (
    AppellSpec,
    appell_analytic,
    appell_numeric,
    self_appell_eigencheck,
)
from canonica import transforms
from canonica.transforms import QuadratureConfig, frft

EK = EquationKind
CFG16 = QuadratureConfig(nodes_per_panel=16)


# ---------------------------------------------------------------------------
# closed-form Gaussian probe chains (independent oracles)

def _csqrt(z):
    return cmath.sqrt(complex(z))


def _frft_gauss(N, q, alpha):
    """Mathematical fractional Fourier transform of N exp(-q x^2/2)."""
    phi = alpha * math.pi / 2
    s, c = math.sin(phi), math.cos(phi)
    if abs(s) < 1e-14:
        return N, q
    Q = q - 1j * c / s
    pref = cmath.exp(0.5j * phi) / _csqrt(2j * math.pi * s) * _csqrt(2 * math.pi / Q)
    return N * pref, -1j * c / s + 1 / (s * s * Q)


def _fresnel_gauss(N, q, zeta):
    if abs(zeta) < 1e-15:
        return N, q
    Q = q - 1j / zeta
    pref = N / _csqrt(2j * math.pi * zeta) * _csqrt(2 * math.pi / Q)
    return pref, -1j / zeta + 1 / (zeta * zeta * Q)


def _tl_gauss(N, q, alpha):
    """Bare kernel transform of the hyperbolic matrix on N exp(-q x^2/2)."""
    phi = alpha * math.pi / 2
    s, c = math.sin(phi), math.cos(phi)
    Q = q - c / s
    if Q <= 0.05:  # keep the probe chain well conditioned
        return None
    pref = N / _csqrt(2j * math.pi * 1j * s) * _csqrt(2 * math.pi / Q)
    return pref, -c / s - 1 / (s * s * Q)


def _poisson_gauss(N, q, t):
    Q = q + 1 / t
    if complex(Q).real <= 0.05:
        return None
    return N / _csqrt(2 * math.pi * t) * _csqrt(2 * math.pi / Q), 1 / t - 1 / (t * t * Q)


def _gauss_eval(N, q, x):
    return N * np.exp(-q * x * x / 2)


def test_pwe_fractional_map_matches_operator_chain():
    g0 = 0.7
    x = np.array([0.0, 0.41, -1.3])
    worst = 0.0
    for alpha in np.linspace(-1.95, 2.0, 24):
        for zeta in (-3.0, -1.2, -0.4, 0.5, 0.7, 1.3, 2.0):
            phi = alpha * math.pi / 2
            if abs(math.cos(phi) - zeta * math.sin(phi)) < 5e-2:
                continue
            Nf, qf = _frft_gauss(1.0, g0, alpha)
            Nw, qw = _fresnel_gauss(Nf, qf, zeta)
            truth = _gauss_eval(Nw, qw, x)

            class Probe(AnalyticField):
                equation = EK.PWE
                geometry = Gauss(1.0).geometry

                def _eval(self, xx, zz):
                    return _gauss_eval(*_fresnel_gauss(1.0, g0, zz), xx)

            image = appell_analytic(Probe(), AppellSpec(EK.PWE, alpha=alpha))
            dev = np.abs(image.eval(x, zeta) - truth) / np.maximum(1.0, np.abs(truth))
            worst = max(worst, float(np.max(dev)))
    assert worst < 1e-12


def test_heat_fractional_map_matches_operator_chain():
    g0 = 1.3
    x = np.array([0.0, 0.63, -0.9])
    worst, tested = 0.0, 0
    for alpha in np.linspace(-1.95, 2.0, 24):
        for t in (0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.3, 1.7, 2.5):
            phi = alpha * math.pi / 2
            s = math.sin(phi)
            if abs(s) < 1e-12 or abs(math.cos(phi) + t * s) < 5e-2:
                continue
            r1 = _tl_gauss(1.0, g0, alpha)
            if r1 is None:
                continue
            r2 = _poisson_gauss(*r1, t)
            if r2 is None:
                continue
            tested += 1
            truth = _gauss_eval(*r2, x)

            class Probe(AnalyticField):
                equation = EK.HEAT
                geometry = Gauss(1.0).geometry

                def _eval(self, xx, tt):
                    mu = 1 / g0 + tt
                    return complex(1 / g0) ** 0.5 * complex(mu) ** -0.5 * np.exp(-xx**2 / (2 * mu))

            image = appell_analytic(Probe(), AppellSpec(EK.HEAT, alpha=alpha))
            dev = np.abs(image.eval(x, t) - truth) / np.maximum(1.0, np.abs(truth))
            worst = max(worst, float(np.max(dev)))
    assert tested > 80
    assert worst < 1e-12


def _weber_mgauss(N, g, b_inv, chirp, m):
    """Int exp(-q r'^2) J_m(r b_inv r') r'^(m+1) dr' with q = (g - i chirp)/2."""
    q = (g - 1j * chirp) / 2.0
    return N, q, b_inv


def test_radial_pwe_fractional_map_matches_operator_chain():
    g0 = 0.8
    rho = np.array([0.3, 0.8, 1.7])
    worst = 0.0
    for m in (0, 1, 3):
        for alpha in np.linspace(-1.9, 2.0, 16):
            for zeta in (-2.0, -0.7, 0.5, 1.3):
                phi = alpha * math.pi / 2
                s, c = math.sin(phi), math.cos(phi)
                if abs(s) < 1e-12 or abs(c - zeta * s) < 5e-2:
                    continue

                def mode(NN, qq, r):
                    return NN * r**m * np.exp(-qq * r * r / 2)

                def fr_hankel_mgauss(N, q, a):
                    ph = a * math.pi / 2
                    ss, cc = math.sin(ph), math.cos(ph)
                    Q = (q - 1j * cc / ss) / 2
                    Np = (cmath.exp(1j * (m + 1) * (ph - math.pi / 2)) / ss
                          * (1 / ss) ** m * (2 * Q) ** (-m - 1) * N)
                    return Np, -1j * cc / ss + 1 / (2 * Q * ss * ss)

                def rad_prop_mgauss(N, q, z):
                    if abs(z) < 1e-15:
                        return N, q
                    Q = (q - 1j / z) / 2
                    Np = (-1j) ** (m + 1) / z * (1 / z) ** m * (2 * Q) ** (-m - 1) * N
                    return Np, -1j / z + 1 / (2 * Q * z * z)

                Nf, qf = fr_hankel_mgauss(1.0, g0, alpha)
                Nw, qw = rad_prop_mgauss(Nf, qf, zeta)
                truth = mode(Nw, qw, rho)

                class Probe(AnalyticField):
                    equation = EK.RADIAL_PWE

                    def __init__(self):
                        self.geometry = BesselBeam(1.0, m).geometry

                    def _eval(self, rr, zz):
                        return mode(*rad_prop_mgauss(1.0, g0, zz), rr)

                image = appell_analytic(Probe(), AppellSpec(EK.RADIAL_PWE, alpha=alpha, m=m))
                dev = np.abs(image.eval(rho, zeta) - truth) / np.maximum(1.0, np.abs(truth))
                worst = max(worst, float(np.max(dev)))
    assert worst < 1e-11


def test_radial_heat_fractional_map_matches_operator_chain():
    g0 = 1.3
    r = np.array([0.2, 0.8, 1.4])
    worst, tested = 0.0, 0
    for mu in (1.5, 2.0, 3.0, 4.7):
        nu = mu / 2 - 1

        def frl_gauss(N, g, a):
            phi = a * math.pi / 2
            s, c = math.sin(phi), math.cos(phi)
            q = (g - c / s) / 2
            if q <= 0.05:
                return None
            sgn = math.copysign(1.0, s)
            phase = (cmath.exp(-0.5j * math.pi * (nu + 1)) / (1j * s)
                     * cmath.exp(-0.5j * math.pi * sgn * nu))
            Np = phase * (1 / abs(s)) ** nu * (2 * q) ** (-nu - 1) * N
            return Np, -c / s - 1 / (2 * q * s * s)

        def rheat_gauss(N, g, t):
            q = (g + 1 / t) / 2
            if complex(q).real <= 0.05:
                return None
            return N * (1 / t) * (1 / t) ** nu * (2 * q) ** (-nu - 1), 1 / t - 1 / (2 * q * t * t)

        for alpha in np.linspace(-1.9, 2.0, 16):
            for t in (0.05, 0.1, 0.25, 0.4, 0.9, 1.4, 2.0):
                phi = alpha * math.pi / 2
                s = math.sin(phi)
                if abs(s) < 1e-12 or abs(math.cos(phi) + t * s) < 5e-2:
                    continue
                r1 = frl_gauss(1.0, g0, alpha)
                if r1 is None:
                    continue
                r2 = rheat_gauss(*r1, t)
                if r2 is None:
                    continue
                tested += 1
                truth = _gauss_eval(*r2, r)

                class Probe(AnalyticField):
                    equation = EK.RADIAL_HEAT

                    def __init__(self):
                        self.geometry = RadialDim(mu, 0)

                    def _eval(self, rr, tt):
                        return complex(1 + g0 * tt) ** (-mu / 2) * np.exp(
                            -g0 * rr**2 / (2 * (1 + g0 * tt)))

                image = appell_analytic(Probe(), AppellSpec(EK.RADIAL_HEAT, alpha=alpha, mu=mu))
                dev = np.abs(image.eval(r, t) - truth) / np.maximum(1.0, np.abs(truth))
                worst = max(worst, float(np.max(dev)))
    assert tested > 150
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# spec-level behavior

def test_alpha_zero_is_identity():
    x = np.linspace(-3, 3, 21)
    for field, spec in [
        (PlaneChirp(1.0), AppellSpec(EK.PWE, alpha=0.0)),
        (HeatPoly(3), AppellSpec(EK.HEAT, alpha=0.0)),
    ]:
        image = appell_analytic(field, spec)
        assert np.max(np.abs(image.eval(x, 0.9) - np.asarray(field.eval(x, 0.9)))) < 1e-14


def test_forward_then_inverse_is_identity():
    x = np.linspace(-3, 3, 21)
    field = Gauss(1.0)
    fwd = appell_analytic(field, AppellSpec(EK.PWE, alpha=0.8))
    back = appell_analytic(fwd, AppellSpec(EK.PWE, alpha=0.8, direction=Direction.INVERSE))
    assert np.max(np.abs(back.eval(x, 0.7) - np.asarray(field.eval(x, 0.7)))) < 1e-12


def test_chirp_maps_to_point_source_both_directions():
    from canonica.fields import PointSource

    x = np.linspace(-3, 3, 31)
    fwd = appell_analytic(PlaneChirp(2.0), AppellSpec(EK.PWE))
    ref = PointSource(2.0)
    assert np.max(np.abs(fwd.eval(x, 0.7) - np.asarray(ref.eval(x, 0.7)))) < 1e-12
    inv = appell_analytic(ref, AppellSpec(EK.PWE, direction=Direction.INVERSE))
    chirp = PlaneChirp(2.0)
    assert np.max(np.abs(inv.eval(x, 0.7) - np.asarray(chirp.eval(x, 0.7)))) < 1e-12


def test_bessel_gauss_pair_and_involution():
    r = np.linspace(0, 5, 41)
    m = 2
    img = appell_analytic(BesselBeam(1.5, m), AppellSpec(EK.RADIAL_PWE, m=m))
    ref = BesselGauss(1.5, m)
    assert np.max(np.abs(img.eval(r, 1.3) - np.asarray(ref.eval(r, 1.3)))) < 1e-12
    back = appell_analytic(img, AppellSpec(EK.RADIAL_PWE, m=m))
    src = BesselBeam(1.5, m)
    assert np.max(np.abs(back.eval(r, 0.5) - np.asarray(src.eval(r, 0.5)))) < 1e-12


def test_equation_mismatch_rejected():
    with pytest.raises(EquationMismatch):
        appell_analytic(HeatPoly(2), AppellSpec(EK.PWE))
    with pytest.raises(EquationMismatch):
        appell_analytic(BesselBeam(1.0, 2), AppellSpec(EK.RADIAL_PWE, m=1))


def test_singular_evol_reported_per_point():
    image = appell_analytic(HeatPoly(2), AppellSpec(EK.HEAT, alpha=0.5))
    t_bad = -1.0 / math.tan(0.25 * math.pi)  # cos + t sin = 0
    with pytest.raises(SingularEvol):
        image.eval(0.3, t_bad)
    assert np.isfinite(image.eval(0.3, t_bad + 0.2))


def test_on_locus_branch_equals_source_transform():
    # at alpha = 1, zeta = 0 the map reduces to the source-plane Fourier
    # transform; the Hermite-Gauss seeds are its eigenfunctions
    grid = Grid1D.from_span(GridKind.FULL_LINE, -4.0, 4.0, 64)
    for n in (0, 2, 5):
        dev = self_appell_eigencheck("hg", n, 1.0, 0.0, grid)
        assert dev < 1e-9


def test_self_appell_eigenchecks():
    ghg = Grid1D.from_span(GridKind.FULL_LINE, -4.0, 4.0, 64)
    glg = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 5.0, 64)
    assert self_appell_eigencheck("hg", 0, 0.7, 0.5, ghg) < 1e-10
    assert self_appell_eigencheck("hg", 3, 1.0, 0.5, ghg) < 1e-8
    assert self_appell_eigencheck("lg", 2, 0.5, 1.0, glg, m=1) < 1e-8
    with pytest.raises(ValueError):
        self_appell_eigencheck("xx", 0, 1.0, 0.0, ghg)


# ---------------------------------------------------------------------------
# numeric path

GRID_L = Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 2048)


def rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_numeric_requires_source_at_zero():
    src = sample(Gauss(1.0), GRID_L, 0.0)
    bad = SampledField(src.grid, src.values, src.geometry, evol=0.3)
    with pytest.raises(ValueError):
        appell_numeric(bad, AppellSpec(EK.PWE), GRID_L)


def test_numeric_pwe_gaussian_cross_path():
    spec = AppellSpec(EK.PWE, alpha=1.0, evol=0.7)
    src = sample(Gauss(1.0), GRID_L, 0.0)
    num = appell_numeric(src, spec, GRID_L)
    ana = appell_analytic(Gauss(1.0), spec).eval(GRID_L.points, 0.7)
    mask = np.abs(GRID_L.points) <= 10
    assert rel_l2(num.values[mask], np.asarray(ana)[mask]) < 1e-5


def test_numeric_pwe_hg_eigenmode():
    # the numeric map of a Hermite-Gauss source reproduces the propagated
    # mode times (-i)^n
    spec = AppellSpec(EK.PWE, alpha=1.0, evol=0.7)
    src = sample(StdHG(2), GRID_L, 0.0)
    num = appell_numeric(src, spec, GRID_L)
    ref = (-1j) ** 2 * np.asarray(StdHG(2).eval(GRID_L.points, 0.7))
    mask = np.abs(GRID_L.points) <= 10
    assert rel_l2(num.values[mask], ref[mask]) < 1e-6


def test_numeric_zero_evol_is_bare_transform():
    src = sample(Gauss(1.0), GRID_L, 0.0)
    num = appell_numeric(src, AppellSpec(EK.PWE, alpha=1.0, evol=0.0), GRID_L)
    ref = frft(src, 1.0, GRID_L)
    assert rel_l2(num.values, ref.values) < 1e-12
    assert num.evol == 0.0


def test_numeric_zero_evol_is_bare_transform_for_every_other_kind():
    full = Grid1D.from_span(GridKind.FULL_LINE, -10.0, 10.0, 512)
    half = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 512)
    out_full = Grid1D.from_span(GridKind.FULL_LINE, -2.0, 2.0, 96)
    out_half = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 96)
    mu = 3.0
    cases = [
        (AppellSpec(EK.HEAT, alpha=0.7), sample(Gauss(0.5, 0.0, EK.HEAT), full, 0.0), out_full,
         lambda f: transforms.fr_laplace(f, 0.7, out_full).values * cmath.exp(-0.175j * math.pi)),
        (AppellSpec(EK.RADIAL_PWE, alpha=0.6, m=1), sample(StdLG(1, 1), half, 0.0), out_half,
         lambda f: transforms.fr_hankel(f, 1, 0.6, out_half).values),
        (AppellSpec(EK.RADIAL_HEAT, alpha=0.6, mu=mu), sample(_RadialGauss(0.7, mu), half, 0.0),
         out_half,
         lambda f: transforms.fr_radial_laplace(f, 0.6, mu / 2 - 1, -mu / 2, out_half).values),
    ]
    for spec, src, out, bare in cases:
        num = appell_numeric(src, spec, out, mid_grid=out)
        assert rel_l2(num.values, bare(src)) < 1e-12
        assert num.evol == 0.0


class _ApodizedSquare(AnalyticField):
    """Heat evolution of x^2 exp(-a x^2): a Gaussian second-moment closed form."""

    equation = EK.HEAT
    geometry = Gauss(1.0).geometry

    def __init__(self, a):
        self.a = a

    def _eval(self, x, s):
        den = complex(1.0 + 2.0 * self.a * s)
        return den**-0.5 * np.exp(-self.a * x**2 / den) * (s / den + (x / den) ** 2)


def test_numeric_heat_monomial_example():
    # Monomial x^2 source, necessarily apodized for the bilateral-Laplace
    # quadrature.  The convergent Laplace-then-diffuse composition requires
    # the apodization width to satisfy W^2 < 1/t, which keeps the result on
    # the other side of the focal crossing from the classical associated
    # function w_2 (that limit needs W^2 > 1/t); the w_2 connection itself
    # is the pair identity tested via appell_pair_check.  Here the numeric
    # path is pinned against the closed-form moment oracle and against the
    # analytic map of the same apodized source.
    W, t = 1.2, 0.25
    a = 1.0 / (2 * W * W)
    grid = Grid1D.from_span(GridKind.FULL_LINE, -16.0, 16.0, 3072)
    mid = Grid1D.from_span(GridKind.FULL_LINE, -8.0, 8.0, 4096)
    out = Grid1D.from_span(GridKind.FULL_LINE, -1.0, 1.0, 128)
    x = grid.points
    src = SampledField(grid, (x**2 * np.exp(-a * x**2)).astype(complex))
    spec = AppellSpec(EK.HEAT, alpha=1.0, evol=t)
    num = appell_numeric(src, spec, out, mid_grid=mid)

    xo = out.points
    Q = 1.0 / t - 1.0 / (2 * a)
    pref = (1.0 / (1j * math.sqrt(2 * math.pi))) * math.sqrt(math.pi / a) / math.sqrt(t * Q)
    ex = np.exp(-xo**2 / (2 * t) + xo**2 / (2 * t * t * Q))
    second_moment = 1.0 / Q + (xo / (t * Q)) ** 2
    oracle = pref * ex * (1.0 / (2 * a) + second_moment / (4 * a * a))
    assert rel_l2(num.values, oracle) < 1e-5

    ana = appell_analytic(_ApodizedSquare(a), spec).eval(xo, t)
    assert rel_l2(num.values, np.asarray(ana)) < 1e-5


def test_numeric_heat_gaussian_cross_path():
    grid = Grid1D.from_span(GridKind.FULL_LINE, -14.0, 14.0, 2048)
    mid = Grid1D.from_span(GridKind.FULL_LINE, -8.0, 8.0, 4096)
    out = Grid1D.from_span(GridKind.FULL_LINE, -1.5, 1.5, 128)
    for alpha, w, t, tol in [(1.0, 1.0, 0.5, 1e-6), (0.6, 0.7, 0.4, 1e-4), (-1.0, 1.0, 0.5, 1e-6)]:
        midg = mid if alpha != 0.6 else Grid1D.from_span(GridKind.FULL_LINE, -11.5, 11.5, 4096)
        gf = Gauss(w, 0.0, EK.HEAT)
        spec = AppellSpec(EK.HEAT, alpha=alpha, evol=t)
        src = sample(gf, grid, 0.0)
        num = appell_numeric(src, spec, out, mid_grid=midg)
        ana = appell_analytic(gf, spec).eval(out.points, t)
        assert rel_l2(num.values, np.asarray(ana)) < tol


def test_numeric_radial_pwe_cross_path():
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, 1024)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 6.0, 256)
    for (n, m, alpha) in [(1, 1, 1.0), (2, 0, 0.7)]:
        f = StdLG(n, m)
        spec = AppellSpec(EK.RADIAL_PWE, alpha=alpha, evol=0.7, m=m)
        src = sample(f, grid, 0.0)
        num = appell_numeric(src, spec, out, CFG16)
        ana = appell_analytic(f, spec).eval(out.points, 0.7)
        assert rel_l2(num.values, np.asarray(ana)) < 1e-6


class _RadialGauss(AnalyticField):
    equation = EK.RADIAL_HEAT

    def __init__(self, width, mu):
        self.g = 1.0 / width**2
        self.mu = mu
        self.geometry = RadialDim(mu, 0)

    def _eval(self, r, t):
        return complex(1 + self.g * t) ** (-self.mu / 2) * np.exp(
            -self.g * r**2 / (2 * (1 + self.g * t)))


def test_numeric_radial_heat_cross_path():
    mu = 3.0
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 18.0, 1536)
    mid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, 2048)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 6.0, 256)
    f = _RadialGauss(1.0, mu)
    spec = AppellSpec(EK.RADIAL_HEAT, alpha=1.0, evol=0.4, mu=mu)
    src = sample(f, grid, 0.0)
    num = appell_numeric(src, spec, out, CFG16, mid_grid=mid)
    ana = appell_analytic(f, spec).eval(out.points, 0.4)
    assert rel_l2(num.values, np.asarray(ana)) < 1e-5


def test_numeric_radial_heat_fractional_cross_path():
    mu = 3.0
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 18.0, 1536)
    mid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 2048)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 1.5, 128)
    f = _RadialGauss(0.7, mu)
    spec = AppellSpec(EK.RADIAL_HEAT, alpha=0.6, evol=0.4, mu=mu)
    src = sample(f, grid, 0.0)
    num = appell_numeric(src, spec, out, CFG16, mid_grid=mid)
    ana = appell_analytic(f, spec).eval(out.points, 0.4)
    assert rel_l2(num.values, np.asarray(ana)) < 1e-5


def test_numeric_radial_heat_order_two_matches_analytic():
    # alpha = 2 puts the fractional stage on its B = 0 point map
    mu = 3.0
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 18.0, 1536)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 6.0, 256)
    f = _RadialGauss(1.0, mu)
    spec = AppellSpec(EK.RADIAL_HEAT, alpha=2.0, evol=0.4, mu=mu)
    num = appell_numeric(sample(f, grid, 0.0), spec, out, CFG16)
    ana = appell_analytic(f, spec).eval(out.points, 0.4)
    assert rel_l2(num.values, np.asarray(ana)) < 1e-10


def test_numeric_heat_divergent_composition_raises():
    # the sequential path genuinely diverges when the transformed source
    # grows faster than the diffusion kernel decays
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 18.0, 1536)
    mid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, 2048)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 6.0, 256)
    src = sample(_RadialGauss(1.0, 3.0), grid, 0.0)
    spec = AppellSpec(EK.RADIAL_HEAT, alpha=0.6, evol=0.4, mu=3.0)
    with pytest.raises(DivergenceRisk):
        appell_numeric(src, spec, out, CFG16, mid_grid=mid)


def test_spec_validation():
    with pytest.raises(ValueError):
        AppellSpec(EK.RADIAL_HEAT, mu=0.5)
    with pytest.raises(ValueError):
        AppellSpec(EK.RADIAL_PWE, m=-1)
    # orders normalize into (-2, 2]
    assert AppellSpec(EK.PWE, alpha=2.5).alpha == pytest.approx(-1.5)


def test_on_locus_needs_decaying_slice():
    # a plane-wave slice never decays, so the singular-locus branch refuses it
    image = appell_analytic(PlaneChirp(1.0), AppellSpec(EK.PWE, alpha=1.0))
    with pytest.raises(SingularEvol):
        image.eval(0.5, 0.0)


ORDER_TWO_CASES = {
    # kind: (source field, source grid, output grid, spec keywords)
    EK.PWE: (StdHG(2), Grid1D.from_span(GridKind.FULL_LINE, -14.0, 14.0, 2048),
             Grid1D.from_span(GridKind.FULL_LINE, -1.5, 1.5, 128), {}),
    EK.HEAT: (Gauss(1.0, 0.0, EK.HEAT), Grid1D.from_span(GridKind.FULL_LINE, -14.0, 14.0, 2048),
              Grid1D.from_span(GridKind.FULL_LINE, -1.5, 1.5, 128), {}),
    EK.RADIAL_PWE: (StdLG(1, 1), Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, 1024),
                    Grid1D.from_span(GridKind.HALF_LINE, 0.0, 6.0, 256), {"m": 1}),
    EK.RADIAL_HEAT: (_RadialGauss(1.0, 3.0), Grid1D.from_span(GridKind.HALF_LINE, 0.0, 18.0, 1536),
                     Grid1D.from_span(GridKind.HALF_LINE, 0.0, 6.0, 256), {"mu": 3.0}),
}


@pytest.mark.parametrize("direction", [Direction.FORWARD, Direction.INVERSE])
@pytest.mark.parametrize("evol", [0.0, 0.4])
@pytest.mark.parametrize("eq", list(ORDER_TWO_CASES), ids=lambda eq: eq.value)
def test_numeric_order_two_matches_analytic_both_directions(eq, evol, direction):
    # alpha = 2 puts the fractional stage on the B = 0 point map, whose A < 0
    # branch must follow the side of B = 0 each direction comes from
    f, grid, out, kw = ORDER_TWO_CASES[eq]
    spec = AppellSpec(eq, alpha=2.0, evol=evol, direction=direction, **kw)
    num = appell_numeric(sample(f, grid, 0.0), spec, out, CFG16)
    ana = appell_analytic(f, spec).eval(out.points, evol)
    assert rel_l2(num.values, np.asarray(ana)) < 1e-10


# ---------------------------------------------------------------------------
# the numeric map is one kernel: correct to its tolerance, or flagged

NUMERIC_TOL = {EK.PWE: 1e-8, EK.RADIAL_PWE: 1e-8, EK.HEAT: 1e-4, EK.RADIAL_HEAT: 1e-4}


def _run_numeric(f, grid, out, spec):
    """The numeric map's values (None if it raised a CanonicaError), and whether it warned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = appell_numeric(sample(f, grid, 0.0), spec, out, CFG16).values
        except CanonicaError:
            values = None
    return values, any(issubclass(w.category, TruncationWarning) for w in caught)


def _analytic_error(values, f, out, spec):
    return rel_l2(values, np.asarray(appell_analytic(f, spec).eval(out.points, spec.evol)))


def _assert_correct_or_flagged(f, grid, out, spec):
    values, warned = _run_numeric(f, grid, out, spec)
    if values is not None and not warned:
        assert _analytic_error(values, f, out, spec) < NUMERIC_TOL[spec.equation]


def _heat_locus(spec):
    """True near cos phi + t sin phi = 0, where the analytic heat maps are singular."""
    phi = spec.effective_alpha * math.pi / 2
    return spec.equation.is_heat and abs(math.cos(phi) + spec.evol * math.sin(phi)) < 0.05


CONTRACT_EVOLS = {EK.PWE: (-1.0, 0.0, 0.4, 1.2), EK.HEAT: (0.0, 0.4, 1.0),
                  EK.RADIAL_PWE: (-1.0, 0.0, 1e-9, 0.4), EK.RADIAL_HEAT: (0.0, 0.4, 1.0)}
CONTRACT_SPECS = [
    spec for eq, evols in CONTRACT_EVOLS.items() for alpha in (-1.4, 0.2, 0.5, 1.3)
    for evol in evols for direction in Direction
    for spec in [AppellSpec(eq, alpha=alpha, evol=evol, direction=direction,
                            **ORDER_TWO_CASES[eq][3])]
    if not _heat_locus(spec)] + [
    # near B = 0 the composed kernel narrows to a near-delta the panel cap cannot resolve
    AppellSpec(EK.HEAT, alpha=0.5, evol=1.0 + dt) for dt in (1e-6, 1e-8)]


@pytest.mark.parametrize("spec", CONTRACT_SPECS, ids=lambda s: (
    f"{s.equation.value}-{s.alpha:g}-{s.evol:.9g}-{s.direction.value}"))
def test_numeric_map_is_correct_or_flagged(spec):
    f, grid, out, _ = ORDER_TWO_CASES[spec.equation]
    _assert_correct_or_flagged(f, grid, out, spec)


@pytest.mark.parametrize("eq, alpha, evol", [
    (EK.HEAT, 0.2, 0.4),  # -iq on the negative real axis: the naive principal-branch sign fails
    (EK.PWE, 0.5, -1.0),  # composite B = 0: the point map
    (EK.HEAT, 0.5, 1.0),
    (EK.HEAT, 0.5, 1.0 + 1e-4),  # B near 0: a Gaussian kernel of width 0.008, sized by it
    (EK.RADIAL_PWE, 0.7, 1e-9),  # a propagator of its own would ask for 2.3e11 panels
], ids=lambda v: str(getattr(v, "value", v)))
def test_numeric_one_kernel_cases_match(eq, alpha, evol):
    f, grid, out, kw = ORDER_TWO_CASES[eq]
    spec = AppellSpec(eq, alpha=alpha, evol=evol, **kw)
    values, warned = _run_numeric(f, grid, out, spec)
    assert values is not None and not warned
    assert _analytic_error(values, f, out, spec) < NUMERIC_TOL[eq]


def test_numeric_heat_slow_source_raises():
    # the source decays at rate 1.00, slower than the composed kernel grows
    # (1.14): the integral diverges, and the map must not return finite values
    f, grid, out, _ = ORDER_TWO_CASES[EK.HEAT]
    with pytest.raises(DivergenceRisk):
        appell_numeric(sample(f, grid, 0.0), AppellSpec(EK.HEAT, alpha=0.7, evol=0.4), out)


def test_numeric_heat_near_miss_is_flagged():
    # the kernel's stationary point plus 2 widths fits inside the source, plus 5
    # does not: the map misses by 3e-3 and must say so
    _, grid, out, _ = ORDER_TWO_CASES[EK.HEAT]
    f, spec = Gauss(0.976, 0.0, EK.HEAT), AppellSpec(EK.HEAT, alpha=-1.274, evol=0.265)
    values, warned = _run_numeric(f, grid, out, spec)
    assert warned and _analytic_error(values, f, out, spec) > 1e-4


@pytest.mark.parametrize("alpha, direction, evol", [(-1.0, Direction.FORWARD, 0.0),
                                                    (0.5, Direction.INVERSE, -1.0)])
def test_on_locus_radial_branch_keeps_bessel_parity(alpha, direction, evol):
    # on the singular locus with a negative scale, J_m of odd m changes sign:
    # the locus value is the limit of its neighbours and agrees with the numeric map
    f, grid, out, kw = ORDER_TWO_CASES[EK.RADIAL_PWE]
    on = AppellSpec(EK.RADIAL_PWE, alpha=alpha, evol=evol, direction=direction, **kw)
    near = replace(on, evol=evol + 1e-9)
    locus = np.asarray(appell_analytic(f, on).eval(out.points, evol))
    beside = np.asarray(appell_analytic(f, near).eval(out.points, near.evol))
    assert rel_l2(locus, beside) < 1e-5
    values, warned = _run_numeric(f, grid, out, on)
    assert not warned and rel_l2(values, locus) < 1e-8


class _RadialWaveGauss(AnalyticField):
    """r^m exp(-r^2/2 width^2), propagated: (w^2/(w^2 + i zeta))^(m+1) r^m e^{-r^2/2(w^2 + i zeta)}."""

    equation = EK.RADIAL_PWE

    def __init__(self, width, m):
        self.w2 = width**2
        self.m = m
        self.geometry = Radial(m)

    def _eval(self, r, zeta):
        mu = complex(self.w2 + 1j * zeta)
        return (self.w2 / mu) ** (self.m + 1) * r**self.m * np.exp(-(r**2) / (2 * mu))


PROPERTY_SOURCES = {
    EK.PWE: lambda w: Gauss(w),
    EK.HEAT: lambda w: Gauss(w, 0.0, EK.HEAT),
    EK.RADIAL_PWE: lambda w: _RadialWaveGauss(w, 1),
    EK.RADIAL_HEAT: lambda w: _RadialGauss(w, 3.0),
}


@pytest.mark.parametrize("eq", list(PROPERTY_SOURCES), ids=lambda eq: eq.value)
@settings(max_examples=10, deadline=None)
@given(width=st.floats(0.7, 1.4), alpha=st.floats(-2.0, 2.0), evol=st.floats(-1.5, 1.5),
       direction=st.sampled_from(Direction))
def test_numeric_map_matches_analytic_property(eq, width, alpha, evol, direction):
    # heat maps hold the contract; wave maps hold their tolerance off a band
    # around the composed B = 0, where the kernel is a near-delta the panel rule
    # cannot resolve.  Both stay off the analytic map's singular locus, near
    # which its closed form loses digits.
    _, grid, out, kw = ORDER_TWO_CASES[eq]
    spec = AppellSpec(eq, alpha=alpha, evol=abs(evol) if eq.is_heat else evol,
                      direction=direction, **kw)
    assume(not _heat_locus(spec))
    f = PROPERTY_SOURCES[eq](width)
    if eq.is_heat:
        _assert_correct_or_flagged(f, grid, out, spec)
        return
    phi = spec.effective_alpha * math.pi / 2
    assume(abs(math.sin(phi) + spec.evol * math.cos(phi)) > 0.02)
    assume(abs(math.cos(phi) - spec.evol * math.sin(phi)) > 0.05)
    values, _ = _run_numeric(f, grid, out, spec)
    assert values is not None
    assert _analytic_error(values, f, out, spec) < NUMERIC_TOL[eq]
