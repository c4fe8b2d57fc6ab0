"""Finite-difference residual evaluators and the named identity-check suite.

Residuals use 3-point central stencils in both variables, so every check on
a genuinely smooth solution family should converge at second order as the
step halves.  Radial operators are evaluated from r = 2h inward, keeping
clear of the 1/r and 1/r^2 axis singularities; windows that reach into
that strip are rejected.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .appell import AppellSpec, appell_analytic, self_appell_eigencheck
from .common import EquationKind
from .fields import (
    AiryBB,
    AiryKM,
    AnalyticField,
    BesselBeam,
    BesselGauss,
    Gauss,
    Grid1D,
    GridKind,
    HeatAssoc,
    HeatPoly,
    PlaneChirp,
    PointSource,
    Radial,
    RadialHeatAppell,
    RadialHeatPoly,
    SampledField,
    StdHG,
)
from .symplectic import (
    SympMat2,
    compose,
    inverse,
    mat_appell,
    mat_fourier,
    mat_free,
    mat_gauss_aperture,
    mat_laplace,
    mat_lens,
    mat_poisson,
    mat_scale,
)


@dataclass(frozen=True)
class ResidualReport:
    max_abs: float
    l2: float
    grid_h: float
    evol_h: float
    observed_order: float | None = None

    def to_json(self) -> dict:
        out = {"max_abs": self.max_abs, "l2": self.l2,
               "grid_h": self.grid_h, "evol_h": self.evol_h}
        if self.observed_order is not None:
            out["observed_order"] = self.observed_order
        return out


# ---------------------------------------------------------------------------
# PDE residuals

def _residual_values(eq: EquationKind, f, X, T, h, k, m=0, mu=2.0):
    """Central-difference residual of the evolution equation on mesh X x T."""
    u = lambda x, t: f(x, t)  # noqa: E731
    ut = (u(X, T + k) - u(X, T - k)) / (2.0 * k)
    uxx = (u(X + h, T) - 2.0 * u(X, T) + u(X - h, T)) / h**2
    if eq is EquationKind.PWE:
        return 2j * ut + uxx
    if eq is EquationKind.HEAT:
        return 2.0 * ut - uxx
    ux = (u(X + h, T) - u(X - h, T)) / (2.0 * h)
    if eq is EquationKind.RADIAL_PWE:
        return 2j * ut + uxx + ux / X - (m**2) * u(X, T) / X**2
    return 2.0 * ut - uxx - (mu - 1.0) * ux / X


def pde_residual(eq: EquationKind, field, window, h: float, k: float | None = None,
                 m: int = 0, mu: float = 2.0, n_coord: int = 17,
                 n_evol: int = 7) -> ResidualReport:
    """Residual report for a field over window = (x_lo, x_hi, evol_lo, evol_hi).

    `field` is an AnalyticField or a callable (coords, evol) -> values.
    """
    k = h if k is None else k
    x_lo, x_hi, t_lo, t_hi = window
    if eq.is_radial and x_lo < 2.0 * h:
        raise ValueError("radial residual windows must start at r >= 2h")
    xs = np.linspace(x_lo, x_hi, n_coord)
    ts = np.linspace(t_lo, t_hi, n_evol)
    if isinstance(field, AnalyticField):
        fn = lambda x, t: np.asarray(field.eval(x, t), dtype=complex)  # noqa: E731
    else:
        fn = lambda x, t: np.asarray(field(x, t), dtype=complex)  # noqa: E731
    res = np.empty((len(ts), len(xs)), dtype=complex)
    for i, t in enumerate(ts):
        res[i] = _residual_values(eq, fn, xs, float(t), h, k, m, mu)
    amax = float(np.max(np.abs(res)))
    l2 = float(np.sqrt(np.mean(np.abs(res) ** 2)))
    return ResidualReport(amax, l2, h, k)


def residual_convergence(eq: EquationKind, field, window,
                         hs=(1e-2, 5e-3, 2.5e-3), **kw) -> ResidualReport:
    """Run pde_residual over a halving sequence and fit the observed order."""
    if len(hs) < 3:
        raise ValueError("need at least three resolutions for an observed order")
    reports = [pde_residual(eq, field, window, h, **kw) for h in hs]
    logs_h = np.log([r.grid_h for r in reports])
    logs_r = np.log([max(r.max_abs, 1e-300) for r in reports])
    order = float(np.polyfit(logs_h, logs_r, 1)[0])
    last = reports[-1]
    return ResidualReport(last.max_abs, last.l2, last.grid_h, last.evol_h, order)


# ---------------------------------------------------------------------------
# discrete operator algebra

def _d1(vals, h):
    out = np.zeros_like(vals)
    out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
    return out


def _d2(vals, h):
    out = np.zeros_like(vals)
    out[1:-1] = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / h**2
    return out


def _linear_ops():
    """(K+, K-, K3) on the line."""
    return (lambda x, v, h: 0.5 * x**2 * v,
            lambda x, v, h: -0.5 * _d2(v, h),
            lambda x, v, h: -0.5j * (x * _d1(v, h) + 0.5 * v))


def _radial_ops(m: int):
    """(K+, K-, K3) of the radial family with azimuthal index m."""
    return (lambda x, v, h: 0.5 * x**2 * v,
            lambda x, v, h: -0.5 * (_d2(v, h) + _d1(v, h) / x - m**2 * v / x**2),
            lambda x, v, h: -0.5j * (x * _d1(v, h) + v))


def _type1_ops(nu: float, nu_prime: float):
    """(K+, K-, K3) of the first Hankel-type family."""
    return (lambda x, v, h: 0.5 * x**2 * v,
            lambda x, v, h: -0.5 * bessel_type_op(x, v, h, nu, nu_prime, adjoint=True),
            lambda x, v, h: -0.5j * (x * _d1(v, h) - nu_prime * v))


def bessel_type_op(x, vals, h, nu: float, nu_prime: float, adjoint: bool = False):
    """B_{nu,nu'} (or its adjoint) applied by central differences."""
    if adjoint:
        return (_d2(vals, h) - (1.0 + 2.0 * nu_prime) * _d1(vals, h) / x
                + ((nu_prime + 1.0) ** 2 - nu**2) * vals / x**2)
    return (_d2(vals, h) + (1.0 + 2.0 * nu_prime) * _d1(vals, h) / x
            + (nu_prime**2 - nu**2) * vals / x**2)


def commutator_check(pair: str, testfn: SampledField, h: float,
                     m: int = 0, nu: float = 1.0, nu_prime: float = -1.0,
                     min_coord: float = 0.0) -> float:
    """Sup-norm deviation of a bracket identity, derivatives by central differences.

    Pairs are "x_p" and "kp_km" / "kpm_k3" for the linear, "radial_" and
    "type1_" operator families.  The step h must equal the field's grid
    step; the deviation is O(h^2) for smooth, decaying test functions.
    Radial brackets carry 1/r and 1/r^2 factors that amplify the stencil
    error near the axis, so the deviation is always taken from r >= 2h and,
    when an h-independent convergence order is wanted, from a fixed
    min_coord inward.
    """
    if abs(h - testfn.grid.step) > 1e-12 * h:
        raise ValueError("h must match the test field's grid step")
    x = testfn.grid.points
    v = testfn.values
    margin = 4
    if testfn.grid.kind == GridKind.HALF_LINE:
        margin = max(margin, int(np.searchsorted(x, max(2.0 * h, min_coord))) + 2)
    sl = slice(margin, len(x) - margin)

    def bracket(op_a, op_b):
        return op_a(x, op_b(x, v, h), h) - op_b(x, op_a(x, v, h), h)

    if pair == "x_p":
        dev = bracket(lambda x, v, h: x * v, lambda x, v, h: -1j * _d1(v, h)) - 1j * v
    else:
        family, _, which = pair.partition("_") if pair.startswith(("radial_", "type1_")) \
            else ("linear", "", pair)
        if which not in ("kp_km", "kpm_k3"):
            raise ValueError(f"unknown pair {pair!r}")
        kp, km, k3 = {"linear": _linear_ops, "radial": lambda: _radial_ops(m),
                      "type1": lambda: _type1_ops(nu, nu_prime)}[family]()
        if which == "kp_km":
            dev = bracket(kp, km) - 2j * k3(x, v, h)
        else:
            dev_p = bracket(kp, k3) - 1j * kp(x, v, h)
            dev_m = bracket(km, k3) + 1j * km(x, v, h)
            dev = np.where(np.abs(dev_p) > np.abs(dev_m), dev_p, dev_m)
    return float(np.max(np.abs(dev[sl])))


def commutator_order(pair: str, make_field, hs, **kw) -> tuple[float, float]:
    """(deviation at finest h, observed order) for a bracket identity."""
    with np.errstate(divide="ignore", invalid="ignore"):
        devs = [commutator_check(pair, make_field(h), h, **kw) for h in hs]
    order = float(np.polyfit(np.log(hs), np.log(devs), 1)[0])
    return devs[-1], order


# ---------------------------------------------------------------------------
# symmetry-pair identities

_LINE_256 = Grid1D(GridKind.FULL_LINE, -4.0, 8.0 / 255, 256)
_AXIS_256 = Grid1D(GridKind.HALF_LINE, 0.0, 6.0 / 255, 256)

# pair -> ((lam, n, m, mu) -> (left field, map, right field, convention factor),
#          the check's grid, its tolerance, its sweep of appell_pair_check keywords)
_PAIRS = {
    "chirp-point": (lambda lam, n, m, mu: (
        PlaneChirp(lam), AppellSpec(EquationKind.PWE), PointSource(lam), 1.0),
        _LINE_256, 1e-12, [{}]),
    "airy-km-bb": (lambda lam, n, m, mu: (
        AiryKM(lam), AppellSpec(EquationKind.PWE), AiryBB(lam), 1.0),
        _LINE_256, 1e-9, [{}]),
    "bessel-bg": (lambda lam, n, m, mu: (
        BesselBeam(lam, m), AppellSpec(EquationKind.RADIAL_PWE, m=m), BesselGauss(lam, m), 1.0),
        _AXIS_256, 1e-9, [{"m": m} for m in range(4)]),
    "heat-vw": (lambda lam, n, m, mu: (
        HeatPoly(n), AppellSpec(EquationKind.HEAT), HeatAssoc(n), math.sqrt(2.0 * math.pi)),
        _LINE_256, 1e-10, [{"n": n} for n in range(7)]),
    "radial-rr": (lambda lam, n, m, mu: (
        RadialHeatPoly(n, mu), AppellSpec(EquationKind.RADIAL_HEAT, mu=mu),
        RadialHeatAppell(n, mu), (2.0 * math.pi) ** (mu / 2.0)),
        _AXIS_256, 1e-9, [{"n": n, "mu": 3.0} for n in range(5)]),
}
APPELL_PAIRS = tuple(_PAIRS)


def appell_pair_check(pair: str, evol: float, grid: Grid1D, lam: float = 2.0,
                      n: int = 2, m: int = 1, mu: float = 3.0) -> float:
    """Max |A(left) - convention * right| over the grid for a named pair.

    The caloric pairs carry the fundamental-solution normalization factors
    sqrt(2 pi) and (2 pi)^(mu/2) relating the operator to the classical
    associated functions.
    """
    if pair not in _PAIRS:
        raise ValueError(f"unknown pair {pair!r}")
    left, spec, right, factor = _PAIRS[pair][0](lam, n, m, mu)
    pts = grid.points
    dev = appell_analytic(left, spec).eval(pts, evol) - factor * np.asarray(right.eval(pts, evol))
    return float(np.max(np.abs(dev)))


# ---------------------------------------------------------------------------
# matrix-level generator identities

def _gen_matrices():
    """2x2 images of the quadratic generators: exp maps to the ray matrices."""
    kp = np.array([[0.0, 0.0], [-1j, 0.0]])   # exp(-i c K+) -> lens(c)
    km = np.array([[0.0, 1j], [0.0, 0.0]])    # exp(-i c K-) -> free(c)
    k3 = np.array([[0.5j, 0.0], [0.0, -0.5j]])
    return kp, km, k3


def _as_np(m: SympMat2) -> np.ndarray:
    return np.array([[m.a, m.b], [m.c, m.d]])


def duality_matrix_check() -> dict:
    """Fourier-similarity relations among the generators, in the 2x2 image.

    Checks F K+ F^-1 = K-, F K- F^-1 = K+, F K3 F^-1 = -K3, the rotation of
    the translation generators (X -> -P, P -> X), and the Gaussian
    convolution/aperture duality through F.
    """
    kp, km, k3 = _gen_matrices()
    f = _as_np(mat_fourier(1.0))
    finv = np.linalg.inv(f)
    devs = {
        "kp_to_km": float(np.max(np.abs(f @ kp @ finv - km))),
        "km_to_kp": float(np.max(np.abs(f @ km @ finv - kp))),
        "k3_flip": float(np.max(np.abs(f @ k3 @ finv + k3))),
    }
    # translation directions in the phase plane: i X generates (0, a),
    # i P generates (-a, 0); conjugation by F acts as the matrix itself
    u_x = np.array([0.0, 1.0])
    u_p = np.array([-1.0, 0.0])
    devs["x_to_minus_p"] = float(np.max(np.abs(f @ u_x + u_p)))
    devs["p_to_x"] = float(np.max(np.abs(f @ u_p - u_x)))
    for tau in (0.4, 1.1):
        lhs = compose(inverse(mat_fourier(1.0)), mat_gauss_aperture(tau), mat_fourier(1.0))
        devs[f"poisson_dual_{tau}"] = _mat_dev(lhs, mat_poisson(tau))
        lhs = compose(inverse(mat_fourier(1.0)), mat_poisson(tau), mat_fourier(1.0))
        devs[f"aperture_dual_{tau}"] = _mat_dev(lhs, mat_gauss_aperture(tau))
    devs["max"] = max(devs.values())
    return devs


def _mat_dev(m1: SympMat2, m2: SympMat2) -> float:
    return max(abs(m1.a - m2.a), abs(m1.b - m2.b), abs(m1.c - m2.c), abs(m1.d - m2.d))


def _expm2(gen: np.ndarray, c: complex) -> np.ndarray:
    """exp(c * gen) for a traceless 2x2 generator, in closed form."""
    det = gen[0, 0] * gen[1, 1] - gen[0, 1] * gen[1, 0]
    w = cmath.sqrt(-det) * c
    if abs(w) < 1e-30:
        return np.eye(2) + c * gen
    return np.eye(2) * cmath.cosh(w) + (cmath.sinh(w) / w) * (c * gen)


def disentanglement_check(beta: float) -> dict:
    """Elliptic and hyperbolic splitting identities at the matrix level."""
    if abs(beta) >= math.pi:
        raise ValueError("identities hold for |beta| < pi")
    kp, km, k3 = _gen_matrices()
    tb, sb = math.tan(beta / 2.0), math.sin(beta)
    devs = {}
    # elliptic exp(i b (K- + K+)) and hyperbolic exp(b (K- - K+)), K- or K+ outermost
    for name, free, lens in (("elliptic", 1j * km, 1j * kp), ("hyperbolic", km, -kp)):
        target = _expm2(free + lens, beta)
        split1 = _expm2(free, tb) @ _expm2(lens, sb) @ _expm2(free, tb)
        split2 = _expm2(lens, tb) @ _expm2(free, sb) @ _expm2(lens, tb)
        devs[f"{name}_free_first"] = float(np.max(np.abs(split1 - target)))
        devs[f"{name}_lens_first"] = float(np.max(np.abs(split2 - target)))
    devs["max"] = max(devs.values())
    return devs


# ---------------------------------------------------------------------------
# named check registry (one criterion id per check)

# matrix families drawn by `_random_constructor`, from u uniform in [-2, 2)
_CONSTRUCTORS = (
    lambda u, rng: mat_free(u),
    lambda u, rng: mat_lens(u),
    lambda u, rng: mat_scale(complex(_uniform(rng, 0.3, 2.0), _uniform(rng, -0.5, 0.5))),
    lambda u, rng: mat_fourier(u),
    lambda u, rng: mat_laplace(u),
    lambda u, rng: mat_poisson(abs(u) + 0.1),
    lambda u, rng: mat_gauss_aperture(abs(u) + 0.1),
)


def _uniform(rng, lo: float, hi: float) -> float:
    """`rng.uniform(lo, hi)` bit for bit (numpy computes lo + (hi - lo) * next_double), faster."""
    return lo + (hi - lo) * rng.random()


def _random_constructor(rng) -> SympMat2:
    kind = rng.integers(0, len(_CONSTRUCTORS))
    return _CONSTRUCTORS[kind](_uniform(rng, -2.0, 2.0), rng)


def _check_det_random():
    rng = np.random.default_rng(20110131)
    worst = 0.0
    for _ in range(10000):
        m = compose(*(_random_constructor(rng) for _ in range(3)))
        worst = max(worst, abs(m.det - 1.0))
    return {"max_abs": worst, "tolerance": 1e-14}


def _check_appell_matrix_closed_form():
    worst = 0.0
    for zeta in (-1.5, -0.3, 0.0, 0.4, 1.0, 2.5):
        m = mat_appell(EquationKind.PWE, 1.0, zeta)
        closed = SympMat2(-zeta, 1.0 + zeta**2, -1.0, zeta)
        worst = max(worst, _mat_dev(m, closed))
        if zeta > 0:
            closed_h = SympMat2(zeta, 1j * (1.0 + zeta**2), 1j, -zeta)
            worst = max(worst, _mat_dev(mat_appell(EquationKind.HEAT, 1.0, zeta), closed_h))
    return {"max_abs": worst, "tolerance": 1e-14}


def _check_laplace_similarity():
    s = cmath.exp(0.25j * math.pi)
    worst = 0.0
    for alpha in (1.0, 0.5, 1.7, -0.8):
        lhs = compose(mat_scale(s), mat_fourier(alpha), mat_scale(1.0 / s))
        worst = max(worst, _mat_dev(lhs, mat_laplace(alpha)))
    return {"max_abs": worst, "tolerance": 1e-14}


def _check_disentangle(which):
    worst = 0.0
    for beta in (0.3, -0.3, 1.2, -1.2):
        devs = disentanglement_check(beta)
        keys = [k for k in devs if k.startswith(which)]
        worst = max(worst, max(devs[k] for k in keys))
    return {"max_abs": worst, "tolerance": 1e-12}


def _check_semigroup_duality():
    worst = duality_matrix_check()["max"]
    for t1, t2 in ((0.3, 0.9), (1.2, 0.4)):
        worst = max(worst, _mat_dev(compose(mat_poisson(t1), mat_poisson(t2)), mat_poisson(t1 + t2)))
        worst = max(worst, _mat_dev(
            compose(mat_gauss_aperture(t1), mat_gauss_aperture(t2)), mat_gauss_aperture(t1 + t2)))
    return {"max_abs": worst, "tolerance": 1e-14}


def _check_pair(pair):
    _, grid, tol, sweep = _PAIRS[pair]
    worst = 0.0
    for evol in (0.5, 0.7, 1.3):
        for kw in sweep:
            worst = max(worst, appell_pair_check(pair, evol, grid, **kw))
    return {"max_abs": worst, "tolerance": tol}


def _compose_maps(field, spec1, spec2):
    return appell_analytic(appell_analytic(field, spec1), spec2)


def _check_group_law(eq, field):
    grid = np.linspace(-3.0, 3.0, 41)
    worst = 0.0
    for evol in (0.4, 1.1):
        inner = appell_analytic(field, AppellSpec(eq, alpha=0.3))
        outer = appell_analytic(inner, AppellSpec(eq, alpha=0.4))
        direct = appell_analytic(field, AppellSpec(eq, alpha=0.7))
        worst = max(worst, float(np.max(np.abs(outer.eval(grid, evol) - direct.eval(grid, evol)))))
    return {"max_abs": worst, "tolerance": 1e-10}


def _check_radial_involution():
    grid = np.linspace(0.0, 5.0, 41)
    worst = 0.0
    for m in (0, 1, 2):
        field = BesselBeam(1.5, m)
        spec = AppellSpec(EquationKind.RADIAL_PWE, m=m)
        twice = _compose_maps(field, spec, spec)
        for zeta in (0.5, 1.3):
            worst = max(worst, float(np.max(np.abs(
                twice.eval(grid, zeta) - np.asarray(field.eval(grid, zeta))))))
    return {"max_abs": worst, "tolerance": 1e-10}


def _check_self_appell(mode):
    grid = Grid1D(GridKind.FULL_LINE, -4.0, 8.0 / 63, 64) if mode == "hg" \
        else Grid1D(GridKind.HALF_LINE, 0.0, 5.0 / 63, 64)
    worst = 0.0
    ns = range(0, 9) if mode == "hg" else range(0, 7)
    ms = (0,) if mode == "hg" else (0, 1, 2)
    for n in ns:
        for m in ms:
            for alpha in (0.5, 1.0, 1.7):
                for zeta in (0.0, 0.5, 2.0):
                    worst = max(worst, self_appell_eigencheck(mode, n, alpha, zeta, grid, m=m))
    return {"max_abs": worst, "tolerance": 1e-8}


_RESIDUAL_CASES = {
    "point-source": (EquationKind.PWE,
                     lambda: appell_analytic(PlaneChirp(2.0), AppellSpec(EquationKind.PWE)),
                     (-2.0, 2.0, 0.5, 1.5), {}),
    "airy-bb": (EquationKind.PWE,
                lambda: appell_analytic(AiryKM(1.0), AppellSpec(EquationKind.PWE)),
                (-2.0, 2.0, 0.5, 1.5), {}),
    "bessel-bg": (EquationKind.RADIAL_PWE,
                  lambda: appell_analytic(BesselBeam(1.5, 1), AppellSpec(EquationKind.RADIAL_PWE, m=1)),
                  (0.5, 2.5, 0.5, 1.5), {"m": 1}),
    "heat-vw": (EquationKind.HEAT,
                lambda: appell_analytic(HeatPoly(3), AppellSpec(EquationKind.HEAT)),
                (-2.0, 2.0, 0.5, 1.5), {}),
    "radial-rr": (EquationKind.RADIAL_HEAT,
                  lambda: appell_analytic(RadialHeatPoly(2, 3.0), AppellSpec(EquationKind.RADIAL_HEAT, mu=3.0)),
                  (0.5, 2.5, 0.5, 1.5), {"mu": 3.0}),
    "fractional-gauss": (EquationKind.PWE,
                         lambda: appell_analytic(Gauss(1.0), AppellSpec(EquationKind.PWE, alpha=0.7)),
                         (-2.0, 2.0, 0.4, 1.2), {}),
}


def _check_residual(name):
    eq, make, window, kw = _RESIDUAL_CASES[name]
    rep = residual_convergence(eq, make(), window, **kw)
    return {"max_abs": rep.max_abs, "observed_order": rep.observed_order,
            "tolerance": 1.8, "passed": rep.observed_order >= 1.8}


def _rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _check_cross(field, half_width):
    """Numeric against analytic Fourier map of `field` on +-half_width, over |x| <= 10."""
    from .appell import appell_numeric
    from .fields import sample

    grid = Grid1D(GridKind.FULL_LINE, -half_width, 2.0 * half_width / 4095, 4096)
    spec = AppellSpec(EquationKind.PWE, alpha=1.0, evol=0.7)
    num = appell_numeric(sample(field, grid, 0.0), spec, grid)
    ana = appell_analytic(field, spec).eval(grid.points, 0.7)
    mask = np.abs(grid.points) <= 10.0
    return {"max_abs": _rel_l2(num.values[mask], np.asarray(ana)[mask]), "tolerance": 1e-5}


class ApodizedAiry(AnalyticField):
    """Propagated Gaussian-apodized Airy pattern; check helper, not part of
    the solution catalog.

    The source Ai(x - lam) exp(-x^2/2 width^2) propagates in closed form:
    writing the Airy function as a cubic-phase integral, the Gaussian
    convolution completes to another Airy of complex argument.  Complex
    arguments force a direct scipy.special.airy call here.
    """

    equation = EquationKind.PWE

    def __init__(self, lam: float, width: float):
        from .fields import Linear

        self.lam = float(lam)
        self.width = float(width)
        self.geometry = Linear()

    def _eval(self, x, zeta):
        from scipy.special import airy as _airy

        if zeta == 0.0:
            return _airy(x - self.lam)[0] * np.exp(-(x**2) / (2.0 * self.width**2)) + 0j
        q = 1.0 / self.width**2 - 1j / zeta
        p = -1.0 / (2.0 * q)
        r = x / (zeta * q) - 1j * self.lam
        z = -1j * r + p * p
        pref = (1.0 / cmath.sqrt(2j * math.pi * zeta)) * math.sqrt(2.0 * math.pi) * q ** (-0.5)
        return (pref * np.exp(0.5j * x**2 / zeta) * np.exp(-(x**2) / (2.0 * zeta**2 * q))
                * cmath.exp(-2.0 * p**3 / 3.0) * np.exp(1j * r * p) * _airy(z)[0])


def _check_frft_eigen():
    from .fields import sample
    from .transforms import frft

    grid = Grid1D(GridKind.FULL_LINE, -12.0, 24.0 / 1023, 1024)
    u0 = sample(StdHG(0), grid, 0.0)
    out = frft(u0, 1.0, grid)
    return {"max_abs": _rel_l2(out.values, u0.values), "tolerance": 1e-6}


def _check_frft_group():
    from .fields import sample
    from .transforms import frft

    grid = Grid1D(GridKind.FULL_LINE, -12.0, 24.0 / 1023, 1024)
    src = sample(Gauss(1.2), grid, 0.0)
    two = frft(frft(src, 0.3, grid), 0.4, grid)
    one = frft(src, 0.7, grid)
    return {"max_abs": _rel_l2(two.values, one.values), "tolerance": 1e-5}


def _check_hankel_selfrec():
    from .transforms import Hankel, QuadratureConfig, plan

    grid = Grid1D(GridKind.HALF_LINE, 0.0, 12.0 / 383, 384)
    cfg = QuadratureConfig(nodes_per_panel=16)
    r = grid.points
    worst = 0.0
    for m in range(4):
        vals = r**m * np.exp(-(r**2) / 2.0) * (1.0 + 0.3 * r**2)
        field = SampledField(grid, vals.astype(complex), Radial(m))
        transform = plan(Hankel(m), grid, grid, cfg)
        back = transform(transform(field))
        del transform  # one kernel alive at a time
        worst = max(worst, _rel_l2(back.values, field.values))
    return {"max_abs": worst, "tolerance": 1e-6}


def _check_hankel_type_selfrec():
    from .transforms import HankelType, QuadratureConfig, plan

    grid = Grid1D(GridKind.HALF_LINE, 1e-3, (12.0 - 1e-3) / 383, 384)
    cfg = QuadratureConfig(nodes_per_panel=16)
    r = grid.points
    nu, nu_prime = 1.0, -0.6
    worst = 0.0
    # each kind keeps its own weight class Gaussian-decaying on both sides
    for kind, weight in ((1, 1.0 + nu + nu_prime), (2, nu - nu_prime)):
        vals = (r**weight * (1.0 + 0.2 * r**2) * np.exp(-(r**2) / 2.0)).astype(complex)
        transform = plan(HankelType(kind, nu, nu_prime), grid, grid, cfg)
        field = SampledField(grid, vals)
        back = transform(transform(field))
        del transform  # one kernel alive at a time
        worst = max(worst, _rel_l2(back.values, field.values))
    return {"max_abs": worst, "tolerance": 1e-5}


def _check_parseval():
    from scipy.integrate import simpson

    from .transforms import HankelType, QuadratureConfig, plan

    grid = Grid1D(GridKind.HALF_LINE, 1e-3, (12.0 - 1e-3) / 768, 769)
    cfg = QuadratureConfig(nodes_per_panel=16)
    r = grid.points
    nu, nu_prime = 1.0, -0.6
    shapes = [np.exp(-(r**2) / 2.0), r**2 * np.exp(-(r**2) / 2.0),
              (1.0 + r**4) * np.exp(-(r**2))]
    pairs = []  # per kind, (input, image) values for each shape
    for kind, weight in ((1, 1.0 + nu + nu_prime), (2, nu - nu_prime)):
        transform = plan(HankelType(kind, nu, nu_prime), grid, grid, cfg)
        fields = [SampledField(grid, (r**weight * shape).astype(complex)) for shape in shapes]
        pairs.append([(f.values, transform(f).values) for f in fields])
        del transform  # one kernel alive at a time
    worst = 0.0
    for (f1, t1), (f2, t2) in zip(*pairs):
        n1 = simpson(np.abs(f1) ** 2 * r ** (-1.0 - 2.0 * nu_prime), x=r)
        n1t = simpson(np.abs(t1) ** 2 * r ** (-1.0 - 2.0 * nu_prime), x=r)
        n2 = simpson(np.abs(f2) ** 2 * r ** (1.0 + 2.0 * nu_prime), x=r)
        n2t = simpson(np.abs(t2) ** 2 * r ** (1.0 + 2.0 * nu_prime), x=r)
        mixed = simpson((np.conj(f1) * f2).real, x=r)
        mixedt = simpson((np.conj(t1) * t2).real, x=r)
        worst = max(worst, abs(n1t / n1 - 1.0), abs(n2t / n2 - 1.0), abs(mixedt / mixed - 1.0))
    return {"max_abs": worst, "tolerance": 1e-5}


def _check_poisson_heat_poly():
    from .transforms import poisson_propagate

    grid = Grid1D(GridKind.FULL_LINE, -3.0, 6.0 / 63, 64)
    worst = 0.0
    for n in range(7):
        for t in (0.5, 1.0):
            out = poisson_propagate(lambda y, n=n: y**n + 0j, t, grid)
            ref = np.asarray(HeatPoly(n).eval(grid.points, t))
            worst = max(worst, float(np.max(np.abs(out.values - ref))) / max(1.0, float(np.max(np.abs(ref)))))
    return {"max_abs": worst, "tolerance": 1e-10}


def _check_radial_heat_poly():
    from .transforms import radial_heat_propagate

    grid = Grid1D(GridKind.HALF_LINE, 0.0, 6.0 / 199, 200)
    worst = 0.0
    t, mu = 0.5, 3.0
    for n in range(5):
        out = radial_heat_propagate(lambda y, n=n: y ** (2 * n) + 0j, t, mu, grid)
        ref = np.asarray(RadialHeatPoly(n, mu).eval(grid.points, t))
        worst = max(worst, float(np.max(np.abs(out.values - ref)) / np.max(np.abs(ref))))
    return {"max_abs": worst, "tolerance": 1e-6}


def _gauss_field(h, half=False):
    if half:
        count = int(round(12.0 / h)) + 1
        grid = Grid1D(GridKind.HALF_LINE, 0.0, h, count)
        vals = grid.points * np.exp(-grid.points**2 / 2.0)
    else:
        count = 2 * int(round(8.0 / h)) + 1
        grid = Grid1D(GridKind.FULL_LINE, -8.0, h, count)
        vals = np.exp(-grid.points**2 / 2.0)
    return SampledField(grid, vals.astype(complex))


def _check_commutators(which):
    hs = (0.02, 0.01, 0.005)
    half = which != "linear"
    pairs = ("x_p", "kp_km", "kpm_k3") if not half else (f"{which}_kp_km", f"{which}_kpm_k3")
    orders = [commutator_order(pair, lambda h: _gauss_field(h, half), hs, m=1, nu=1.0,
                               nu_prime=-1.0, min_coord=0.5 if half else 0.0)[1] for pair in pairs]
    return {"max_abs": max(abs(o - 2.0) for o in orders), "observed_order": min(orders),
            "tolerance": 0.2, "passed": all(1.8 <= o <= 2.2 for o in orders)}


def _check_eveq():
    from .transforms import HankelType, QuadratureConfig, plan

    nu, nu_prime = 1.0, -1.0
    out_grid = Grid1D(GridKind.HALF_LINE, 0.2, 5.8 / 63, 64)
    cfg = QuadratureConfig(nodes_per_panel=32)
    devs = []
    hs = (0.02, 0.01, 0.005)
    for h in hs:
        count = int(round(14.0 / h)) + 1
        grid = Grid1D(GridKind.HALF_LINE, 0.0, h, count)
        r = grid.points
        f = (r**2 * np.exp(-(r**2) / 2.0)).astype(complex)
        fld = SampledField(grid, f)
        worst = 0.0
        for kind, adjoint in ((1, True), (2, False)):
            bf = np.zeros_like(f)
            with np.errstate(divide="ignore", invalid="ignore"):
                bf[1:-1] = bessel_type_op(r, f, h, nu, nu_prime, adjoint=adjoint)[1:-1]
            transform = plan(HankelType(kind, nu, nu_prime), grid, out_grid, cfg)
            lhs = transform(SampledField(grid, bf)).values
            rhs = -out_grid.points**2 * transform(fld).values
            del transform  # one kernel alive at a time
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        devs.append(worst)
    order = float(np.polyfit(np.log(hs), np.log(devs), 1)[0])
    return {"max_abs": devs[-1], "observed_order": order, "tolerance": 1.8,
            "passed": order >= 1.8}


def _check_generating_function():
    chis = np.linspace(-1.0, 1.0, 9)
    xs = np.linspace(-2.0, 2.0, 9)
    t = 0.5
    worst = 0.0
    for chi in chis:
        acc = np.zeros(len(xs), dtype=complex)
        for n in range(21):
            acc += chi**n / math.factorial(n) * np.asarray(HeatPoly(n).eval(xs, t))
        ref = np.exp(chi * xs + chi**2 * t / 2.0)
        worst = max(worst, float(np.max(np.abs(acc - ref))))
    return {"max_abs": worst, "tolerance": 1e-8}


def _check_determinism():
    import json as _json

    sub = [("m1-det-random", _check_det_random), ("m1-laplace-similarity", _check_laplace_similarity)]
    blobs = []
    for _ in range(2):
        rows = [{"check_id": cid, **fn()} for cid, fn in sub]
        blobs.append(_json.dumps(rows, sort_keys=True))
    return {"max_abs": 0.0 if blobs[0] == blobs[1] else 1.0, "tolerance": 0.5}


CHECKS = [
    # (check_id, criterion, function)
    ("m1-det-random", 1, _check_det_random),
    ("m1-appell-closed-form", 1, _check_appell_matrix_closed_form),
    ("m1-laplace-similarity", 1, _check_laplace_similarity),
    ("m1-disentangle-elliptic", 1, lambda: _check_disentangle("elliptic")),
    ("m1-disentangle-hyperbolic", 1, lambda: _check_disentangle("hyperbolic")),
    ("m1-semigroup-duality", 1, _check_semigroup_duality),
    ("a2-pair-chirp-point", 2, lambda: _check_pair("chirp-point")),
    ("a2-pair-heat-vw", 2, lambda: _check_pair("heat-vw")),
    ("a2-pair-radial-rr", 2, lambda: _check_pair("radial-rr")),
    ("a2-pair-airy-km-bb", 2, lambda: _check_pair("airy-km-bb")),
    ("a2-pair-bessel-bg", 2, lambda: _check_pair("bessel-bg")),
    ("a3-group-law-pwe", 3, lambda: _check_group_law(EquationKind.PWE, Gauss(1.0))),
    ("a3-group-law-heat", 3, lambda: _check_group_law(EquationKind.HEAT, HeatPoly(3))),
    ("a3-radial-involution", 3, _check_radial_involution),
    ("a4-self-appell-hg", 4, lambda: _check_self_appell("hg")),
    ("a4-self-appell-lg", 4, lambda: _check_self_appell("lg")),
    ("r5-residual-point-source", 5, lambda: _check_residual("point-source")),
    ("r5-residual-airy-bb", 5, lambda: _check_residual("airy-bb")),
    ("r5-residual-bessel-bg", 5, lambda: _check_residual("bessel-bg")),
    ("r5-residual-heat-vw", 5, lambda: _check_residual("heat-vw")),
    ("r5-residual-radial-rr", 5, lambda: _check_residual("radial-rr")),
    ("r5-residual-fractional-gauss", 5, lambda: _check_residual("fractional-gauss")),
    ("n6-cross-gauss", 6, lambda: _check_cross(Gauss(1.0), 20.0)),
    ("n6-cross-airy", 6, lambda: _check_cross(ApodizedAiry(1.0, 5.0), 30.0)),
    ("t7-frft-eigen", 7, _check_frft_eigen),
    ("t7-frft-group", 7, _check_frft_group),
    ("t7-hankel-selfrec", 7, _check_hankel_selfrec),
    ("t7-hankel-type-selfrec", 7, _check_hankel_type_selfrec),
    ("t7-parseval", 7, _check_parseval),
    ("t7-poisson-heat-poly", 7, _check_poisson_heat_poly),
    ("t7-radial-heat-poly", 7, _check_radial_heat_poly),
    ("o8-commutators-linear", 8, lambda: _check_commutators("linear")),
    ("o8-commutators-radial", 8, lambda: _check_commutators("radial")),
    ("o8-commutators-type1", 8, lambda: _check_commutators("type1")),
    ("o8-eveq-identities", 8, _check_eveq),
    ("g9-generating-function", 9, _check_generating_function),
    ("d10-determinism", 10, _check_determinism),
]


def run_suite(names=None) -> dict:
    """Run the named checks (all by default) and build the JSON-able report."""
    selected = CHECKS if not names else [c for c in CHECKS if c[0] in names or str(c[1]) in names]
    if names and not selected:
        raise ValueError(f"no checks match {names!r}")
    checks = []
    for cid, criterion, fn in selected:
        r = fn()
        passed = r.get("passed", r["max_abs"] <= r["tolerance"])
        row = {"check_id": cid, "criterion": criterion, "params": {},
               "max_abs": r["max_abs"], "tolerance": r["tolerance"], "pass": bool(passed)}
        if "observed_order" in r:
            row["observed_order"] = r["observed_order"]
        checks.append(row)
    return {
        "schema": "canonica-report/1",
        "checks": checks,
        "num_pass": sum(1 for c in checks if c["pass"]),
        "num_fail": sum(1 for c in checks if not c["pass"]),
        "all_pass": all(c["pass"] for c in checks),
    }
