import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from bessel_i_reference import bessel_i_scaled as reference_i_scaled
from canonica import specfun


def test_hermite_basics():
    x = np.linspace(-4, 4, 17)
    assert np.all(specfun.hermite(0, x) == 1.0)
    assert specfun.hermite(2, 1.0) == pytest.approx(2.0)  # 4x^2 - 2
    assert specfun.hermite(3, 0.0) == 0.0
    with pytest.raises(ValueError):
        specfun.hermite(65, 0.0)
    with pytest.raises(ValueError):
        specfun.hermite(-1, 0.0)


def test_hermite_against_rodrigues():
    # Rodrigues form via mpmath: H_n(x) = (-1)^n e^{x^2} d^n/dx^n e^{-x^2}
    for n in range(13):
        for x in np.linspace(-4, 4, 9):
            ref = float(mpmath.hermite(n, x))
            assert specfun.hermite(n, float(x)) == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_laguerre_basics():
    assert specfun.laguerre(0, 0.7, 3.0) == 1.0
    assert specfun.laguerre(1, 0.0, 2.0) == pytest.approx(-1.0)
    assert specfun.laguerre(2, 1.0, 0.0) == pytest.approx(3.0)  # binom(3, 2)
    with pytest.raises(ValueError):
        specfun.laguerre(2, -1.5, 0.0)


def test_laguerre_against_series():
    for n in range(9):
        for m in (0.0, 0.5, 2.0):
            for x in (0.0, 0.4, 2.3, 7.0):
                ref = float(mpmath.laguerre(n, m, x))
                assert specfun.laguerre(n, m, x) == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_airy_values():
    # Ai(0) = 3^(-2/3)/Gamma(2/3), summed independently by mpmath
    assert specfun.airy_ai(0.0) == pytest.approx(float(mpmath.airyai(0)), rel=1e-12)
    assert specfun.airy_ai(10.0) == pytest.approx(float(mpmath.airyai(10)), rel=1e-10)
    assert specfun.airy_ai(-5.0) == pytest.approx(float(mpmath.airyai(-5)), rel=1e-10)
    with pytest.raises(ValueError):
        specfun.airy_ai(51.0)


def test_airy_ode_residual_second_order():
    # Ai'' - x Ai -> 0 under central differences; order 2 in h measured at
    # steps large enough that the residual sits above the rounding floor
    for x0 in (-2.0, 0.0, 2.0):
        res = {}
        for h in (4e-3, 2e-3, 5e-4):
            d2 = (specfun.airy_ai(x0 + h) - 2 * specfun.airy_ai(x0) + specfun.airy_ai(x0 - h)) / h**2
            res[h] = abs(d2 - x0 * specfun.airy_ai(x0))
        assert res[5e-4] < 1e-7
        order = math.log(res[4e-3] / res[2e-3]) / math.log(2.0)
        assert 1.7 <= order <= 2.3


def test_bessel_values_and_guards():
    assert specfun.bessel_j(0, 0.0) == 1.0
    assert specfun.bessel_j(2, 0.0) == 0.0
    assert specfun.bessel_i_scaled(0, 0.0) == 1.0
    with pytest.raises(ValueError):
        specfun.bessel_j(-0.7, 1.0)
    with pytest.raises(ValueError):
        specfun.bessel_j(0, -1.0)


def test_first_bessel_zero_by_bisection():
    # bisection on an independent mpmath series oracle
    j0 = lambda x: mpmath.besselj(0, x)
    lo, hi = mpmath.mpf(2), mpmath.mpf(3)
    for _ in range(60):
        mid = (lo + hi) / 2
        if j0(lo) * j0(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = float((lo + hi) / 2)
    assert root == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(specfun.bessel_j(0, root)) < 1e-9


def test_bessel_half_integer_closed_forms():
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh x,  J_{1/2}(x) = sqrt(2/(pi x)) sin x
    for x in (0.3, 1.7, 6.1):
        ref_i = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
        ref_j = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert specfun.bessel_i_scaled(0.5, x) * math.exp(x) == pytest.approx(ref_i, rel=1e-12)
        assert specfun.bessel_j(0.5, x) == pytest.approx(ref_j, rel=1e-12)


def test_bessel_three_term_identity():
    # J_{nu-1}(x) + J_{nu+1}(x) = (2 nu / x) J_nu(x)
    for nu in (0.5, 1.0, 2.5):
        for x in (0.7, 3.3, 11.0):
            lhs = specfun.bessel_j(nu - 1, x) + specfun.bessel_j(nu + 1, x)
            rhs = 2 * nu / x * specfun.bessel_j(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_bessel_i_scaled_consistency():
    for x in (0.5, 10.0, 600.0):
        scaled = specfun.bessel_i_scaled(1.0, x)
        ref = float(mpmath.besseli(1, x) * mpmath.exp(-x))
        assert scaled == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("nu", range(9))
def test_bessel_j_integer_orders_against_mpmath(nu):
    # integer orders >= 2 climb the upward recurrence for x >= nu; the points
    # just above nu are where it is least stable
    rng = np.random.default_rng(nu + 8)
    guard = 1e4 * (1.0 + nu)
    for x, tol in ((np.concatenate([rng.uniform(0.0, 100.0, 120), rng.uniform(nu, nu + 3.0, 40)]),
                    2e-15),
                   (rng.uniform(0.0, guard, 120), 5e-14)):
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselj(nu, xi)) for xi in x])
        assert np.max(np.abs(specfun.bessel_j(nu, x) - ref)) <= tol


def test_bessel_j_below_the_order():
    # x < nu, where the upward recurrence is unstable, goes to jv; j0 and j1
    # need no fallback, down to x = 0
    for nu in (2, 3, 8):
        x = np.linspace(0.0, nu, 40, endpoint=False)
        assert np.array_equal(specfun.bessel_j(nu, x), special.jv(nu, x))
    x = np.linspace(0.0, 1.0, 40)
    for nu in (0, 1):
        assert np.max(np.abs(specfun.bessel_j(nu, x) - special.jv(nu, x))) < 1e-15
        assert specfun.bessel_j(nu, x)[0] == special.jv(nu, 0.0)


def test_bessel_j_blocks_keep_shape_scalars_and_other_orders():
    x = np.random.default_rng(3).uniform(0.0, 30.0, (300, 250))  # more than two blocks
    got = specfun.bessel_j(2, x)
    assert got.shape == x.shape
    assert np.max(np.abs(got - special.jv(2, x))) < 1e-14
    scalar = specfun.bessel_j(2, 3.0)
    assert type(scalar) is float and scalar == special.jv(2, 3.0)
    for nu in (-0.5, 0.3, 1.25, 1.5, 2.7):  # half-integer and other orders stay on jv
        assert np.array_equal(specfun.bessel_j(nu, x), special.jv(nu, x))


def test_bessel_j_memory_is_the_output_plus_a_block():
    x = np.linspace(0.0, 50.0, 2_000_000)
    specfun.bessel_j(3, x[:8])
    tracemalloc.start()
    try:
        out = specfun.bessel_j(3, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * 2**20


_SPLIT = specfun._BESSEL_I_SPLIT


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.49999, 0.5000036, 1.0, 2.5, 5.0, 10.0])
def test_bessel_i_scaled_against_mpmath(nu):
    # the reference takes the power series below the split and Hankel's
    # expansion above; the points next to the split are where each is least accurate
    rng = np.random.default_rng(int(nu * 10) + 20)
    x = np.concatenate([rng.uniform(0.0, _SPLIT, 60), rng.uniform(_SPLIT, 400.0, 40),
                        _SPLIT - np.array([1e-9, 1e-3, 0.5]), _SPLIT + np.array([0.0, 1e-9, 0.5]),
                        [1e-12, 1e-3, 2e3]])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.besseli(nu, xi) * mpmath.exp(-xi)) for xi in x])
    got = reference_i_scaled(nu, x)
    assert np.all(np.abs(got - ref) <= 1e-14 * ref)
    at_zero = reference_i_scaled(nu, np.zeros(3))
    assert np.all(at_zero == (math.inf if nu < 0 else 1.0 if nu == 0 else 0.0))


def test_bessel_i_scaled_blocks_keep_shape_scalars_and_high_orders():
    x = np.random.default_rng(4).uniform(0.0, 2 * _SPLIT, (300, 250))  # more than two blocks
    got = reference_i_scaled(0.5000036, x)
    assert got.shape == x.shape
    assert np.max(np.abs(got - special.ive(0.5000036, x)) / got) < 1e-13
    scalar = specfun.bessel_i_scaled(0.5000036, 3.0)
    assert type(scalar) is float and scalar == special.ive(0.5000036, 3.0)
    # beyond the validated orders Hankel's expansion is off near the split
    nu = specfun._BESSEL_I_MAX_ORDER + 2.0
    assert np.array_equal(reference_i_scaled(nu, x), special.ive(nu, x))
    assert np.array_equal(specfun.bessel_i_scaled(0.5000036, x), special.ive(0.5000036, x))


def test_bessel_i_scaled_memory_is_the_output_plus_a_block():
    x = np.linspace(0.0, 2 * _SPLIT, 2_000_000)
    reference_i_scaled(0.5, x[:8])
    tracemalloc.start()
    try:
        out = reference_i_scaled(0.5, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * 2**20


def _gaussian_outer(nu, u, v, power):
    """bessel_i_outer on u x v with row_log -u^2/2 and col_log -v^2/2, whose exponent
    E = -(u - v)^2/2 is the Gaussian's: I_nu(u v) (u v)^power e^{-(u^2 + v^2)/2}."""
    def exponent(rows, cols, out):
        np.subtract(u[rows, None], v[None, cols], out=out)
        np.square(out, out=out)
        out *= -0.5

    return specfun.bessel_i_outer(nu, u, v, power, -0.5 * u**2, -0.5 * v**2, exponent)


_OUTER_NUS = [-0.5, 0.0, 0.5000036, 1.0, 2.5, 10.0]


@pytest.mark.parametrize("power", [0.0, -0.75])
@pytest.mark.parametrize("nu", _OUTER_NUS)
def test_bessel_i_outer_against_mpmath(nu, power):
    # z = u v below and above the split, at 30 -+ 1e-9 and 30, at 0 and up to 2070, in
    # three bands of rows; u^2/2 is exact or below 16, so every entry above 1e-300 is
    # well conditioned, and the rest underflow
    w = np.sqrt(_SPLIT + np.array([-1e-9, 0.0, 1e-9]))
    u = v = np.concatenate([[0.0, 0.25, 1.0, 3.0], w, [44.0, 45.0, 46.0]])
    got = _gaussian_outer(nu, u, v, power)
    with mpmath.workdps(40):
        ref = np.array([[float(mpmath.besseli(nu, mpmath.mpf(a) * b) * (mpmath.mpf(a) * b) ** power
                               * mpmath.exp(mpmath.mpf(-0.5 * a * a) - 0.5 * b * b))
                         if a * b else math.nan for b in v] for a in u])
    inner = ~np.isnan(ref)
    assert np.all(np.abs(got - ref)[inner] <= 1e-14 * np.abs(ref)[inner] + 1e-300)
    assert np.count_nonzero(ref[inner] > 1e-300) >= 40
    # z = 0: the limit 2^-nu / Gamma(nu + 1) e^{-(u^2 + v^2)/2} of order nu + power
    q = nu + power
    limit = (math.inf if q < 0 else 0.0 if q > 0
             else 2.0**-nu / math.gamma(nu + 1.0) * np.exp(-0.5 * v**2))
    assert np.array_equal(got[0], np.broadcast_to(limit, v.shape))


@pytest.mark.parametrize("nu", _OUTER_NUS)
def test_bessel_i_outer_scales_both_expansions(nu):
    # u near 1e-20 and v near 1e21: z = u v runs from 15 to 60, but unscaled the
    # series factor (v/2)^2k and Hankel's u^-k overflow
    u, v = np.array([1e-20, 1.7e-20, 2e-20]), np.array([1.5e21, 2.5e21, 3e21])

    def exponent(rows, cols, out):
        np.multiply(u[rows, None], v[None, cols], out=out)

    got = specfun.bessel_i_outer(nu, u, v, 0.5, np.zeros(3), np.zeros(3), exponent)
    with mpmath.workdps(40):
        z = [[mpmath.mpf(a) * b for b in v] for a in u]
        ref = np.array([[float(mpmath.besseli(nu, x) * mpmath.sqrt(x)) for x in row] for row in z])
    assert np.all(np.abs(got - ref) <= 1e-14 * ref)


@pytest.mark.parametrize("nu", _OUTER_NUS)
def test_bessel_i_outer_keeps_its_factors_finite_at_small_beta(nu):
    # the heat kernel of time 1e-3 on r, y <= 8: u = r/1e-3 reaches 8e3 and
    # (u/2)^118 overflows unscaled; the outer product is the entrywise kernel
    # e^{-z} I_nu(z) z^power e^{-(r - y)^2/2t} wherever that is finite
    t = 1e-3
    r, y = np.linspace(0.0, 8.0, 129), np.linspace(0.004, 8.0, 300)
    u, power = r / t, -0.25

    def exponent(rows, cols, out):
        np.subtract(r[rows, None], y[None, cols], out=out)
        np.square(out, out=out)
        out /= -2.0 * t

    got = specfun.bessel_i_outer(nu, u, y, power, -r**2 / (2 * t), -y**2 / (2 * t), exponent)
    z = np.multiply.outer(u, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        gauss = np.exp(-np.subtract.outer(r, y) ** 2 / (2 * t))
        ref = reference_i_scaled(nu, z) * z**power * gauss
    finite = np.isfinite(ref)
    assert finite[1:].all() and np.isfinite(got[finite]).all()
    rowmax = np.max(np.abs(ref[1:]), axis=1, keepdims=True)
    assert np.max(np.abs(got[1:] - ref[1:]) / rowmax) <= 1e-13


def test_bessel_i_outer_takes_ive_above_the_validated_orders_and_needs_ascending_factors():
    from scipy.special import ive

    nu = specfun._BESSEL_I_MAX_ORDER + 2.0
    u = v = np.array([0.5, 3.0, 5.0, 9.0, 20.0])
    got = _gaussian_outer(nu, u, v, 0.5)
    z = np.multiply.outer(u, v)
    want = ive(nu, z) * z**0.5 * np.exp(-np.subtract.outer(u, v)**2 / 2)
    assert np.all(np.abs(got - want) <= 1e-14 * want)
    with pytest.raises(ValueError, match="ascending"):
        _gaussian_outer(1.0, u[::-1], v, 0.0)


@settings(max_examples=40, deadline=None)
@given(nu=st.floats(0.5, specfun._BESSEL_I_MAX_ORDER - 1.0),
       x=hnp.arrays(float, st.integers(1, 64), elements=st.floats(0.05, 4 * _SPLIT)))
def test_bessel_i_scaled_recurrence(nu, x):
    # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x); the factor e^{-x} is common
    lo, mid, hi = (reference_i_scaled(nu + d, x) for d in (-1.0, 0.0, 1.0))
    assert np.all(np.abs(lo - hi - 2.0 * nu / x * mid) <= 1e-14 * (lo + hi))
