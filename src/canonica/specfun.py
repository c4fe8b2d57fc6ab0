"""Real-argument special functions used by the field catalog and kernels.

Hermite and generalized Laguerre polynomials are evaluated by their
three-term recurrences, and so is J_n for integer orders n >= 2 where
x >= n.  The scaled e^{-x} I_nu(x) of order nu <= 10 is evaluated from its
ascending power series below x = 30 and from Hankel's large-argument
expansion above.  Both Bessel functions work on arrays in fixed blocks.
Airy, scalar Bessel calls and every other Bessel order delegate to
scipy.special behind the domain guards below; the guards keep every call
inside the range where double precision delivers ~1e-10 relative accuracy
and no overflow.  scipy.special is slow to import, so each function that
calls it imports it on first use: importing this module loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np

HERMITE_MAX_DEGREE = 64
LAGUERRE_MAX_DEGREE = 64
AIRY_MAX_ABS = 50.0
_BESSEL_BLOCK = 32768  # points per block: bounds the temporaries of the Bessel kernels
_BESSEL_I_SPLIT = 30.0  # scaled I: power series below this argument, Hankel's expansion above
_BESSEL_I_MAX_ORDER = 10.0  # scaled I: the highest order both branches hold to ~1e-14
_BESSEL_I_SERIES_TERMS = 60
_BESSEL_I_HANKEL_TERMS = 18


def _check_degree(n, limit):
    if not isinstance(n, (int, np.integer)) or n < 0 or n > limit:
        raise ValueError(f"degree must be an integer in [0, {limit}], got {n!r}")


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n(x) via H_{k+1} = 2x H_k - 2k H_{k-1}."""
    _check_degree(n, HERMITE_MAX_DEGREE)
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


def laguerre(n: int, m: float, x):
    """Generalized Laguerre polynomial L_n^m(x), m > -1, via the standard recurrence."""
    _check_degree(n, LAGUERRE_MAX_DEGREE)
    if m <= -1:
        raise ValueError(f"laguerre order must exceed -1, got {m}")
    x = np.asarray(x, dtype=float)
    l_prev = np.ones_like(x)
    if n == 0:
        return l_prev if l_prev.ndim else float(l_prev)
    l = 1.0 + m - x
    for k in range(1, n):
        l, l_prev = ((2 * k + 1 + m - x) * l - (k + m) * l_prev) / (k + 1), l
    return l if l.ndim else float(l)


def airy_ai(x):
    """Airy function of the first kind, |x| <= 50."""
    from scipy.special import airy

    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > AIRY_MAX_ABS):
        raise ValueError(f"airy_ai argument out of range |x| <= {AIRY_MAX_ABS}")
    ai = airy(x)[0]
    return ai if np.ndim(x) else float(ai)


def _check_bessel_args(nu, x, x_max):
    if nu < -0.5:
        raise ValueError(f"bessel order must be >= -1/2, got {nu}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("bessel argument must be nonnegative")
    if np.any(x > x_max):
        raise ValueError(f"bessel argument exceeds guard {x_max}")
    return x


def _by_blocks(x: np.ndarray, fill) -> np.ndarray:
    """An array shaped like x, filled by fill(x_block, out_block) one
    _BESSEL_BLOCK-point block at a time."""
    out = np.empty(x.shape)
    flat, out_flat = x.reshape(-1), out.reshape(-1)
    for lo in range(0, flat.size, _BESSEL_BLOCK):
        fill(flat[lo:lo + _BESSEL_BLOCK], out_flat[lo:lo + _BESSEL_BLOCK])
    return out


def _bessel_j_ladder(n: int, x: np.ndarray, j_prev: np.ndarray, j: np.ndarray,
                     out: np.ndarray) -> None:
    """J_n(x) into `out` for an integer n >= 2 and x >= n, given J_0(x) and J_1(x).

    Climbs J_{k+1} = (2k/x) J_k - J_{k-1}, which is stable for x >= n
    (Gautschi, SIAM Rev. 9, 1967).
    """
    two_over_x = 2.0 / x
    step = np.empty_like(x)
    for k in range(1, n):
        np.multiply(two_over_x, k, out=step)
        step *= j
        step -= j_prev
        j_prev, j, step = j, step, j_prev
    out[:] = j


def bessel_j_guard(nu: float) -> float:
    """The largest argument `bessel_j` of order nu accepts."""
    return 1e4 * (1.0 + nu)


def bessel_j(nu: float, x):
    """Bessel function of the first kind J_nu(x), x >= 0.

    Array inputs of order 0 and 1 go to cephes j0/j1; higher integer orders
    go through `_bessel_j_ladder` in blocks of _BESSEL_BLOCK points.  Points
    with x < nu, where the upward recurrence is unstable, and every other
    order or scalar input go to scipy's jv.
    """
    from scipy.special import j0, j1, jv

    x = _check_bessel_args(nu, x, bessel_j_guard(nu))
    if not np.ndim(x):
        return float(jv(nu, x))
    if not float(nu).is_integer():
        return jv(nu, x)
    if nu <= 1.0:
        return j1(x) if nu else j0(x)
    n = int(nu)

    def fill(xb, ob):
        with np.errstate(divide="ignore", invalid="ignore"):  # x < n is redone below
            _bessel_j_ladder(n, xb, j0(xb), j1(xb), ob)
        low = xb < n
        if low.any():
            ob[low] = jv(nu, xb[low])

    return _by_blocks(x, fill)


def _horner(coeffs, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] t^k into `out`, accumulated in place."""
    out.fill(coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= t
        out += c
    return out


def _bessel_i_series(nu: float, coeffs, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{-x} (x/2)^nu sum_k (x^2/4)^k / (k! Gamma(nu+k+1)) into `out` (DLMF 10.25.2).

    Every term is positive, so nothing cancels.  At x = 0 the sum is its
    first coefficient and the power is exact: 1 for nu = 0, 0 above, and
    +inf below, the limit of I_{-1/2}.
    """
    t = np.multiply(x, x)
    t *= 0.25
    _horner(coeffs, t, out)
    out *= np.exp(np.negative(x, out=t), out=t)
    if nu:
        with np.errstate(divide="ignore"):
            out *= np.power(np.multiply(x, 0.5, out=t), nu, out=t)
    return out


def _bessel_i_hankel(coeffs, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(2 pi x)^{-1/2} sum_k (-1)^k a_k(nu) x^{-k} into `out` (DLMF 10.40.1)."""
    t = np.divide(1.0, x)
    _horner(coeffs, t, out)
    out /= np.sqrt(np.multiply(x, 2.0 * math.pi, out=t), out=t)
    return out


def bessel_i_scaled(nu: float, x):
    """exp(-x) * I_nu(x), x >= 0; overflow-safe building block for heat-type kernels.

    Array inputs of order nu <= _BESSEL_I_MAX_ORDER are evaluated in blocks of
    _BESSEL_BLOCK points: the power series below x = _BESSEL_I_SPLIT and
    Hankel's expansion above, both summed by Horner from coefficients
    computed once per call.  Each branch works in the output block with one
    temporary, which keeps the allocations of a kernel-sized call small.
    Scalar inputs and higher orders, where the expansion loses accuracy at
    the split, go to scipy's ive.
    """
    x = _check_bessel_args(nu, x, math.inf)
    if not np.ndim(x) or nu > _BESSEL_I_MAX_ORDER:
        from scipy.special import ive

        return ive(nu, x) if np.ndim(x) else float(ive(nu, x))
    series = [1.0 / (math.factorial(k) * math.gamma(nu + k + 1.0))
              for k in range(_BESSEL_I_SERIES_TERMS)]
    hankel = [1.0]
    for k in range(1, _BESSEL_I_HANKEL_TERMS):
        hankel.append(-hankel[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))

    def fill(xb, ob):
        far = xb >= _BESSEL_I_SPLIT
        if far.all():
            _bessel_i_hankel(hankel, xb, ob)
        elif not far.any():
            _bessel_i_series(nu, series, xb, ob)
        else:
            xf, xn = xb[far], xb[~far]
            ob[far] = _bessel_i_hankel(hankel, xf, np.empty_like(xf))
            ob[~far] = _bessel_i_series(nu, series, xn, np.empty_like(xn))

    return _by_blocks(x, fill)
