"""Real-argument special functions used by the field catalog and kernels.

Hermite and generalized Laguerre polynomials are evaluated by their
three-term recurrences, and so is J_n for integer orders n >= 2 where
x >= n.  Airy and the other Bessel functions delegate to
scipy.special behind the domain guards below; the guards keep every call
inside the range where double precision delivers ~1e-10 relative accuracy
and no overflow.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

HERMITE_MAX_DEGREE = 64
LAGUERRE_MAX_DEGREE = 64
AIRY_MAX_ABS = 50.0
BESSEL_I_MAX_ARG = 700.0
_BESSEL_J_BLOCK = 32768  # points per block: bounds the recurrence temporaries


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
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > AIRY_MAX_ABS):
        raise ValueError(f"airy_ai argument out of range |x| <= {AIRY_MAX_ABS}")
    ai = _sp.airy(x)[0]
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


def _bessel_j_ladder(n: int, x: np.ndarray, out: np.ndarray) -> None:
    """J_n(x) into `out` for an integer n >= 2 and x >= n.

    Starts from J_0, J_1 (cephes j0/j1) and climbs J_{k+1} = (2k/x) J_k -
    J_{k-1}, which is stable for x >= n (Gautschi, SIAM Rev. 9, 1967).
    """
    j_prev, j = _sp.j0(x), _sp.j1(x)
    two_over_x = 2.0 / x
    step = np.empty_like(x)
    for k in range(1, n):
        np.multiply(two_over_x, k, out=step)
        step *= j
        step -= j_prev
        j_prev, j, step = j, step, j_prev
    out[:] = j


def bessel_j(nu: float, x):
    """Bessel function of the first kind J_nu(x), x >= 0.

    Array inputs of order 0 and 1 go to cephes j0/j1; higher integer orders
    go through `_bessel_j_ladder` in blocks of _BESSEL_J_BLOCK points.  Points
    with x < nu, where the upward recurrence is unstable, and every other
    order or scalar input go to scipy's jv.
    """
    x = _check_bessel_args(nu, x, 1e4 * (1.0 + nu))
    if not np.ndim(x):
        return float(_sp.jv(nu, x))
    if not float(nu).is_integer():
        return _sp.jv(nu, x)
    if nu <= 1.0:
        return _sp.j1(x) if nu else _sp.j0(x)
    n = int(nu)
    out = np.empty(x.shape)
    flat, out_flat = x.reshape(-1), out.reshape(-1)
    for lo in range(0, flat.size, _BESSEL_J_BLOCK):
        xb = flat[lo:lo + _BESSEL_J_BLOCK]
        ob = out_flat[lo:lo + _BESSEL_J_BLOCK]
        with np.errstate(divide="ignore", invalid="ignore"):  # x < n is redone below
            _bessel_j_ladder(n, xb, ob)
        low = xb < n
        if low.any():
            ob[low] = _sp.jv(nu, xb[low])
    return out


def bessel_i(nu: float, x):
    """Modified Bessel function of the first kind I_nu(x), 0 <= x <= 700."""
    x = _check_bessel_args(nu, x, BESSEL_I_MAX_ARG)
    val = _sp.iv(nu, x)
    return val if np.ndim(x) else float(val)


def bessel_i_scaled(nu: float, x):
    """exp(-x) * I_nu(x); overflow-safe building block for heat-type kernels."""
    x = np.asarray(x, dtype=float)
    if nu < -0.5:
        raise ValueError(f"bessel order must be >= -1/2, got {nu}")
    if np.any(x < 0):
        raise ValueError("bessel argument must be nonnegative")
    val = _sp.ive(nu, x)
    return val if np.ndim(x) else float(val)
