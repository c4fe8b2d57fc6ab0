"""An entry-by-entry e^{-x} I_nu(x) on arrays: the reference that the tests hold
`specfun.bessel_i_outer` to.

It sums the same two expansions as `bessel_i_outer`, with its coefficients,
but one point at a time: the power series below x = SPLIT and Hankel's
expansion above, by Horner, in blocks of points.  scipy's ive cannot take
this role at 1e-14: against mpmath it errs up to 5e-14 relative (this sum
3e-15), and it misses the recurrence I_{nu-1} - I_{nu+1} = (2 nu / x) I_nu
by as much.  Scalars and orders above _BESSEL_I_MAX_ORDER go to
`specfun.bessel_i_scaled`, which is ive.
"""

import math

import numpy as np

from canonica import specfun


def _horner(coeffs, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] t^k into `out`, accumulated in place."""
    out.fill(coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= t
        out += c
    return out


def _series(nu: float, coeffs, x: np.ndarray, out: np.ndarray) -> np.ndarray:
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


def _hankel(coeffs, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(2 pi x)^{-1/2} sum_k (-1)^k a_k(nu) x^{-k} into `out` (DLMF 10.40.1)."""
    t = np.divide(1.0, x)
    _horner(coeffs, t, out)
    out /= np.sqrt(np.multiply(x, 2.0 * math.pi, out=t), out=t)
    return out


def bessel_i_scaled(nu: float, x):
    """exp(-x) * I_nu(x), x >= 0, summed point by point in blocks of
    specfun._BESSEL_BLOCK points, each branch in the output block with one
    temporary."""
    x = specfun._check_bessel_args(nu, x, math.inf)
    if not np.ndim(x) or nu > specfun._BESSEL_I_MAX_ORDER:
        return specfun.bessel_i_scaled(nu, x)
    series, hankel = specfun._bessel_i_coeffs(nu)

    def fill(xb, ob):
        far = xb >= specfun._BESSEL_I_SPLIT
        if far.all():
            _hankel(hankel, xb, ob)
        elif not far.any():
            _series(nu, series, xb, ob)
        else:
            xf, xn = xb[far], xb[~far]
            ob[far] = _hankel(hankel, xf, np.empty_like(xf))
            ob[~far] = _series(nu, series, xn, np.empty_like(xn))

    return specfun._by_blocks(x, fill)
