"""Real-argument special functions used by the field catalog and kernels.

Hermite and generalized Laguerre polynomials are evaluated by their
three-term recurrences, and so is J_n for integer orders n >= 2 where
x >= n.  The scaled e^{-x} I_nu(x) of order nu <= 10 is evaluated from its
ascending power series below x = 30 and from Hankel's large-argument
expansion above.  Both Bessel functions work on arrays in fixed blocks.
On an outer product z = u_i v_j, as in a radial heat kernel, both
expansions of I_nu are sums of a power of u_i times a power of v_j, so
`bessel_i_outer` sums each as one matrix product (rank 60 and 18) in
bands of rows, with the coefficients of `bessel_i_scaled`.
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
_BESSEL_I_BAND = 65536  # entries per band of rows of bessel_i_outer: bounds its temporaries


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


def _bessel_i_coeffs(nu: float):
    """The power series' 1/(k! Gamma(nu+k+1)) (DLMF 10.25.2) and Hankel's
    (-1)^k a_k(nu) (DLMF 10.40.1) for the scaled I_nu."""
    series = [1.0 / (math.factorial(k) * math.gamma(nu + k + 1.0))
              for k in range(_BESSEL_I_SERIES_TERMS)]
    hankel = [1.0]
    for k in range(1, _BESSEL_I_HANKEL_TERMS):
        hankel.append(-hankel[-1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    return series, hankel


def bessel_i_scaled(nu: float, x):
    """exp(-x) * I_nu(x), x >= 0; overflow-safe building block for heat-type kernels.

    Array inputs of order nu <= _BESSEL_I_MAX_ORDER are evaluated in blocks of
    _BESSEL_BLOCK points: the power series below x = _BESSEL_I_SPLIT and
    Hankel's expansion above, both summed by Horner from coefficients
    computed once per call.  Each branch works in the output block with one
    temporary, which keeps the allocations of a kernel-sized call small.
    Scalar inputs and higher orders, where the expansion loses accuracy at
    the split, go to scipy's ive.

    No kernel builder calls the array path (`bessel_i_outer` sums the same
    expansions as matrix products); it is kept as the entry-by-entry
    reference that `bessel_i_outer` is tested against.  scipy's ive cannot
    take that role at 1e-14: against mpmath it errs up to 5e-14 relative
    (the array path 3e-15), and it misses the recurrence
    I_{nu-1} - I_{nu+1} = (2 nu / x) I_nu by as much.
    """
    x = _check_bessel_args(nu, x, math.inf)
    if not np.ndim(x) or nu > _BESSEL_I_MAX_ORDER:
        from scipy.special import ive

        return ive(nu, x) if np.ndim(x) else float(ive(nu, x))
    series, hankel = _bessel_i_coeffs(nu)

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


def _powers(x: np.ndarray, n: int) -> np.ndarray:
    """The n x len(x) array of x^k, k < n, by doubling: x^(k + 2^q) = x^k x^(2^q),
    so x^k takes at most 2 log2(k) roundings."""
    p = np.empty((n, x.size))
    p[0] = 1.0
    k, xk = 1, x
    while k < n:
        take = min(k, n - k)
        np.multiply(p[:take], xk, out=p[k:k + take])
        k *= 2
        if k < n:
            xk = xk * xk
    return p


def _bessel_i_bands(u: np.ndarray, v_top: float, cols: int):
    """Slices of at most _BESSEL_I_BAND // cols rows, ascending u, each with
    u_last min(v_top, SPLIT/u_first) <= 4 SPLIT: a band scaled by its own u
    then holds every series factor below (2 SPLIT)^(2k) and every Hankel
    factor below (SPLIT/4)^(-k) on the columns it reads."""
    most = max(1, _BESSEL_I_BAND // cols)
    lo = 0
    while lo < u.size:
        reach = v_top if u[lo] * v_top < _BESSEL_I_SPLIT else _BESSEL_I_SPLIT / u[lo]
        hi = int(np.searchsorted(u, 4.0 * _BESSEL_I_SPLIT / reach, "right"))
        hi = min(lo + most, max(lo + 1, hi))
        yield slice(lo, hi)
        lo = hi


def _bessel_i_band(nu, power, series, hankel, u, v, row_log, col_log, split, out):
    """One band of `bessel_i_outer`: `out` holds the exponent E and gets the kernel.

    Rows [0, full) lie below the split on every column and rows [near, b)
    above it; the series block is rows [0, near) x columns [0, split[0]), the
    Hankel block rows [full, b) x columns [split[-1], m).  Hankel's block is
    summed into its own array first, since the series block overwrites the
    exponent its mixed rows share.  Each block reads z as (u/s)(s v), with s
    its largest u for the series and its smallest for Hankel's expansion, so
    that the logs of its row and column factors do not cancel either."""
    m = v.size
    full, near = int(np.count_nonzero(split == m)), int(np.count_nonzero(split))
    far = None
    if full < u.size:  # e^E z^power (2 pi z)^(-1/2) sum_k a_k z^-k
        scale = u[full]
        uh, vh = u[full:] / scale, scale * v[split[-1]:]
        rows = (power - 0.5) * np.log(uh) - 0.5 * math.log(2.0 * math.pi)
        far = out[full:, split[-1]:] + rows[:, None]
        far += (power - 0.5) * np.log(vh)
        np.exp(far, out=far)
        far *= (_powers(1.0 / uh, len(hankel)).T * hankel) @ _powers(1.0 / vh, len(hankel))
    if near:  # e^{row_log + col_log} z^power (z/2)^nu sum_k c_k (z/2)^2k
        scale = u[near - 1] if u[near - 1] > 0.0 else 1.0
        us, vs = u[:near] / scale, scale * v[:split[0]]
        q = nu + power  # z^power (z/2)^nu = 2^-nu (u/s)^q (s v)^q
        rows, cols = row_log[:near] - nu * math.log(2.0), col_log[:split[0]]
        if q:
            rows, cols = rows + q * np.log(us), cols + q * np.log(vs)
        block = np.add(rows[:, None], cols, out=out[:near, :split[0]])
        np.exp(block, out=block)
        block *= (_powers(us**2, len(series)).T * series) @ _powers((0.5 * vs) ** 2, len(series))
    if far is not None:
        np.copyto(out[full:, split[-1]:], far, where=np.arange(split[-1], m) >= split[full:, None])


def bessel_i_outer(nu: float, u, v, power: float, row_log, col_log, exponent) -> np.ndarray:
    """K[i, j] = I_nu(z) z^power e^{row_log[i] + col_log[j]} at z = u_i v_j, for
    ascending u, v >= 0.  `exponent(rows, out)` writes E = row_log[i] +
    col_log[j] + z on the slice `rows` of u into `out`, in a form free of the
    cancellation of that sum (a Gaussian's -(x - y)^2/2t): above the split
    K = e^E z^power e^{-z} I_nu(z) takes that form, below it the sum.

    Both expansions of `bessel_i_scaled` are sums of products of a power of
    u_i and a power of v_j, so each is one matrix product: the series
    sum_k c_k (u_i/2)^(2k) v_j^(2k) of rank _BESSEL_I_SERIES_TERMS below
    z = _BESSEL_I_SPLIT (taken as v_j < SPLIT/u_i), Hankel's
    sum_k a_k u_i^(-k) v_j^(-k) of rank _BESSEL_I_HANKEL_TERMS above.  The
    kernel is built in bands of rows (`_bessel_i_bands`), each scaled by its
    own u so that no factor over- or underflows where its entry is used.
    The factors (z/2)^nu of the series and (2 pi z)^(-1/2) of Hankel's
    expansion, and z^power, join the exponent of one exponential per entry:
    their logs are a term of the row plus one of the column.  Orders above
    _BESSEL_I_MAX_ORDER take `bessel_i_scaled` on each entry.
    """
    u = _check_bessel_args(nu, u, math.inf)
    v = _check_bessel_args(nu, v, math.inf)
    if np.any(np.diff(u) < 0.0) or np.any(np.diff(v) < 0.0):
        raise ValueError("bessel_i_outer needs ascending u and v")
    out = np.empty((u.size, v.size))
    if not out.size:
        return out
    series, hankel = _bessel_i_coeffs(nu)
    with np.errstate(divide="ignore", invalid="ignore"):  # u = 0 rows: log 0 and SPLIT/0
        split = np.searchsorted(v, _BESSEL_I_SPLIT / u)  # per row: the columns below the split
        for rows in _bessel_i_bands(u, float(v[-1]), v.size):
            band = out[rows]
            exponent(rows, band)
            if nu <= _BESSEL_I_MAX_ORDER:
                _bessel_i_band(nu, power, series, hankel, u[rows], v, row_log[rows], col_log,
                               split[rows], band)
                continue
            z = np.multiply.outer(u[rows], v)
            if power:
                band += power * np.log(z)
            np.exp(band, out=band)
            band *= bessel_i_scaled(nu, z)
    return out
