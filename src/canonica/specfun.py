"""Real-argument special functions used by the field catalog and kernels.

Hermite and generalized Laguerre polynomials are evaluated by their
three-term recurrences, and so is J_n for integer orders n >= 2 where
x >= n, in fixed blocks of points.  Kernels on an outer product
z = u_i v_j are built from separable forms.  `bessel_j_outer` returns
J_nu(u_i v_j) as a core J_nu(u_i eta_b) on p Chebyshev points eta of the
range of v and the barycentric matrix from eta to v: along v the kernel is
band-limited, and p is the degree at which the Chebyshev coefficients of
its highest frequency fall below 1e-16.  For the scaled e^{-z} I_nu(z) of
order nu <= 10, `bessel_i_outer` sums its ascending power series below
z = 30 and Hankel's large-argument expansion above as matrix products
(rank 60 and 18) in bands of rows.  Airy, scalar Bessel calls and every
other Bessel order delegate to scipy.special behind the domain guards
below; the guards keep every call inside the range where double precision
delivers ~1e-10 relative accuracy and no overflow.  scipy.special is slow
to import, so each function that calls it imports it on first use:
importing this module loads no scipy.
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
_BESSEL_BAND = 65536  # entries per band of rows of the outer builders: bounds their temporaries
_BESSEL_J_TAIL = 1e-16  # bessel_j_outer: the size of the first Chebyshev coefficient it drops


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


def bessel_j_columns(nu: float, u, v) -> int:
    """The columns of `bessel_j_outer`'s core: its p Chebyshev points, or len(v)
    where the kernel stays dense.

    Along v the kernel J_nu(u_i v) is a sum of e^{i u_i v s}, |s| <= 1
    (Bessel's integral), so on [min v, max v] it has frequency at most
    omega = max u (max v - min v)/2 in the interval's variable t in [-1, 1].
    The Chebyshev coefficients of e^{i omega t} are 2 i^n J_n(omega), so p
    is the smallest n > omega with |J_n(omega)| < _BESSEL_J_TAIL, and at
    least 2.  A non-integer order has a branch point at z = 0, and a p that
    reaches len(v) saves nothing: both stay dense.
    """
    from scipy.special import jv

    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if not float(nu).is_integer() or v.size < 3:
        return v.size
    omega = float(np.max(u, initial=0.0)) * 0.5 * float(np.ptp(v))
    # |J_n(omega)| falls below 1e-16 by n = omega + 12.5 omega^(1/3) (+ 13 below omega = 1)
    n = math.floor(omega) + 1 + np.arange(32 + 16 * math.ceil(omega ** (1.0 / 3.0)))
    below = np.flatnonzero(np.abs(jv(n, omega)) < _BESSEL_J_TAIL)
    p = max(2, int(n[below[0]])) if below.size else v.size
    return min(p, v.size)


def _chebyshev_interpolation(eta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The len(v) x p matrix whose row j reads the polynomial through the p
    Chebyshev points eta (cos(pi b/(p - 1)), descending, mapped onto an
    interval) at v_j: the second barycentric form, weights (-1)^b halved at
    the ends (Berrut & Trefethen, SIAM Rev. 46, 2004), in bands of rows.  A
    v_j on a point eta_b reads its value."""
    w = np.where(np.arange(eta.size) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    out = np.empty((v.size, eta.size))
    rows = max(1, _BESSEL_BAND // eta.size)
    for lo in range(0, v.size, rows):
        band = out[lo:lo + rows]
        np.subtract(v[lo:lo + rows, None], eta, out=band)
        on_point = band == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):  # redone below
            np.divide(w, band, out=band)
            band /= band.sum(axis=1, keepdims=True)
        hit = on_point.any(axis=1)
        if hit.any():
            band[hit] = on_point[hit]
    return out


def bessel_j_outer(nu: float, u, v):
    """The factors (core, L) of K[i, j] = J_nu(u_i v_j), u, v >= 0: K = core @ L.T.

    The core is J_nu(u_i eta_b) on the p = `bessel_j_columns` Chebyshev
    points eta of [min v, max v], evaluated by `bessel_j`, and L the
    len(v) x p barycentric interpolation matrix from eta to v
    (`_chebyshev_interpolation`).  Only v is interpolated, so each row keeps
    its accuracy relative to its own size, down to u_i = 0.  Where p is
    len(v) the core is the dense kernel J_nu(u_i v_j) and L is None.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    p = bessel_j_columns(nu, u, v)
    if p == v.size:
        return bessel_j(nu, np.multiply.outer(u, v)), None
    lo, hi = float(np.min(v)), float(np.max(v))
    eta = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(p) / (p - 1))
    eta[0], eta[-1] = hi, lo
    return bessel_j(nu, np.multiply.outer(u, eta)), _chebyshev_interpolation(eta, v)


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
    """exp(-x) * I_nu(x), x >= 0, by scipy's ive: the entries of `bessel_i_outer`
    above order _BESSEL_I_MAX_ORDER."""
    from scipy.special import ive

    x = _check_bessel_args(nu, x, math.inf)
    return ive(nu, x) if np.ndim(x) else float(ive(nu, x))


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
    """Slices of at most _BESSEL_BAND // cols rows, ascending u, each with
    u_last min(v_top, SPLIT/u_first) <= 4 SPLIT: a band scaled by its own u
    then holds every series factor below (2 SPLIT)^(2k) and every Hankel
    factor below (SPLIT/4)^(-k) on the columns it reads."""
    most = max(1, _BESSEL_BAND // cols)
    lo = 0
    while lo < u.size:
        reach = v_top if u[lo] * v_top < _BESSEL_I_SPLIT else _BESSEL_I_SPLIT / u[lo]
        hi = int(np.searchsorted(u, 4.0 * _BESSEL_I_SPLIT / reach, "right"))
        hi = min(lo + most, max(lo + 1, hi))
        yield slice(lo, hi)
        lo = hi


def _bessel_i_band(nu, power, series, hankel, u, v, row_log, col_log, split, rows, exponent,
                   ceiling, out):
    """One band of `bessel_i_outer`, the slice `rows` of its rows, into `out`.

    Rows [0, full) lie below the split on every column and rows [near, b)
    above it; the series block is rows [0, near) x columns [0, split[0]), the
    Hankel block rows [full, b) x columns [split[-1], m).  Hankel's block is
    summed into its own array first, from the exponent E on that block, since
    the two blocks share the mixed rows.  The series block reads no E: there
    E = row_log + col_log + z with z < SPLIT, so it calls `exponent` only
    where that bound passes `ceiling`.  Each block reads z as (u/s)(s v),
    with s its largest u for the series and its smallest for Hankel's
    expansion, so that the logs of its row and column factors do not cancel
    either."""
    m = v.size
    full, near = int(np.count_nonzero(split == m)), int(np.count_nonzero(split))
    far = None
    if full < u.size:  # e^E z^power (2 pi z)^(-1/2) sum_k a_k z^-k
        scale = u[full]
        uh, vh = u[full:] / scale, scale * v[split[-1]:]
        far = np.empty((uh.size, vh.size))
        exponent(slice(rows.start + full, rows.stop), slice(split[-1], m), far)
        far += ((power - 0.5) * np.log(uh) - 0.5 * math.log(2.0 * math.pi))[:, None]
        far += (power - 0.5) * np.log(vh)
        np.exp(far, out=far)
        far *= (_powers(1.0 / uh, len(hankel)).T * hankel) @ _powers(1.0 / vh, len(hankel))
    if near:  # e^{row_log + col_log} z^power (z/2)^nu sum_k c_k (z/2)^2k
        block = out[:near, :split[0]]
        if float(np.max(row_log[:near])) + float(np.max(col_log[:split[0]])) \
                + _BESSEL_I_SPLIT > ceiling:
            exponent(slice(rows.start, rows.start + near), slice(0, split[0]), block)
        scale = u[near - 1] if u[near - 1] > 0.0 else 1.0
        us, vs = u[:near] / scale, scale * v[:split[0]]
        q = nu + power  # z^power (z/2)^nu = 2^-nu (u/s)^q (s v)^q
        logs, cols = row_log[:near] - nu * math.log(2.0), col_log[:split[0]]
        if q:
            logs, cols = logs + q * np.log(us), cols + q * np.log(vs)
        np.add(logs[:, None], cols, out=block)
        np.exp(block, out=block)
        block *= (_powers(us**2, len(series)).T * series) @ _powers((0.5 * vs) ** 2, len(series))
    if far is not None:
        np.copyto(out[full:, split[-1]:], far, where=np.arange(split[-1], m) >= split[full:, None])


def bessel_i_outer(nu: float, u, v, power: float, row_log, col_log, exponent,
                   ceiling: float = math.inf) -> np.ndarray:
    """K[i, j] = I_nu(z) z^power e^{row_log[i] + col_log[j]} at z = u_i v_j, for
    ascending u, v >= 0.  `exponent(rows, cols, out)` writes
    E = row_log[i] + col_log[j] + z on the slices `rows` of u and `cols` of v
    into `out`, in a form free of the cancellation of that sum (a Gaussian's
    -(x - y)^2/2t): above the split K = e^E z^power e^{-z} I_nu(z) takes that
    form, below it the sum.  Below the split E is written only where
    max row_log + max col_log + _BESSEL_I_SPLIT passes `ceiling`, so an
    `exponent` that guards E against a ceiling sees every E that could pass
    it: the caller's ceiling sits below its guard by E's rounding.

    Both expansions of I_nu are sums of products of a power of u_i and a
    power of v_j, so each is one matrix product: the power series
    sum_k c_k (u_i/2)^(2k) v_j^(2k) (DLMF 10.25.2) of rank
    _BESSEL_I_SERIES_TERMS below z = _BESSEL_I_SPLIT (taken as
    v_j < SPLIT/u_i), Hankel's sum_k a_k u_i^(-k) v_j^(-k) (DLMF 10.40.1) of
    rank _BESSEL_I_HANKEL_TERMS above.  The kernel is built in bands of rows
    (`_bessel_i_bands`), each scaled by its own u so that no factor over- or
    underflows where its entry is used.  The factors (z/2)^nu of the series
    and (2 pi z)^(-1/2) of Hankel's expansion, and z^power, join the exponent
    of one exponential per entry: their logs are a term of the row plus one
    of the column.  Orders above _BESSEL_I_MAX_ORDER, where Hankel's
    expansion loses accuracy at the split, take `bessel_i_scaled` on each
    entry.
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
            if nu <= _BESSEL_I_MAX_ORDER:
                _bessel_i_band(nu, power, series, hankel, u[rows], v, row_log[rows], col_log,
                               split[rows], rows, exponent, ceiling, band)
                continue
            exponent(rows, slice(None), band)
            z = np.multiply.outer(u[rows], v)
            if power:
                band += power * np.log(z)
            np.exp(band, out=band)
            band *= bessel_i_scaled(nu, z)
    return out
