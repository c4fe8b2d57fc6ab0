"""Grids, sampled complex fields, and the catalog of closed-form solutions.

Each analytic family is a solution of one of the four evolution equations
(wave equation in one transverse coordinate, its radial counterpart, the
heat equation 2 u_t = u_xx, or the radial heat equation) and is evaluable
at arbitrary (coordinate, evolution value) inside its validity domain.
The symmetry maps send the evolution variable to -1/evol, so closed-form
evaluability off the sampled slice is essential.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .common import DomainError, EquationKind, FieldFileError, GeometryMismatch
from . import specfun

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# grids and geometry tags

class GridKind:
    FULL_LINE = "full-line"
    HALF_LINE = "half-line"


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid; half-line grids must start at coordinate >= 0."""

    kind: str
    start: float
    step: float
    count: int

    def __post_init__(self):
        if self.kind not in (GridKind.FULL_LINE, GridKind.HALF_LINE):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.step)):
            raise ValueError(f"grid start and step must be finite, "
                             f"got {self.start!r}, {self.step!r}")
        if self.step <= 0:
            raise ValueError("grid step must be positive")
        if self.count < 2:
            raise ValueError("grid needs at least two points")
        if self.kind == GridKind.HALF_LINE and self.start < 0:
            raise ValueError("half-line grid must start at >= 0")

    @property
    def points(self) -> np.ndarray:
        return self.points_at(np.arange(self.count))

    def points_at(self, rows):
        """The coordinates of row indices (an int or an int array), bit for bit
        those that points holds at them."""
        return self.start + self.step * rows

    @property
    def end(self) -> float:
        return self.start + self.step * (self.count - 1)

    @property
    def span(self) -> float:
        return self.end - self.start

    @classmethod
    def from_span(cls, kind: str, start: float, end: float, count: int) -> "Grid1D":
        if count < 2 or end <= start:
            raise ValueError("need end > start and count >= 2")
        return cls(kind, start, (end - start) / (count - 1), count)

    def to_header(self) -> dict:
        return {"kind": self.kind, "start": self.start, "step": self.step, "count": self.count}


@dataclass(frozen=True)
class Linear:
    def to_json(self):
        return {"type": "linear"}


@dataclass(frozen=True)
class Radial:
    m: int

    def to_json(self):
        return {"type": "radial", "m": self.m}


@dataclass(frozen=True)
class RadialType:
    nu: float
    nu_prime: float

    def to_json(self):
        return {"type": "radial-type", "nu": self.nu, "nu_prime": self.nu_prime}


@dataclass(frozen=True)
class RadialDim:
    n_dim: float
    m: int

    def to_json(self):
        return {"type": "radial-dim", "n_dim": self.n_dim, "m": self.m}


Geometry = Linear | Radial | RadialType | RadialDim


def geometry_from_json(obj: dict) -> Geometry:
    t = obj["type"]
    if t == "linear":
        return Linear()
    if t == "radial":
        return Radial(int(obj["m"]))
    if t == "radial-type":
        return RadialType(float(obj["nu"]), float(obj["nu_prime"]))
    if t == "radial-dim":
        return RadialDim(float(obj["n_dim"]), int(obj["m"]))
    raise ValueError(f"unknown geometry type {t!r}")


def _is_radial(geometry: Geometry) -> bool:
    return not isinstance(geometry, Linear)


@dataclass(frozen=True)
class SampledField:
    """Complex samples on a grid, tagged with geometry and evolution value."""

    grid: Grid1D
    values: np.ndarray
    geometry: Geometry = dc_field(default_factory=Linear)
    evol: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.count,):
            raise ValueError("values length must match grid count")
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("field values must be finite")
        if _is_radial(self.geometry) and self.grid.kind != GridKind.HALF_LINE:
            raise GeometryMismatch("radial fields live on half-line grids")
        object.__setattr__(self, "values", vals)


# ---------------------------------------------------------------------------
# heat polynomials

def heat_poly_coeffs(n: int) -> list[tuple[int, float]]:
    """Coefficients [(power of x, coefficient of t^j)] of the degree-n heat polynomial.

    The term with x-power n-2j carries t^j and coefficient n!/(2^j j! (n-2j)!).
    """
    if not isinstance(n, (int, np.integer)) or n < 0 or n > 32:
        raise ValueError("heat polynomial degree must be an integer in [0, 32]")
    out = []
    for j in range(n // 2 + 1):
        coeff = math.factorial(n) // (2**j * math.factorial(j) * math.factorial(n - 2 * j))
        out.append((n - 2 * j, float(coeff)))
    return out


def heat_poly_eval(n: int, x, t):
    x = np.asarray(x, dtype=complex)
    total = np.zeros_like(x)
    for power, coeff in heat_poly_coeffs(n):
        j = (n - power) // 2
        total = total + coeff * x**power * complex(t) ** j
    return total


# ---------------------------------------------------------------------------
# analytic field catalog

class AnalyticField:
    """A closed-form solution family, evaluable at arbitrary (coord, evol)."""

    equation: EquationKind
    geometry: Geometry

    def eval(self, coord, evol: float):
        x = np.atleast_1d(np.asarray(coord, dtype=float))
        vals = self._eval(x, float(evol))
        return vals if np.ndim(coord) else complex(vals[0])

    def _eval(self, x: np.ndarray, evol: float) -> np.ndarray:
        raise NotImplementedError


def sample(field: AnalyticField, grid: Grid1D, evol: float) -> SampledField:
    radial = _is_radial(field.geometry)
    if radial and grid.kind != GridKind.HALF_LINE:
        raise GeometryMismatch("radial family needs a half-line grid")
    if not radial and grid.kind != GridKind.FULL_LINE:
        raise GeometryMismatch("linear family needs a full-line grid")
    vals = np.asarray(field.eval(grid.points, evol), dtype=complex)
    return SampledField(grid, vals, field.geometry, float(evol))


class PlaneChirp(AnalyticField):
    """Plane-wave solution exp(i lam xi) / sqrt(2 pi) with its chirping factor."""

    equation = EquationKind.PWE
    geometry = Linear()

    def __init__(self, lam: float):
        self.lam = float(lam)

    def _eval(self, x, zeta):
        return np.exp(1j * self.lam * x - 0.5j * self.lam**2 * zeta) / _SQRT_2PI


class PointSource(AnalyticField):
    """Field radiated by a point source at lam; singular at zeta = 0."""

    equation = EquationKind.PWE
    geometry = Linear()

    def __init__(self, lam: float):
        self.lam = float(lam)

    def _eval(self, x, zeta):
        if zeta == 0.0:
            raise DomainError("point-source field is distributional at zeta = 0")
        return np.exp(0.5j * (x - self.lam) ** 2 / zeta) / np.sqrt(2j * math.pi * zeta)


class AiryKM(AnalyticField):
    """Airy beam evolving from the cubic phase exp(i lam x - i x^3/3)/sqrt(2 pi)."""

    equation = EquationKind.PWE
    geometry = Linear()

    def __init__(self, lam: float):
        self.lam = float(lam)

    def _eval(self, x, zeta):
        if zeta == 0.0:
            return np.exp(1j * (self.lam * x - x**3 / 3.0)) / _SQRT_2PI
        z = zeta
        phase = 1.0 / (12 * z**3) + x**2 / (2 * z) - x / (2 * z**2) + self.lam / (2 * z)
        arg = x / z - 1.0 / (4 * z**2) - self.lam
        return np.exp(1j * phase) * specfun.airy_ai(arg) / np.sqrt(1j * z)


class AiryBB(AnalyticField):
    """Accelerating Airy beam with source pattern Ai(x - lam)."""

    equation = EquationKind.PWE
    geometry = Linear()

    def __init__(self, lam: float):
        self.lam = float(lam)

    def _eval(self, x, zeta):
        phase = -(zeta**3 / 12.0 - zeta * x / 2.0 + self.lam * zeta / 2.0)
        return np.exp(1j * phase) * specfun.airy_ai(x - zeta**2 / 4.0 - self.lam)


class BesselBeam(AnalyticField):
    """Diffraction-free radial mode exp(-i lam^2 zeta/2) J_m(lam rho)."""

    equation = EquationKind.RADIAL_PWE

    def __init__(self, lam: float, m: int):
        self.lam = float(lam)
        self.m = int(m)
        self.geometry = Radial(self.m)

    def _eval(self, rho, zeta):
        # J_m at negative argument via parity; the symmetry maps send rho -> -rho/zeta
        arg = self.lam * rho
        sgn = np.where(arg < 0, (-1.0) ** self.m, 1.0)
        return np.exp(-0.5j * self.lam**2 * zeta) * sgn * specfun.bessel_j(self.m, np.abs(arg))


class BesselGauss(AnalyticField):
    """Bessel-Gauss mode; its zeta = 0 source is the ring distribution delta(rho - lam)."""

    equation = EquationKind.RADIAL_PWE

    def __init__(self, lam: float, m: int):
        self.lam = float(lam)
        self.m = int(m)
        self.geometry = Radial(self.m)

    def _eval(self, rho, zeta):
        if zeta == 0.0:
            raise DomainError("Bessel-Gauss field is distributional at zeta = 0")
        arg = self.lam * rho / zeta
        sgn = np.where(arg < 0, (-1.0) ** self.m, 1.0)
        pref = (-1j) ** (self.m + 1) / zeta
        return (
            pref
            * np.exp(0.5j * (self.lam**2 + rho**2) / zeta)
            * sgn
            * specfun.bessel_j(self.m, np.abs(arg))
        )


class StdHG(AnalyticField):
    """Standard Hermite-Gauss mode of order n, with mu(zeta) = 1 + i zeta."""

    equation = EquationKind.PWE
    geometry = Linear()

    def __init__(self, n: int):
        if n < 0 or n > 64:
            raise ValueError("mode order out of range")
        self.n = int(n)

    def _eval(self, x, zeta):
        mu = 1.0 + 1j * zeta
        norm = 1.0 / math.sqrt(2.0**self.n * math.factorial(self.n) * math.sqrt(math.pi))
        ratio_pow = np.exp(-1j * self.n * np.angle(mu))  # (mu*/mu)^(n/2), principal
        return (
            norm
            * mu ** (-0.5)
            * ratio_pow
            * np.exp(-(x**2) / (2.0 * mu))
            * specfun.hermite(self.n, x / abs(mu))
        )


class StdLG(AnalyticField):
    """Standard Laguerre-Gauss mode of radial order n and azimuthal index m."""

    equation = EquationKind.RADIAL_PWE

    def __init__(self, n: int, m: int):
        if n < 0 or n > 64 or m < 0:
            raise ValueError("mode orders out of range")
        self.n = int(n)
        self.m = int(m)
        self.geometry = Radial(self.m)

    def _eval(self, rho, zeta):
        mu = 1.0 + 1j * zeta
        norm = math.sqrt(2.0 * math.factorial(self.n) / math.factorial(self.n + self.m))
        ratio_pow = np.exp(-2j * self.n * np.angle(mu))  # (mu*/mu)^n
        return (
            norm
            * mu ** (-(self.m + 1))
            * ratio_pow
            * rho**self.m
            * np.exp(-(rho**2) / (2.0 * mu))
            * specfun.laguerre(self.n, self.m, rho**2 / abs(mu) ** 2)
        )


class HeatPoly(AnalyticField):
    """Heat polynomial of degree n: the diffusion of the monomial x^n."""

    equation = EquationKind.HEAT
    geometry = Linear()

    def __init__(self, n: int):
        self.n = int(n)

    def _eval(self, x, t):
        return heat_poly_eval(self.n, x, t)


class HeatAssoc(AnalyticField):
    """Associated caloric function S(x,t) * v_n(x/t, -1/t), t > 0."""

    equation = EquationKind.HEAT
    geometry = Linear()

    def __init__(self, n: int):
        self.n = int(n)

    def _eval(self, x, t):
        if t <= 0.0:
            raise DomainError("associated caloric function needs t > 0")
        s = np.exp(-(x**2) / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
        return s * heat_poly_eval(self.n, x / t, -1.0 / t)


class FundHeat(AnalyticField):
    """Fundamental solution S(x, t) = exp(-x^2/2t)/sqrt(2 pi t), t > 0."""

    equation = EquationKind.HEAT
    geometry = Linear()

    def _eval(self, x, t):
        if t <= 0.0:
            raise DomainError("fundamental solution needs t > 0")
        return np.exp(-(x**2) / (2.0 * t)) / np.sqrt(2.0 * math.pi * t) + 0j


class RadialHeatPoly(AnalyticField):
    """Radial heat polynomial 2^n n! t^n L_n^{mu/2-1}(-r^2/2t); r^{2n} at t = 0."""

    equation = EquationKind.RADIAL_HEAT

    def __init__(self, n: int, mu: float):
        if mu <= 1.0:
            raise ValueError("radial heat polynomials need mu > 1")
        self.n = int(n)
        self.mu = float(mu)
        self.geometry = RadialDim(self.mu, 0)

    def _eval(self, r, t):
        if t == 0.0:
            return r ** (2 * self.n) + 0j
        # expand t^n L_n(-r^2/2t) through the Laguerre series to keep t < 0 exact
        nu = self.mu / 2.0 - 1.0
        total = np.zeros_like(np.asarray(r, dtype=complex))
        for k in range(self.n + 1):
            binom = math.gamma(self.n + nu + 1.0) / (
                math.gamma(self.n - k + 1.0) * math.gamma(nu + k + 1.0)
            )
            total = total + binom * (r**2 / 2.0) ** k * complex(t) ** (self.n - k) / math.factorial(k)
        return (2.0**self.n) * math.factorial(self.n) * total


class RadialHeatAppell(AnalyticField):
    """Symmetry image S_mu(r,t) * R_{n,mu}(r/t, -1/t) of a radial heat polynomial."""

    equation = EquationKind.RADIAL_HEAT

    def __init__(self, n: int, mu: float):
        if mu <= 1.0:
            raise ValueError("mu must exceed 1")
        self.n = int(n)
        self.mu = float(mu)
        self.geometry = RadialDim(self.mu, 0)
        self._poly = RadialHeatPoly(n, mu)

    def _eval(self, r, t):
        if t <= 0.0:
            raise DomainError("needs t > 0")
        s_mu = (2.0 * math.pi * t) ** (-self.mu / 2.0) * np.exp(-(r**2) / (2.0 * t))
        return s_mu * self._poly._eval(r / t, -1.0 / t)


class FundRadialHeat(AnalyticField):
    """Radial fundamental solution S_mu(r,t) = (2 pi t)^(-mu/2) exp(-r^2/2t), t > 0."""

    equation = EquationKind.RADIAL_HEAT

    def __init__(self, mu: float):
        if mu <= 1.0:
            raise ValueError("mu must exceed 1")
        self.mu = float(mu)
        self.geometry = RadialDim(self.mu, 0)

    def _eval(self, r, t):
        if t <= 0.0:
            raise DomainError("needs t > 0")
        return (2.0 * math.pi * t) ** (-self.mu / 2.0) * np.exp(-(r**2) / (2.0 * t)) + 0j


class Gauss(AnalyticField):
    """Gaussian test source exp(-(x-center)^2/2 width^2); not from the catalog
    of special solutions, added because numerical transform checks need a
    rapidly decaying input with a closed-form evolution under either equation."""

    def __init__(self, width: float = 1.0, center: float = 0.0,
                 equation: EquationKind = EquationKind.PWE):
        if width <= 0:
            raise ValueError("width must be positive")
        if equation not in (EquationKind.PWE, EquationKind.HEAT):
            raise ValueError("gaussian helper supports the linear equations only")
        self.width = float(width)
        self.center = float(center)
        self.equation = equation
        self.geometry = Linear()

    def _eval(self, x, evol):
        w2 = self.width**2
        mu = w2 + (1j * evol if self.equation is EquationKind.PWE else evol)
        mu = complex(mu)
        if mu == 0:
            raise DomainError("gaussian evolution hits its focal singularity")
        amp = np.sqrt(w2 / mu)
        return amp * np.exp(-((x - self.center) ** 2) / (2.0 * mu))


FAMILIES = {
    "plane-chirp": PlaneChirp,
    "point-source": PointSource,
    "airy-km": AiryKM,
    "airy-bb": AiryBB,
    "bessel": BesselBeam,
    "bessel-gauss": BesselGauss,
    "std-hg": StdHG,
    "std-lg": StdLG,
    "heat-poly": HeatPoly,
    "heat-assoc": HeatAssoc,
    "fund-heat": FundHeat,
    "radial-heat-poly": RadialHeatPoly,
    "radial-heat-appell": RadialHeatAppell,
    "fund-radial-heat": FundRadialHeat,
    "gauss": Gauss,
}


# ---------------------------------------------------------------------------
# field file format (bit-stable CSV)

_MAGIC = "# canonica-field v1 "
_ROWS_PER_BLOCK = 8192  # rows formatted per write
_COORD_TOL = 1e-6  # in grid steps: how far a row's coordinate may sit from its grid point
_HEADER_KEYS = {
    "kind": (str, "a string"),
    "start": ((int, float), "a number"),
    "step": ((int, float), "a number"),
    "count": (int, "an integer"),
    "geometry": (dict, "an object"),
    "evol": ((int, float), "a number"),
}


def write_field(field: SampledField, path) -> None:
    header = field.grid.to_header()
    header["geometry"] = field.geometry.to_json()
    header["evol"] = field.evol
    grid, values = field.grid, field.values
    with open(path, "wb") as fh:
        fh.write((_MAGIC + json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        for lo in range(0, len(values), _ROWS_PER_BLOCK):
            hi = min(lo + _ROWS_PER_BLOCK, len(values))
            fh.write(_format_rows(np.column_stack(
                (grid.points_at(np.arange(lo, hi)), values[lo:hi].real, values[lo:hi].imag))))


# The rows are the bytes of "%.16e,%.16e,%.16e\n" % (coord, re, im): 17 correctly
# rounded significant digits.  CPython's % reaches them through bignum arithmetic
# (Gay's dtoa) at about 1 us a float.  Here numpy scales each |x| by a table power
# of ten in long double and rounds to an integer; a value whose rounding the
# long-double error cannot change is spelled out from digit tables, and every
# other value (a near-tie, a non-finite value, a scale out of range) goes to %.
# Where the long double is only float64 the error band exceeds the half unit it
# must clear, so every nonzero value goes to % and the bytes stay the same.

_POW10_LO = -310
_POW10 = np.array([f"1e{p}" for p in range(_POW10_LO, 345)], dtype=np.longdouble)
_EPS = float(np.finfo(np.longdouble).eps)


def _words(chunks) -> np.ndarray:
    """Byte strings, joined, as native uint32 words, which are only ever copied."""
    return np.frombuffer(b"".join(chunks), dtype=np.uint32)


# a value's text sits in a 7-word slot: [NUL, sign, d0, '.'], four words of
# four digits, ['e', exponent sign, two digits], [third digit, NUL, NUL, separator];
# the NULs are dropped when the block is packed
_LEAD = _words(b"\0" + sign + b"%d." % d for sign in (b"\0", b"-") for d in range(10))
_PAIRS = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), dtype=np.uint16)
_DIGITS4 = np.column_stack((np.repeat(_PAIRS, 100), np.tile(_PAIRS, 100))).view(np.uint32)[:, 0]
_EXP_LO, _EXP_HI = -330, 310
# the last two words of a slot, one table row each, for every exponent and for
# the separator after a row's first, second and third value
_EXP = _words((b"e%+03d" % e).ljust(7, b"\0") + sep for sep in (b",", b",", b"\n")
              for e in range(_EXP_LO, _EXP_HI)).reshape(-1, 2).T.copy()
_EXP_COLUMNS = np.arange(3) * (_EXP_HI - _EXP_LO) - _EXP_LO  # exponent -> table column
_SEPARATORS = np.frombuffer(b",,\n", dtype=np.uint8)


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, E, decided): |x| rounds to D * 10**(E - 16) with 10**16 <= D < 10**17,
    or D = E = 0 for a zero; D and E are correct where decided is true.

    s = |x| * 10**(16 - E) is one rounded long-double product with a rounded
    table entry, so it errs by at most about eps * s; a value is decided only
    when the fraction of s clears the rounding tie by twice that.  The test runs
    in float64: the fraction s - D, which float64 holds within 2**-54 (exactly
    on x87, where it is a multiple of 2**-10), against 2 eps D plus 2**-100 D >=
    7.9e-15, which covers that rounding, D <= s < D + 1 and the float64 product.
    So it decides no value that the test in long double would not."""
    with np.errstate(all="ignore"):
        a = np.abs(x)
        zero = a == 0
        ok = np.isfinite(a) & ~zero
        e = np.floor(np.log10(np.where(ok, a, 1.0))).astype(np.int64)
        s = a.astype(np.longdouble) * _POW10[16 - _POW10_LO - e]
        d = s.astype(np.int64)
        fix = np.flatnonzero(ok & ((d < 10**16) | (d >= 10**17)))  # log10 off by one
        if fix.size:
            e[fix] += np.where(d[fix] < 10**16, -1, 1)
            s[fix] = a[fix].astype(np.longdouble) * _POW10[16 - _POW10_LO - e[fix]]
            d[fix] = s[fix].astype(np.int64)
            ok[fix[(d[fix] < 10**16) | (d[fix] >= 10**17)]] = False  # still off: to %
        frac = (s - d).astype(float)
        decided = ok & (np.abs(frac - 0.5) > d * (2 * _EPS + 2.0**-100))
    d += frac > 0.5
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    d[zero] = 0
    e[zero] = 0
    return d, e, decided | zero


def _format_rows(block: np.ndarray) -> bytearray:
    """The bytes of "%.16e,%.16e,%.16e\\n" % row for every row of an (n, 3) block."""
    x = block.ravel()
    d, e, decided = _decimal(x)
    rest = np.flatnonzero(~decided)
    d[rest] = 0
    e[rest] = 0
    packed = bytearray(28 * len(x))  # so that translate reads the slots without a copy
    slots = np.frombuffer(packed, dtype=np.uint32).reshape(-1, 7)
    # d = lead * 10**16 + hi * 10**8 + lo
    hi = d // 10**8
    lo = d - hi * 10**8
    lead = hi // 10**8
    hi -= lead * 10**8
    slots[:, 0] = _LEAD[lead + 10 * np.signbit(x)]
    for col, group in ((1, hi), (3, lo)):
        top = group // 10**4
        slots[:, col] = _DIGITS4[top]
        slots[:, col + 1] = _DIGITS4[group - top * 10**4]
    columns = e.reshape(-1, 3)
    columns += _EXP_COLUMNS  # e now indexes the _EXP tables
    slots[:, 5] = _EXP[0][e]
    slots[:, 6] = _EXP[1][e]
    if rest.size:  # their last word holds the separator alone, as E = 0
        text = ("%.16e\n" * rest.size) % tuple(x[rest].tolist())
        slots[rest, :6] = np.array(text.split("\n")[:-1], dtype="S24").view(np.uint32) \
            .reshape(-1, 6)
    return packed.translate(None, b"\0")


# Reading splits the work the same way (Clinger's fast path with an exact
# fallback).  A token [-]d.dddddddddddddddde±dd[d] is D * 10**(E - 16), D its
# 17 digits.  numpy divides D by the table power 10**(16 - E) in long double and
# rounds the quotient r to a float64 y.  r errs by at most about eps * r, so y
# is what float() gives wherever r lies inside y's rounding interval by twice
# that.  Every other token (a near-tie, a token outside that grammar, a scale
# near subnormal or overflow) goes to float().  Where the long double is only
# float64 that is every nonzero token, and the values stay the same.

_BLOCK_BYTES = 4096 * 72  # bytes read at a time: 4,096 rows as written
_MIN_ROW = 5  # bytes of the shortest row, "0,0,0"
_PAD = bytes(32)  # so that a 24-byte window from any token's third byte is in range
_E_MAX = 307  # |E| bound: 10**(E_MAX + 1) is a finite float64
_E_SIGNS = np.frombuffer(b"e-e+", dtype=np.uint16)
# two ASCII digits as a native uint16, less 0x3030 (which wraps below '0'), index
# their value; any other pair indexes an entry of 1000, or past the end, which
# take(mode="clip") reads as the last entry, 1000: over _E_MAX even times ten
_PAIR_VALUES = np.full(0x090B, 1000, dtype=np.int16)
_PAIR_VALUES[_PAIRS - 0x3030] = np.arange(100)
_Y_MIN = 2.0**-969  # from here up, half an ulp is a normal float64


def _eight_digits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, ok) of the eight ASCII digits, first digit lowest, in each uint64."""
    nibbles = 0xF0F0F0F0F0F0F0F0
    ok = (words & nibbles) | (((words + 0x0606060606060606) & nibbles) >> 4) \
        == 0x3333333333333333
    v = words - 0x3030303030303030
    v = (v * 10 + (v >> 8)) & 0x00FF00FF00FF00FF
    v = (v * 100 + (v >> 16)) & 0x0000FFFF0000FFFF
    return (v * 10000 + (v >> 32)) & 0xFFFFFFFF, ok


def _split(block: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(buf, starts, ends) of the tokens of a block of whole lines, buf padded;
    None unless every line is "a,b,c\\n"."""
    buf = np.frombuffer(block + _PAD, dtype=np.uint8)
    separators = buf == ord(",")
    separators |= buf == ord("\n")
    ends = np.flatnonzero(separators)
    if len(ends) % 3 or not np.all(buf[ends].reshape(-1, 3) == _SEPARATORS):
        return None
    starts = np.empty_like(ends)
    starts[0], starts[1:] = 0, ends[:-1] + 1
    return buf, starts, ends


def _binary(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) \
        -> tuple[np.ndarray, np.ndarray]:
    """(x, decided): x is what float() reads from each token buf[start:end]
    wherever decided is true."""
    neg = buf[starts] == ord("-")
    s = starts + neg
    three = ends - s == 23  # a three-digit exponent
    lead = buf[s] - ord("0")
    # per token: 16 digits, 'e', the exponent's sign and its two or three digits,
    # one 24-byte item each from a view that starts an item at every byte
    tail = np.ndarray(len(buf) - 23, dtype="S24", buffer=buf, strides=(1,))[s + 2] \
        .view(np.uint8).reshape(-1, 24)
    hi, ok_hi = _eight_digits(tail.view("<u8")[:, 0])
    lo, ok_lo = _eight_digits(tail.view("<u8")[:, 1])
    pairs = tail.view(np.uint16)  # pairs[:, 8] is "e-" or "e+", pairs[:, 9] two digits
    e_neg = pairs[:, 8] == _E_SIGNS[0]
    e = _PAIR_VALUES.take(pairs[:, 9] - 0x3030, mode="clip")
    third = tail[:, 20] - ord("0")
    e = np.where(three, 10 * e + third, e)
    e = np.where(e_neg, -e, e)
    ok = (three | (ends - s == 22)) & (lead <= 9) & (buf[s + 1] == ord(".")) \
        & ok_hi & ok_lo & (e_neg | (pairs[:, 8] == _E_SIGNS[1])) \
        & (~three | (third <= 9)) & (np.abs(e) <= _E_MAX)
    d = lead * np.uint64(10**16) + hi * 10**8 + lo
    e[~ok] = 0
    with np.errstate(all="ignore"):
        r = d.astype(np.longdouble) / _POW10[16 - _POW10_LO - e]
        y = r.astype(float)
        # y's rounding interval reaches at least half the ulp of nextafter(y, 0),
        # 2**(its exponent - 53), on either side; built from the bits of y >= _Y_MIN
        half = ((y.view(np.uint64) - 1) & 0x7FF0000000000000) - (53 << 52)
        decided = ok & ((d == 0) | ((y >= _Y_MIN) & (
            np.abs((r - y).astype(float)) < half.view(float) - 2 * _EPS * y)))
    return np.where(neg, -y, y), decided


def _parse_rows(block: bytes) -> np.ndarray | None:
    """The (n, 3) float64 rows of a block of whole lines, each value as float()
    reads its token; None unless every line is three comma-separated tokens
    that float() accepts."""
    tokens = _split(block)
    if tokens is None:
        return None
    x, decided = _binary(*tokens)
    rest = np.flatnonzero(~decided)
    if rest.size:
        _, starts, ends = tokens
        try:
            x[rest] = [float(block[a:b]) for a, b in zip(starts[rest].tolist(),
                                                          ends[rest].tolist())]
        except ValueError:
            return None
    return x.reshape(-1, 3)


def read_field(path) -> SampledField:
    """Read a field file; the grid, geometry and every row's coordinate are checked.

    The body is parsed a block of lines at a time by _parse_rows.  A body it
    rejects, or a row off the header's grid, or a wrong row count, is re-read
    row by row, which accepts what float() accepts and names the first bad
    line.  A bad header or row raises FieldFileError, a ValueError that names
    the key or the line."""
    with open(path, "rb") as fh:
        try:
            first = fh.readline().decode("utf-8")
            if not first.startswith(_MAGIC):
                raise FieldFileError(f"{path}: not a canonica-field v1 file")
            grid, geometry, evol = _read_header(path, first[len(_MAGIC):])
            body = fh.tell()
            values = _read_blocks(fh, grid)
            if values is None:
                fh.seek(body)
                with io.TextIOWrapper(fh, encoding="utf-8") as text:
                    values = _read_rows(text, path, grid)
        except UnicodeDecodeError as exc:
            raise FieldFileError(f"{path}: not a text file: {exc}") from None
    return SampledField(grid, values, geometry, evol)


def _read_header(path, text: str) -> tuple[Grid1D, Geometry, float]:
    try:
        header = json.loads(text)
    except ValueError as exc:
        raise FieldFileError(f"{path}: header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise FieldFileError(f"{path}: header is not a JSON object")
    for key, (types, what) in _HEADER_KEYS.items():
        if key not in header:
            raise FieldFileError(f"{path}: header has no {key!r}")
        value = header[key]
        if not isinstance(value, types) or isinstance(value, bool):
            raise FieldFileError(f"{path}: header {key!r} must be {what}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise FieldFileError(f"{path}: header {key!r} must be finite, got {value!r}")
    try:
        grid = Grid1D(header["kind"], header["start"], header["step"], header["count"])
    except ValueError as exc:
        raise FieldFileError(f"{path}: header: {exc}") from None
    try:
        geometry = geometry_from_json(header["geometry"])
    except KeyError as exc:
        raise FieldFileError(f"{path}: header 'geometry' has no {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FieldFileError(f"{path}: header 'geometry': {exc}") from None
    return grid, geometry, float(header["evol"])


def _read_blocks(fh, grid: Grid1D) -> np.ndarray | None:
    """The values of a body of grid.count "a,b,c\\n" lines on the grid, read a
    block of whole lines at a time; None if it is anything else.  No more rows
    are allocated than the body has bytes for."""
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    values = np.empty(min(grid.count, max(size, 0) // _MIN_ROW), dtype=complex)
    # a float view keeps the sign of a zero real part, which re + 1j*im loses
    pairs = values.view(float).reshape(-1, 2)
    tol = _COORD_TOL * grid.step
    n, carry = 0, b""
    while True:
        chunk = fh.read(_BLOCK_BYTES)
        if chunk:
            cut = chunk.rfind(b"\n") + 1
            if not cut:  # a line longer than a block
                carry += chunk
                continue
            block, carry = b"".join((carry, memoryview(chunk)[:cut])), chunk[cut:]
            del chunk  # so that a block's bytes are held once while it is parsed
        elif carry:  # the last line has no newline
            block, carry = carry + b"\n", b""
        else:
            break
        rows = _parse_rows(block)
        if rows is None or n + len(rows) > len(values) or \
                not np.all(np.abs(rows[:, 0] - grid.points_at(np.arange(n, n + len(rows))))
                           <= tol):
            return None
        pairs[n:n + len(rows)] = rows[:, 1:]
        n += len(rows)
    return values if n == grid.count else None


def _read_rows(fh, path, grid: Grid1D) -> np.ndarray:
    tol = _COORD_TOL * grid.step
    values = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise FieldFileError(f"{path}:{lineno}: expected 'coord,re,im'")
        try:
            coord = float(parts[0])
            values.append(complex(float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise FieldFileError(f"{path}:{lineno}: {exc}") from None
        row = len(values) - 1
        if row < grid.count and not abs(coord - grid.points_at(row)) <= tol:
            raise FieldFileError(f"{path}:{lineno}: coordinate {coord!r} is not grid point "
                                 f"{row} ({float(grid.points_at(row))!r})")
    if len(values) != grid.count:
        raise FieldFileError(f"{path}: row count {len(values)} != declared {grid.count}")
    return np.array(values)
