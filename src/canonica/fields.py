"""Grids, sampled complex fields, and the catalog of closed-form solutions.

Each analytic family is a solution of one of the four evolution equations
(wave equation in one transverse coordinate, its radial counterpart, the
heat equation 2 u_t = u_xx, or the radial heat equation) and is evaluable
at arbitrary (coordinate, evolution value) inside its validity domain.
The symmetry maps send the evolution variable to -1/evol, so closed-form
evaluability off the sampled slice is essential.
"""

from __future__ import annotations

import json
import math
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
        return self.start + self.step * np.arange(self.count)

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
_ROW = "%.16e,%.16e,%.16e\n"  # coord,re,im
_ROWS_PER_BLOCK = 32768  # rows formatted per write, the block size of specfun
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
    points, values = field.grid.points, field.values
    with open(path, "w") as fh:
        fh.write(_MAGIC + json.dumps(header, sort_keys=True) + "\n")
        for lo in range(0, len(values), _ROWS_PER_BLOCK):
            hi = lo + _ROWS_PER_BLOCK
            block = np.column_stack((points[lo:hi], values[lo:hi].real, values[lo:hi].imag))
            fh.write((_ROW * len(block)) % tuple(block.ravel().tolist()))


def read_field(path) -> SampledField:
    """Read a field file; the grid, geometry and every row's coordinate are checked.

    The body is parsed by one np.loadtxt call.  Whatever that rejects (or a
    row off the header's grid) is re-read row by row, which accepts what
    float() accepts and names the first bad line.  A bad header or row raises
    FieldFileError, a ValueError that names the key or the line."""
    with open(path) as fh:
        try:
            first = fh.readline()
            if not first.startswith(_MAGIC):
                raise FieldFileError(f"{path}: not a canonica-field v1 file")
            grid, geometry, evol = _read_header(path, first[len(_MAGIC):])
            body = fh.tell()
            values = None
            if fh.readline().strip():  # an empty body would make loadtxt warn
                fh.seek(body)
                values = _load_rows(fh, grid)
            if values is None:
                fh.seek(body)
                values = _read_rows(fh, path, grid)
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


def _load_rows(fh, grid: Grid1D) -> np.ndarray | None:
    """The values of the whole body in one np.loadtxt call, or None if it
    does not parse into grid.count rows on the grid."""
    try:
        rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape != (grid.count, 3) or \
            not np.all(np.abs(rows[:, 0] - grid.points) <= _COORD_TOL * grid.step):
        return None
    # a view keeps the sign of a zero real part, which re + 1j*im loses
    return np.ascontiguousarray(rows[:, 1:]).view(complex)[:, 0]


def _read_rows(fh, path, grid: Grid1D) -> np.ndarray:
    points, tol = grid.points, _COORD_TOL * grid.step
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
        if row < grid.count and not abs(coord - points[row]) <= tol:
            raise FieldFileError(f"{path}:{lineno}: coordinate {coord!r} is not grid point "
                             f"{row} ({float(points[row])!r})")
    if len(values) != grid.count:
        raise FieldFileError(f"{path}: row count {len(values)} != declared {grid.count}")
    return np.array(values)
