"""Exact 2x2 complex unimodular matrix algebra.

Every integral transform in this library is parameterized by a 2x2 matrix
with det = 1: ray matrices of paraxial optics (real entries), and the
complex matrices behind Gaussian convolution, Gaussian apertures, and the
bilateral Laplace transform.  This module provides the constructors for all
of them, composition/inversion, classification predicates, and the two
triangular ("lens - scale - free section") factorization schemes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .common import EquationKind, ImagingSingular, LaplaceSingular

UNIMODULAR_TOL = 1e-12
REAL_TOL = 1e-14
LFORM_TOL = 1e-12
MATRIX_EQ_TOL = 1e-12


@dataclass(frozen=True)
class SympMat2:
    """Unimodular 2x2 complex matrix with entries a, b, c, d."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        if abs(self.det - 1.0) > UNIMODULAR_TOL:
            raise ValueError(f"matrix is not unimodular: det = {self.det}")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def is_real(self, tol: float = REAL_TOL) -> bool:
        return all(abs(z.imag) <= tol for z in (self.a, self.b, self.c, self.d))

    def is_l_form(self, tol: float = LFORM_TOL) -> bool:
        """True when a, d are real and b, c purely imaginary (L-matrix shape)."""
        return (
            abs(self.a.imag) <= tol
            and abs(self.d.imag) <= tol
            and abs(self.b.real) <= tol
            and abs(self.c.real) <= tol
        )

    def lform_params(self) -> tuple[float, float, float, float]:
        """Real (A, B, C, D) of an L-form matrix [[A, iB], [-iC, D]]."""
        if not self.is_l_form():
            raise ValueError("matrix is not of L form")
        return (self.a.real, self.b.imag, -self.c.imag, self.d.real)

    def approx_eq(self, other: "SympMat2", tol: float = MATRIX_EQ_TOL) -> bool:
        return (
            abs(self.a - other.a) <= tol
            and abs(self.b - other.b) <= tol
            and abs(self.c - other.c) <= tol
            and abs(self.d - other.d) <= tol
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "a": [self.a.real, self.a.imag],
                "b": [self.b.real, self.b.imag],
                "c": [self.c.real, self.c.imag],
                "d": [self.d.real, self.d.imag],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "SympMat2":
        obj = json.loads(text)
        return SympMat2(*(complex(obj[k][0], obj[k][1]) for k in "abcd"))


IDENTITY = SympMat2(1.0, 0.0, 0.0, 1.0)


def compose(*mats: SympMat2) -> SympMat2:
    """Matrix product m1 * m2 * ... (leftmost acts last on a column vector)."""
    if len(mats) < 2:
        raise ValueError("compose needs at least two matrices")
    a, b, c, d = mats[0].a, mats[0].b, mats[0].c, mats[0].d
    for m in mats[1:]:
        a, b, c, d = (
            a * m.a + b * m.c,
            a * m.b + b * m.d,
            c * m.a + d * m.c,
            c * m.b + d * m.d,
        )
    return SympMat2(a, b, c, d)


def inverse(m: SympMat2) -> SympMat2:
    return SympMat2(m.d, -m.b, -m.c, m.a)


def mat_free(zeta: float) -> SympMat2:
    """Free-section matrix [[1, zeta], [0, 1]]."""
    return SympMat2(1.0, zeta, 0.0, 1.0)


def mat_lens(power: float) -> SympMat2:
    """Thin-lens matrix [[1, 0], [-power, 1]] for focal power 1/f."""
    return SympMat2(1.0, 0.0, -power, 1.0)


def mat_scale(s: complex) -> SympMat2:
    """Dilation matrix [[s, 0], [0, 1/s]], s != 0."""
    s = complex(s)
    if s == 0:
        raise ValueError("scale factor must be nonzero")
    return SympMat2(s, 0.0, 0.0, 1.0 / s)


def mat_fourier(alpha: float) -> SympMat2:
    """Rotation matrix of the order-alpha fractional Fourier transform.

    phi = alpha*pi/2; the family is 4-periodic in alpha, so any real alpha
    is accepted and reduced implicitly by the circular functions.
    """
    phi = alpha * math.pi / 2.0
    c, s = math.cos(phi), math.sin(phi)
    return SympMat2(c, s, -s, c)


def mat_laplace(alpha: float = 1.0) -> SympMat2:
    """[[cos phi, i sin phi], [i sin phi, cos phi]]; alpha=1 gives [[0,i],[i,0]]."""
    phi = alpha * math.pi / 2.0
    c, s = math.cos(phi), math.sin(phi)
    return SympMat2(c, 1j * s, 1j * s, c)


def mat_poisson(tau: float) -> SympMat2:
    """Gaussian-convolution matrix [[1, -i tau], [0, 1]], tau > 0."""
    if tau <= 0:
        raise ValueError("poisson parameter must be positive")
    return SympMat2(1.0, -1j * tau, 0.0, 1.0)


def mat_gauss_aperture(inv_w: float) -> SympMat2:
    """Gaussian-aperture matrix [[1, 0], [i/w, 1]], w > 0."""
    if inv_w <= 0:
        raise ValueError("aperture 1/w must be positive")
    return SympMat2(1.0, 0.0, 1j * inv_w, 1.0)


def mat_bargmann() -> SympMat2:
    r = 1.0 / math.sqrt(2.0)
    return SympMat2(r, -1j * r, -1j * r, r)


def mat_appell(eq: EquationKind, alpha: float, evol: float) -> SympMat2:
    """Parameter matrix of the (fractional) symmetry map at evolution value evol.

    Wave kinds conjugate the rotation matrix by free sections,
    T(evol) * F^alpha * T(-evol); heat kinds conjugate the hyperbolic matrix
    by Gaussian-convolution sections, P(evol) * L^alpha * P(evol)^(-1), giving
    [[t, i(1+t^2)], [i, -t]] at alpha = 1.
    """
    if eq.is_heat:
        p = SympMat2(1.0, -1j * evol, 0.0, 1.0)
        return compose(p, mat_laplace(alpha), inverse(p))
    return compose(mat_free(evol), mat_fourier(alpha), mat_free(-evol))


@dataclass(frozen=True)
class WeiNormanReal:
    """Lens * scale * free-section factorization of a matrix with a != 0.

    m = [[1,0],[lens_power,1]] * [[scale,0],[0,1/scale]] * [[1,free_length],[0,1]]
    with lens_power = c/a, scale = a, free_length = b/a.
    """

    lens_power: complex
    scale: complex
    free_length: complex

    def recompose(self) -> SympMat2:
        return compose(
            SympMat2(1.0, 0.0, self.lens_power, 1.0),
            SympMat2(self.scale, 0.0, 0.0, 1.0 / self.scale),
            SympMat2(1.0, self.free_length, 0.0, 1.0),
        )


@dataclass(frozen=True)
class WeiNormanLForm:
    """Gaussian-aperture * scale * Gaussian-convolution factorization.

    m = [[1,0],[i*inv_width,1]] * [[scale,0],[0,1/scale]] * [[1,-i*tau],[0,1]]
    with inv_width = -C/A, tau = -B/A in the real L-form parameters.
    """

    inv_width: float
    scale: float
    tau: float

    def recompose(self) -> SympMat2:
        return compose(
            SympMat2(1.0, 0.0, 1j * self.inv_width, 1.0),
            SympMat2(self.scale, 0.0, 0.0, 1.0 / self.scale),
            SympMat2(1.0, -1j * self.tau, 0.0, 1.0),
        )


def wei_norman_real(m: SympMat2) -> WeiNormanReal:
    if abs(m.a) <= UNIMODULAR_TOL:
        raise ImagingSingular("factorization needs a != 0; use the b != 0 Fourier-type path")
    return WeiNormanReal(lens_power=m.c / m.a, scale=m.a, free_length=m.b / m.a)


def wei_norman_lform(m: SympMat2) -> WeiNormanLForm:
    a, b, c, _ = m.lform_params()
    if abs(a) <= UNIMODULAR_TOL:
        raise LaplaceSingular("factorization needs A != 0; use the Laplace-type path")
    return WeiNormanLForm(inv_width=-c / a, scale=a, tau=-b / a)


def reduce_order(alpha: float) -> float:
    """Reduce a fractional order to the canonical interval (-2, 2]."""
    r = math.fmod(alpha, 4.0)
    if r > 2.0:
        r -= 4.0
    elif r <= -2.0:
        r += 4.0
    return r


def fourier_orders_equal(a1: float, a2: float, tol: float = 1e-12) -> bool:
    """Order equality modulo the 4-periodicity of the fractional family."""
    d = math.fmod(a1 - a2, 4.0)
    return min(abs(d), abs(abs(d) - 4.0)) <= tol

