"""Shared enumerations, exceptions, and warning types."""

from __future__ import annotations

import enum


class EquationKind(enum.Enum):
    """The four evolution equations the library works with."""

    PWE = "pwe"
    RADIAL_PWE = "radial-pwe"
    HEAT = "heat"
    RADIAL_HEAT = "radial-heat"

    @property
    def is_radial(self) -> bool:
        return self in (EquationKind.RADIAL_PWE, EquationKind.RADIAL_HEAT)

    @property
    def is_heat(self) -> bool:
        return self in (EquationKind.HEAT, EquationKind.RADIAL_HEAT)


class Direction(enum.Enum):
    FORWARD = "forward"
    INVERSE = "inverse"


class CanonicaError(Exception):
    """Base class for all library errors."""


class DomainError(CanonicaError):
    """An analytic field was evaluated outside its validity domain."""


class GeometryMismatch(CanonicaError):
    """Field geometry incompatible with the requested grid or transform."""


class EquationMismatch(CanonicaError):
    """A field was fed to a symmetry map for a different equation."""


class IntegrabilityViolation(CanonicaError):
    """Complex-matrix kernel violates the Im(A/B) >= 0 integrability condition."""


class DivergenceRisk(CanonicaError):
    """Input decays too slowly for an exponentially growing kernel."""


class KernelRefused(CanonicaError, ValueError):
    """A plan refused a kernel before allocating it: a Bessel argument beyond the
    guard of its order, or a kernel above the byte ceiling."""


class SingularEvol(CanonicaError):
    """The map's prefactor denominator vanishes at the requested point."""


class ImagingSingular(CanonicaError):
    """Triangular factorization requested for a matrix with A = 0."""


class LaplaceSingular(CanonicaError):
    """Gauss/scale/shift factorization requested for an A = 0 matrix."""


class FieldFileError(ValueError):
    """A field file whose header or rows cannot be read as a field."""


class TruncationWarning(UserWarning):
    """Field magnitude at the grid edge is large enough to bias a transform."""
