"""Canonical-transform numerics and Appell-type symmetry maps."""

from .common import (
    CanonicaError,
    Direction,
    DivergenceRisk,
    DomainError,
    EquationKind,
    EquationMismatch,
    GeometryMismatch,
    ImagingSingular,
    IntegrabilityViolation,
    LaplaceSingular,
    SingularEvol,
    TruncationWarning,
)
from .symplectic import (
    SympMat2,
    WeiNormanLForm,
    WeiNormanReal,
    compose,
    inverse,
    mat_appell,
    mat_bargmann,
    mat_fourier,
    mat_free,
    mat_gauss_aperture,
    mat_laplace,
    mat_lens,
    mat_poisson,
    mat_scale,
    wei_norman_lform,
    wei_norman_real,
)
from .fields import (
    AnalyticField,
    Grid1D,
    GridKind,
    Linear,
    Radial,
    RadialDim,
    RadialType,
    SampledField,
    heat_poly_coeffs,
    read_field,
    sample,
    write_field,
)
from .transforms import Plan, QuadratureConfig, apply, plan
from .appell import AppellSpec, appell_analytic, appell_numeric, self_appell_eigencheck
from .verify import (
    ResidualReport,
    appell_pair_check,
    commutator_check,
    disentanglement_check,
    duality_matrix_check,
    pde_residual,
    residual_convergence,
    run_suite,
)

__version__ = "0.1.0"
