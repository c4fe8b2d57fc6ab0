import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len

from canonica.common import (
    DivergenceRisk,
    EquationKind,
    GeometryMismatch,
    IntegrabilityViolation,
    TruncationWarning,
)
from canonica.fields import (
    BesselBeam,
    Gauss,
    Grid1D,
    GridKind,
    HeatPoly,
    PlaneChirp,
    Radial,
    RadialDim,
    RadialType,
    SampledField,
    StdHG,
    sample,
    write_field,
)
from canonica.symplectic import (
    SympMat2,
    compose,
    inverse,
    mat_fourier,
    mat_free,
    mat_laplace,
    mat_lens,
    mat_poisson,
    mat_scale,
)
from canonica import transforms
from canonica.cli import main
from canonica.transforms import (
    FrFT,
    FresnelProp,
    Hankel,
    LinearCT,
    PoissonProp,
    QuadratureConfig,
    apply,
    bessel_exp,
    fr_hankel,
    fr_laplace,
    frft,
    fresnel_propagate,
    geometric,
    hankel,
    hankel_type,
    linear_ct,
    poisson_propagate,
    radial_heat_propagate,
    radial_laplace,
    barut_girardello,
)

FULL = Grid1D.from_span(GridKind.FULL_LINE, -12.0, 12.0, 1024)
HALF = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 384)
CFG16 = QuadratureConfig(nodes_per_panel=16)


def rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_frft_identity_and_eigenfunction():
    u0 = sample(StdHG(0), FULL, 0.0)
    out = frft(u0, 0.0, FULL)
    assert rel_l2(out.values, u0.values) < 1e-12  # alpha = 0 resamples
    out = frft(u0, 1.0, FULL)
    assert rel_l2(out.values, u0.values) < 1e-6
    # higher mode picks up (-i)^n
    u3 = sample(StdHG(3), FULL, 0.0)
    out = frft(u3, 1.0, FULL)
    assert rel_l2(out.values, (-1j) ** 3 * u3.values) < 1e-6


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, -1.5, 0.3])
def test_frft_is_four_periodic(alpha):
    grid = Grid1D.from_span(GridKind.FULL_LINE, -10.0, 10.0, 256)
    f = SampledField(grid, np.exp(-(grid.points - 1.0) ** 2 / 2) * (1 + 0.3j * grid.points))
    base = frft(f, alpha, grid).values
    for shift in (4.0, -4.0, 8.0):
        assert rel_l2(frft(f, alpha + shift, grid).values, base) < 1e-12


def test_fr_laplace_is_four_periodic():
    grid = Grid1D.from_span(GridKind.FULL_LINE, -10.0, 10.0, 256)
    f = SampledField(grid, np.exp(-(grid.points - 0.5) ** 2) + 0j)
    out = Grid1D.from_span(GridKind.FULL_LINE, -1.0, 1.0, 64)
    base = fr_laplace(f, 0.5, out).values
    for alpha in (4.5, -3.5):
        assert rel_l2(fr_laplace(f, alpha, out).values, base) < 1e-12


def test_frft_group_law_and_inverse_pairing():
    src = sample(Gauss(1.3), FULL, 0.0)
    two = frft(frft(src, 0.3, FULL), 0.4, FULL)
    one = frft(src, 0.7, FULL)
    assert rel_l2(two.values, one.values) < 1e-5
    back = frft(frft(src, 0.9, FULL), -0.9, FULL)
    assert rel_l2(back.values, src.values) < 1e-5


def test_linear_ct_composition_matches_product_matrix():
    src = sample(Gauss(1.0), FULL, 0.0)
    m1 = compose(mat_free(0.4), mat_lens(0.8))
    m2 = compose(mat_lens(-0.3), mat_free(0.6))
    stepwise = linear_ct(m1, linear_ct(m2, src, FULL), FULL)
    direct = linear_ct(compose(m1, m2), src, FULL)
    assert rel_l2(stepwise.values, direct.values) < 1e-5


def test_linear_ct_inverse_pairing():
    src = sample(Gauss(0.9), FULL, 0.0)
    m = compose(mat_free(0.5), mat_lens(0.6))
    back = linear_ct(inverse(m), linear_ct(m, src, FULL), FULL)
    assert rel_l2(back.values, src.values) < 1e-5


def test_gl_and_chirp_fft_paths_agree():
    src = sample(Gauss(1.1, 0.3), FULL, 0.0)
    kernel = transforms.TRANSFORMS["frft"][1](FrFT(0.6))
    gl, cf = (build(kernel.matrix, FULL, FULL, QuadratureConfig(), kernel.matching)[1](src)
              for build in (transforms._linear_gl, transforms._chirp_fft))
    assert rel_l2(gl, cf) < 1e-8


def test_a_complex_matrix_takes_the_guarded_gauss_legendre_path():
    # the chirp-FFT path runs none of the L-form guards, so it takes real matrices only;
    # on fr-laplace it returns |values| up to 4e105 where Gauss-Legendre raises
    grid = Grid1D.from_span(GridKind.FULL_LINE, -10.0, 10.0, 512)
    src = sample(Gauss(1.0), grid, 0.0)
    with pytest.raises(DivergenceRisk, match="does not beat the kernel growth"):
        fr_laplace(src, 0.5, grid)
    for mat in (mat_laplace(0.5), mat_poisson(0.5), SympMat2(1.0, 1.0 + 1e-9j, 0.0, 1.0)):
        assert not transforms._use_chirp_fft(mat, grid, grid)


def test_chirp_fft_only_where_the_step_resolves_the_kernel():
    # HG0 is its own frft image.  On +-8 with 128 points the step resolves the kernel's
    # frequency |A y - x|/|B| at alpha = 0.7 but not at small |B|, where the chirp-FFT
    # aliases (off by 0.75 at alpha = 0.1 and 1.9) and Gauss-Legendre is taken
    grid = Grid1D.from_span(GridKind.FULL_LINE, -8.0, 8.0, 128)
    src = sample(StdHG(0), grid, 0.0)
    for alpha in (0.1, 1.9):
        assert np.max(np.abs(frft(src, alpha, grid).values - src.values)) < 1e-8
        assert not transforms._use_chirp_fft(mat_fourier(alpha), grid, grid)
    chirp_bytes = 16 * next_fast_len(3 * grid.count - 2)  # n samples against 2n - 1 lags
    assert transforms.plan(FrFT(0.7), grid, grid).nbytes == chirp_bytes
    assert np.max(np.abs(frft(src, 0.7, grid).values - src.values)) < 1e-8


def test_fresnel_chirp_on_plane_wave_bulk():
    lam, zeta = 2.0, 0.8
    grid = Grid1D.from_span(GridKind.FULL_LINE, -40.0, 40.0, 4096)
    src = sample(PlaneChirp(lam), grid, 0.0)
    xi = grid.points
    # tight run: a narrow apodization leaves no edge truncation, and the
    # apodized chirp is a Gaussian beam with an exact closed form
    W = 8.0
    out = fresnel_propagate(src, zeta, grid, QuadratureConfig(apodization=W))
    assert out.evol == pytest.approx(zeta)
    Q = 1.0 / W**2 - 1j / zeta
    b = 1j * (lam - xi / zeta)
    exact = (np.exp(0.5j * xi**2 / zeta + b**2 / (2 * Q))
             / np.sqrt(2j * np.pi * zeta) * np.sqrt(2 * np.pi / Q) / np.sqrt(2 * np.pi))
    bulk = np.abs(xi) <= 10.0
    assert np.max(np.abs(out.values[bulk] - exact[bulk])) < 1e-7
    # default quarter-span apodization: the bulk reproduces the
    # frequency-chirped wave up to the envelope bias
    out = fresnel_propagate(src, zeta, grid, QuadratureConfig(apodization=grid.span / 4))
    ref = np.asarray(PlaneChirp(lam).eval(xi, zeta))
    quarter = np.abs(xi) <= 5.0
    assert np.max(np.abs(out.values[quarter] - ref[quarter])) < 0.07 * np.max(np.abs(ref))


def test_geometric():
    src = sample(Gauss(1.0), FULL, 0.0)
    out = geometric(SympMat2(1, 0, 0, 1), src, FULL)
    assert rel_l2(out.values, src.values) < 1e-12
    out = geometric(mat_scale(2.0), src, FULL)
    ref = np.exp(-(FULL.points / 2.0) ** 2 / 2.0) / math.sqrt(2.0)
    assert np.max(np.abs(out.values - ref)) < 1e-7
    ones = SampledField(FULL, np.ones(FULL.count, dtype=complex))
    out = geometric(mat_lens(1.0), ones, FULL)
    ref = np.exp(-0.5j * FULL.points**2)
    bulk = np.abs(FULL.points) <= 6.0
    assert np.max(np.abs(out.values[bulk] - ref[bulk])) < 1e-6
    with pytest.raises(ValueError):
        geometric(mat_free(1.0), src, FULL)


def test_linear_ct_dispatches_geometric_at_small_b():
    src = sample(Gauss(1.0), FULL, 0.0)
    out = linear_ct(SympMat2(1.0, 1e-12, 0.0, 1.0), src, FULL)
    assert rel_l2(out.values, src.values) < 1e-10


def test_poisson_propagate_polynomials_exact():
    grid = Grid1D.from_span(GridKind.FULL_LINE, -3.0, 3.0, 64)
    for n in range(7):
        out = poisson_propagate(lambda y, n=n: y**n + 0j, 0.8, grid)
        ref = np.asarray(HeatPoly(n).eval(grid.points, 0.8))
        assert np.max(np.abs(out.values - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_poisson_propagate_constant_and_semigroup():
    grid = Grid1D.from_span(GridKind.FULL_LINE, -3.0, 3.0, 64)
    out = poisson_propagate(lambda y: np.ones_like(y) + 0j, 0.5, grid)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12
    # Gaussian convolution semigroup: S(., t0) -> S(., t0 + t)
    wide = Grid1D.from_span(GridKind.FULL_LINE, -14.0, 14.0, 1024)
    t0, t = 0.6, 0.9
    s0 = SampledField(wide, np.exp(-wide.points**2 / (2 * t0)) / math.sqrt(2 * math.pi * t0) + 0j)
    out = poisson_propagate(s0, t, grid)
    ref = np.exp(-grid.points**2 / (2 * (t0 + t))) / math.sqrt(2 * math.pi * (t0 + t))
    assert np.max(np.abs(out.values - ref)) < 1e-9
    with pytest.raises(ValueError):
        poisson_propagate(s0, -0.1, grid)


@pytest.mark.parametrize("t", [1e-4, 1e-6])
def test_poisson_propagate_short_times_resolve_the_narrow_kernel(t):
    # the kernel is a Gaussian of width sqrt(t), far narrower than the sample
    # spacing; the panels are sized by that width, not by the sample count
    wide = Grid1D.from_span(GridKind.FULL_LINE, -14.0, 14.0, 2048)
    out = Grid1D.from_span(GridKind.FULL_LINE, -1.5, 1.5, 128)
    heat = Gauss(1.0, 0.0, EquationKind.HEAT)
    got = poisson_propagate(sample(heat, wide, 0.0), t, out).values
    assert rel_l2(got, np.asarray(heat.eval(out.points, t))) < 1e-12


def test_hankel_gaussian_self_reciprocal():
    r = HALF.points
    fld = SampledField(HALF, np.exp(-r**2 / 2) + 0j, Radial(0))
    out = hankel(fld, 0, HALF, CFG16)
    assert rel_l2(out.values, fld.values) < 1e-6


def test_hankel_radial_index_mismatch():
    r = HALF.points
    fld = SampledField(HALF, (r * np.exp(-r**2 / 2)).astype(complex), Radial(1))
    with pytest.raises(GeometryMismatch):
        hankel(fld, 0, HALF, CFG16)


def test_fr_hankel_period_two_and_propagator_consistency():
    r = HALF.points
    fld = SampledField(HALF, (r * np.exp(-r**2 / 2)).astype(complex), Radial(1))
    out2 = fr_hankel(fld, 1, 2.0, HALF, CFG16)
    assert rel_l2(out2.values, fld.values) < 1e-10  # order 2 is the identity
    a, b = 0.45, 0.85
    two = fr_hankel(fr_hankel(fld, 1, a, HALF, CFG16), 1, b, HALF, CFG16)
    one = fr_hankel(fld, 1, a + b, HALF, CFG16)
    assert rel_l2(two.values, one.values) < 1e-6


def test_radial_ct_free_propagation_matches_bessel_mode():
    from scipy.special import iv

    lam, m, zeta, w = 1.5, 1, 0.7, 7.0
    wide = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 40.0, 1200)
    out_grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 4.0, 96)
    src_vals = np.asarray(BesselBeam(lam, m).eval(wide.points, 0.0))
    apod = np.exp(-wide.points**2 / (2 * w**2))
    src = SampledField(wide, src_vals * apod, Radial(m))
    out = transforms.radial_propagate(src, zeta, m, out_grid, QuadratureConfig(nodes_per_panel=16))
    assert out.evol == pytest.approx(zeta)
    # exact: the apodized mode propagates as a Bessel-Gauss beam (two-Bessel
    # Weber integral in closed form, complex-order modified Bessel oracle)
    r = out_grid.points
    q = 1.0 / (2 * w**2) - 0.5j / zeta
    exact = ((-1j) ** (m + 1) / zeta * np.exp(0.5j * r**2 / zeta) / (2 * q)
             * np.exp(-(lam**2 + r**2 / zeta**2) / (4 * q))
             * iv(m, lam * r / (2 * q * zeta)))
    assert np.max(np.abs(out.values - exact)) < 1e-7
    # in the apodization bulk it tracks the diffraction-free mode
    ref = np.asarray(BesselBeam(lam, m).eval(r, zeta))
    assert np.max(np.abs(out.values - ref)) < 0.15 * np.max(np.abs(ref))


def test_hankel_type_reduces_to_hankel():
    r = HALF.points
    fld = SampledField(HALF, (r**2 * np.exp(-r**2 / 2)).astype(complex))
    via_type = hankel_type(fld, 1, 2.0, -1.0, HALF, CFG16)
    via_hankel = hankel(SampledField(HALF, fld.values, Radial(2)), 2, HALF, CFG16)
    assert rel_l2(via_type.values, via_hankel.values) < 1e-10


def test_radial_laplace_finite_and_matches_fractional_path():
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, 512)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 64)
    nu, nup = 0.5, -1.5
    r = grid.points
    fld = SampledField(grid, np.exp(-r**2) + 0j)
    direct = radial_laplace(fld, 1, nu, nup, out, CFG16)
    assert np.all(np.isfinite(direct.values.view(float)))
    frac = transforms.fr_radial_laplace(fld, 1.0, nu, nup, out, CFG16)
    assert rel_l2(frac.values, direct.values) < 1e-10
    # 4x node density oracle
    dense = radial_laplace(fld, 1, nu, nup, out, QuadratureConfig(nodes_per_panel=64))
    assert rel_l2(direct.values, dense.values) < 1e-8


def test_radial_laplace_rejects_slow_decay():
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, 512)
    r = grid.points
    fld = SampledField(grid, np.exp(-r * 0.8) + 0j)  # only exponential decay
    with pytest.raises(DivergenceRisk):
        radial_laplace(fld, 1, 0.5, -1.5, grid, CFG16)


def test_radial_ct_of_an_l_form_matrix_is_the_bessel_i_kernel():
    # the weights of dimension mu equal the first type weights with nu' = -mu/2,
    # so radial_ct of mat_laplace(alpha) is the fractional radial Laplace transform
    mu = 3.0
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, 512)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 64)
    r = grid.points
    fld = SampledField(grid, np.exp(-r**2) + 0j, RadialDim(mu, 0))
    via_ct = transforms.radial_ct(fld, mat_laplace(0.6), mu, 0, out, CFG16)
    via_frl = transforms.fr_radial_laplace(fld, 0.6, mu / 2 - 1, -mu / 2, out, CFG16)
    assert rel_l2(via_ct.values, via_frl.values) < 1e-12
    slow = SampledField(grid, np.exp(-r * 0.8) + 0j, RadialDim(mu, 0))
    with pytest.raises(DivergenceRisk):
        transforms.radial_ct(slow, mat_laplace(0.6), mu, 0, out, CFG16)
    with pytest.raises(ValueError):
        transforms.radial_ct(fld, SympMat2(1.0, 1.0 + 1j, 0.0, 1.0), mu, 0, out, CFG16)


def test_bessel_exp_reproduces_radial_heat_propagator():
    t, mu = 0.5, 3.0
    nu, nup = mu / 2 - 1, -mu / 2
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 400)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 5.0, 80)
    r = grid.points
    fld = SampledField(grid, (r**2 * np.exp(-r**2 / 4)).astype(complex), RadialDim(mu, 0))
    via_exp = bessel_exp(fld, t / 2.0, nu, nup, out, CFG16)
    via_heat = radial_heat_propagate(fld, t, mu, out, CFG16)
    assert rel_l2(via_exp.values, via_heat.values) < 1e-12


def test_bessel_exp_small_beta_identity():
    mu = 3.0
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 10.0, 600)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.5, 4.0, 32)
    r = grid.points
    fld = SampledField(grid, (r**2 * np.exp(-r**2 / 2)).astype(complex))
    beta = 1e-3
    outf = bessel_exp(fld, beta, mu / 2 - 1, -mu / 2, out, CFG16)
    ref = out.points**2 * np.exp(-out.points**2 / 2)
    assert np.max(np.abs(outf.values - ref)) < 30.0 * beta  # identity within O(beta)


def test_radial_heat_of_even_monomials():
    from canonica.fields import RadialHeatPoly

    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 6.0, 200)
    t, mu = 0.5, 3.0
    for n in range(5):
        out = radial_heat_propagate(lambda y, n=n: y ** (2 * n) + 0j, t, mu, grid)
        ref = np.asarray(RadialHeatPoly(n, mu).eval(grid.points, t))
        assert np.max(np.abs(out.values - ref)) <= 1e-6 * np.max(np.abs(ref))


def test_barut_girardello():
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 512)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 64)
    zero = SampledField(grid, np.zeros(grid.count, dtype=complex))
    assert np.all(barut_girardello(zero, 2.0, 0, out, CFG16).values == 0.0)
    r = grid.points
    fld = SampledField(grid, np.exp(-r**2 / 2) + 0j)
    got = barut_girardello(fld, 2.0, 0, out, CFG16)
    # quadrature oracle at 4x the node density
    dense = barut_girardello(fld, 2.0, 0, out, QuadratureConfig(nodes_per_panel=64))
    assert rel_l2(got.values, dense.values) < 1e-10
    # closed form: sqrt(2) Int exp(-(r^2+r'^2)/2) I_0(sqrt2 r r') e^{... } of a
    # unit Gaussian is sqrt(2) exp(r^2/... ) -- check the r = 0 value directly:
    # sqrt(2) Int_0^inf e^{-r'^2} r'^(0) I_0(0) ... reduces to sqrt(2) * sqrt(pi)/2
    ref0 = math.sqrt(2.0) * math.sqrt(math.pi) / 2.0
    assert got.values[0].real == pytest.approx(ref0, rel=1e-10)
    assert got.values[0].imag == pytest.approx(0.0, abs=1e-12)


def test_truncation_warning():
    grid = Grid1D.from_span(GridKind.FULL_LINE, -3.0, 3.0, 128)
    src = sample(Gauss(2.0), grid, 0.0)  # wide Gaussian, big edge values
    with pytest.warns(TruncationWarning):
        frft(src, 0.5, grid)


def test_integrability_violation():
    src = sample(Gauss(1.0), FULL, 0.0)
    bad = SympMat2(1.0 - 0.2j, 1.0, -0.2j, 1.0)  # Im(A/B) < 0, not L-form
    with pytest.raises(IntegrabilityViolation):
        linear_ct(bad, src, FULL)


def test_apply_dispatch_and_geometry_checks():
    src = sample(Gauss(1.0), FULL, 0.0)
    out = apply(FrFT(0.5), src, FULL)
    assert out.grid == FULL
    r = HALF.points
    rad = SampledField(HALF, np.exp(-r**2 / 2) + 0j, Radial(0))
    with pytest.raises(GeometryMismatch):
        apply(FrFT(0.5), rad, HALF)
    with pytest.raises(GeometryMismatch):
        apply(Hankel(0), src, FULL)
    assert apply(Hankel(0), rad, HALF, CFG16).grid == HALF
    out = apply(PoissonProp(0.5), src, FULL)
    assert out.evol == pytest.approx(0.5)
    out = apply(LinearCT(mat_free(0.3)), src, FULL)
    assert out.evol == pytest.approx(0.0)  # generic matrices keep the tag
    out = apply(FresnelProp(0.3), src, FULL)
    assert out.evol == pytest.approx(0.3)
    with pytest.raises(TypeError):
        apply("nonsense", src, FULL)


def test_doubling_nodes_self_consistency():
    r = HALF.points
    fld = SampledField(HALF, (r * np.exp(-r**2 / 2)).astype(complex), Radial(1))
    coarse = hankel(fld, 1, HALF, QuadratureConfig(nodes_per_panel=16))
    fine = hankel(fld, 1, HALF, QuadratureConfig(nodes_per_panel=32))
    assert rel_l2(coarse.values, fine.values) < 1e-9


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(nodes_per_panel=1)
    with pytest.raises(ValueError):
        QuadratureConfig(apodization=-1.0)


def test_bessel_exp_quarter_turn_conjugates_to_hankel_type():
    # i^(nu+1) e^{-i x^2/2} exp((i/2) B^dagger) e^{-i y^2/2} == first
    # Hankel-type transform: check the tag path against hankel_type
    from canonica.transforms import BesselExp, bessel_exp_quarter_turn

    nu, nup = 1.0, -0.6
    grid = Grid1D.from_span(GridKind.HALF_LINE, 1e-3, 12.0, 384)
    r = grid.points
    f = (r ** (1.0 + nu + nup) * (1.0 + 0.2 * r**2) * np.exp(-(r**2) / 2.0)).astype(complex)
    fld = SampledField(grid, f)
    pre = SampledField(grid, f * np.exp(-0.5j * r**2))
    mid = bessel_exp_quarter_turn(pre, nu, nup, grid, CFG16)
    conj = (1j) ** (nu + 1.0) * np.exp(-0.5j * r**2) * mid.values
    ref = hankel_type(fld, 1, nu, nup, grid, CFG16)
    assert rel_l2(conj, ref.values) < 1e-8
    # spec dispatch accepts the tag
    via_spec = apply(BesselExp("i/2", nu, nup), pre, grid, CFG16)
    assert np.array_equal(via_spec.values, mid.values)
    with pytest.raises(ValueError):
        BesselExp("i/3", nu, nup)


AXIS_POWER_ZERO = {
    # engine: call on (field, out_grid) with parameters whose axis power is zero
    "hankel": lambda f, g: hankel(f, 0, g, CFG16),
    "fr_hankel": lambda f, g: fr_hankel(f, 0, 0.6, g, CFG16),
    "radial_ct": lambda f, g: transforms.radial_ct(f, mat_free(0.7), 3.0, 0, g, CFG16),
    "hankel_type-1": lambda f, g: hankel_type(f, 1, 0.5, -1.5, g, CFG16),
    "hankel_type-2": lambda f, g: hankel_type(f, 2, 1.0, 1.0, g, CFG16),
    "radial_laplace-1": lambda f, g: radial_laplace(f, 1, 0.5, -1.5, g, CFG16),
    "radial_laplace-2-nu0.5": lambda f, g: radial_laplace(f, 2, 0.5, 0.5, g, CFG16),
    "radial_laplace-2-nu1": lambda f, g: radial_laplace(f, 2, 1.0, 1.0, g, CFG16),
    "fr_radial_laplace": lambda f, g: transforms.fr_radial_laplace(f, 0.6, 0.5, -1.5, g, CFG16),
    "bessel_exp": lambda f, g: bessel_exp(f, 0.3, 0.5, -1.5, g, CFG16),
    "bessel_exp_quarter_turn": lambda f, g: transforms.bessel_exp_quarter_turn(
        f, 0.5, -1.5, g, CFG16),
    "radial_heat_propagate": lambda f, g: radial_heat_propagate(f, 0.4, 3.0, g, CFG16),
    "barut_girardello": lambda f, g: barut_girardello(f, 3.0, 0, g, CFG16),
}


@pytest.mark.parametrize("engine", sorted(AXIS_POWER_ZERO))
def test_on_axis_value_is_the_kernel_limit(engine):
    # with axis power nu + cross + row = 0 the r = 0 output is the r -> 0+ limit
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 256)
    fld = SampledField(grid, np.exp(-grid.points**2) + 0j)
    near_axis = Grid1D(GridKind.HALF_LINE, 0.0, 5e-5, 2)
    on, near = AXIS_POWER_ZERO[engine](fld, near_axis).values
    assert abs(near) > 1e-3
    assert abs(on - near) <= 1e-6 * abs(near)


def test_negative_axis_power_rejects_the_axis():
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 256)
    fld = SampledField(grid, np.exp(-grid.points**2) + 0j)
    with pytest.raises(ValueError, match="above r = 0"):
        hankel_type(fld, 2, 0.5, 1.0, Grid1D(GridKind.HALF_LINE, 0.0, 0.1, 8), CFG16)
    off_axis = hankel_type(fld, 2, 0.5, 1.0, Grid1D(GridKind.HALF_LINE, 0.1, 0.1, 8), CFG16)
    assert np.all(np.isfinite(off_axis.values))


LINEARITY_SPECS = {
    "linear-ct": LinearCT(compose(mat_free(0.4), mat_lens(0.8))),
    "geometric": transforms.Geometric(mat_scale(1.5)),
    "fresnel-prop": FresnelProp(0.3),
    "frft": FrFT(0.5),
    "fr-laplace": transforms.FrLaplace(1.0),
    "poisson-prop": PoissonProp(0.5),
    "radial-ct": transforms.RadialCT(mat_fourier(0.5), 3.0, 1),
    "hankel": Hankel(1),
    "fr-hankel": transforms.FrHankel(1, 0.5),
    "hankel-type": transforms.HankelType(2, 1.0, -0.6),
    "radial-laplace": transforms.RadialLaplace(2, 0.5, 0.5),
    "fr-radial-laplace": transforms.FrRadialLaplace(0.5, 0.5, -1.5),
    "bessel-exp": transforms.BesselExp(0.25, 0.5, -1.5),
    "radial-heat-prop": transforms.RadialHeatProp(0.5, 3.0),
    "barut-girardello": transforms.BarutGirardello(3.0, 0),
}
_COEF = st.builds(lambda mag, arg: mag * cmath.exp(1j * arg),
                  st.floats(0.1, 10.0), st.floats(0.0, 2.0 * math.pi))


@pytest.mark.filterwarnings("ignore::canonica.common.TruncationWarning")
@pytest.mark.parametrize("name", sorted(transforms.TRANSFORMS))
@settings(max_examples=10, deadline=None)
@given(a=_COEF, b=_COEF)
def test_apply_is_linear(name, a, b):
    spec = LINEARITY_SPECS[name]
    radial = name not in ("linear-ct", "geometric", "fresnel-prop", "frft", "fr-laplace",
                          "poisson-prop")
    grid = (Grid1D.from_span(GridKind.HALF_LINE, 0.0, 6.0, 64) if radial
            else Grid1D.from_span(GridKind.FULL_LINE, -6.0, 6.0, 96))
    x = grid.points
    f = SampledField(grid, np.exp(-x**2) * (1.0 + 0.3 * x) + 0j)
    g = SampledField(grid, x**2 * np.exp(-x**2 + 0.5j * x))
    both = SampledField(grid, a * f.values + b * g.values)
    tf, tg = apply(spec, f, grid, CFG16).values, apply(spec, g, grid, CFG16).values
    lhs = apply(spec, both, grid, CFG16).values
    scale = abs(a) * np.max(np.abs(tf)) + abs(b) * np.max(np.abs(tg))
    assert np.max(np.abs(lhs - (a * tf + b * tg))) <= 1e-9 * scale


@pytest.mark.parametrize("engine", [hankel_type, radial_laplace])
@pytest.mark.parametrize("kind", [0, 3])
def test_kind_outside_one_and_two_is_rejected(engine, kind):
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 128)
    fld = SampledField(grid, np.exp(-grid.points**2) + 0j)
    with pytest.raises(ValueError, match="kind"):
        engine(fld, kind, 0.5, 0.0, grid, CFG16)


@pytest.mark.parametrize("mat", [mat_laplace(1.0), mat_laplace(1.5), mat_laplace(1.9),
                                 mat_laplace(1.99), mat_poisson(0.5), mat_poisson(0.005),
                                 compose(mat_free(0.4), mat_lens(0.8))],
                         ids=["laplace-1", "laplace-1.5", "laplace-1.9", "laplace-1.99",
                              "poisson-0.5", "poisson-0.005", "real"])
def test_gl_panel_rule_on_unit_gaussian(mat):
    # L-form kernels get panels by sample count only; a unit Gaussian has the
    # closed-form image (A + iB)^(-1/2) exp(i (C + iD) x^2 / (2 (A + iB)))
    out = Grid1D.from_span(GridKind.FULL_LINE, -2.0, 2.0, 65)
    src = SampledField(FULL, np.exp(-FULL.points**2 / 2) + 0j)
    num = linear_ct(mat, src, out)
    q = mat.a + 1j * mat.b
    exact = q**-0.5 * np.exp(1j * (mat.c + 1j * mat.d) * out.points**2 / (2 * q))
    assert rel_l2(num.values, exact) <= 1e-11


def test_fr_radial_laplace_order_two_is_the_limit_from_below():
    # at alpha = 2 (B = 0) the kernel's point map gives e^{-i pi (nu+1)} f,
    # the value the transform approaches as alpha -> 2 from below
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 1024)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 64)
    fld = SampledField(grid, np.exp(-grid.points**2) + 0j)
    nu, nup = 0.5, -1.5
    at_two = transforms.fr_radial_laplace(fld, 2.0, nu, nup, out).values
    ref = cmath.exp(-1j * math.pi * (nu + 1)) * np.exp(-out.points**2)
    assert rel_l2(at_two, ref) < 1e-12
    near = transforms.fr_radial_laplace(fld, 1.999, nu, nup, out).values
    assert rel_l2(near, at_two) < 1e-2


def test_fr_radial_laplace_rejects_a_source_the_kernel_outgrows():
    # at alpha = 0.3 the kernel grows like exp(+0.98 y^2), which exp(-y^2/2) cannot tame;
    # the axis end of a half-line grid is no tail, so r^2 e^{-r^2/2} is no false alarm
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 512)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 64)
    r = grid.points
    with pytest.raises(DivergenceRisk):
        transforms.fr_radial_laplace(SampledField(grid, np.exp(-r**2 / 2) + 0j), 0.3, 0.5, -1.5,
                                     out, CFG16)
    axis_zero = SampledField(grid, r**2 * np.exp(-r**2 / 2) + 0j)
    assert np.all(np.isfinite(radial_laplace(axis_zero, 1, 0.5, -1.5, out, CFG16).values))


def test_panel_cap_warns_with_requested_and_used_counts():
    # alpha = 0.05 on a +-20 source and output window asks for 9727 panels of kernel phase
    src = sample(Gauss(1.0), Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 512), 0.0)
    out = Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 3)
    cfg = QuadratureConfig(nodes_per_panel=2)
    with pytest.warns(TruncationWarning, match="9727 quadrature panels; 3000 are used"):
        frft(src, 0.05, out, cfg)


def test_poisson_propagate_is_the_transform_of_its_matrix():
    src = sample(Gauss(1.0), FULL, 0.0)
    out = Grid1D.from_span(GridKind.FULL_LINE, -1.5, 1.5, 64)
    for t in (0.05, 0.5, 2.0, 1e-11):
        direct = linear_ct(mat_poisson(t), src, out)
        assert np.array_equal(poisson_propagate(src, t, out).values, direct.values)
    # at |B| <= 1e-10 both take the point map, whose error is O(t): no near-delta quadrature
    exact = Gauss(1.0, equation=EquationKind.HEAT).eval(out.points, 1e-11)
    assert np.max(np.abs(poisson_propagate(src, 1e-11, out).values - exact)) < 1e-10
    # a Gaussian-convolution matrix gets the growth guard whichever engine runs it
    growing = SampledField(FULL, np.exp((FULL.points + 12.0) ** 2 / 16) + 0j)
    with pytest.raises(DivergenceRisk):
        poisson_propagate(growing, 0.5, FULL)
    with pytest.raises(DivergenceRisk):
        linear_ct(mat_poisson(0.5), growing, FULL)


def test_lform_kernels_stay_real(monkeypatch):
    dtypes = []
    matvec = transforms._matvec
    monkeypatch.setattr(transforms, "_matvec", lambda k, v: dtypes.append(k.dtype) or matvec(k, v))
    out = Grid1D.from_span(GridKind.FULL_LINE, -1.5, 1.5, 16)
    src = sample(Gauss(1.0), FULL, 0.0)
    transforms.fr_laplace(src, 0.7, out)
    poisson_propagate(src, 0.5, out)
    poisson_propagate(lambda y: y**2 + 0j, 0.5, out)
    r = HALF.points
    rad = SampledField(HALF, np.exp(-r**2) + 0j)
    radial_laplace(rad, 1, 0.5, -1.5, HALF, CFG16)
    bessel_exp(rad, 0.3, 0.5, -1.5, HALF, CFG16)
    barut_girardello(rad, 3.0, 0, HALF, CFG16)
    assert dtypes == [np.float64] * 6


def test_linear_b_zero_path_keeps_matching_and_evol_shift():
    # the order-2 FrFT is the parity f(-x) from either side of B = 0
    f = SampledField(FULL, np.exp(-(FULL.points - 1.0) ** 2 / 2) * (1 + 0.3j * FULL.points))
    mirrored = f.values[::-1]
    for alpha in (2.0, -2.0):
        assert rel_l2(frft(f, alpha, FULL).values, mirrored) < 1e-12
    assert linear_ct(SympMat2(1, 0, 0.3, 1), f, FULL, evol_shift=0.5).evol == 0.5


def test_growth_guard_watches_both_ends_of_a_full_line_grid():
    # e^{x^2/8} grows at both ends; at t = 0.5 the exact image is 9.2e8 at x = 12
    growing = SampledField(FULL, np.exp(FULL.points**2 / 8) + 0j)
    with pytest.raises(DivergenceRisk):
        poisson_propagate(growing, 0.5, FULL)
    decaying = SampledField(FULL, np.exp(-FULL.points**2 / 2) + 0j)
    out = poisson_propagate(decaying, 0.5, FULL)
    exact = np.exp(-FULL.points**2 / 3) / math.sqrt(1.5)
    assert np.max(np.abs(out.values - exact)) < 1e-10


def test_kernel_not_integrable_at_the_input_axis_is_rejected():
    # the first-kind kernel ~ y^(nu - nu') near y = 0; a power <= -1 has no integral
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 256)
    y = grid.points
    fld = SampledField(grid, np.exp(-y**2) + 0j)
    with pytest.raises(ValueError, match="not integrable"):
        transforms.bessel_exp_quarter_turn(fld, -0.5, 0.75, grid, CFG16)
    with pytest.raises(ValueError, match="not integrable"):
        hankel_type(fld, 1, 0.0, 1.0, grid, CFG16)
    ok = transforms.bessel_exp_quarter_turn(fld, -0.5, 0.0, grid, CFG16)
    assert np.all(np.isfinite(ok.values))


def test_kernel_singular_at_the_input_axis_runs_where_the_integrand_is_integrable():
    # a field vanishing at the axis: r^2 int J_0(r y) y e^{-y^2} dy = r^2 e^{-r^2/4} / 2
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 256)
    y = grid.points
    out = hankel_type(SampledField(grid, y**2 * np.exp(-y**2) + 0j), 1, 0.0, 1.0, grid, CFG16)
    assert rel_l2(out.values, y**2 * np.exp(-y**2 / 4) / 2) < 1e-5
    # a source grid that starts above the axis never meets the singularity
    above = Grid1D.from_span(GridKind.HALF_LINE, 0.5, 8.0, 256)
    fld = SampledField(above, np.exp(-(above.points - 3.0) ** 2) + 0j)
    out = transforms.bessel_exp_quarter_turn(fld, -0.5, 0.75, above, CFG16)
    assert np.all(np.isfinite(out.values)) and np.max(np.abs(out.values)) > 0.1


# engine calls with the parameters of LINEARITY_SPECS
ENGINE_CALLS = {
    "linear-ct": lambda f, g: linear_ct(compose(mat_free(0.4), mat_lens(0.8)), f, g, CFG16),
    "geometric": lambda f, g: geometric(mat_scale(1.5), f, g),
    "fresnel-prop": lambda f, g: fresnel_propagate(f, 0.3, g, CFG16),
    "frft": lambda f, g: frft(f, 0.5, g, CFG16),
    "fr-laplace": lambda f, g: fr_laplace(f, 1.0, g, CFG16),
    "poisson-prop": lambda f, g: poisson_propagate(f, 0.5, g, CFG16),
    "radial-ct": lambda f, g: transforms.radial_ct(f, mat_fourier(0.5), 3.0, 1, g, CFG16),
    "hankel": lambda f, g: hankel(f, 1, g, CFG16),
    "fr-hankel": lambda f, g: fr_hankel(f, 1, 0.5, g, CFG16),
    "hankel-type": lambda f, g: hankel_type(f, 2, 1.0, -0.6, g, CFG16),
    "radial-laplace": lambda f, g: radial_laplace(f, 2, 0.5, 0.5, g, CFG16),
    "fr-radial-laplace": lambda f, g: transforms.fr_radial_laplace(f, 0.5, 0.5, -1.5, g, CFG16),
    "bessel-exp": lambda f, g: bessel_exp(f, 0.25, 0.5, -1.5, g, CFG16),
    "radial-heat-prop": lambda f, g: radial_heat_propagate(f, 0.5, 3.0, g, CFG16),
    "barut-girardello": lambda f, g: barut_girardello(f, 3.0, 0, g, CFG16),
}


@pytest.mark.filterwarnings("ignore::canonica.common.TruncationWarning")
@pytest.mark.parametrize("name", sorted(transforms.TRANSFORMS))
def test_plan_is_bit_identical_to_the_engine(name):
    radial = name not in ("linear-ct", "geometric", "fresnel-prop", "frft", "fr-laplace",
                          "poisson-prop")
    grid = (Grid1D.from_span(GridKind.HALF_LINE, 0.0, 6.0, 64) if radial
            else Grid1D.from_span(GridKind.FULL_LINE, -6.0, 6.0, 96))
    out = Grid1D.from_span(grid.kind, grid.start + 0.5, grid.end - 0.5, 40)
    x = grid.points
    fields = [SampledField(grid, np.exp(-x**2) * (1.0 + 0.3 * x) + 0j),
              SampledField(grid, x**2 * np.exp(-x**2 + 0.5j * x), evol=0.25)]
    transform = transforms.plan(LINEARITY_SPECS[name], grid, out, CFG16)
    assert isinstance(transform, transforms.Plan) and transform.nbytes > 0
    for f in fields:
        got, want = transform(f), ENGINE_CALLS[name](f, out)
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.grid, got.geometry, got.evol) == (want.grid, want.geometry, want.evol)


def test_a_reused_plan_still_guards_each_field():
    r = HALF.points
    transform = transforms.plan(Hankel(0), HALF, HALF, CFG16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        transform(SampledField(HALF, np.exp(-r**2 / 2) + 0j))
    with pytest.warns(TruncationWarning, match="grid edge"):
        transform(SampledField(HALF, np.exp(-r**2 / 50) + 0j))
    # the first-kind kernel ~ y^(nu - nu') = y^-1 near the axis
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 256)
    y = grid.points
    transform = transforms.plan(transforms.HankelType(1, 0.0, 1.0), grid, grid, CFG16)
    assert np.all(np.isfinite(transform(SampledField(grid, y**2 * np.exp(-y**2) + 0j)).values))
    with pytest.raises(ValueError, match="not integrable"):
        transform(SampledField(grid, np.exp(-y**2) + 0j))
    transform = transforms.plan(PoissonProp(0.5), FULL, FULL)
    assert np.all(np.isfinite(transform(SampledField(FULL, np.exp(-FULL.points**2 / 2) + 0j))
                              .values))
    with pytest.raises(DivergenceRisk):
        transform(SampledField(FULL, np.exp(FULL.points**2 / 8) + 0j))


def test_a_plan_rejects_fields_it_was_not_built_for():
    r = HALF.points
    transform = transforms.plan(Hankel(0), HALF, HALF, CFG16)
    other = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 383)
    with pytest.raises(GeometryMismatch):
        transform(SampledField(other, np.exp(-other.points**2 / 2) + 0j, Radial(0)))
    with pytest.raises(GeometryMismatch):
        transform(SampledField(HALF, (r * np.exp(-r**2 / 2)).astype(complex), Radial(1)))
    typed = transforms.plan(transforms.HankelType(1, 1.0, -0.6), HALF, HALF, CFG16)
    with pytest.raises(GeometryMismatch):
        typed(SampledField(HALF, np.exp(-r**2 / 2) + 0j, RadialType(1.0, -0.5)))
    on_grid = transforms.plan(PoissonProp(0.5), FULL, FULL)
    with pytest.raises(GeometryMismatch):
        on_grid(lambda y: y + 0j)
    for_callables = transforms.plan(PoissonProp(0.5), None, FULL)
    with pytest.raises(GeometryMismatch):
        for_callables(sample(Gauss(1.0), FULL, 0.0))
    with pytest.raises(GeometryMismatch):
        transforms.plan(Hankel(0), None, HALF, CFG16)  # only Gaussian convolutions take callables


def test_truncation_warnings_name_the_callers_line(tmp_path):
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 128)
    edgy = SampledField(grid, np.exp(-grid.points**2 / 2) + 0j, Radial(0))
    src = sample(Gauss(1.0), Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 512), 0.0)
    out = Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 3)
    cfg = QuadratureConfig(nodes_per_panel=2)
    built = transforms.plan(Hankel(0), grid, grid, CFG16)
    write_field(edgy, tmp_path / "edgy.csv")
    calls = {
        "engine edge": lambda: hankel(edgy, 0, grid, CFG16),
        "apply edge": lambda: apply(Hankel(0), edgy, grid, CFG16),
        "plan apply edge": lambda: built(edgy),
        "engine panel cap": lambda: frft(src, 0.05, out, cfg),
        "plan build panel cap": lambda: transforms.plan(FrFT(0.05), src.grid, out, cfg),
        "cli edge": lambda: main(["transform", "--name", "hankel", "--in", str(tmp_path / "edgy.csv"),
                                  "--out", str(tmp_path / "out.csv"), "--nodes", "16"]),
    }
    for name, call in calls.items():
        with pytest.warns(TruncationWarning) as record:
            call()
        assert [w.filename for w in record] == [__file__], name


def test_oversized_kernel_is_refused_before_it_is_allocated(tmp_path, capsys):
    # 3000 capped panels x 16 nodes x 2001 outputs: a 1.5 GB complex kernel
    src = sample(Gauss(1.0), Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 2001), 0.0)
    cfg = QuadratureConfig(nodes_per_panel=16)
    tracemalloc.start()
    try:
        with pytest.warns(TruncationWarning), pytest.raises(ValueError) as err:
            frft(src, 0.05, src.grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "2001 x 48000 kernel needs 1536768000 bytes" in str(err.value)
    assert peak < 8 * 2**20
    write_field(src, tmp_path / "src.csv")
    with pytest.warns(TruncationWarning):
        code = main(["transform", "--name", "frft", "--alpha", "0.05", "--in",
                     str(tmp_path / "src.csv"), "--out", str(tmp_path / "out.csv"),
                     "--nodes", "16"])
    err = capsys.readouterr().err
    assert code == 2 and "2001 x 48000 kernel needs 1536768000 bytes" in err
    assert "Traceback" not in err and not (tmp_path / "out.csv").exists()


_REAL_AD = SympMat2(1.3, 0.8, (1.3 * 0.5 - 1.0) / 0.8, 0.5)  # real, with A, D != 0

# Bessel-J kernels: spec, matrix, order nu, weight powers (cross, row, col) of r y, r and y,
# matching factor and field geometry, read off the radial kernel table of the README
BESSEL_J_KERNELS = {
    "fr_hankel-B>0": (transforms.FrHankel(0, 0.6), mat_fourier(0.6), 0.0, (0.0, 0.0, 1.0),
                      cmath.exp(0.5j * math.pi * 0.6), Radial(0)),
    "fr_hankel-B<0": (transforms.FrHankel(1, -0.6), mat_fourier(-0.6), 1.0, (0.0, 0.0, 1.0),
                      cmath.exp(0.5j * math.pi * 2 * -0.6), Radial(1)),
    "radial_ct": (transforms.RadialCT(_REAL_AD, 3.0, 0), _REAL_AD, 0.5, (-0.5, 0.0, 2.0), 1.0,
                  RadialDim(3.0, 0)),
    "radial_propagate": (transforms.RadialCT(mat_free(0.7), 2.0, 0), mat_free(0.7), 0.0,
                         (0.0, 0.0, 1.0), 1.0, RadialDim(2.0, 0)),
    "bessel_exp-i/2": (transforms.BesselExp("i/2", 0.5, -1.5), mat_free(1.0), 0.5,
                       (1.5, -2.0, 0.0), 1.0, RadialType(0.5, -1.5)),
}


@pytest.mark.parametrize("name", sorted(BESSEL_J_KERNELS))
def test_bessel_j_kernel_matches_the_dense_kernel(name, monkeypatch):
    # the plan applies e^{iAy^2/2B} and e^{iDr^2/2B} as vectors around a float64 kernel;
    # the reference sums the whole complex kernel
    # (-i)^(nu+1)/B e^{i(Ay^2 + Dr^2)/2B} J_nu(ry/B) (ry)^cross r^row y^col
    from scipy.special import jv

    spec, mat, nu, (cross, row, col), matching, geometry = BESSEL_J_KERNELS[name]
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 256)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 24)  # r = 0 takes the limit row
    x = grid.points
    field = SampledField(grid, x**2 * np.exp(-x**2 / 2) * (1.0 + 0.3j * x), geometry)
    dtypes = []
    matvec = transforms._matvec
    monkeypatch.setattr(transforms, "_matvec", lambda k, v: dtypes.append(k.dtype) or matvec(k, v))
    built = transforms.plan(spec, grid, out, CFG16)
    got = built(field).values

    y, w, at_nodes = transforms._kernel_nodes(CFG16, mat, grid, out)
    a, b, d = mat.a.real, mat.b.real, mat.d.real
    r, ry = out.points[:, None], out.points[:, None] * y
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = jv(nu, ry / abs(b)) * ry**cross * r**row
    if abs(nu + cross + row) < 1e-12:  # the finite r -> 0 limit; a positive power gives 0
        radial[0] = (y / (2.0 * abs(b))) ** nu / math.gamma(nu + 1.0) * y**cross
    assert np.all(np.isfinite(radial))
    parity = (-1.0) ** nu if b < 0 else 1.0
    kernel = np.exp(1j * (a * y**2 + d * r**2) / (2.0 * b)) * radial * y**col
    want = matching * (-1j) ** (nu + 1.0) / b * parity * (kernel @ (w * at_nodes(field)))

    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert dtypes == [np.float64]
    assert built.nbytes == out.count * len(y) * 8
    if name == "radial_propagate":
        engine = transforms.radial_propagate(field, 0.7, 0, out, CFG16)
        assert engine.values.tobytes() == got.tobytes()


@pytest.mark.parametrize("spec", [Hankel(0), transforms.HankelType(1, 1.0, -0.6),
                                  transforms.FrHankel(0, 0.5)], ids=repr)
def test_bessel_j_kernel_assembly_peaks_near_twice_the_kernel(spec):
    # 1000 outputs on a 0.02 step: a float64 kernel of 62 MiB (Hankel) to 119 MiB
    # (fr_hankel), built beside one scratch array of its size (the Bessel argument,
    # then (r y)^cross)
    grid = Grid1D(GridKind.HALF_LINE, 0.0, 0.02, 1000)
    tracemalloc.start()
    try:
        built = transforms.plan(spec, grid, grid, QuadratureConfig(nodes_per_panel=16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.nbytes >= 60 * 2**20
    assert peak <= 2.25 * built.nbytes
