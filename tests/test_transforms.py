import cmath
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.fft import next_fast_len

from bessel_i_reference import bessel_i_scaled as reference_i_scaled
from canonica.common import (
    CanonicaError,
    DivergenceRisk,
    EquationKind,
    GeometryMismatch,
    IntegrabilityViolation,
    KernelRefused,
    TruncationWarning,
)
from canonica.fields import (
    BesselBeam,
    Gauss,
    Grid1D,
    GridKind,
    HeatPoly,
    Linear,
    PlaneChirp,
    Radial,
    RadialDim,
    RadialType,
    SampledField,
    StdHG,
    StdLG,
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
    metaplectic_phase,
)
from canonica import appell, specfun, transforms
from canonica.cli import main
from canonica.transforms import (
    QuadratureConfig,
    apply,
    barut_girardello,
    bessel_exp,
    fr_hankel,
    fr_laplace,
    fr_radial_laplace,
    frft,
    fresnel_propagate,
    geometric,
    hankel,
    hankel_type,
    linear_ct,
    poisson_propagate,
    radial_ct,
    radial_heat_propagate,
    radial_laplace,
    radial_propagate,
)

FULL = Grid1D.from_span(GridKind.FULL_LINE, -12.0, 12.0, 1024)
HALF = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 384)
CFG16 = QuadratureConfig(nodes_per_panel=16)


def rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_frft_identity_and_eigenfunction():
    u0 = sample(StdHG(0), FULL, 0.0)
    out = apply(frft(0.0), u0, FULL)
    assert rel_l2(out.values, u0.values) < 1e-12  # alpha = 0 resamples
    out = apply(frft(1.0), u0, FULL)
    assert rel_l2(out.values, u0.values) < 1e-6
    # higher mode picks up (-i)^n
    u3 = sample(StdHG(3), FULL, 0.0)
    out = apply(frft(1.0), u3, FULL)
    assert rel_l2(out.values, (-1j) ** 3 * u3.values) < 1e-6


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, -1.5, 0.3])
def test_frft_is_four_periodic(alpha):
    grid = Grid1D.from_span(GridKind.FULL_LINE, -10.0, 10.0, 256)
    f = SampledField(grid, np.exp(-(grid.points - 1.0) ** 2 / 2) * (1 + 0.3j * grid.points))
    base = apply(frft(alpha), f, grid).values
    for shift in (4.0, -4.0, 8.0):
        assert rel_l2(apply(frft(alpha + shift), f, grid).values, base) < 1e-12


def test_fr_laplace_is_four_periodic():
    grid = Grid1D.from_span(GridKind.FULL_LINE, -10.0, 10.0, 256)
    f = SampledField(grid, np.exp(-(grid.points - 0.5) ** 2) + 0j)
    out = Grid1D.from_span(GridKind.FULL_LINE, -1.0, 1.0, 64)
    base = apply(fr_laplace(0.5), f, out).values
    for alpha in (4.5, -3.5):
        assert rel_l2(apply(fr_laplace(alpha), f, out).values, base) < 1e-12


# orders anywhere, or near 0 and +-2, where |B| = |sin(alpha pi/2)| is small and the
# Gauss-Legendre kernel needs the most panels
_ORDERS = st.one_of(st.floats(-2.0, 2.0), st.tuples(st.sampled_from((0.0, 2.0, -2.0)),
                                                     st.floats(-0.05, 0.05)).map(sum))


# the group law: an order beta after alpha is the order alpha + beta, across the wrap of
# alpha + beta past +-2, where the matching factors and the metaplectic sign change together
@settings(max_examples=10, deadline=None)
@given(alpha=_ORDERS, beta=st.floats(-2.0, 2.0), center=st.floats(-1.0, 1.0),
       kick=st.floats(-1.0, 1.0))
@example(alpha=1.2, beta=1.3, center=0.0, kick=0.0)
@example(alpha=-1.2, beta=-1.3, center=0.3, kick=-0.5)
def test_frft_inverse_pairing_and_period_four_property(alpha, beta, center, kick):
    assume(min(abs(math.sin(0.5 * math.pi * a)) for a in (alpha, beta, alpha + beta)) >= 0.01)
    grid = Grid1D.from_span(GridKind.FULL_LINE, -8.0, 8.0, 128)
    x = grid.points
    f = SampledField(grid, np.exp(-(x - center) ** 2 / 2 + 1j * kick * x))
    image = apply(frft(alpha), f, grid)
    assert rel_l2(apply(frft(-alpha), image, grid).values, f.values) < 1e-7
    assert rel_l2(apply(frft(alpha + 4.0), f, grid).values, image.values) < 1e-11
    both = apply(frft(alpha + beta), f, grid)
    assert rel_l2(apply(frft(beta), image, grid).values, both.values) < 1e-7


@settings(max_examples=10, deadline=None)
@given(alpha=_ORDERS, beta=st.floats(-2.0, 2.0), m=st.integers(0, 3), width=st.floats(0.7, 1.4))
@example(alpha=1.2, beta=1.3, m=0, width=1.0)
@example(alpha=1.2, beta=1.3, m=1, width=1.0)
def test_fr_hankel_inverse_pairing_property(alpha, beta, m, width):
    # |B| >= 0.02 keeps the Bessel argument 144/|B| under the guard of J_0
    assume(min(abs(math.sin(0.5 * math.pi * a)) for a in (alpha, beta, alpha + beta)) >= 0.02)
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 384)
    r = grid.points
    f = SampledField(grid, r**m * np.exp(-r**2 / (2 * width**2)) * (1 + 0.3j * r**2), Radial(m))
    image = apply(fr_hankel(m, alpha), f, grid, CFG16)
    back = apply(fr_hankel(m, -alpha), image, grid, CFG16)
    assert rel_l2(back.values, f.values) < 1e-8
    both = apply(fr_hankel(m, alpha + beta), f, grid, CFG16)
    assert rel_l2(apply(fr_hankel(m, beta), image, grid, CFG16).values, both.values) < 1e-8


def test_frft_group_law_and_inverse_pairing():
    src = sample(Gauss(1.3), FULL, 0.0)
    two = apply(frft(0.4), apply(frft(0.3), src, FULL), FULL)
    one = apply(frft(0.7), src, FULL)
    assert rel_l2(two.values, one.values) < 1e-5
    back = apply(frft(-0.9), apply(frft(0.9), src, FULL), FULL)
    assert rel_l2(back.values, src.values) < 1e-5


def test_linear_ct_composition_matches_product_matrix():
    src = sample(Gauss(1.0), FULL, 0.0)
    m1 = compose(mat_free(0.4), mat_lens(0.8))
    m2 = compose(mat_lens(-0.3), mat_free(0.6))
    stepwise = apply(linear_ct(m1), apply(linear_ct(m2), src, FULL), FULL)
    direct = apply(linear_ct(compose(m1, m2)), src, FULL)
    assert rel_l2(stepwise.values, direct.values) < 1e-5


def test_linear_ct_inverse_pairing():
    src = sample(Gauss(0.9), FULL, 0.0)
    m = compose(mat_free(0.5), mat_lens(0.6))
    back = apply(linear_ct(inverse(m)), apply(linear_ct(m), src, FULL), FULL)
    assert rel_l2(back.values, src.values) < 1e-5


# the composition law: the kernels of M1 and then M2 are metaplectic_phase(p, M1, M2) times
# the kernel of M2 M1, p = nu + 1, unless a guard flags a side (a warning or a CanonicaError).
# The edge check passes an intermediate field whose edge is below EDGE_WARN_LEVEL (1e-6) of
# its peak, so its cut tail may cost about that much; a wrong phase costs sqrt(2) or more.
_COMPOSITION_TOL = 1e-6
_STEPS = {"F": (mat_fourier, st.floats(-2.0, 2.0)), "T": (mat_free, st.floats(-1.5, 1.5)),
          "L": (mat_laplace, st.floats(-2.0, 2.0)), "P": (mat_poisson, st.floats(0.01, 1.0))}
_LINE = Grid1D.from_span(GridKind.FULL_LINE, -10.0, 10.0, 512)
_LINE_WIDE = Grid1D.from_span(GridKind.FULL_LINE, -14.0, 14.0, 1024)
_LINE_FIELDS = {
    "hg2": SampledField(_LINE, StdHG(2).eval(_LINE.points, 0.0) * (1 + 0.2j * _LINE.points)),
    "gauss": SampledField(_LINE_WIDE, np.exp(-_LINE_WIDE.points**2 / 2) + 0j),
}
_HALF_14 = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, 1024)


def _steps(families: str):
    """The matrix of one of the given families of _STEPS, with a parameter drawn for it."""
    return st.sampled_from(families).flatmap(
        lambda n: _STEPS[n][1].map(lambda u: _STEPS[n][0](u)))


def _composition_error(kernel_plan, f, m1, m2, p, b_min):
    """rel-L2 of plan(M2)(plan(M1)(f)) against the phase times plan(M2 M1)(f), or None when
    either side is flagged.  kernel_plan(M) is the plan of M's kernel on the field's grid.

    A draw with 0 < |B| < b_min in a factor or the product is skipped: its near-delta kernel
    takes thousands of panels."""
    assume(all(abs(m.b) >= b_min or abs(m.b) <= transforms.GEOMETRIC_B_TOL
               for m in (m1, m2, compose(m2, m1))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        try:
            chain = kernel_plan(m2)(kernel_plan(m1)(f))
            direct = kernel_plan(compose(m2, m1))(f)
        except (CanonicaError, TruncationWarning):
            return None
    return rel_l2(chain.values, metaplectic_phase(p, m1, m2) * direct.values)


@settings(max_examples=25, deadline=None)
@given(field=st.sampled_from(sorted(_LINE_FIELDS)), m1=_steps("FTLP"), m2=_steps("FTLP"))
@example(field="hg2", m1=mat_fourier(1.2), m2=mat_fourier(1.3))  # sigma = -1
@example(field="hg2", m1=mat_fourier(-1.2), m2=mat_fourier(-1.3))  # sigma = -1
@example(field="hg2", m1=mat_fourier(0.7), m2=mat_fourier(1.3))  # the product: an A < 0 point map
@example(field="gauss", m1=mat_laplace(-0.3), m2=mat_poisson(0.4))
@example(field="gauss", m1=mat_laplace(0.3), m2=mat_poisson(0.4))  # refused: exponent overflow
@example(field="gauss", m1=mat_poisson(0.3), m2=mat_poisson(0.5))  # refused: false DivergenceRisk
def test_linear_composition_law_property(field, m1, m2):
    f = _LINE_FIELDS[field]
    err = _composition_error(lambda mat: transforms.plan(linear_ct(mat), f.grid, f.grid, CFG16),
                             f, m1, m2, 0.5, b_min=0.01)
    assert err is None or err < _COMPOSITION_TOL


@settings(max_examples=15, deadline=None)
@given(case=st.one_of(
    # radial wave: real matrices, index m, p = m + 1
    st.tuples(st.just("wave"), st.integers(0, 2), _steps("FT"), _steps("FT")),
    # radial heat: L-form matrices, dimension mu, p = mu/2
    st.tuples(st.just("heat"), st.sampled_from((2.0, 3.0, 5.0)), _steps("LP"), _steps("LP"))))
@example(case=("wave", 0, mat_fourier(1.2), mat_fourier(1.3)))
@example(case=("wave", 1, mat_fourier(1.2), mat_fourier(1.3)))
@example(case=("heat", 3.0, mat_poisson(0.3), mat_poisson(0.5)))
@example(case=("wave", 0, mat_free(0.015), mat_fourier(0.5)))  # refused: Bessel argument guard
def test_radial_composition_law_property(case):
    domain, index, m1, m2 = case
    n_dim, m, p, geometry = ((2.0, index, index + 1.0, Radial(index)) if domain == "wave"
                             else (index, 0, index / 2.0, RadialDim(index, 0)))
    r = _HALF_14.points
    f = SampledField(_HALF_14, r**m * np.exp(-r**2 / 2) + 0j, geometry)
    err = _composition_error(
        lambda mat: transforms.plan(radial_ct(mat, n_dim, m), _HALF_14, _HALF_14, CFG16),
        f, m1, m2, p, b_min=0.01)
    assert err is None or err < _COMPOSITION_TOL


def test_gl_and_chirp_fft_paths_agree():
    src = sample(Gauss(1.1, 0.3), FULL, 0.0)
    gl, cf = (build(frft(0.6), FULL, FULL, QuadratureConfig())[1](src)
              for build in (transforms._linear_gl, transforms._chirp_fft))
    assert rel_l2(gl, cf) < 1e-8


def test_a_complex_matrix_takes_the_guarded_gauss_legendre_path():
    # the chirp-FFT path runs none of the L-form guards, so of the complex matrices it takes
    # only Gaussian convolutions, whose growth guard it runs; on fr-laplace it returns
    # |values| up to 4e105 where Gauss-Legendre raises
    grid = Grid1D.from_span(GridKind.FULL_LINE, -10.0, 10.0, 512)
    src = sample(Gauss(1.0), grid, 0.0)
    with pytest.raises(DivergenceRisk, match="does not beat the kernel growth"):
        apply(fr_laplace(0.5), src, grid)
    for mat in (mat_laplace(0.5), SympMat2(1.0, 1.0 + 1e-9j, 0.0, 1.0)):
        assert not transforms._use_chirp_fft(mat, grid, grid)


def test_a_gaussian_convolution_takes_chirp_fft_where_the_step_resolves_the_kernel():
    # the rule: e^{-tau pi^2/2h^2} <= 1e-16, i.e. tau >= 7.47 h^2
    grid = Grid1D.from_span(GridKind.FULL_LINE, -8.0, 8.0, 257)
    assert transforms._use_chirp_fft(mat_poisson(0.05), grid, grid)  # tau/h^2 = 12.8
    assert not transforms._use_chirp_fft(mat_poisson(0.01), grid, grid)  # tau/h^2 = 2.56
    rule = 2.0 * math.log(1e16) / math.pi**2 * grid.step**2
    assert transforms._use_chirp_fft(mat_poisson(rule * (1 + 1e-9)), grid, grid)
    assert not transforms._use_chirp_fft(mat_poisson(rule * (1 - 1e-9)), grid, grid)
    # a callable input, and an output on another step, take Gauss-Legendre
    assert not transforms._use_chirp_fft(mat_poisson(0.05), None, grid)
    other = Grid1D.from_span(GridKind.FULL_LINE, -8.0, 8.0, 256)
    assert not transforms._use_chirp_fft(mat_poisson(0.05), grid, other)
    on_lattice = Grid1D(GridKind.FULL_LINE, grid.points[40], grid.step, 100)
    assert transforms._use_chirp_fft(mat_poisson(0.05), grid, on_lattice)


@pytest.mark.parametrize("width", [0.7, 1.3])
def test_heat_propagation_onto_the_source_grid_meets_the_closed_form(width):
    grid = Grid1D.from_span(GridKind.FULL_LINE, -14.0, 14.0, 2048)
    heat = Gauss(width, equation=EquationKind.HEAT)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        out = apply(poisson_propagate(0.5), sample(heat, grid, 0.0), grid)
    assert rel_l2(out.values, np.asarray(heat.eval(grid.points, 0.5))) < 1e-14


def test_heat_propagation_of_a_large_field_fits_in_a_few_megabytes():
    # a dense kernel here would be 100000 x 100032 (80 GB) and is refused
    grid = Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 100_000)
    heat = Gauss(1.0, equation=EquationKind.HEAT)
    assert transforms.plan(poisson_propagate(0.5), grid, grid).nbytes < 8_000_000
    out = apply(poisson_propagate(0.5), sample(heat, grid, 0.0), grid)
    assert rel_l2(out.values, np.asarray(heat.eval(grid.points, 0.5))) < 1e-14


@settings(max_examples=40, deadline=None)
@given(width=st.floats(0.3, 2.0), reach=st.floats(7.5, 10.0), per_width=st.floats(3.0, 8.0),
       share=st.floats(0.0, 1.0), lo=st.floats(0.1, 0.85), size=st.floats(0.0, 1.0))
def test_resolved_heat_propagation_meets_the_closed_form(width, reach, per_width, share, lo,
                                                         size):
    # edge values e^{-reach^2/2} <= 7e-13 of the peak; the output window lies on the input's
    # lattice within its inner 80 %, clear of the outer 5 % that the growth guard scores
    half = reach * width
    grid = Grid1D.from_span(GridKind.FULL_LINE, -half, half, int(2 * half * per_width / width) + 1)
    tau = 7.5 * grid.step**2 + share * (4.0 - 7.5 * grid.step**2)
    first = int(lo * (grid.count - 1))
    last = first + 1 + int(size * (int(0.9 * (grid.count - 1)) - first - 1))
    out = Grid1D(GridKind.FULL_LINE, grid.points[first], grid.step, last - first + 1)
    assert transforms._use_chirp_fft(mat_poisson(tau), grid, out)
    heat = Gauss(width, equation=EquationKind.HEAT)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        got = apply(poisson_propagate(tau), sample(heat, grid, 0.0), out).values
    exact = np.asarray(heat.eval(out.points, tau))
    peak = width / math.sqrt(width**2 + tau)
    assert np.max(np.abs(got - exact)) < 1e-13 * peak


def test_growth_guard_runs_before_the_edge_check_on_chirp_fft():
    # the growing field is at its peak on the edge; it raises without an edge warning first
    growing = SampledField(FULL, np.exp((FULL.points + 12.0) ** 2 / 16) + 0j)
    assert transforms._use_chirp_fft(mat_poisson(0.5), FULL, FULL)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        with pytest.raises(DivergenceRisk):
            apply(poisson_propagate(0.5), growing, FULL)


def test_heat_propagation_of_a_field_cut_at_the_grid_edge_warns():
    # edge 3.4e-4 of peak: the rectangle rule is 6e-6 off Gauss-Legendre's value of the
    # truncated integral, and both are about 7e-5 off the infinite-line solution
    grid = Grid1D.from_span(GridKind.FULL_LINE, -8.0, 8.0, 257)
    heat = Gauss(2.0, equation=EquationKind.HEAT)
    src = sample(heat, grid, 0.0)
    with pytest.warns(TruncationWarning, match="grid edge"):
        out = apply(poisson_propagate(0.5), src, grid).values
    with pytest.warns(TruncationWarning, match="grid edge"):
        gl = transforms._linear_gl(poisson_propagate(0.5), grid, grid, QuadratureConfig())[1](src)
    exact = np.asarray(heat.eval(grid.points, 0.5))
    assert 1e-6 < np.max(np.abs(out - gl)) < 1e-5
    assert np.max(np.abs(out - exact)) < 1e-4 and np.max(np.abs(gl - exact)) < 1e-4


def test_heat_propagation_on_gauss_legendre_warns_of_a_field_cut_at_the_grid_edge():
    # the same field onto another step keeps Gauss-Legendre, and is as far off
    grid = Grid1D.from_span(GridKind.FULL_LINE, -8.0, 8.0, 257)
    out = Grid1D.from_span(GridKind.FULL_LINE, -8.0, 8.0, 200)
    heat = Gauss(2.0, equation=EquationKind.HEAT)
    assert not transforms._use_chirp_fft(mat_poisson(0.5), grid, out)
    with pytest.warns(TruncationWarning, match="grid edge"):
        got = apply(poisson_propagate(0.5), sample(heat, grid, 0.0), out).values
    assert 1e-5 < np.max(np.abs(got - np.asarray(heat.eval(out.points, 0.5)))) < 1e-4


def test_chirp_fft_only_where_the_step_resolves_the_kernel():
    # HG0 is its own frft image.  On +-8 with 128 points the step resolves the kernel's
    # frequency |A y - x|/|B| at alpha = 0.7 but not at small |B|, where the chirp-FFT
    # aliases (off by 0.75 at alpha = 0.1 and 1.9) and Gauss-Legendre is taken
    grid = Grid1D.from_span(GridKind.FULL_LINE, -8.0, 8.0, 128)
    src = sample(StdHG(0), grid, 0.0)
    for alpha in (0.1, 1.9):
        assert np.max(np.abs(apply(frft(alpha), src, grid).values - src.values)) < 1e-8
        assert not transforms._use_chirp_fft(mat_fourier(alpha), grid, grid)
    # the FFT'd lag chirp on next_fast_len(n + m - 1) points, chirp_in and chirp_out
    chirp_bytes = 16 * (next_fast_len(2 * grid.count - 1) + 2 * grid.count)
    assert transforms.plan(frft(0.7), grid, grid).nbytes == chirp_bytes
    assert np.max(np.abs(apply(frft(0.7), src, grid).values - src.values)) < 1e-8


def test_a_chirp_fft_plan_counts_and_caps_the_arrays_it_holds(monkeypatch):
    grid = Grid1D.from_span(GridKind.FULL_LINE, -8.0, 8.0, 128)
    window = Grid1D(GridKind.FULL_LINE, grid.points[30], grid.step, 60)
    # A = D = 1 holds no chirp, only the lag chirp's FFT, and the window when apodized
    heat = poisson_propagate(0.5)
    assert transforms.plan(heat, grid, grid).nbytes == 16 * 256
    assert transforms.plan(heat, grid, grid, QuadratureConfig(apodization=3.0)).nbytes == (
        16 * 256 + 8 * 128)
    # onto another grid chirp_out is its own exponential, of the output's length
    assert transforms.plan(frft(0.7), grid, window).nbytes == 16 * (next_fast_len(187) + 128 + 60)
    held = transforms.plan(frft(0.7), grid, grid).nbytes
    monkeypatch.setattr(transforms, "_MAX_KERNEL_BYTES", held)
    assert transforms.plan(frft(0.7), grid, grid).nbytes == held
    monkeypatch.setattr(transforms, "_MAX_KERNEL_BYTES", held - 1)
    refusal = rf"128 samples onto 128 points \(256-point FFTs\) needs {held} bytes"
    with pytest.raises(KernelRefused, match=refusal):
        transforms.plan(frft(0.7), grid, grid)
    # the point map is held to the same ceiling
    monkeypatch.setattr(transforms, "_MAX_KERNEL_BYTES", 16 * 128 - 1)
    with pytest.raises(KernelRefused, match="point map onto 128 points needs 2048 bytes"):
        transforms.plan(geometric(mat_scale(2.0)), grid, grid)


@pytest.mark.parametrize("n", [33, 64])
@pytest.mark.parametrize("kernel", [frft(0.7), fresnel_propagate(0.3), poisson_propagate(0.5),
                                    linear_ct(SympMat2(1.3, 0.9, 0.4, 1.36 / 1.3)),
                                    linear_ct(SympMat2(1.0, 0.9, 0.4, 1.36)),
                                    linear_ct(SympMat2(1.36, 0.9, 0.4, 1.0))],
                         ids=["frft", "fresnel", "poisson", "a-ne-d", "a-is-1", "d-is-1"])
def test_chirp_fft_is_the_rectangle_rule_on_every_output_window(kernel, n):
    # h sum_j K(x_i, y_j) f_j, summed densely with the phase in long double, for outputs
    # fewer than, as many as and more than the samples, starting on the input's start, on
    # its lattice either side of it, and off the lattice
    grid = Grid1D.from_span(GridKind.FULL_LINE, -4.0, 4.0, n)
    h, y = grid.step, grid.points
    rng = np.random.default_rng(n)
    envelope = np.exp(-0.5 * (3.0 * y / 2.0) ** 2)  # 1.5e-8 at the edges
    src = SampledField(grid, (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * envelope)
    mat = kernel.matrix
    a, b, d = (np.clongdouble(v) for v in (mat.a, mat.b, mat.d))
    pref = kernel.matching / cmath.sqrt(2j * math.pi * mat.b)
    yl = y.astype(np.longdouble)[None, :]
    for m in (n // 2, n, n + 9):
        for shift in (0.0, 3.0, -5.0, 0.37):
            out = Grid1D(GridKind.FULL_LINE, grid.start + shift * h, h, m)
            xl = out.points.astype(np.longdouble)[:, None]
            dense = np.exp(1j * (a * yl**2 - 2.0 * xl * yl + d * xl**2) / (2.0 * b))
            exact = pref * h * (dense @ src.values.astype(np.clongdouble)).astype(complex)
            with warnings.catch_warnings():
                warnings.simplefilter("error", TruncationWarning)
                got = transforms._chirp_fft(kernel, grid, out, QuadratureConfig())[1](src)
            assert rel_l2(got, exact) < 1e-13, (m, shift)


def test_small_b_kernel_is_resolved_below_the_panel_cap():
    # at alpha = 0.02 Gauss-Legendre resolves the kernel in well under 3000 panels, so no
    # truncation is reported; the error is the spline's on 128 samples
    grid = Grid1D.from_span(GridKind.FULL_LINE, -8.0, 8.0, 128)
    src = sample(StdHG(0), grid, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        out = apply(frft(0.02), src, grid)
    assert np.max(np.abs(out.values - src.values)) < 2e-9


def test_fresnel_chirp_on_plane_wave_bulk():
    lam, zeta = 2.0, 0.8
    grid = Grid1D.from_span(GridKind.FULL_LINE, -40.0, 40.0, 4096)
    src = sample(PlaneChirp(lam), grid, 0.0)
    xi = grid.points
    # tight run: a narrow apodization leaves 3.7e-6 at the edges, which is flagged, and the
    # apodized chirp is a Gaussian beam with an exact closed form
    W = 8.0
    with pytest.warns(TruncationWarning, match="grid edge is 3.73e-06"):
        out = apply(fresnel_propagate(zeta), src, grid, QuadratureConfig(apodization=W))
    assert out.evol == pytest.approx(zeta)
    Q = 1.0 / W**2 - 1j / zeta
    b = 1j * (lam - xi / zeta)
    exact = (np.exp(0.5j * xi**2 / zeta + b**2 / (2 * Q))
             / np.sqrt(2j * np.pi * zeta) * np.sqrt(2 * np.pi / Q) / np.sqrt(2 * np.pi))
    bulk = np.abs(xi) <= 10.0
    assert np.max(np.abs(out.values[bulk] - exact[bulk])) < 1e-7
    # quarter-span apodization: the bulk reproduces the frequency-chirped wave up to the
    # envelope bias, and the window's edge, 0.135 of its peak, is flagged
    with pytest.warns(TruncationWarning, match="grid edge is 1.35e-01"):
        out = apply(fresnel_propagate(zeta), src, grid,
                    QuadratureConfig(apodization=grid.span / 4))
    ref = np.asarray(PlaneChirp(lam).eval(xi, zeta))
    quarter = np.abs(xi) <= 5.0
    assert np.max(np.abs(out.values[quarter] - ref[quarter])) < 0.07 * np.max(np.abs(ref))


def test_geometric():
    src = sample(Gauss(1.0), FULL, 0.0)
    out = apply(geometric(SympMat2(1, 0, 0, 1)), src, FULL)
    assert rel_l2(out.values, src.values) < 1e-12
    out = apply(geometric(mat_scale(2.0)), src, FULL)
    ref = np.exp(-(FULL.points / 2.0) ** 2 / 2.0) / math.sqrt(2.0)
    assert np.max(np.abs(out.values - ref)) < 1e-7
    ones = SampledField(FULL, np.ones(FULL.count, dtype=complex))
    out = apply(geometric(mat_lens(1.0)), ones, FULL)
    ref = np.exp(-0.5j * FULL.points**2)
    bulk = np.abs(FULL.points) <= 6.0
    assert np.max(np.abs(out.values[bulk] - ref[bulk])) < 1e-6
    with pytest.raises(ValueError):
        apply(geometric(mat_free(1.0)), src, FULL)


@pytest.mark.parametrize("scale, warns", [(0.7, True), (1.3, False)])
def test_point_map_flags_output_points_read_beyond_the_grid(scale, warns):
    # the Gaussian of width 2 ends at 0.135 of its peak on +-4; x/0.7 leaves the grid
    # for |x| > 2.8, where the spline reads 0, and x/1.3 stays within +-3.08
    grid = Grid1D.from_span(GridKind.FULL_LINE, -4.0, 4.0, 257)
    src = sample(Gauss(2.0), grid, 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        apply(geometric(mat_scale(scale)), src, grid)
    flagged = [w for w in caught if issubclass(w.category, TruncationWarning)]
    assert len(flagged) == warns
    assert not any("apodization" in str(w.message) for w in flagged)


def test_linear_ct_dispatches_geometric_at_small_b():
    src = sample(Gauss(1.0), FULL, 0.0)
    out = apply(linear_ct(SympMat2(1.0, 1e-12, 0.0, 1.0)), src, FULL)
    assert rel_l2(out.values, src.values) < 1e-10


def test_poisson_propagate_polynomials_exact():
    grid = Grid1D.from_span(GridKind.FULL_LINE, -3.0, 3.0, 64)
    for n in range(7):
        out = apply(poisson_propagate(0.8), lambda y, n=n: y**n + 0j, grid)
        ref = np.asarray(HeatPoly(n).eval(grid.points, 0.8))
        assert np.max(np.abs(out.values - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def test_poisson_propagate_constant_and_semigroup():
    grid = Grid1D.from_span(GridKind.FULL_LINE, -3.0, 3.0, 64)
    out = apply(poisson_propagate(0.5), lambda y: np.ones_like(y) + 0j, grid)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12
    # Gaussian convolution semigroup: S(., t0) -> S(., t0 + t)
    wide = Grid1D.from_span(GridKind.FULL_LINE, -14.0, 14.0, 1024)
    t0, t = 0.6, 0.9
    s0 = SampledField(wide, np.exp(-wide.points**2 / (2 * t0)) / math.sqrt(2 * math.pi * t0) + 0j)
    out = apply(poisson_propagate(t), s0, grid)
    ref = np.exp(-grid.points**2 / (2 * (t0 + t))) / math.sqrt(2 * math.pi * (t0 + t))
    assert np.max(np.abs(out.values - ref)) < 1e-9
    with pytest.raises(ValueError):
        apply(poisson_propagate(-0.1), s0, grid)


@pytest.mark.parametrize("t", [1e-4, 1e-6])
def test_poisson_propagate_short_times_resolve_the_narrow_kernel(t):
    # the kernel is a Gaussian of width sqrt(t), far narrower than the sample
    # spacing; the panels are sized by that width, not by the sample count
    wide = Grid1D.from_span(GridKind.FULL_LINE, -14.0, 14.0, 2048)
    out = Grid1D.from_span(GridKind.FULL_LINE, -1.5, 1.5, 128)
    heat = Gauss(1.0, 0.0, EquationKind.HEAT)
    got = apply(poisson_propagate(t), sample(heat, wide, 0.0), out).values
    assert rel_l2(got, np.asarray(heat.eval(out.points, t))) < 1e-12


def test_hankel_gaussian_self_reciprocal():
    r = HALF.points
    fld = SampledField(HALF, np.exp(-r**2 / 2) + 0j, Radial(0))
    out = apply(hankel(0), fld, HALF, CFG16)
    assert rel_l2(out.values, fld.values) < 1e-6


def test_hankel_radial_index_mismatch():
    r = HALF.points
    fld = SampledField(HALF, (r * np.exp(-r**2 / 2)).astype(complex), Radial(1))
    with pytest.raises(GeometryMismatch):
        apply(hankel(0), fld, HALF, CFG16)


def test_fr_hankel_period_two_and_propagator_consistency():
    r = HALF.points
    fld = SampledField(HALF, (r * np.exp(-r**2 / 2)).astype(complex), Radial(1))
    out2 = apply(fr_hankel(1, 2.0), fld, HALF, CFG16)
    assert rel_l2(out2.values, fld.values) < 1e-10  # order 2 is the identity
    a, b = 0.45, 0.85
    two = apply(fr_hankel(1, b), apply(fr_hankel(1, a), fld, HALF, CFG16), HALF, CFG16)
    one = apply(fr_hankel(1, a + b), fld, HALF, CFG16)
    assert rel_l2(two.values, one.values) < 1e-6


def test_radial_ct_free_propagation_matches_bessel_mode():
    from scipy.special import iv

    lam, m, zeta, w = 1.5, 1, 0.7, 7.0
    wide = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 40.0, 1200)
    out_grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 4.0, 96)
    src_vals = np.asarray(BesselBeam(lam, m).eval(wide.points, 0.0))
    apod = np.exp(-wide.points**2 / (2 * w**2))
    src = SampledField(wide, src_vals * apod, Radial(m))
    out = apply(radial_propagate(zeta, m), src, out_grid, QuadratureConfig(nodes_per_panel=16))
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
    via_type = apply(hankel_type(1, 2.0, -1.0), fld, HALF, CFG16)
    via_hankel = apply(hankel(2), SampledField(HALF, fld.values, Radial(2)), HALF, CFG16)
    assert rel_l2(via_type.values, via_hankel.values) < 1e-10


def test_radial_laplace_finite_and_matches_fractional_path():
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, 512)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 64)
    nu, nup = 0.5, -1.5
    r = grid.points
    fld = SampledField(grid, np.exp(-r**2) + 0j)
    direct = apply(radial_laplace(1, nu, nup), fld, out, CFG16)
    assert np.all(np.isfinite(direct.values.view(float)))
    frac = apply(fr_radial_laplace(1.0, nu, nup), fld, out, CFG16)
    assert rel_l2(frac.values, direct.values) < 1e-10
    # 4x node density oracle
    dense = apply(radial_laplace(1, nu, nup), fld, out, QuadratureConfig(nodes_per_panel=64))
    assert rel_l2(direct.values, dense.values) < 1e-8


def test_radial_laplace_rejects_slow_decay():
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, 512)
    r = grid.points
    fld = SampledField(grid, np.exp(-r * 0.8) + 0j)  # only exponential decay
    with pytest.raises(DivergenceRisk):
        apply(radial_laplace(1, 0.5, -1.5), fld, grid, CFG16)


def test_radial_ct_of_an_l_form_matrix_is_the_bessel_i_kernel():
    # the weights of dimension mu equal the first type weights with nu' = -mu/2,
    # so radial_ct of mat_laplace(alpha) is the fractional radial Laplace transform
    mu = 3.0
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, 512)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 64)
    r = grid.points
    fld = SampledField(grid, np.exp(-r**2) + 0j, RadialDim(mu, 0))
    via_ct = apply(radial_ct(mat_laplace(0.6), mu, 0), fld, out, CFG16)
    via_frl = apply(fr_radial_laplace(0.6, mu / 2 - 1, -mu / 2), fld, out, CFG16)
    assert rel_l2(via_ct.values, via_frl.values) < 1e-12
    slow = SampledField(grid, np.exp(-r * 0.8) + 0j, RadialDim(mu, 0))
    with pytest.raises(DivergenceRisk):
        apply(radial_ct(mat_laplace(0.6), mu, 0), slow, out, CFG16)
    with pytest.raises(ValueError):
        apply(radial_ct(SympMat2(1.0, 1.0 + 1j, 0.0, 1.0), mu, 0), fld, out, CFG16)


def test_bessel_exp_reproduces_radial_heat_propagator():
    t, mu = 0.5, 3.0
    nu, nup = mu / 2 - 1, -mu / 2
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 400)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 5.0, 80)
    r = grid.points
    fld = SampledField(grid, (r**2 * np.exp(-r**2 / 4)).astype(complex), RadialDim(mu, 0))
    via_exp = apply(bessel_exp(t / 2.0, nu, nup), fld, out, CFG16)
    via_heat = apply(radial_heat_propagate(t, mu), fld, out, CFG16)
    assert rel_l2(via_exp.values, via_heat.values) < 1e-12


def test_bessel_exp_small_beta_identity():
    mu = 3.0
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 10.0, 600)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.5, 4.0, 32)
    r = grid.points
    fld = SampledField(grid, (r**2 * np.exp(-r**2 / 2)).astype(complex))
    beta = 1e-3
    outf = apply(bessel_exp(beta, mu / 2 - 1, -mu / 2), fld, out, CFG16)
    ref = out.points**2 * np.exp(-out.points**2 / 2)
    assert np.max(np.abs(outf.values - ref)) < 30.0 * beta  # identity within O(beta)


def test_radial_heat_of_even_monomials():
    from canonica.fields import RadialHeatPoly

    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 6.0, 200)
    t, mu = 0.5, 3.0
    for n in range(5):
        out = apply(radial_heat_propagate(t, mu), lambda y, n=n: y ** (2 * n) + 0j, grid)
        ref = np.asarray(RadialHeatPoly(n, mu).eval(grid.points, t))
        assert np.max(np.abs(out.values - ref)) <= 1e-6 * np.max(np.abs(ref))


def test_barut_girardello():
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 512)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 64)
    zero = SampledField(grid, np.zeros(grid.count, dtype=complex))
    assert np.all(apply(barut_girardello(2.0, 0), zero, out, CFG16).values == 0.0)
    r = grid.points
    fld = SampledField(grid, np.exp(-r**2 / 2) + 0j)
    got = apply(barut_girardello(2.0, 0), fld, out, CFG16)
    # quadrature oracle at 4x the node density
    dense = apply(barut_girardello(2.0, 0), fld, out, QuadratureConfig(nodes_per_panel=64))
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
        apply(frft(0.5), src, grid)


def test_integrability_violation():
    src = sample(Gauss(1.0), FULL, 0.0)
    bad = SympMat2(1.0 - 0.2j, 1.0, -0.2j, 1.0)  # Im(A/B) < 0, not L-form
    with pytest.raises(IntegrabilityViolation):
        apply(linear_ct(bad), src, FULL)


def test_apply_dispatch_and_geometry_checks():
    src = sample(Gauss(1.0), FULL, 0.0)
    out = apply(frft(0.5), src, FULL)
    assert out.grid == FULL
    r = HALF.points
    rad = SampledField(HALF, np.exp(-r**2 / 2) + 0j, Radial(0))
    with pytest.raises(GeometryMismatch):
        apply(frft(0.5), rad, HALF)
    with pytest.raises(GeometryMismatch):
        apply(hankel(0), src, FULL)
    assert apply(hankel(0), rad, HALF, CFG16).grid == HALF
    out = apply(poisson_propagate(0.5), src, FULL)
    assert out.evol == pytest.approx(0.5)
    out = apply(linear_ct(mat_free(0.3)), src, FULL)
    assert out.evol == pytest.approx(0.0)  # generic matrices keep the tag
    out = apply(fresnel_propagate(0.3), src, FULL)
    assert out.evol == pytest.approx(0.3)
    with pytest.raises(TypeError):
        apply("nonsense", src, FULL)
    with pytest.raises(TypeError):  # a transform's function, not its kernel
        apply(frft, src, FULL)
    with pytest.raises(TypeError):  # a transform's function takes no field or grid
        frft(src, 0.5, FULL)


def test_doubling_nodes_self_consistency():
    r = HALF.points
    fld = SampledField(HALF, (r * np.exp(-r**2 / 2)).astype(complex), Radial(1))
    coarse = apply(hankel(1), fld, HALF, QuadratureConfig(nodes_per_panel=16))
    fine = apply(hankel(1), fld, HALF, QuadratureConfig(nodes_per_panel=32))
    assert rel_l2(coarse.values, fine.values) < 1e-9


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(nodes_per_panel=1)
    with pytest.raises(ValueError):
        QuadratureConfig(apodization=-1.0)


def test_bessel_exp_quarter_turn_conjugates_to_hankel_type():
    # i^(nu+1) e^{-i x^2/2} exp((i/2) B^dagger) e^{-i y^2/2} == first
    # Hankel-type transform: check the tag path against hankel_type
    nu, nup = 1.0, -0.6
    grid = Grid1D.from_span(GridKind.HALF_LINE, 1e-3, 12.0, 384)
    r = grid.points
    f = (r ** (1.0 + nu + nup) * (1.0 + 0.2 * r**2) * np.exp(-(r**2) / 2.0)).astype(complex)
    fld = SampledField(grid, f)
    pre = SampledField(grid, f * np.exp(-0.5j * r**2))
    mid = apply(bessel_exp("i/2", nu, nup), pre, grid, CFG16)
    conj = (1j) ** (nu + 1.0) * np.exp(-0.5j * r**2) * mid.values
    ref = apply(hankel_type(1, nu, nup), fld, grid, CFG16)
    assert rel_l2(conj, ref.values) < 1e-8
    with pytest.raises(ValueError):
        bessel_exp("i/3", nu, nup)


AXIS_POWER_ZERO = {
    # transform on (field, out_grid) with parameters whose axis power is zero
    "hankel": lambda f, g: apply(hankel(0), f, g, CFG16),
    "fr_hankel": lambda f, g: apply(fr_hankel(0, 0.6), f, g, CFG16),
    "radial_ct": lambda f, g: apply(radial_ct(mat_free(0.7), 3.0, 0), f, g, CFG16),
    "hankel_type-1": lambda f, g: apply(hankel_type(1, 0.5, -1.5), f, g, CFG16),
    "hankel_type-2": lambda f, g: apply(hankel_type(2, 1.0, 1.0), f, g, CFG16),
    "radial_laplace-1": lambda f, g: apply(radial_laplace(1, 0.5, -1.5), f, g, CFG16),
    "radial_laplace-2-nu0.5": lambda f, g: apply(radial_laplace(2, 0.5, 0.5), f, g, CFG16),
    "radial_laplace-2-nu1": lambda f, g: apply(radial_laplace(2, 1.0, 1.0), f, g, CFG16),
    "fr_radial_laplace": lambda f, g: apply(fr_radial_laplace(0.6, 0.5, -1.5), f, g, CFG16),
    "bessel_exp": lambda f, g: apply(bessel_exp(0.3, 0.5, -1.5), f, g, CFG16),
    "bessel_exp_quarter_turn": lambda f, g: apply(bessel_exp("i/2", 0.5, -1.5), f, g, CFG16),
    "radial_heat_propagate": lambda f, g: apply(radial_heat_propagate(0.4, 3.0), f, g, CFG16),
    "barut_girardello": lambda f, g: apply(barut_girardello(3.0, 0), f, g, CFG16),
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
        apply(hankel_type(2, 0.5, 1.0), fld, Grid1D(GridKind.HALF_LINE, 0.0, 0.1, 8), CFG16)
    off_axis = apply(hankel_type(2, 0.5, 1.0), fld, Grid1D(GridKind.HALF_LINE, 0.1, 0.1, 8),
                     CFG16)
    assert np.all(np.isfinite(off_axis.values))


# one kernel per TRANSFORMS name
KERNELS = {
    "linear-ct": linear_ct(compose(mat_free(0.4), mat_lens(0.8))),
    "geometric": geometric(mat_scale(1.5)),
    "fresnel-prop": fresnel_propagate(0.3),
    "frft": frft(0.5),
    "fr-laplace": fr_laplace(1.0),
    "poisson-prop": poisson_propagate(0.5),
    "radial-ct": radial_ct(mat_fourier(0.5), 3.0, 1),
    "hankel": hankel(1),
    "fr-hankel": fr_hankel(1, 0.5),
    "hankel-type": hankel_type(2, 1.0, -0.6),
    "radial-laplace": radial_laplace(2, 0.5, 0.5),
    "fr-radial-laplace": fr_radial_laplace(0.5, 0.5, -1.5),
    "bessel-exp": bessel_exp(0.25, 0.5, -1.5),
    "radial-heat-prop": radial_heat_propagate(0.5, 3.0),
    "barut-girardello": barut_girardello(3.0, 0),
}
_COEF = st.builds(lambda mag, arg: mag * cmath.exp(1j * arg),
                  st.floats(0.1, 10.0), st.floats(0.0, 2.0 * math.pi))


@pytest.mark.filterwarnings("ignore::canonica.common.TruncationWarning")
@pytest.mark.parametrize("name", sorted(transforms.TRANSFORMS))
@settings(max_examples=10, deadline=None)
@given(a=_COEF, b=_COEF)
def test_apply_is_linear(name, a, b):
    kernel = KERNELS[name]
    grid = (Grid1D.from_span(GridKind.HALF_LINE, 0.0, 6.0, 64) if kernel.nu is not None
            else Grid1D.from_span(GridKind.FULL_LINE, -6.0, 6.0, 96))
    x = grid.points
    f = SampledField(grid, np.exp(-x**2) * (1.0 + 0.3 * x) + 0j)
    g = SampledField(grid, x**2 * np.exp(-x**2 + 0.5j * x))
    both = SampledField(grid, a * f.values + b * g.values)
    tf, tg = apply(kernel, f, grid, CFG16).values, apply(kernel, g, grid, CFG16).values
    lhs = apply(kernel, both, grid, CFG16).values
    scale = abs(a) * np.max(np.abs(tf)) + abs(b) * np.max(np.abs(tg))
    assert np.max(np.abs(lhs - (a * tf + b * tg))) <= 1e-9 * scale


@pytest.mark.parametrize("transform", [hankel_type, radial_laplace])
@pytest.mark.parametrize("kind", [0, 3])
def test_kind_outside_one_and_two_is_rejected(transform, kind):
    with pytest.raises(ValueError, match="kind"):
        transform(kind, 0.5, 0.0)


@pytest.mark.parametrize("call, message", [
    (lambda: geometric(mat_free(1e-9)), "needs B = 0"),
    (lambda: poisson_propagate(0.0), "diffusion time"),
    (lambda: radial_heat_propagate(0.0, 3.0), "diffusion time"),
    (lambda: radial_heat_propagate(0.5, 1.0), "mu must exceed 1"),
    (lambda: bessel_exp(0.0, 0.5, 0.0), "beta must be positive"),
    (lambda: bessel_exp(-0.25, 0.5, 0.0), "beta must be positive"),
    (lambda: bessel_exp("i", 0.5, 0.0), "beta must be positive"),
    (lambda: hankel_type(1, -0.6, 0.0), "nu must be >= -1/2"),
    (lambda: radial_laplace(2, -0.6, 0.0), "nu must be >= -1/2"),
], ids=["geometric-B", "poisson-t0", "radial-heat-t0", "radial-heat-mu1",
        "bessel-exp-beta0", "bessel-exp-beta<0", "bessel-exp-tag", "hankel-type-nu",
        "radial-laplace-nu"])
def test_each_transform_checks_its_parameters(call, message):
    # each function refuses a parameter its kernel cannot take before any field is read
    with pytest.raises(ValueError, match=message):
        call()


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
    num = apply(linear_ct(mat), src, out)
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
    at_two = apply(fr_radial_laplace(2.0, nu, nup), fld, out).values
    ref = cmath.exp(-1j * math.pi * (nu + 1)) * np.exp(-out.points**2)
    assert rel_l2(at_two, ref) < 1e-12
    near = apply(fr_radial_laplace(1.999, nu, nup), fld, out).values
    assert rel_l2(near, at_two) < 1e-2


def test_fr_radial_laplace_rejects_a_source_the_kernel_outgrows():
    # at alpha = 0.3 the kernel grows like exp(+0.98 y^2), which exp(-y^2/2) cannot tame;
    # the axis end of a half-line grid is no tail, so r^2 e^{-r^2/2} is no false alarm
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 512)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 64)
    r = grid.points
    with pytest.raises(DivergenceRisk):
        apply(fr_radial_laplace(0.3, 0.5, -1.5), SampledField(grid, np.exp(-r**2 / 2) + 0j), out,
              CFG16)
    axis_zero = SampledField(grid, r**2 * np.exp(-r**2 / 2) + 0j)
    assert np.all(np.isfinite(apply(radial_laplace(1, 0.5, -1.5), axis_zero, out, CFG16).values))


@pytest.mark.parametrize("nodes", [8, 16, 32, 64])
def test_panel_phase_meets_the_gauss_legendre_remainder_bound(nodes):
    # p-point Gauss-Legendre of e^{i omega y} over a panel of length L and phase
    # omega L = Phi(p), on nodes refined to 40 digits so that rounding does not count:
    # each of the real and imaginary parts errs by at most 1e-15 L, and a panel of
    # 1.5 Phi(p) errs by more
    import mpmath
    from numpy.polynomial.legendre import leggauss

    with mpmath.workdps(40):
        legendre = lambda t: mpmath.legendre(nodes, t)
        xs = [mpmath.findroot(legendre, mpmath.mpf(float(x))) for x in leggauss(nodes)[0]]
        ws = [2 * (1 - x**2) / (nodes * mpmath.legendre(nodes - 1, x)) ** 2 for x in xs]
        length = mpmath.mpf("0.37")
        for phase, within in ((transforms._panel_phase(nodes), True),
                              (1.5 * transforms._panel_phase(nodes), False)):
            omega = mpmath.mpf(phase) / length
            quad = length / 2 * sum(w * mpmath.expj(omega * length * (1 + x) / 2)
                                    for x, w in zip(xs, ws))
            exact = (mpmath.expj(omega * length) - 1) / (1j * omega)
            err = max(abs(mpmath.re(quad - exact)), abs(mpmath.im(quad - exact))) / length
            assert (err <= 1e-15) == within


@pytest.mark.parametrize("axis_power", [0.0, 0.5, -0.3])
@pytest.mark.parametrize("nodes", [8, 16, 32, 48, 64])
def test_gl_nodes_build_each_base_rule_once_and_bit_for_bit(nodes, axis_power):
    # the cached rules give the nodes and weights of a fresh leggauss / roots_jacobi build
    from numpy.polynomial.legendre import leggauss
    from scipy.special import roots_jacobi

    lo, hi, panels = 0.0, 3.7, 5
    base_x, base_w = leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    want_x = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    want_w = (half[:, None] * base_w[None, :]).ravel()
    if axis_power:
        jac_x, jac_w = roots_jacobi(nodes, 0.0, axis_power)
        want_x[:nodes] = half[0] * (1.0 + jac_x)
        want_w[:nodes] = half[0] * jac_w / (1.0 + jac_x) ** axis_power
    for _ in range(2):  # the second call reads the cache
        xq, wq = transforms._gl_nodes(lo, hi, panels, nodes, axis_power)
        assert xq.tobytes() == want_x.tobytes() and wq.tobytes() == want_w.tobytes()
    for rule in (transforms._base_rule(nodes), transforms._base_rule(nodes, axis_power)):
        for arr in rule:
            with pytest.raises(ValueError):
                arr[0] = 0.0
    assert transforms._base_rule(nodes, axis_power) is transforms._base_rule(nodes, axis_power)


def test_panel_cap_warns_with_requested_and_used_counts():
    # alpha = 0.05 on a +-20 source and output window: omega = (|A| 20 + 20)/|B| = 509 over
    # a span of 40, on panels of Phi(8) = 3.06 rad, asks for 6656 panels
    src = sample(Gauss(1.0), Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 512), 0.0)
    out = Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 3)
    cfg = QuadratureConfig(nodes_per_panel=8)
    with pytest.warns(TruncationWarning, match="6656 quadrature panels; 3000 are used"):
        apply(frft(0.05), src, out, cfg)


def test_poisson_propagate_is_the_transform_of_its_matrix():
    src = sample(Gauss(1.0), FULL, 0.0)
    out = Grid1D.from_span(GridKind.FULL_LINE, -1.5, 1.5, 64)
    for t in (0.05, 0.5, 2.0, 1e-11):
        direct = apply(linear_ct(mat_poisson(t)), src, out)
        assert np.array_equal(apply(poisson_propagate(t), src, out).values, direct.values)
    # at |B| <= 1e-10 both take the point map, whose error is O(t): no near-delta quadrature
    exact = Gauss(1.0, equation=EquationKind.HEAT).eval(out.points, 1e-11)
    assert np.max(np.abs(apply(poisson_propagate(1e-11), src, out).values - exact)) < 1e-10
    # a Gaussian-convolution matrix gets the growth guard whichever function names it
    growing = SampledField(FULL, np.exp((FULL.points + 12.0) ** 2 / 16) + 0j)
    with pytest.raises(DivergenceRisk):
        apply(poisson_propagate(0.5), growing, FULL)
    with pytest.raises(DivergenceRisk):
        apply(linear_ct(mat_poisson(0.5)), growing, FULL)


def test_lform_kernels_stay_real(monkeypatch):
    dtypes = []
    matvec = transforms._matvec
    monkeypatch.setattr(transforms, "_matvec", lambda k, v: dtypes.append(k.dtype) or matvec(k, v))
    out = Grid1D.from_span(GridKind.FULL_LINE, -1.5, 1.5, 16)
    src = sample(Gauss(1.0), FULL, 0.0)
    apply(fr_laplace(0.7), src, out)
    apply(poisson_propagate(0.5), src, out)
    apply(poisson_propagate(0.5), lambda y: y**2 + 0j, out)
    r = HALF.points
    rad = SampledField(HALF, np.exp(-r**2) + 0j)
    apply(radial_laplace(1, 0.5, -1.5), rad, HALF, CFG16)
    apply(bessel_exp(0.3, 0.5, -1.5), rad, HALF, CFG16)
    apply(barut_girardello(3.0, 0), rad, HALF, CFG16)
    assert dtypes == [np.float64] * 6


def test_linear_b_zero_path_keeps_matching_and_evol_shift():
    # the order-2 FrFT is the parity f(-x) from either side of B = 0
    f = SampledField(FULL, np.exp(-(FULL.points - 1.0) ** 2 / 2) * (1 + 0.3j * FULL.points))
    mirrored = f.values[::-1]
    for alpha in (2.0, -2.0):
        assert rel_l2(apply(frft(alpha), f, FULL).values, mirrored) < 1e-12
    shifted = replace(linear_ct(SympMat2(1, 0, 0.3, 1)), evol_shift=0.5)
    assert apply(shifted, f, FULL).evol == 0.5


def test_growth_guard_watches_both_ends_of_a_full_line_grid():
    # e^{x^2/8} grows at both ends; at t = 0.5 the exact image is 9.2e8 at x = 12
    growing = SampledField(FULL, np.exp(FULL.points**2 / 8) + 0j)
    with pytest.raises(DivergenceRisk):
        apply(poisson_propagate(0.5), growing, FULL)
    decaying = SampledField(FULL, np.exp(-FULL.points**2 / 2) + 0j)
    out = apply(poisson_propagate(0.5), decaying, FULL)
    exact = np.exp(-FULL.points**2 / 3) / math.sqrt(1.5)
    assert np.max(np.abs(out.values - exact)) < 1e-10


def test_kernel_not_integrable_at_the_input_axis_is_rejected():
    # the first-kind kernel ~ y^(nu - nu') near y = 0; a power <= -1 has no integral
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 256)
    y = grid.points
    fld = SampledField(grid, np.exp(-y**2) + 0j)
    with pytest.raises(ValueError, match="not integrable"):
        apply(bessel_exp("i/2", -0.5, 0.75), fld, grid, CFG16)
    with pytest.raises(ValueError, match="not integrable"):
        apply(hankel_type(1, 0.0, 1.0), fld, grid, CFG16)
    ok = apply(bessel_exp("i/2", -0.5, 0.0), fld, grid, CFG16)
    assert np.all(np.isfinite(ok.values))


def test_kernel_singular_at_the_input_axis_runs_where_the_integrand_is_integrable():
    # a field vanishing at the axis: r^2 int J_0(r y) y e^{-y^2} dy = r^2 e^{-r^2/4} / 2
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 256)
    y = grid.points
    vanishing = SampledField(grid, y**2 * np.exp(-y**2) + 0j)
    out = apply(hankel_type(1, 0.0, 1.0), vanishing, grid, CFG16)
    assert rel_l2(out.values, y**2 * np.exp(-y**2 / 4) / 2) < 1e-5
    # a source grid that starts above the axis never meets the singularity
    above = Grid1D.from_span(GridKind.HALF_LINE, 0.5, 8.0, 256)
    fld = SampledField(above, np.exp(-(above.points - 3.0) ** 2) + 0j)
    out = apply(bessel_exp("i/2", -0.5, 0.75), fld, above, CFG16)
    assert np.all(np.isfinite(out.values)) and np.max(np.abs(out.values)) > 0.1


def test_gauss_jacobi_first_panel_integrates_the_axis_singularity():
    # nu = -1/2, nu' = 0: the kernel ~ y^(-1/2) at the axis, where
    # J_{-1/2}(x y) y^(1/2) = (2/(pi x))^(1/2) cos(x y); the reference is quad's
    # algebraic weight y^(-1/2) on the exact field e^{-y^2}
    from scipy.integrate import quad

    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 256)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.1, 4.0, 40)
    fld = SampledField(grid, np.exp(-grid.points**2) + 0j)
    got = apply(bessel_exp("i/2", -0.5, 0.0), fld, out, CFG16).values
    want = []
    for x in out.points:
        part = lambda y, f: f(np.exp(0.5j * (x * x + y * y)) * np.cos(x * y) * np.exp(-y * y))
        real, imag = (quad(part, 0.0, 8.0, args=(f,), weight="alg", wvar=(-0.5, 0.0), limit=200,
                           epsabs=1e-13, epsrel=1e-12)[0] for f in (np.real, np.imag))
        pref = -1j * cmath.exp(0.25j * math.pi) * x * math.sqrt(2 / (math.pi * x))
        want.append(pref * (real + 1j * imag))
    assert rel_l2(got, np.array(want)) < 1e-8


@pytest.mark.filterwarnings("ignore::canonica.common.TruncationWarning")
@pytest.mark.parametrize("name", sorted(transforms.TRANSFORMS))
def test_plan_is_bit_identical_to_the_engine(name):
    # one plan called on two fields gives what apply, which builds a plan per call, gives
    kernel = KERNELS[name]
    grid = (Grid1D.from_span(GridKind.HALF_LINE, 0.0, 6.0, 64) if kernel.nu is not None
            else Grid1D.from_span(GridKind.FULL_LINE, -6.0, 6.0, 96))
    out = Grid1D.from_span(grid.kind, grid.start + 0.5, grid.end - 0.5, 40)
    x = grid.points
    fields = [SampledField(grid, np.exp(-x**2) * (1.0 + 0.3 * x) + 0j),
              SampledField(grid, x**2 * np.exp(-x**2 + 0.5j * x), evol=0.25)]
    transform = transforms.plan(kernel, grid, out, CFG16)
    assert isinstance(transform, transforms.Plan) and transform.nbytes > 0
    for f in fields:
        got, want = transform(f), apply(kernel, f, out, CFG16)
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.grid, got.geometry, got.evol) == (want.grid, want.geometry, want.evol)


def test_a_reused_plan_still_guards_each_field():
    r = HALF.points
    transform = transforms.plan(hankel(0), HALF, HALF, CFG16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        transform(SampledField(HALF, np.exp(-r**2 / 2) + 0j))
    with pytest.warns(TruncationWarning, match="grid edge"):
        transform(SampledField(HALF, np.exp(-r**2 / 50) + 0j))
    # the first-kind kernel ~ y^(nu - nu') = y^-1 near the axis
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 256)
    y = grid.points
    transform = transforms.plan(hankel_type(1, 0.0, 1.0), grid, grid, CFG16)
    assert np.all(np.isfinite(transform(SampledField(grid, y**2 * np.exp(-y**2) + 0j)).values))
    with pytest.raises(ValueError, match="not integrable"):
        transform(SampledField(grid, np.exp(-y**2) + 0j))
    transform = transforms.plan(poisson_propagate(0.5), FULL, FULL)
    assert np.all(np.isfinite(transform(SampledField(FULL, np.exp(-FULL.points**2 / 2) + 0j))
                              .values))
    with pytest.raises(DivergenceRisk):
        transform(SampledField(FULL, np.exp(FULL.points**2 / 8) + 0j))


def test_a_plan_rejects_fields_it_was_not_built_for():
    r = HALF.points
    transform = transforms.plan(hankel(0), HALF, HALF, CFG16)
    other = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 383)
    with pytest.raises(GeometryMismatch):
        transform(SampledField(other, np.exp(-other.points**2 / 2) + 0j, Radial(0)))
    with pytest.raises(GeometryMismatch):
        transform(SampledField(HALF, (r * np.exp(-r**2 / 2)).astype(complex), Radial(1)))
    typed = transforms.plan(hankel_type(1, 1.0, -0.6), HALF, HALF, CFG16)
    with pytest.raises(GeometryMismatch):
        typed(SampledField(HALF, np.exp(-r**2 / 2) + 0j, RadialType(1.0, -0.5)))
    on_grid = transforms.plan(poisson_propagate(0.5), FULL, FULL)
    with pytest.raises(GeometryMismatch):
        on_grid(lambda y: y + 0j)
    for_callables = transforms.plan(poisson_propagate(0.5), None, FULL)
    with pytest.raises(GeometryMismatch):
        for_callables(sample(Gauss(1.0), FULL, 0.0))
    with pytest.raises(GeometryMismatch):
        transforms.plan(hankel(0), None, HALF, CFG16)  # only Gaussian convolutions take callables


# the arguments of each TRANSFORMS function
RECORD_ARGS = {
    "linear-ct": (mat_fourier(0.3),), "geometric": (mat_scale(2.0),), "fresnel-prop": (0.5,),
    "frft": (0.7,), "fr-laplace": (0.5,), "poisson-prop": (0.5,),
    "radial-ct": (mat_free(0.5), 3.0, 1), "hankel": (1,), "fr-hankel": (1, 0.7),
    "hankel-type": (1, 1.0, -0.6), "radial-laplace": (2, 1.0, -0.6),
    "fr-radial-laplace": (0.5, 1.0, -0.6), "bessel-exp": (0.5, 1.0, -0.6),
    "radial-heat-prop": (0.5, 3.0), "barut-girardello": (2.0, 1),
}


@pytest.mark.parametrize("name", sorted(transforms.TRANSFORMS))
def test_a_kernel_record_is_a_value(name):
    # equal arguments give equal records, so work can be keyed and traced by the record
    make, args = transforms.TRANSFORMS[name], RECORD_ARGS[name]
    one, two = make(*args), make(*args)
    assert one == two and hash(one) == hash(two)
    assert "0x" not in repr(one)


def test_the_record_geometry_is_the_geometry_of_the_fields_it_reads():
    assert radial_ct(mat_free(0.5), 3.0, 1).geometry == RadialDim(3.0, 1)
    assert hankel(1).geometry == fr_hankel(1, 0.7).geometry == RadialDim(2.0, 1)
    assert hankel_type(1, 1.0, -0.6).geometry == RadialType(1.0, -0.6)
    assert radial_heat_propagate(0.5, 3.0).geometry == RadialDim(3.0, 0)
    assert poisson_propagate(0.5).geometry is None and radial_laplace(1, 1.0, 0.0).geometry is None


def test_a_matrix_gets_the_same_checks_whichever_function_names_it():
    # e^{-r^2/8} decays slower than e^{-r^2/4}; a Gaussian convolution runs the growth guard,
    # not the decay requirement of the other Bessel-I kernels, under either name
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 12.0, 256)
    r = grid.points
    fld = SampledField(grid, np.exp(-r**2 / 8) + 0j, RadialDim(3, 0))
    by_ct = apply(radial_ct(mat_poisson(0.5), 3, 0), fld, grid, CFG16)
    by_heat = apply(radial_heat_propagate(0.5, 3), fld, grid, CFG16)
    assert by_ct.values.tobytes() == by_heat.values.tobytes()
    # both accept a callable, and its image takes the record's geometry, or Linear() on the line
    for kernels, out in (((radial_ct(mat_poisson(0.5), 3, 0), radial_heat_propagate(0.5, 3)),
                          Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 32)),
                         ((linear_ct(mat_poisson(0.5)), poisson_propagate(0.5)),
                          Grid1D.from_span(GridKind.FULL_LINE, -3.0, 3.0, 32))):
        got = [apply(k, lambda y: y**2 + 1j * y, out, CFG16) for k in kernels]
        assert got[0].values.tobytes() == got[1].values.tobytes()
        assert got[0].geometry == got[1].geometry == (kernels[0].geometry or Linear())
    # a field of another dimension is rejected by the record of either name
    other = SampledField(grid, r * np.exp(-r**2 / 2) + 0j, RadialDim(5, 1))
    for kernel in (hankel(1), radial_ct(mat_fourier(1.0), 2, 1)):
        with pytest.raises(GeometryMismatch, match="n_dim"):
            apply(kernel, other, grid, CFG16)


_WINDOW_HALF = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 256)
_WINDOW_FULL = Grid1D.from_span(GridKind.FULL_LINE, -8.0, 8.0, 128)


@pytest.mark.parametrize("kernel, grid, out", [
    (frft(0.7), _WINDOW_FULL, _WINDOW_FULL),
    (frft(0.1), _WINDOW_FULL, _WINDOW_FULL),
    (fr_hankel(1, 0.7), _WINDOW_HALF, Grid1D.from_span(GridKind.HALF_LINE, 0.0, 4.0, 64)),
    (geometric(mat_scale(1.3)), _WINDOW_FULL, _WINDOW_FULL),
], ids=["chirp-fft", "gauss-legendre", "bessel-sum", "point-map"])
def test_apodization_is_one_window_on_the_sampled_field(kernel, grid, out):
    # every path integrates the field times the plan's window, and nothing else changes
    x = grid.points
    fld = SampledField(grid, (x * np.exp(-x**2 / 4) * (1.0 + 0.2j * x)).astype(complex),
                       Radial(1) if kernel.nu is not None else Linear())
    cfg = QuadratureConfig(nodes_per_panel=16, apodization=2.5)
    built = transforms.plan(kernel, grid, out, cfg)
    center = 0.0 if grid.kind == GridKind.HALF_LINE else 0.5 * (grid.start + grid.end)
    assert np.array_equal(built.window, np.exp(-((x - center) ** 2) / (2.0 * 2.5**2)))
    assert built.nbytes == transforms.plan(kernel, grid, out, CFG16).nbytes + 8 * grid.count
    windowed = replace(fld, values=fld.values * built.window)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        got = apply(kernel, fld, out, cfg).values
        assert got.tobytes() == apply(kernel, windowed, out, CFG16).values.tobytes()
        assert got.tobytes() == built(fld).values.tobytes()


def test_the_edge_check_judges_the_windowed_field():
    # a plane chirp, windowed: W = 6 leaves 2e-10 at the edges of +-40 and W = 20 leaves 0.135
    grid = Grid1D.from_span(GridKind.FULL_LINE, -40.0, 40.0, 4096)
    src = sample(PlaneChirp(2.0), grid, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        apply(fresnel_propagate(0.8), src, grid, QuadratureConfig(apodization=6.0))
    with pytest.warns(TruncationWarning, match=r"grid edge is 1\.35e-01 of peak; widen the grid$"):
        apply(fresnel_propagate(0.8), src, grid, QuadratureConfig(apodization=20.0))


@pytest.mark.parametrize("scale, warns", [(2.0, True), (0.5, False)])
def test_a_half_line_point_map_flags_points_read_below_the_grid_start(scale, warns):
    # e^{-(r-1)^2/2} on 1..9 peaks at the grid start; r/2 < 1 reads 0 below it (0.4999 off),
    # while 2 r reads past the outer end only, where the field is e^{-32}
    grid = Grid1D.from_span(GridKind.HALF_LINE, 1.0, 9.0, 257)
    src = SampledField(grid, np.exp(-(grid.points - 1.0) ** 2 / 2) + 0j, Radial(0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        apply(radial_ct(mat_scale(scale), 2, 0), src, grid)
    flagged = [str(w.message) for w in caught if issubclass(w.category, TruncationWarning)]
    assert flagged == (["field magnitude at grid edge is 1.00e+00 of peak; widen the grid"]
                       if warns else [])


def test_truncation_warnings_name_the_callers_line(tmp_path):
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 128)
    edgy = SampledField(grid, np.exp(-grid.points**2 / 2) + 0j, Radial(0))
    src = sample(Gauss(1.0), Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 512), 0.0)
    out = Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 3)
    cfg = QuadratureConfig(nodes_per_panel=2)
    built = transforms.plan(hankel(0), grid, grid, CFG16)
    write_field(edgy, tmp_path / "edgy.csv")
    calls = {
        "apply edge": lambda: apply(hankel(0), edgy, grid, CFG16),
        "plan apply edge": lambda: built(edgy),
        "apply panel cap": lambda: apply(frft(0.05), src, out, cfg),
        "plan build panel cap": lambda: transforms.plan(frft(0.05), src.grid, out, cfg),
        "cli edge": lambda: main(["transform", "--name", "hankel", "--in", str(tmp_path / "edgy.csv"),
                                  "--out", str(tmp_path / "out.csv"), "--nodes", "16"]),
    }
    for name, call in calls.items():
        with pytest.warns(TruncationWarning) as record:
            call()
        assert [w.filename for w in record] == [__file__], name


def test_oversized_kernel_is_refused_before_it_is_allocated(tmp_path, capsys):
    # alpha = 0.01 asks for 5940 panels: 3000 capped panels x 16 nodes x 2001 outputs,
    # a 1.5 GB complex kernel
    src = sample(Gauss(1.0), Grid1D.from_span(GridKind.FULL_LINE, -20.0, 20.0, 2001), 0.0)
    cfg = QuadratureConfig(nodes_per_panel=16)
    tracemalloc.start()
    try:
        with pytest.warns(TruncationWarning), pytest.raises(ValueError) as err:
            apply(frft(0.01), src, src.grid, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "2001 x 48000 kernel needs 1536768000 bytes" in str(err.value)
    assert isinstance(err.value, CanonicaError)  # flagged, as every refusal of a plan
    assert peak < 8 * 2**20
    write_field(src, tmp_path / "src.csv")
    with pytest.warns(TruncationWarning):
        code = main(["transform", "--name", "frft", "--alpha", "0.01", "--in",
                     str(tmp_path / "src.csv"), "--out", str(tmp_path / "out.csv"),
                     "--nodes", "16"])
    err = capsys.readouterr().err
    assert code == 2 and "2001 x 48000 kernel needs 1536768000 bytes" in err
    assert "Traceback" not in err and not (tmp_path / "out.csv").exists()


def test_bessel_argument_beyond_the_guard_is_refused_before_it_is_allocated(tmp_path, capsys):
    # alpha = 1e-3: |B| = 1.57e-3, so J_1(r y/|B|) reaches 6 * 14 / |B| = 53476, above its
    # guard of 2e4, on the radial grids of the numeric Appell maps
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, 1024)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 6.0, 256)
    src = sample(StdLG(1, 1), grid, 0.0)
    message = "reaches 53476.1, above the guard 20000 of J_1; |B| = 0.00157 is too small"
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            with pytest.raises(CanonicaError, match=re.escape(message)) as err:
                apply(fr_hankel(1, 1e-3), src, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 and isinstance(err.value, ValueError)
    write_field(src, tmp_path / "src.csv")
    code = main(["transform", "--name", "fr-hankel", "--m", "1", "--alpha", "1e-3",
                 "--out-grid=0:6:256", "--in", str(tmp_path / "src.csv"),
                 "--out", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 2 and message in err
    assert "Traceback" not in err and not (tmp_path / "out.csv").exists()


_REAL_AD = SympMat2(1.3, 0.8, (1.3 * 0.5 - 1.0) / 0.8, 0.5)  # real, with A, D != 0

# Bessel-J kernels: kernel record, matrix, order nu, weight powers (cross, row, col) of r y,
# r and y, matching factor and field geometry, read off the radial kernel table of the README
BESSEL_J_KERNELS = {
    "fr_hankel-B>0": (fr_hankel(0, 0.6), mat_fourier(0.6), 0.0, (0.0, 0.0, 1.0),
                      cmath.exp(0.5j * math.pi * 0.6), Radial(0)),
    "fr_hankel-B<0": (fr_hankel(1, -0.6), mat_fourier(-0.6), 1.0, (0.0, 0.0, 1.0),
                      cmath.exp(0.5j * math.pi * 2 * -0.6), Radial(1)),
    "radial_ct": (radial_ct(_REAL_AD, 3.0, 0), _REAL_AD, 0.5, (-0.5, 0.0, 2.0), 1.0,
                  RadialDim(3.0, 0)),
    "radial_propagate": (radial_ct(mat_free(0.7), 2.0, 0), mat_free(0.7), 0.0,
                         (0.0, 0.0, 1.0), 1.0, RadialDim(2.0, 0)),
    "bessel_exp-i/2": (bessel_exp("i/2", 0.5, -1.5), mat_free(1.0), 0.5,
                       (1.5, -2.0, 0.0), 1.0, RadialType(0.5, -1.5)),
}


@pytest.mark.parametrize("name", sorted(BESSEL_J_KERNELS))
def test_bessel_j_kernel_matches_the_dense_kernel(name, monkeypatch):
    # the plan applies e^{iAy^2/2B} and e^{iDr^2/2B} as vectors around the float64 factors
    # of J_nu (a dense kernel at a non-integer order); the reference sums the whole
    # complex kernel
    # (-i)^(nu+1)/B e^{i(Ay^2 + Dr^2)/2B} J_nu(ry/B) (ry)^cross r^row y^col
    from scipy.special import jv

    kernel, mat, nu, (cross, row, col), matching, geometry = BESSEL_J_KERNELS[name]
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 256)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 3.0, 24)  # r = 0 takes the limit row
    x = grid.points
    field = SampledField(grid, x**2 * np.exp(-x**2 / 2) * (1.0 + 0.3j * x), geometry)
    dtypes = []
    matvec = transforms._matvec
    monkeypatch.setattr(transforms, "_matvec", lambda k, v: dtypes.append(k.dtype) or matvec(k, v))
    built = transforms.plan(kernel, grid, out, CFG16)
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
    core, interp = specfun.bessel_j_outer(nu, out.points / abs(b), y)
    assert (interp is None) == (not float(nu).is_integer())
    assert dtypes == [np.float64] * (1 if interp is None else 2)
    assert built.nbytes == core.nbytes + (0 if interp is None else interp.nbytes)
    if name == "radial_propagate":
        propagated = apply(radial_propagate(0.7, 0), field, out, CFG16)
        assert propagated.values.tobytes() == got.tobytes()


@pytest.mark.parametrize("kernel", [hankel(0), hankel_type(1, 1.0, -0.6), fr_hankel(0, 0.5)],
                         ids=["Hankel(m=0)", "HankelType(kind=1, nu=1.0, nu_prime=-0.6)",
                              "FrHankel(m=0, alpha=0.5)"])
def test_bessel_j_kernel_assembly_peaks_near_twice_the_kernel(kernel):
    # 8000 samples on a 0.0025 step take 500 panels of 16 nodes, more than the kernel asks
    # for; with 1000 outputs on a 0.02 step the 61 MiB float64 kernel is held as a
    # 1000 x p core and an 8000 x p interpolation matrix (18.1 MiB at p = 264 for B = 1,
    # 24.3 MiB at p = 354 for fr_hankel), built beside the core's Bessel argument, then
    # beside a band of the interpolation matrix
    grid = Grid1D(GridKind.HALF_LINE, 0.0, 0.0025, 8000)
    out = Grid1D(GridKind.HALF_LINE, 0.0, 0.02, 1000)
    tracemalloc.start()
    try:
        built = transforms.plan(kernel, grid, out, QuadratureConfig(nodes_per_panel=16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.nbytes >= 18 * 2**20
    assert peak <= 2.25 * built.nbytes



def _lg_half_line(count):
    """LG(1, 1) sampled on `count` points of 0..14, the grid fr_hankel(1, 0.5) maps onto."""
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, count)
    return grid, sample(StdLG(1, 1), grid, 0.0)


def test_large_radial_plan_matches_a_dense_jv_kernel():
    # fr_hankel(1, 0.5) on 1024 points onto themselves, 1024 nodes: the factored plan
    # against the whole complex kernel summed from scipy's jv on the same nodes
    from scipy.special import jv

    kernel = fr_hankel(1, 0.5)
    mat, nu, (cross, row, col) = kernel.matrix, kernel.nu, kernel.weights
    grid, src = _lg_half_line(1024)
    got = transforms.plan(kernel, grid, grid)(src).values
    y, w, at_nodes = transforms._kernel_nodes(QuadratureConfig(), mat, grid, grid)
    a, b, d = mat.a.real, mat.b.real, mat.d.real
    r, ry = grid.points[:, None], grid.points[:, None] * y
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = jv(nu, ry / b) * ry**cross * r**row * y**col
    radial[0] = 0.0  # the r -> 0 power nu + cross + row = 1 is positive
    dense = np.exp(1j * (a * y**2 + d * r**2) / (2.0 * b)) * radial
    want = kernel.matching * (-1j) ** (nu + 1.0) / b * (dense @ (w * at_nodes(src)))
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_large_radial_plan_at_16384_points_holds_under_64_mib(monkeypatch):
    # the dense 16384 x 16384 kernel would be 2 GiB and refused; its factors are 49 MiB,
    # held to the ceiling before they are built, and the output is LG(1, 1) times its
    # eigenvalue -i, read at the peak
    grid, src = _lg_half_line(16384)
    built = transforms.plan(fr_hankel(1, 0.5), grid, grid)
    assert built.nbytes < 64 * 2**20
    with monkeypatch.context() as patch:
        patch.setattr(transforms, "_MAX_KERNEL_BYTES", built.nbytes - 1)
        refusal = rf"16384 x 16384 kernel's \d+-column factors needs {built.nbytes} bytes"
        with pytest.raises(KernelRefused, match=refusal):
            transforms.plan(fr_hankel(1, 0.5), grid, grid)
    got = built(src).values
    peak = int(np.argmax(np.abs(src.values)))
    eigenvalue = got[peak] / src.values[peak]
    assert abs(eigenvalue + 1j) <= 1e-12
    assert np.max(np.abs(got - eigenvalue * src.values)) <= 1e-12 * abs(src.values[peak])

def _entrywise_bessel_i(nu, u, v, power, row_log, col_log, exponent, ceiling=math.inf):
    """`specfun.bessel_i_outer` as an entry-by-entry kernel: e^{-z} I_nu(z) from
    the reference `bessel_i_scaled` times z^power e^E on the whole kernel at once,
    so E meets the overflow guard on every entry."""
    kern = np.empty((len(u), len(v)))
    exponent(slice(None), slice(None), kern)
    z = np.multiply.outer(u, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        return reference_i_scaled(nu, z) * z**power * np.exp(kern)


def _radial_heat_map(alpha, width, out_end, out_count):
    """The numeric radial-heat Appell map of tests/test_appell.py's cross-path cases
    (mu 3, evol 0.4, 16 nodes a panel): a Gaussian on 0..18 (1536 points) onto
    0..out_end, through a 256 x 1536 or 128 x 1536 Bessel-I kernel."""
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 18.0, 1536)
    src = SampledField(grid, np.exp(-grid.points**2 / (2 * width**2)) + 0j, RadialDim(3.0, 0))
    spec = appell.AppellSpec(EquationKind.RADIAL_HEAT, alpha=alpha, evol=0.4, mu=3.0)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, out_end, out_count)
    return lambda: appell.appell_numeric(src, spec, out, CFG16).values


def _bessel_exp_small_beta(beta):
    """exp(beta B^dagger) of a Gaussian at small beta onto 0..8: u = r/2 beta reaches
    4e3 (1e-3) and 4e4 (1e-4)."""
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 10.0, 500)
    src = SampledField(grid, np.exp(-grid.points**2 / 6) + 0j)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 300)
    return lambda: apply(bessel_exp(beta, 0.5, 0.25), src, out).values


@pytest.mark.parametrize("run", [_radial_heat_map(1.0, 1.0, 6.0, 256),
                                 _radial_heat_map(0.6, 0.7, 1.5, 128),
                                 _bessel_exp_small_beta(1e-3), _bessel_exp_small_beta(1e-4)],
                         ids=["radial-heat-alpha-1", "radial-heat-alpha-0.6",
                              "bessel-exp-1e-3", "bessel-exp-1e-4"])
def test_bessel_i_plan_matches_the_entrywise_kernel(run, monkeypatch):
    # the two expansions as matrix products, band by band, against the same plan with
    # its kernel assembled entry by entry from the reference bessel_i_scaled
    got = run()
    monkeypatch.setattr(specfun, "bessel_i_outer", _entrywise_bessel_i)
    want = run()
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_bessel_i_plan_builds_in_bands_beside_the_kernel(monkeypatch):
    # the 256 x 1536 kernel of the alpha = 1 radial-heat map (3 MiB) is built band by
    # band: its temporaries stay within three band-sized arrays
    plans, plan = [], transforms.plan
    monkeypatch.setattr(transforms, "plan", lambda *a: plans.append(a) or plan(*a))
    _radial_heat_map(1.0, 1.0, 6.0, 256)()
    plan(*plans[0])
    tracemalloc.start()
    try:
        built = plan(*plans[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.nbytes == 256 * 1536 * 8
    assert peak <= built.nbytes + 3 * 8 * specfun._BESSEL_BAND


def _raises_divergence(kernel, in_end, out_end):
    """True when the plan of `kernel` from 128 samples on 0..in_end onto 16 points on
    0..out_end raises DivergenceRisk."""
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, in_end, 128)
    out = Grid1D.from_span(GridKind.HALF_LINE, 0.0, out_end, 16)
    try:
        transforms.plan(kernel, grid, out, CFG16)
    except DivergenceRisk:
        return True
    return False


@pytest.mark.parametrize("out_end", [0.4, 3.0], ids=["series-block-only", "both-blocks"])
def test_bessel_i_overflow_guard_raises_where_every_entry_would(out_end, monkeypatch):
    # fr_radial_laplace(0.3) grows like e^{0.98 (y^2 + r^2) + 2.2 r y}.  Its series block
    # skips the exponent where the block's row and column terms plus the split bound it
    # below the guard; the verdict is held to that of the guard on every entry (ceiling
    # -inf), at source ends bisected onto the guard's threshold and drawn either side of it
    kernel = fr_radial_laplace(0.3, 0.5, -1.5)
    outer = specfun.bessel_i_outer

    def every_entry(end):
        with monkeypatch.context() as patch:
            patch.setattr(specfun, "bessel_i_outer", lambda *args: outer(*args[:7], -math.inf))
            return _raises_divergence(kernel, end, out_end)

    lo, hi = 5.0, 40.0
    assert not every_entry(lo) and every_entry(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if every_entry(mid) else (mid, hi)
    steps = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1)
    ends = [hi * (1.0 + step) for step in steps] + [lo * (1.0 - step) for step in steps]
    verdicts = [every_entry(end) for end in ends]
    assert verdicts == [True] * len(steps) + [False] * len(steps)
    assert [_raises_divergence(kernel, end, out_end) for end in ends] == verdicts
