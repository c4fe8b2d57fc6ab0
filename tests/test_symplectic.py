import cmath
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from canonica.cli import _matrix
from canonica.common import EquationKind, ImagingSingular, LaplaceSingular
from canonica.symplectic import (
    IDENTITY,
    SympMat2,
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
    metaplectic_phase,
    reduce_order,
    wei_norman_lform,
    wei_norman_real,
)


def mats_close(m1, m2, tol=1e-12):
    return m1.approx_eq(m2, tol)


def test_unimodularity_enforced():
    with pytest.raises(ValueError):
        SympMat2(1.0, 1.0, 1.0, 1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: SympMat2(NAN, 0.0, 0.0, 1.0),
    lambda: SympMat2(1.0, INF, 0.0, 1.0),
    lambda: SympMat2(1.0, 0.0, complex(0.0, -INF), 1.0),
    lambda: mat_free(INF),
    lambda: mat_lens(-INF),
    lambda: mat_poisson(NAN),
    lambda: mat_gauss_aperture(INF),
    lambda: mat_scale(complex(1.0, NAN)),
    lambda: _matrix('{"a": [1, 0], "b": [NaN, 0], "c": [0, 0], "d": [1, 0]}'),
])
def test_non_finite_matrix_rejected(make):
    # a NaN or infinite entry makes det NaN, which must fail the det = 1 test
    with pytest.raises(ValueError, match="not unimodular"):
        make()


def test_matrix_is_an_immutable_value():
    m = mat_free(0.5)
    with pytest.raises(AttributeError):
        m.a = 2.0
    with pytest.raises(AttributeError):
        m.extra = 1.0
    with pytest.raises(ValueError):
        m._replace(b=5.0, c=1.0)  # det = -4: no way round the constructor's test
    assert m._replace(b=2.0) == mat_free(2.0)
    assert m == SympMat2(1, 0.5, 0, 1) and m != mat_free(0.6)
    assert hash(m) == hash((m.a, m.b, m.c, m.d)) == hash(SympMat2(1, 0.5, 0, 1))
    # a named 4-tuple: tuple semantics, which callers may rely on
    assert m == (1, 0.5, 0, 1) and tuple(m) == (m.a, m.b, m.c, m.d) and len(m) == 4
    assert type(m + m) is tuple and type(m * 2) is tuple
    assert repr(m) == "SympMat2(a=(1+0j), b=(0.5+0j), c=0j, d=(1+0j))"
    assert pickle.loads(pickle.dumps(m)) == m
    n = SympMat2(np.float64(2.0), 1, 3, np.int64(2))
    assert all(type(z) is complex for z in (n.a, n.b, n.c, n.d))


def test_compose_examples():
    assert mats_close(compose(IDENTITY, IDENTITY), IDENTITY)
    # free(1) * F * free(-1) == [[-1, 2], [-1, 1]]
    m = compose(mat_free(1.0), mat_fourier(1.0), mat_free(-1.0))
    assert mats_close(m, SympMat2(-1.0, 2.0, -1.0, 1.0))
    # direct 2x2 multiplication oracle
    t1f = compose(mat_free(1.0), mat_fourier(1.0))
    a = np.array([[t1f.a, t1f.b], [t1f.c, t1f.d]])
    b = np.array([[1.0, -1.0], [0.0, 1.0]])
    ref = a @ b
    assert mats_close(compose(t1f, mat_free(-1.0)),
                      SympMat2(ref[0, 0], ref[0, 1], ref[1, 0], ref[1, 1]))


@pytest.mark.parametrize("zeta", [-2.0, -0.3, 0.7, 1.0, 3.1])
def test_appell_matrix_closed_form(zeta):
    m = mat_appell(EquationKind.PWE, 1.0, zeta)
    assert mats_close(m, SympMat2(-zeta, 1.0 + zeta**2, -1.0, zeta), 1e-14)


def test_appell_matrix_heat_closed_form():
    t = 1.0
    m = mat_appell(EquationKind.HEAT, 1.0, t)
    assert mats_close(m, SympMat2(t, 1j * (1 + t**2), 1j, -t), 1e-14)


def test_appell_matrix_alpha_zero_is_identity():
    assert mats_close(mat_appell(EquationKind.PWE, 0.0, 1.7), IDENTITY, 1e-14)
    assert mats_close(mat_appell(EquationKind.RADIAL_HEAT, 0.0, 0.4), IDENTITY, 1e-14)


def test_appell_at_zero_evol_is_bare_transform():
    assert mats_close(mat_appell(EquationKind.PWE, 1.0, 0.0), mat_fourier(1.0), 1e-14)
    assert mats_close(mat_appell(EquationKind.HEAT, 1.0, 0.0), mat_laplace(1.0), 1e-14)


def test_inverse():
    assert mats_close(inverse(mat_fourier(1.0)), SympMat2(0.0, -1.0, 1.0, 0.0), 1e-14)
    assert mats_close(inverse(IDENTITY), IDENTITY)
    m = mat_appell(EquationKind.PWE, 1.0, 1.0)
    assert mats_close(inverse(m), SympMat2(1.0, -2.0, 1.0, -1.0), 1e-14)
    assert mats_close(compose(m, inverse(m)), IDENTITY, 1e-14)


def test_constructors():
    assert mats_close(mat_free(0.0), IDENTITY)
    assert mats_close(mat_lens(1.0), SympMat2(1.0, 0.0, -1.0, 1.0))
    assert mats_close(mat_fourier(1.0), SympMat2(0.0, 1.0, -1.0, 0.0), 1e-14)
    assert mats_close(mat_fourier(0.0), IDENTITY)
    assert mats_close(mat_laplace(1.0), SympMat2(0.0, 1j, 1j, 0.0), 1e-14)
    assert mats_close(mat_bargmann(),
                      SympMat2(2**-0.5, -1j * 2**-0.5, -1j * 2**-0.5, 2**-0.5))
    with pytest.raises(ValueError):
        mat_scale(0.0)
    with pytest.raises(ValueError):
        mat_poisson(-0.5)
    with pytest.raises(ValueError):
        mat_gauss_aperture(0.0)


def test_fourier_group_law():
    lhs = compose(mat_fourier(0.3), mat_fourier(0.4))
    assert mats_close(lhs, mat_fourier(0.7), 1e-14)
    lhs = compose(mat_laplace(0.3), mat_laplace(0.4))
    assert mats_close(lhs, mat_laplace(0.7), 1e-14)
    # periodicity mod 4
    assert mats_close(mat_fourier(1.5), mat_fourier(1.5 - 4.0), 1e-13)


# orders (a1, a2) whose matrices sit on sides (s1, s2) of B = 0 and whose product sits on s
_SIGN_PATTERNS = [
    ((0.5, 0.5), (1, 1, 1)), ((1.5, 1.5), (1, 1, -1)), ((1.5, -0.5), (1, -1, 1)),
    ((0.5, -1.5), (1, -1, -1)), ((-0.5, 1.5), (-1, 1, 1)), ((-1.5, 0.5), (-1, 1, -1)),
    ((-1.5, -1.5), (-1, -1, 1)), ((-0.5, -0.5), (-1, -1, -1)),
]


@pytest.mark.parametrize("orders, signs", _SIGN_PATTERNS)
@pytest.mark.parametrize("family", [mat_fourier, mat_laplace])
def test_metaplectic_phase_on_every_sign_pattern(family, orders, signs):
    # the side of B is read from Re B for the rotations and from Im B for the L-form family
    m1, m2 = (family(a) for a in orders)
    s1, s2, s = signs
    assert [(-1 if (m.b.real or m.b.imag) < 0 else 1) for m in (m1, m2, compose(m2, m1))] == [
        s1, s2, s]
    for p in (0.5, 1.5, 2.0, 2.7):
        # sigma = g(s1) g(s2) / (g(s) g(s1 s2 s)) with g(s) = e^{-i pi p s/2}, written out
        assert metaplectic_phase(p, m1, m2) == cmath.exp(
            -0.5j * math.pi * p * (s1 + s2 - s1 * s2 * s - s))
        g = lambda u: cmath.exp(-0.5j * math.pi * p * u)  # noqa: E731
        assert metaplectic_phase(p, m1, m2) == pytest.approx(
            g(s1) * g(s2) / (g(s) * g(s1 * s2 * s)), abs=1e-15)
    # the line (p = 1/2) flips sign where the factors sit on one side and the product on the
    # other; an integer p = m + 1 (radial wave) never does
    assert metaplectic_phase(0.5, m1, m2) == pytest.approx(-1.0 if s1 == s2 != s else 1.0)
    assert metaplectic_phase(2.0, m1, m2) == pytest.approx(1.0)


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.3])
def test_metaplectic_phase_of_a_point_map(p):
    # one matrix at B = 0: g(s)^2 for A < 0, the side s read from the residual B of
    # sin(+-pi), so alpha = 2 and alpha = -2 land on either side; 1 for A > 0
    g = lambda u: cmath.exp(-0.5j * math.pi * p * u)  # noqa: E731
    for family in (mat_fourier, mat_laplace):
        for alpha, s in ((2.0, 1), (-2.0, -1)):
            phase = metaplectic_phase(p, family(alpha))
            assert phase == cmath.exp(-1j * math.pi * p * s)
            assert phase == pytest.approx(g(s) ** 2, abs=1e-15)
        assert metaplectic_phase(p, family(0.0)) == 1.0
    assert metaplectic_phase(p, SympMat2(-1.0, 0.0, 0.0, -1.0)) == pytest.approx(g(1) ** 2)


def test_metaplectic_phase_of_a_longer_chain_multiplies_a_sigma_a_step():
    m1, m2, m3 = mat_fourier(1.2), mat_fourier(1.3), mat_fourier(1.4)
    for p in (0.5, 1.5):
        assert metaplectic_phase(p, m1, m2, m3) == pytest.approx(
            metaplectic_phase(p, m1, m2) * metaplectic_phase(p, compose(m2, m1), m3), abs=1e-15)


def test_laplace_similarity_by_scale():
    s = cmath.exp(0.25j * math.pi)
    for alpha in (1.0, 0.4, -1.2):
        lhs = compose(mat_scale(s), mat_fourier(alpha), mat_scale(1.0 / s))
        assert mats_close(lhs, mat_laplace(alpha), 1e-15)


def test_poisson_gauss_semigroups_and_duality():
    assert mats_close(compose(mat_poisson(0.4), mat_poisson(1.1)), mat_poisson(1.5), 1e-14)
    assert mats_close(compose(mat_gauss_aperture(0.4), mat_gauss_aperture(1.1)),
                      mat_gauss_aperture(1.5), 1e-14)
    f, finv = mat_fourier(1.0), inverse(mat_fourier(1.0))
    assert mats_close(compose(finv, mat_gauss_aperture(0.7), f), mat_poisson(0.7), 1e-14)
    assert mats_close(compose(finv, mat_poisson(0.7), f), mat_gauss_aperture(0.7), 1e-14)


def test_classification():
    assert mat_free(1.0).is_real()
    assert not mat_laplace(1.0).is_real()
    assert mat_laplace(0.7).is_l_form()
    assert mat_poisson(0.9).is_l_form()
    assert mat_gauss_aperture(0.9).is_l_form()
    assert not mat_fourier(0.5).is_l_form() or math.isclose(math.sin(0.25 * math.pi), 0.0)
    # L-form closure under products
    prod = compose(mat_poisson(0.5), mat_laplace(1.0), mat_gauss_aperture(0.3))
    assert prod.is_l_form()


def test_wei_norman_real():
    m = SympMat2(-2.0, 5.0, -1.0, 2.0)  # the zeta = 2 conjugated transform matrix
    f = wei_norman_real(m)
    assert abs(f.lens_power - 0.5) < 1e-14
    assert abs(f.scale + 2.0) < 1e-14
    assert abs(f.free_length + 2.5) < 1e-14
    assert f.recompose().approx_eq(m, 1e-12)
    f = wei_norman_real(IDENTITY)
    assert (f.lens_power, f.scale, f.free_length) == (0.0, 1.0, 0.0)
    with pytest.raises(ImagingSingular):
        wei_norman_real(mat_fourier(1.0))


def test_wei_norman_lform():
    m = mat_appell(EquationKind.HEAT, 1.0, 1.0)  # [[1, 2i], [i, -1]]
    f = wei_norman_lform(m)
    assert abs(f.inv_width - 1.0) < 1e-12
    assert abs(f.scale - 1.0) < 1e-12
    assert abs(f.tau + 2.0) < 1e-12
    assert f.recompose().approx_eq(m, 1e-12)
    tau = 0.8
    f = wei_norman_lform(mat_poisson(tau))
    assert (abs(f.inv_width), f.scale, f.tau) == (0.0, 1.0, tau)
    with pytest.raises(LaplaceSingular):
        wei_norman_lform(mat_laplace(1.0))
    with pytest.raises(ValueError):
        wei_norman_lform(mat_fourier(0.5))


# the matrix families, each from one real u in [-2, 2]
_FAMILIES = (
    mat_free,
    mat_lens,
    lambda u: mat_scale(complex(abs(u) + 0.2, 0.3 * u)),
    mat_fourier,
    mat_laplace,
    lambda u: mat_poisson(abs(u) + 0.1),
    lambda u: mat_gauss_aperture(abs(u) + 0.1),
)


def test_random_compositions_determinant():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10000):
        ms = [_FAMILIES[rng.integers(0, 7)](float(rng.uniform(-2, 2))) for _ in range(3)]
        worst = max(worst, abs(compose(*ms).det - 1.0))
    assert worst <= 1e-14


def test_reduce_order():
    assert reduce_order(2.0) == 2.0
    assert reduce_order(2.5) == pytest.approx(-1.5)
    assert reduce_order(-2.0) == pytest.approx(2.0)
    assert reduce_order(5.0) == pytest.approx(1.0)


def test_json_round_trip():
    m = mat_appell(EquationKind.HEAT, 0.7, 1.3)
    again = _matrix(m.to_json())
    assert mats_close(m, again, 0.0)


# ---------------------------------------------------------------------------
# property tests of the identities the matrix families obey

_ORDER = st.floats(-8.0, 8.0, allow_nan=False)
_POSITIVE = st.floats(1e-3, 10.0)
_CHAIN = st.lists(st.tuples(st.sampled_from(_FAMILIES), st.floats(-2.0, 2.0)),
                  min_size=2, max_size=4).map(lambda steps: [f(u) for f, u in steps])


@given(_CHAIN)
def test_constructor_chains_stay_unimodular(mats):
    # the rounding of det grows with the entries of |m1| |m2| ...; a few ulps of
    # its largest entry squared is far inside the constructor's UNIMODULAR_TOL
    size = np.eye(2)
    for m in mats:
        size = size @ np.abs(np.reshape(m, (2, 2)))
    assert abs(compose(*mats).det - 1.0) <= 2e-15 * size.max() ** 2


@given(_CHAIN)
def test_compose_with_inverse_is_identity(mats):
    m = compose(*mats)
    size = max(1.0, max(abs(z) for z in m) ** 2)
    assert mats_close(compose(m, inverse(m)), IDENTITY, 1e-14 * size)
    assert mats_close(compose(inverse(m), m), IDENTITY, 1e-14 * size)


@given(_ORDER, _ORDER)
def test_fractional_group_laws(a1, a2):
    assert mats_close(compose(mat_fourier(a1), mat_fourier(a2)), mat_fourier(a1 + a2), 1e-13)
    assert mats_close(compose(mat_laplace(a1), mat_laplace(a2)), mat_laplace(a1 + a2), 1e-13)


@given(_POSITIVE, _POSITIVE)
def test_poisson_and_aperture_semigroups(t1, t2):
    tol = 1e-14 * (t1 + t2)
    assert mats_close(compose(mat_poisson(t1), mat_poisson(t2)), mat_poisson(t1 + t2), tol)
    assert mats_close(compose(mat_gauss_aperture(t1), mat_gauss_aperture(t2)),
                      mat_gauss_aperture(t1 + t2), tol)


@given(_ORDER)
def test_fractional_families_are_four_periodic(alpha):
    assert mats_close(mat_fourier(alpha + 4.0), mat_fourier(alpha), 1e-13)
    assert mats_close(mat_laplace(alpha + 4.0), mat_laplace(alpha), 1e-13)
    r = reduce_order(alpha)
    assert -2.0 < r <= 2.0
    # r is alpha modulo 4, and so is the reduction of alpha + 4
    assert abs(math.remainder(r - alpha, 4.0)) <= 1e-12
    assert abs(math.remainder(reduce_order(alpha + 4.0) - r, 4.0)) <= 1e-12
    assert mats_close(mat_fourier(r), mat_fourier(alpha), 1e-13)
