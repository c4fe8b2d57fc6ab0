import json
import math

import numpy as np
import pytest

from canonica.common import EquationKind
from canonica.fields import (
    AiryBB,
    Grid1D,
    GridKind,
    HeatAssoc,
    PlaneChirp,
    SampledField,
)
from canonica.verify import (
    APPELL_PAIRS,
    CHECKS,
    ResidualReport,
    appell_pair_check,
    commutator_check,
    commutator_order,
    disentanglement_check,
    duality_matrix_check,
    pde_residual,
    residual_convergence,
    run_suite,
)

EK = EquationKind


def test_residual_report_serialization():
    rep = ResidualReport(1e-3, 5e-4, 0.01, 0.01, 1.95)
    out = rep.to_json()
    assert out["observed_order"] == 1.95
    assert set(out) == {"max_abs", "l2", "grid_h", "evol_h", "observed_order"}


def test_plane_chirp_residual_order_two():
    rep = residual_convergence(EK.PWE, PlaneChirp(2.0), (-2.0, 2.0, 0.5, 1.5),
                               hs=(1e-2, 5e-3, 2.5e-3))
    assert rep.observed_order == pytest.approx(2.0, abs=0.2)
    assert rep.max_abs < 1e-3


def test_airy_bb_residual_order():
    rep = residual_convergence(EK.PWE, AiryBB(1.0), (-2.0, 2.0, 0.5, 1.5))
    assert rep.observed_order >= 1.8


def test_heat_assoc_residual_order():
    rep = residual_convergence(EK.HEAT, HeatAssoc(1), (-2.0, 2.0, 0.5, 1.5))
    assert rep.observed_order >= 1.8


def test_radial_residual_window_guard():
    with pytest.raises(ValueError):
        pde_residual(EK.RADIAL_PWE, PlaneChirp(1.0), (0.001, 2.0, 0.5, 1.5), h=0.01)


def test_residual_needs_three_resolutions():
    with pytest.raises(ValueError):
        residual_convergence(EK.PWE, PlaneChirp(1.0), (-1, 1, 0.5, 1.0), hs=(1e-2, 5e-3))


def _gauss_field(h):
    count = 2 * int(round(8.0 / h)) + 1
    grid = Grid1D(GridKind.FULL_LINE, -8.0, h, count)
    return SampledField(grid, np.exp(-grid.points**2 / 2).astype(complex))


def test_commutator_x_p_order_two():
    dev, order = commutator_order("x_p", _gauss_field, (0.02, 0.01, 0.005))
    assert order == pytest.approx(2.0, abs=0.2)
    assert dev < 1e-3


def test_commutator_kp_km():
    f = _gauss_field(0.01)
    dev = commutator_check("kp_km", f, 0.01)
    assert dev < 1e-3
    with pytest.raises(ValueError):
        commutator_check("kp_km", f, 0.02)
    with pytest.raises(ValueError):
        commutator_check("nonsense", f, 0.01)


def test_commutator_type1_uses_params():
    h = 0.01
    count = int(round(12.0 / h)) + 1
    grid = Grid1D(GridKind.HALF_LINE, 0.0, h, count)
    r = grid.points
    f = SampledField(grid, (r * np.exp(-r**2 / 2)).astype(complex))
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = commutator_check("type1_kp_km", f, h, nu=1.0, nu_prime=-1.0, min_coord=0.5)
    assert dev < 5e-3


@pytest.mark.parametrize("pair", APPELL_PAIRS)
def test_appell_pairs(pair):
    kind = GridKind.HALF_LINE if pair in ("bessel-bg", "radial-rr") else GridKind.FULL_LINE
    grid = Grid1D.from_span(kind, 0.0 if kind == GridKind.HALF_LINE else -4.0,
                            5.0 if kind == GridKind.HALF_LINE else 4.0, 128)
    dev = appell_pair_check(pair, 0.7, grid)
    assert dev < 1e-9
    with pytest.raises(ValueError):
        appell_pair_check("no-such-pair", 0.7, grid)


def test_duality_matrix_check():
    devs = duality_matrix_check()
    assert devs["max"] <= 1e-12


def test_disentanglement():
    devs = disentanglement_check(0.0)
    assert devs["max"] <= 1e-15  # all factors are the identity
    # beta = pi/2 reproduces the single-lens / two-lens factorizations of
    # the quarter-turn rotation
    devs = disentanglement_check(math.pi / 2)
    assert devs["max"] <= 1e-12
    devs = disentanglement_check(1.2)
    assert devs["max"] <= 1e-12
    devs = disentanglement_check(-1.2)
    assert devs["max"] <= 1e-12
    with pytest.raises(ValueError):
        disentanglement_check(3.5)


def test_run_suite_subset_and_schema():
    report = run_suite(["m1-laplace-similarity", "g9-generating-function"])
    assert report["schema"] == "canonica-report/1"
    assert len(report["checks"]) == 2
    assert report["all_pass"]
    for row in report["checks"]:
        assert {"check_id", "criterion", "max_abs", "tolerance", "pass"} <= set(row)
    with pytest.raises(ValueError):
        run_suite(["no-such-check"])


def test_run_suite_by_criterion_number():
    report = run_suite(["1"])
    ids = {c["check_id"] for c in report["checks"]}
    assert ids == {c[0] for c in CHECKS if c[1] == 1}
    assert report["all_pass"]


def test_suite_is_deterministic_in_process():
    a = json.dumps(run_suite(["m1-det-random", "m1-appell-closed-form"]), sort_keys=True)
    b = json.dumps(run_suite(["m1-det-random", "m1-appell-closed-form"]), sort_keys=True)
    assert a == b


def test_check_registry_covers_every_criterion():
    crits = {c[1] for c in CHECKS}
    assert crits == set(range(1, 11))


@pytest.mark.parametrize("check, kernels", [("t7-parseval", 2), ("t7-hankel-selfrec", 4),
                                            ("t7-hankel-type-selfrec", 2),
                                            ("o8-eveq-identities", 6)])
def test_checks_build_each_distinct_kernel_once(monkeypatch, check, kernels):
    # each check applies one Bessel kernel per (order, kind, grid) to all its fields
    from canonica import specfun

    orders = []
    bessel_j = specfun.bessel_j
    monkeypatch.setattr(specfun, "bessel_j", lambda nu, x: orders.append(nu) or bessel_j(nu, x))
    assert run_suite([check])["all_pass"]
    assert len(orders) == kernels
