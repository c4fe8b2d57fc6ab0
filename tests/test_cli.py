import json
import math
import subprocess
import sys

import numpy as np
import pytest

from canonica.cli import main
from canonica.fields import Grid1D, GridKind, SampledField, read_field, write_field
from canonica.symplectic import mat_fourier, mat_free
from canonica import specfun, transforms


def run_cli(*args):
    return main(list(args))


def test_usage_error_exit_code(capsys):
    assert run_cli("sample", "--grid", "0:1:8") == 1  # missing --out
    assert run_cli("no-such-command") == 1
    assert run_cli("sample", "--family", "nope", "--grid", "-1:1:8",
                   "--out", "/tmp/x.csv") == 1


def test_sample_std_hg(tmp_path, capsys):
    out = tmp_path / "hg.csv"
    code = run_cli("sample", "--family", "std-hg", "--n", "0",
                   "--grid", "-6:6:512", "--evol", "0", "--out", str(out))
    assert code == 0
    field = read_field(out)
    assert field.grid.count == 512
    # 512 even points straddle the origin, so the sampled peak sits half a
    # step off the exact pi^(-1/4) maximum
    peak_idx = int(np.argmax(np.abs(field.values)))
    assert abs(field.grid.points[peak_idx]) <= field.grid.step
    assert np.max(np.abs(field.values)) == pytest.approx(math.pi ** -0.25, rel=1e-4)


def test_sample_heat_poly_ones(tmp_path):
    out = tmp_path / "hp.csv"
    assert run_cli("sample", "--family", "heat-poly", "--n", "0",
                   "--grid", "-3:3:64", "--evol", "0.5", "--out", str(out)) == 0
    field = read_field(out)
    assert np.allclose(field.values, 1.0)


def test_sample_bessel(tmp_path):
    out = tmp_path / "b.csv"
    assert run_cli("sample", "--family", "bessel", "--lambda", "2", "--m", "1",
                   "--grid", "0:10:256", "--evol", "0", "--out", str(out)) == 0
    field = read_field(out)
    ref = specfun.bessel_j(1, 2.0 * field.grid.points)
    assert np.max(np.abs(field.values - ref)) < 1e-12


def test_matrix_compose_appell(capsys):
    assert run_cli("matrix", "compose", "free:1", "fourier:1", "free:-1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["a"][0] == pytest.approx(-1.0)
    assert out["b"][0] == pytest.approx(2.0)
    assert out["c"][0] == pytest.approx(-1.0)
    assert out["d"][0] == pytest.approx(1.0)


def test_matrix_invert_and_factor(capsys):
    assert run_cli("matrix", "invert", "fourier:1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["b"][0] == pytest.approx(-1.0)
    assert run_cli("matrix", "factor", "appell-heat:1,1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["form"] == "gauss-scale-shift"
    assert out["inv_width"] == pytest.approx(1.0)
    assert out["tau"] == pytest.approx(-2.0)
    assert run_cli("matrix", "factor", "appell-pwe:1,2") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["form"] == "lens-scale-free"
    assert out["lens_power"][0] == pytest.approx(0.5)
    # factoring the bare transform matrix is singular
    assert run_cli("matrix", "factor", "fourier:1") == 2


def test_appell_analytic_chirp_to_point(tmp_path):
    out = tmp_path / "w.csv"
    code = run_cli("appell", "--eq", "pwe", "--alpha", "1", "--evol", "0.7",
                   "--family", "plane-chirp", "--lambda", "2",
                   "--grid", "-4:4:128", "--out", str(out))
    assert code == 0
    field = read_field(out)
    x = field.grid.points
    ref = np.exp(0.5j * (x - 2.0) ** 2 / 0.7) / np.sqrt(2j * np.pi * 0.7)
    assert np.max(np.abs(field.values - ref)) < 1e-12
    assert field.evol == pytest.approx(0.7)


def test_appell_numeric_round_trip(tmp_path):
    src = tmp_path / "src.csv"
    out = tmp_path / "out.csv"
    assert run_cli("sample", "--family", "gauss", "--width", "1",
                   "--grid", "-20:20:2048", "--evol", "0", "--out", str(src)) == 0
    assert run_cli("appell", "--eq", "pwe", "--alpha", "1", "--evol", "0.7",
                   "--in", str(src), "--out", str(out)) == 0
    field = read_field(out)
    from canonica.appell import AppellSpec, appell_analytic
    from canonica.common import EquationKind
    from canonica.fields import Gauss

    ana = appell_analytic(Gauss(1.0), AppellSpec(EquationKind.PWE, evol=0.7))
    ref = np.asarray(ana.eval(field.grid.points, 0.7))
    mask = np.abs(field.grid.points) <= 10
    assert np.linalg.norm((field.values - ref)[mask]) / np.linalg.norm(ref[mask]) < 1e-5


def test_transform_and_propagate(tmp_path):
    src = tmp_path / "src.csv"
    mid = tmp_path / "mid.csv"
    out = tmp_path / "out.csv"
    assert run_cli("sample", "--family", "gauss", "--width", "1",
                   "--grid", "-12:12:1024", "--evol", "0", "--out", str(src)) == 0
    assert run_cli("transform", "--name", "frft", "--alpha", "0.7",
                   "--in", str(src), "--out", str(mid)) == 0
    assert run_cli("propagate", "--eq", "pwe", "--evol", "0.5",
                   "--in", str(mid), "--out", str(out)) == 0
    field = read_field(out)
    assert field.evol == pytest.approx(0.5)
    # invalid spec errors exit as usage failures
    assert run_cli("transform", "--name", "made-up", "--in", str(src),
                   "--out", str(out)) == 1


def test_transform_spec_json(tmp_path):
    src = tmp_path / "src.csv"
    out = tmp_path / "out.csv"
    assert run_cli("sample", "--family", "gauss", "--grid", "-12:12:512",
                   "--evol", "0", "--out", str(src)) == 0
    spec = json.dumps({"name": "frft", "alpha": 0.5})
    assert run_cli("transform", "--spec-json", spec, "--in", str(src),
                   "--out", str(out)) == 0


def test_verify_subset_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = run_cli("verify", "m1-laplace-similarity", "m1-det-random",
                   "--report", str(report_path))
    assert code == 0
    text = capsys.readouterr().out
    assert "m1-laplace-similarity" in text
    report = json.loads(report_path.read_text())
    assert report["schema"] == "canonica-report/1"
    assert report["all_pass"] is True


def test_verify_reports_are_byte_identical(tmp_path):
    # determinism at the file level for a representative sub-suite
    cmd = [sys.executable, "-m", "canonica.cli", "verify",
           "m1-det-random", "m1-appell-closed-form", "g9-generating-function",
           "a2-pair-chirp-point"]
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        res = subprocess.run(cmd + ["--report", str(path)], capture_output=True)
        assert res.returncode == 0, res.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_appell_spec_json_flag(tmp_path):
    out = tmp_path / "w.csv"
    spec = '{"equation": "pwe", "alpha": 1.0, "evol": 0.7}'
    assert run_cli("appell", "--spec-json", spec, "--family", "plane-chirp",
                   "--lambda", "2", "--grid", "-4:4:64", "--out", str(out)) == 0
    field = read_field(out)
    x = field.grid.points
    ref = np.exp(0.5j * (x - 2.0) ** 2 / 0.7) / np.sqrt(2j * np.pi * 0.7)
    assert np.max(np.abs(field.values - ref)) < 1e-12


def _radial_gauss_file(path):
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 14.0, 512)
    write_field(SampledField(grid, np.exp(-grid.points**2) + 0j), path)


# --spec-json keys per table name; omitted flag-backed fields take the CLI defaults
SPEC_JSON_PARAMS = {
    "linear-ct": {"matrix": json.loads(mat_free(0.4).to_json())},
    "geometric": {"matrix": json.loads(mat_fourier(0.0).to_json())},
    "fresnel-prop": {"zeta": 0.3},
    "frft": {"alpha": 0.5},
    "fr-laplace": {},
    "poisson-prop": {"t": 0.5},
    "radial-ct": {"matrix": json.loads(mat_fourier(0.5).to_json()), "n_dim": 3.0, "m": 1},
    "hankel": {"m": 2},
    "fr-hankel": {"m": 1, "alpha": 0.3},
    "hankel-type": {"kind": 2, "nu": 1.0, "nu_prime": -0.6},
    "radial-laplace": {"kind": 2},
    "fr-radial-laplace": {"alpha": 0.5, "nu": 0.5, "nu_prime": -1.5},
    "bessel-exp": {"beta": "i/2", "nu": 0.5},
    "radial-heat-prop": {"t": 0.5, "mu": 3.0},
    "barut-girardello": {"n_dim": 3.0},
}


def test_every_table_name_builds_its_spec_from_json(tmp_path, monkeypatch):
    src, out = tmp_path / "src.csv", tmp_path / "out.csv"
    _radial_gauss_file(src)
    built = []
    monkeypatch.setattr(transforms, "apply",
                        lambda spec, field, grid, cfg: built.append(spec) or field)
    defaults = {"alpha": 1.0, "m": 0, "kind": 1, "nu": 0.0, "nu_prime": 0.0, "beta": 0.5,
                "n_dim": 2.0}
    for name, (spec_cls, _) in transforms.TRANSFORMS.items():
        params = SPEC_JSON_PARAMS[name]
        spec_json = json.dumps({"name": name, **params})
        assert run_cli("transform", "--spec-json", spec_json, "--in", str(src),
                       "--out", str(out)) == 0, name
        spec = built.pop()
        assert type(spec) is spec_cls
        for key, value in vars(spec).items():
            want = params.get(key, defaults.get(key))
            if key == "matrix":
                assert json.loads(value.to_json()) == want
            else:
                assert value == want, (name, key)


def test_transform_reaches_fr_radial_laplace(tmp_path, capsys):
    src, frac, direct = (tmp_path / f"{n}.csv" for n in ("src", "frac", "direct"))
    _radial_gauss_file(src)
    common = ["--nu", "0.5", "--nu-prime", "-1.5", "--in", str(src), "--out-grid", "0:3:64",
              "--nodes", "16"]
    assert run_cli("transform", "--name", "fr-radial-laplace", "--alpha", "1", *common,
                   "--out", str(frac)) == 0
    assert run_cli("transform", "--name", "radial-laplace", "--kind", "1", *common,
                   "--out", str(direct)) == 0
    a, b = read_field(frac).values, read_field(direct).values
    assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-10
    capsys.readouterr()
    assert run_cli("transform", "--name", "made-up", "--in", str(src), "--out", str(frac)) == 1
    err = capsys.readouterr().err
    assert all(name in err for name in transforms.TRANSFORMS)
