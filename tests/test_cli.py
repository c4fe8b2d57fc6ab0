import json
import math
import subprocess
import sys

import numpy as np
import pytest

from canonica import cli, specfun, transforms
from canonica.appell import AppellSpec, appell_analytic
from canonica.cli import main
from canonica.common import Direction, EquationKind as EK
from canonica.fields import (
    FAMILIES, Gauss, Grid1D, GridKind, RadialHeatPoly, SampledField, read_field, sample,
    write_field,
)
from canonica.symplectic import mat_fourier, mat_free


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


@pytest.mark.parametrize("tokens", [("free:inf", "lens:1"), ("poisson:nan",),
                                    ('{"a": [1, 0], "b": [Infinity, 0], "c": [0, 0], "d": [1, 0]}',)])
def test_matrix_non_finite_is_numeric_failure(capsys, tokens):
    # a non-finite matrix used to print NaN/Infinity (not JSON) and exit 0
    assert run_cli("matrix", "compose", *tokens) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numeric failure" in captured.err


@pytest.mark.parametrize("token", ["free:abc", "appell-heat:1,x", "scale:1,,2"])
def test_matrix_non_numeric_parameter_is_a_usage_error(capsys, token):
    # a typo in a token is the caller's error (exit 1), not a numeric failure (exit 2)
    assert run_cli("matrix", "compose", token) == 1
    assert capsys.readouterr().err == f"canonica: matrix {token!r} needs numeric parameters\n"


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
    ana = appell_analytic(Gauss(1.0), AppellSpec(EK.PWE, evol=0.7))
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


def test_propagate_radial_heat_uses_the_given_mu(tmp_path):
    grid = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 8.0, 128)
    src, out = tmp_path / "src.csv", tmp_path / "out.csv"
    write_field(SampledField(grid, np.exp(-grid.points**2) + 0j), src)
    args = ("propagate", "--eq", "radial-heat", "--evol", "0.3", "--in", str(src),
            "--out", str(out))
    assert run_cli(*args, "--mu", "0") == 2  # mu must exceed 1, as for --mu 0.5
    assert run_cli(*args, "--mu", "0.5") == 2
    assert run_cli(*args) == 0  # mu defaults to 2
    ref = transforms.radial_heat_propagate(read_field(src), 0.3, 2.0, grid)
    assert np.array_equal(read_field(out).values, ref.values)


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


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal is slow to import, and the chirp-FFT path needs only scipy.fft
    code = "import sys, canonica; print('scipy.signal' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_import_leaves_scipy_interpolate_unloaded():
    # scipy.interpolate is slow to import, and only the spline paths need it
    code = "import sys, canonica; print('scipy.interpolate' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


_HEADER = {"kind": "full-line", "start": 0.0, "step": 0.5, "count": 3,
           "geometry": {"type": "linear"}, "evol": 0.0}


@pytest.mark.parametrize("header, key", [
    *(({k: v for k, v in _HEADER.items() if k != key}, key) for key in _HEADER),
    ({**_HEADER, "count": 2.5}, "count"),
], ids=[*(f"no-{key}" for key in _HEADER), "float-count"])
def test_malformed_header_exits_with_one_line(tmp_path, capsys, header, key):
    src = tmp_path / "bad.csv"
    src.write_text("# canonica-field v1 " + json.dumps(header) + "\n"
                   "0.0,1.0,0.0\n0.5,1.0,0.0\n1.0,1.0,0.0\n")
    code = run_cli("propagate", "--eq", "pwe", "--evol", "0.5",
                   "--in", str(src), "--out", str(tmp_path / "out.csv"))
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.csv: header" in err and repr(key) in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_missing_input_file_is_reported_as_a_file_problem(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code = run_cli("propagate", "--eq", "pwe", "--evol", "0.5",
                   "--in", str(missing), "--out", str(tmp_path / "out.csv"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"canonica: cannot read/write {missing}: ")
    assert "numeric failure" not in err and err.count("\n") == 1


@pytest.mark.parametrize("where", ["header", "body"])
def test_undecodable_bytes_are_reported_as_a_bad_field_file(tmp_path, capsys, where):
    src = tmp_path / "bad.csv"
    header = ("# canonica-field v1 " + json.dumps(_HEADER) + "\n").encode()
    rows = b"0.0,1.0,0.0\n0.5,1.0,0.0\n1.0,1.0,0.0\n"
    src.write_bytes(b"\xff" + header + rows if where == "header"
                    else header + rows.replace(b"0.5,", b"\xff\xfe,"))
    code = run_cli("propagate", "--eq", "pwe", "--evol", "0.5",
                   "--in", str(src), "--out", str(tmp_path / "out.csv"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"canonica: bad field file: {src}: not a text file: ")
    assert err.count("\n") == 1


def test_header_without_count_is_reported_as_a_bad_field_file(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    header = {k: v for k, v in _HEADER.items() if k != "count"}
    src.write_text("# canonica-field v1 " + json.dumps(header) + "\n0.0,1.0,0.0\n")
    code = run_cli("transform", "--name", "frft", "--alpha", "0.5",
                   "--in", str(src), "--out", str(tmp_path / "out.csv"))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"canonica: bad field file: {src}: header has no 'count'\n"


# every family parameter: its flag, the flag's text and the constructor keyword it gives
FAMILY_FLAGS = {"lam": ("--lambda", "1.5", 1.5), "n": ("--n", "2", 2), "m": ("--m", "1", 1),
                "mu": ("--mu", "3", 3.0), "width": ("--width", "0.8", 0.8),
                "center": ("--center", "0.1", 0.1), "equation": ("--eq", "heat", EK.HEAT)}
FAMILY_PARAMS = {
    "plane-chirp": ["lam"], "point-source": ["lam"], "airy-km": ["lam"], "airy-bb": ["lam"],
    "bessel": ["lam", "m"], "bessel-gauss": ["lam", "m"], "std-hg": ["n"], "std-lg": ["n", "m"],
    "heat-poly": ["n"], "heat-assoc": ["n"], "fund-heat": [], "radial-heat-poly": ["n", "mu"],
    "radial-heat-appell": ["n", "mu"], "fund-radial-heat": ["mu"],
    "gauss": ["width", "center", "equation"],
}
REQUIRED = ("lam", "n")  # the family parameters with neither a CLI nor a constructor default


def _sample_family(tmp_path, monkeypatch, name, params):
    """Exit code of `canonica sample` for family `name` with the flags of `params`,
    and the family it built."""
    built = []
    monkeypatch.setattr(cli, "sample", lambda field, grid, evol: built.append(field) or
                        SampledField(grid, np.zeros(grid.count, complex)))
    flags = [t for p in params for t in FAMILY_FLAGS[p][:2]]
    code = run_cli("sample", "--family", name, *flags, "--grid", "0:2:8",
                   "--out", str(tmp_path / "f.csv"))
    return code, (built[0] if built else None)


def _public(obj):
    return type(obj), {k: v for k, v in vars(obj).items() if not k.startswith("_")}


@pytest.mark.parametrize("name", FAMILIES)
def test_family_from_flags_is_the_constructor_call(tmp_path, monkeypatch, name):
    params = FAMILY_PARAMS[name]
    code, family = _sample_family(tmp_path, monkeypatch, name, params)
    assert code == 0
    assert _public(family) == _public(FAMILIES[name](**{p: FAMILY_FLAGS[p][2] for p in params}))
    # with the required flags alone, m and mu take the CLI defaults 0 and 2
    required = [p for p in params if p in REQUIRED]
    code, family = _sample_family(tmp_path, monkeypatch, name, required)
    assert code == 0
    defaults = {p: {"m": 0, "mu": 2.0}[p] for p in params if p in ("m", "mu")}
    kwargs = {p: FAMILY_FLAGS[p][2] for p in required}
    assert _public(family) == _public(FAMILIES[name](**kwargs, **defaults))


@pytest.mark.parametrize("name, missing", [
    (name, p) for name, params in FAMILY_PARAMS.items() for p in params if p in REQUIRED])
def test_family_missing_a_required_flag_names_it(tmp_path, monkeypatch, capsys, name, missing):
    params = [p for p in FAMILY_PARAMS[name] if p != missing]
    code, _ = _sample_family(tmp_path, monkeypatch, name, params)
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"canonica: family {name} needs {FAMILY_FLAGS[missing][0]}\n"


@pytest.mark.parametrize("command, spec, named", [
    ("transform", '{"name": "frft", "alpha": 0.5', "--spec-json is not JSON"),
    ("transform", "[1]", "--spec-json must be a JSON object"),
    ("transform", '{"name": "frft", "alpha": 0.5, "beta": 1}', "takes alpha, not beta"),
    ("appell", '{"equation": "pwe", "zeta": 1}', "takes equation, alpha, evol, direction, m, mu"),
    ("appell", '{"equation": "wave"}', "--spec-json key 'equation': 'wave' is not a valid"),
    ("appell", '{"equation": "pwe", "direction": "up"}', "--spec-json key 'direction'"),
    ("transform", '{"name": "frft", "alpha": "x"}', "--spec-json key 'alpha': 'x' is not"),
    ("transform", '{"name": "hankel", "m": 1.5}', "--spec-json key 'm': 1.5 is not"),
    ("transform", '{"name": [1]}', "unknown transform [1]"),
    ("appell", "{}", "appell needs --spec-json key 'equation'"),
    ("transform", '{"name": "linear-ct", "matrix": {"a": [1, 0], "c": [0, 0], "d": [1, 0]}}',
     "--spec-json key 'matrix': a matrix needs keys a, b, c, d"),
], ids=["not-json", "list", "unknown-key", "appell-unknown-key", "unknown-equation",
        "unknown-direction", "alpha-string", "m-fraction", "name-list", "appell-empty",
        "matrix-without-b"])
def test_malformed_spec_json_is_a_one_line_usage_error(tmp_path, capsys, command, spec, named):
    src = tmp_path / "src.csv"
    assert run_cli("sample", "--family", "gauss", "--grid", "-6:6:64", "--out", str(src)) == 0
    capsys.readouterr()
    code = run_cli(command, "--spec-json", spec, "--in", str(src), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 1
    assert named in err and "Traceback" not in err and err.count("\n") == 1, err


def test_matrix_flag_is_checked_like_the_spec_json_key(tmp_path, capsys):
    src = tmp_path / "src.csv"
    assert run_cli("sample", "--family", "gauss", "--grid", "-6:6:64", "--out", str(src)) == 0
    args = ("transform", "--name", "linear-ct", "--in", str(src), "--out", str(tmp_path / "o"))
    capsys.readouterr()
    assert run_cli(*args, "--matrix", '{"a": [1, 0]}') == 1
    assert "--matrix: a matrix needs keys a, b, c, d" in capsys.readouterr().err
    assert run_cli(*args) == 1
    assert capsys.readouterr().err == "canonica: transform linear-ct needs --matrix\n"
    # a well-formed matrix that is not unimodular stays a numeric failure
    assert run_cli(*args, "--matrix", '{"a": [1, 0], "b": [1, 0], "c": [1, 0], "d": [1, 0]}') == 2
    assert "numeric failure: matrix is not unimodular" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [
    ("--nodes", "nodes_per_panel must be at least 2"),
    ("--apodize", "apodization width must be positive"),
])
def test_zero_quadrature_values_reach_the_validation(tmp_path, capsys, flag, message):
    # a truthiness test used to drop these zeros and run with the default
    src = tmp_path / "src.csv"
    assert run_cli("sample", "--family", "gauss", "--grid", "-6:6:64", "--out", str(src)) == 0
    capsys.readouterr()
    code = run_cli("transform", "--name", "frft", "--in", str(src), "--out", str(tmp_path / "o"),
                   flag, "0")
    assert code == 2
    assert capsys.readouterr().err == f"canonica: numeric failure: {message}\n"


def test_scheme_and_panels_flags_are_unknown(tmp_path, capsys):
    src = tmp_path / "src.csv"
    assert run_cli("sample", "--family", "std-hg", "--n", "0", "--grid", "-8:8:128",
                   "--out", str(src)) == 0
    capsys.readouterr()
    for flag in (("--scheme", "gauss-legendre"), ("--panels", "8")):
        code = run_cli("transform", "--name", "frft", "--alpha", "0.1", "--in", str(src),
                       "--out", str(tmp_path / "o"), *flag)
        err = capsys.readouterr().err
        assert code == 1 and f"error: unrecognized arguments: {' '.join(flag)}\n" in err, err
        assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_appell_spec_json_takes_direction_and_mu(tmp_path):
    out = tmp_path / "w.csv"
    spec = {"equation": "radial-heat", "alpha": 0.7, "evol": 1.3, "direction": "inverse",
            "mu": 3.5}
    assert run_cli("appell", "--spec-json", json.dumps(spec), "--family", "radial-heat-poly",
                   "--n", "1", "--mu", "3.5", "--grid", "0:3:32", "--out", str(out)) == 0
    want = AppellSpec(EK.RADIAL_HEAT, alpha=0.7, evol=1.3, direction=Direction.INVERSE, mu=3.5)
    ref = sample(appell_analytic(RadialHeatPoly(1, 3.5), want), read_field(out).grid, 1.3)
    assert np.array_equal(read_field(out).values, ref.values)
