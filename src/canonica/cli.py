"""Command-line front-end.

Subcommands: sample | transform | propagate | appell | matrix | verify.
Exit codes: 0 ok, 1 usage error, 2 numeric failure, 3 tolerance failure.
Outputs are deterministic: fixed float formatting, no timestamps.
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys

import numpy as np

from . import transforms, verify
from .appell import AppellSpec, appell_analytic, appell_numeric
from .common import (
    CanonicaError,
    Direction,
    DivergenceRisk,
    EquationKind,
    FieldFileError,
    ImagingSingular,
    IntegrabilityViolation,
    LaplaceSingular,
    SingularEvol,
)
from .fields import FAMILIES, Grid1D, GridKind, Linear, read_field, sample, write_field
from .symplectic import (
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
    wei_norman_lform,
    wei_norman_real,
)

USAGE_EXIT, NUMERIC_EXIT, TOLERANCE_EXIT = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let grid specs like -6:6:512 pass as option values
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d[\d.:eE+-]*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_grid(text: str, kind: str) -> Grid1D:
    try:
        start, end, count = text.split(":")
        return Grid1D.from_span(kind, float(start), float(end), int(count))
    except (ValueError, TypeError) as exc:
        raise CanonicaError(f"bad grid spec {text!r} (want start:end:count): {exc}") from None


# CLI values of constructor parameters that no flag or --spec-json key gave
_DEFAULTS = {"alpha": 1.0, "m": 0, "mu": 2.0, "kind": 1, "nu": 0.0, "nu_prime": 0.0,
             "beta": 0.5, "n_dim": 2.0}
# the parameters whose flag is not --<name with dashes>
_FLAGS = {"lam": "--lambda", "equation": "--eq", "nodes_per_panel": "--nodes",
          "apodization": "--apodize"}


def _json_object(value, what: str) -> dict:
    """`value`, or the JSON text it holds, as a JSON object; else a usage error."""
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise CanonicaError(f"{what} is not JSON: {exc}") from None
    if not isinstance(value, dict):
        raise CanonicaError(f"{what} must be a JSON object, not {json.dumps(value)}")
    return value


def _convert(kind, value):
    """`value` as the declared type `kind`, of a union (float | str) as the member
    it is, else the first; a usage error if it is not one."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    kind = getattr(kind, "__args__", (kind,))[0]
    if kind is SympMat2:
        return _matrix(value)
    try:
        converted = kind(value)
        if isinstance(value, bool) or kind in (int, float) and converted != value:
            raise ValueError
        return converted
    except (TypeError, ValueError, OverflowError):
        raise CanonicaError(f"{value!r} is not a valid {kind.__name__}") from None


def _matrix(value) -> SympMat2:
    """The matrix {"a": [re, im], "b": ..., "c": ..., "d": ...}, or its JSON text.  A
    malformed one is a usage error; SympMat2 rejects a non-unimodular one (numeric)."""
    obj = _json_object(value, "a matrix")
    try:
        return SympMat2(*(complex(obj[k][0], obj[k][1]) for k in "abcd"))
    except (KeyError, IndexError, TypeError) as exc:
        raise CanonicaError(f"a matrix needs keys a, b, c, d, each [re, im]: {exc!r}") from None


def _given(values, name: str):
    """The flag or --spec-json key `name`, else its CLI default; None for neither."""
    value = values.get(name) if isinstance(values, dict) else getattr(values, name, None)
    return _DEFAULTS.get(name) if value is None else value


def _label(values, name: str) -> str:
    if isinstance(values, dict) or not hasattr(values, name):
        return f"--spec-json key {name!r}"
    return _FLAGS.get(name, "--" + name.replace("_", "-"))


def _build(cls, values, what: str):
    """Construct `cls` from the flags (an argparse namespace) or a --spec-json object:
    each parameter takes the flag or key of its name, else its _DEFAULTS entry,
    else the constructor's default.  A missing or unconvertible value and an
    unknown key are usage errors; the constructor's ValueErrors numeric failures."""
    params = inspect.signature(cls, eval_str=True).parameters
    unknown = values.keys() - params.keys() if isinstance(values, dict) else ()
    if unknown:
        raise CanonicaError(f"{what} takes {', '.join(params)}, not {', '.join(sorted(unknown))}")
    kwargs = {}
    for name, param in params.items():
        value = _given(values, name)
        if value is None:
            if param.default is param.empty:
                raise CanonicaError(f"{what} needs {_label(values, name)}")
            continue
        try:
            kwargs[name] = _convert(param.annotation, value)
        except CanonicaError as exc:
            raise CanonicaError(f"{what}: {_label(values, name)}: {exc}") from None
    return cls(**kwargs)


def _lookup(table: dict, name, what: str):
    if not isinstance(name, str) or name not in table:
        raise CanonicaError(f"unknown {what} {name!r}; choose from {', '.join(table)}")
    return table[name]


def _family(args):
    return _build(_lookup(FAMILIES, args.family, "family"), args, f"family {args.family}")


def _write(field, path) -> int:
    write_field(field, path)
    print(f"wrote {field.grid.count} samples to {path}")
    return 0


def _write_sampled(field, args, evol: float) -> int:
    """Write the analytic `field` at `evol` on --grid, a half-line grid if it is radial."""
    kind = GridKind.FULL_LINE if isinstance(field.geometry, Linear) else GridKind.HALF_LINE
    return _write(sample(field, _parse_grid(args.grid, kind), evol), args.out)


def _map_file(args, run) -> int:
    """Write run(field, --out-grid or the field's grid, quadrature config) of --in to --out."""
    cfg = _build(transforms.QuadratureConfig, args, "quadrature")
    field = read_field(args.infile)
    out_grid = _parse_grid(args.out_grid, field.grid.kind) if args.out_grid else field.grid
    return _write(run(field, out_grid, cfg), args.out)


def cmd_sample(args) -> int:
    return _write_sampled(_family(args), args, args.evol)


def cmd_transform(args) -> int:
    values = _json_object(args.spec_json, "--spec-json") if args.spec_json else args
    name = values.pop("name", None) if args.spec_json else args.name
    spec = _build(_lookup(transforms.TRANSFORMS, name, "transform")[0], values, f"transform {name}")
    return _map_file(args, lambda field, grid, cfg: transforms.apply(spec, field, grid, cfg))


# equation -> propagate(field, evol, m, mu, grid, cfg), which looks its engine up per call
_PROPAGATORS = {
    EquationKind.PWE: lambda f, e, m, mu, g, c: transforms.fresnel_propagate(f, e, g, c),
    EquationKind.HEAT: lambda f, e, m, mu, g, c: transforms.poisson_propagate(f, e, g, c),
    EquationKind.RADIAL_PWE: lambda f, e, m, mu, g, c: transforms.radial_propagate(f, e, m, g, c),
    EquationKind.RADIAL_HEAT: lambda f, e, m, mu, g, c: transforms.radial_heat_propagate(
        f, e, mu, g, c),
}


def cmd_propagate(args) -> int:
    propagate = _PROPAGATORS[EquationKind(args.equation)]
    m, mu = _given(args, "m"), _given(args, "mu")
    return _map_file(args, lambda field, grid, cfg: propagate(field, args.evol, m, mu, grid, cfg))


def cmd_appell(args) -> int:
    spec = _build(AppellSpec, _json_object(args.spec_json, "--spec-json")
                  if args.spec_json else args, "appell")
    if args.infile:
        return _map_file(args, lambda field, grid, cfg: appell_numeric(field, spec, grid, cfg))
    if not (args.family and args.grid):
        raise CanonicaError("appell needs --in FILE, or --family NAME and --grid start:end:count")
    args.equation = args.equation or spec.equation  # a gauss family solves the map's equation
    return _write_sampled(appell_analytic(_family(args), spec), args, spec.evol)


# constructor token name -> matrix from the token's numeric parameters
_MATRICES = {
    "free": mat_free, "lens": mat_lens, "poisson": mat_poisson,
    "gauss-aperture": mat_gauss_aperture, "bargmann": lambda *_: mat_bargmann(),
    "scale": lambda *v: mat_scale(complex(v[0], v[1] if len(v) > 1 else 0.0)),
    "fourier": lambda *v: mat_fourier(*(v or [1.0])),
    "laplace": lambda *v: mat_laplace(*(v or [1.0])),
}


def _parse_matrix(token: str) -> SympMat2:
    if token.startswith("{"):
        return _matrix(token)
    name, _, params = token.partition(":")
    try:
        vals = [float(p) for p in params.split(",")] if params else []
    except ValueError:
        raise CanonicaError(f"matrix {token!r} needs numeric parameters") from None
    try:
        if name in _MATRICES:
            return _MATRICES[name](*vals)
        if name.startswith("appell-"):
            eq = EquationKind(name.removeprefix("appell-"))
            return mat_appell(eq, vals[0], vals[1])
    except (TypeError, IndexError) as exc:
        raise CanonicaError(f"bad parameters for matrix {name!r}: {exc}") from None
    raise CanonicaError(f"unknown matrix constructor {token!r}")


def cmd_matrix(args) -> int:
    mats = [_parse_matrix(tok) for tok in args.matrices]
    if args.op == "compose":
        print((mats[0] if len(mats) == 1 else compose(*mats)).to_json())
    elif len(mats) != 1:
        raise CanonicaError(f"{args.op} takes exactly one matrix")
    elif args.op == "invert":
        print(inverse(mats[0]).to_json())
    elif mats[0].is_l_form() and not mats[0].is_real():  # factor
        f = wei_norman_lform(mats[0])
        print(json.dumps({"form": "gauss-scale-shift", "inv_width": f.inv_width,
                          "scale": f.scale, "tau": f.tau}, sort_keys=True))
    else:
        f = wei_norman_real(mats[0])
        print(json.dumps({"form": "lens-scale-free", **{
            k: [getattr(f, k).real, getattr(f, k).imag]
            for k in ("lens_power", "scale", "free_length")}}, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    names = None if not args.suite or "all" in args.suite else args.suite
    report = verify.run_suite(names)
    text = json.dumps(report, sort_keys=True, indent=1)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    for check in report["checks"]:
        status = "pass" if check["pass"] else "FAIL"
        extra = f" order={check['observed_order']:.3f}" if "observed_order" in check else ""
        print(f"{check['check_id']:<32s} {status}  max_abs={check['max_abs']:.3e}"
              f" tol={check['tolerance']:.1e}{extra}")
    print(f"{report['num_pass']} passed, {report['num_fail']} failed")
    return 0 if report["all_pass"] else TOLERANCE_EXIT


def build_parser() -> _Parser:
    parser = _Parser(prog="canonica", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_files(p, **infile):  # the flags of the read -> out-grid -> write step
        p.add_argument("--in", dest="infile", **infile)
        p.add_argument("--out-grid")
        p.add_argument("--out", required=True)
        p.add_argument("--nodes", dest="nodes_per_panel", type=int)
        p.add_argument("--apodize", dest="apodization", type=float,
                       help="gaussian apodization width")

    def add_family(p):
        p.add_argument("--family")
        p.add_argument("--eq", dest="equation", choices=[e.value for e in EquationKind])
        p.add_argument("--lambda", dest="lam", type=float)
        for flag, kind in (("--n", int), ("--m", int), ("--mu", float), ("--width", float),
                           ("--center", float)):
            p.add_argument(flag, type=kind)

    p = sub.add_parser("sample", help="sample an analytic family to a field file")
    add_family(p)
    p.add_argument("--grid", required=True, help="start:end:count")
    p.add_argument("--evol", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("transform", help="apply a canonical transform to a field file")
    p.add_argument("--name", help=f"one of {', '.join(transforms.TRANSFORMS)}")
    p.add_argument("--spec-json", help="full transform spec as JSON")
    for flag, kind in (("--alpha", float), ("--m", int), ("--kind", int), ("--nu", float),
                       ("--nu-prime", float), ("--beta", float), ("--n-dim", float)):
        p.add_argument(flag, type=kind)
    p.add_argument("--matrix", help="matrix JSON for linear-ct/geometric/radial-ct")
    add_files(p, required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("propagate", help="kernel propagator of one of the four equations")
    p.add_argument("--eq", dest="equation", required=True, choices=[e.value for e in EquationKind])
    p.add_argument("--evol", type=float, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--mu", type=float)
    add_files(p, required=True)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("appell", help="apply a symmetry map (analytic or numeric path)")
    p.add_argument("--spec-json", help="full AppellSpec as JSON")
    p.add_argument("--alpha", type=float)
    p.add_argument("--evol", type=float)
    p.add_argument("--direction", choices=[d.value for d in Direction])
    add_family(p)
    p.add_argument("--grid", help="sampling grid for the analytic path")
    add_files(p, help="source field file (numeric path)")
    p.set_defaults(func=cmd_appell)

    p = sub.add_parser("matrix", help="compose | invert | factor ray matrices")
    p.add_argument("op", choices=["compose", "invert", "factor"])
    p.add_argument("matrices", nargs="+",
                   help="constructor tokens like free:1 fourier:1 lens:0.5 "
                        "scale:re[,im] laplace:a poisson:tau gauss-aperture:w "
                        "bargmann appell-<eq>:alpha,evol or matrix JSON")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("verify", help="run the identity-check suite")
    p.add_argument("suite", nargs="*", default=None,
                   help="'all' (default), criterion numbers, or check ids")
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    try:
        return args.func(args)
    except FieldFileError as exc:  # a ValueError, but not a numeric one
        print(f"canonica: bad field file: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except (ImagingSingular, LaplaceSingular, DivergenceRisk, IntegrabilityViolation,
            SingularEvol, ValueError, np.linalg.LinAlgError) as exc:
        print(f"canonica: numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except CanonicaError as exc:
        print(f"canonica: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:
        target = f" {exc.filename}" if exc.filename else ""
        print(f"canonica: cannot read/write{target}: {exc.strerror or exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
