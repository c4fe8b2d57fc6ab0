"""Command-line front-end.

Subcommands: sample | transform | propagate | appell | matrix | verify.
Exit codes: 0 ok, 1 usage error, 2 numeric failure, 3 tolerance failure.
Outputs are deterministic: fixed float formatting, no timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

import numpy as np

from . import transforms, verify
from .appell import _EQUATIONS, AppellSpec, appell_analytic, appell_numeric
from .common import (
    CanonicaError,
    Direction,
    DivergenceRisk,
    EquationKind,
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


def _build_family(args):
    name = args.family
    if name not in FAMILIES:
        raise CanonicaError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    cls = FAMILIES[name]
    kwargs = {}
    if name in ("plane-chirp", "point-source", "airy-km", "airy-bb", "bessel", "bessel-gauss"):
        if args.lam is None:
            raise CanonicaError(f"family {name} needs --lambda")
        kwargs["lam"] = args.lam
    if name in ("bessel", "bessel-gauss", "std-lg"):
        kwargs["m"] = args.m if args.m is not None else 0
    if name in ("std-hg", "std-lg", "heat-poly", "heat-assoc",
                "radial-heat-poly", "radial-heat-appell"):
        if args.n is None:
            raise CanonicaError(f"family {name} needs --n")
        kwargs["n"] = args.n
    if name in ("radial-heat-poly", "radial-heat-appell", "fund-radial-heat"):
        kwargs["mu"] = args.mu if args.mu is not None else 2.0
    if name == "gauss":
        kwargs["width"] = args.width if args.width is not None else 1.0
        kwargs["center"] = args.center if args.center is not None else 0.0
        if args.eq is not None:
            kwargs["equation"] = EquationKind(args.eq)
    return cls(**kwargs)


def _grid_kind(family) -> str:
    return GridKind.FULL_LINE if isinstance(family.geometry, Linear) else GridKind.HALF_LINE


def _quad_config(args) -> transforms.QuadratureConfig:
    kw = {}
    if getattr(args, "scheme", None):
        kw["scheme"] = args.scheme
    if getattr(args, "panels", None):
        kw["panels"] = args.panels
    if getattr(args, "nodes", None):
        kw["nodes_per_panel"] = args.nodes
    if getattr(args, "apodize", None):
        kw["apodization"] = args.apodize
    if getattr(args, "truncation", None):
        kw["truncation_radius"] = args.truncation
    return transforms.QuadratureConfig(**kw)


def cmd_sample(args) -> int:
    family = _build_family(args)
    grid = _parse_grid(args.grid, _grid_kind(family))
    field = sample(family, grid, args.evol)
    write_field(field, args.out)
    print(f"wrote {grid.count} samples to {args.out}")
    return 0


# values for spec fields that have a CLI flag and were not given one
_SPEC_DEFAULTS = {"alpha": 1.0, "m": 0, "kind": 1, "nu": 0.0, "nu_prime": 0.0,
                  "beta": 0.5, "n_dim": 2.0}


def _transform_spec(args):
    """Build the spec named by --name and the flags, or by --spec-json."""
    values = json.loads(args.spec_json) if args.spec_json else vars(args)
    name = values.get("name")
    if name not in transforms.TRANSFORMS:
        raise CanonicaError(
            f"unknown transform {name!r}; choose from {', '.join(transforms.TRANSFORMS)}")
    spec_cls = transforms.TRANSFORMS[name][0]
    kwargs = {}
    for field in dataclasses.fields(spec_cls):
        value = values.get(field.name)
        if value is None:
            value = _SPEC_DEFAULTS.get(field.name)
        if value is None:
            raise CanonicaError(f"transform {name} needs a value for {field.name!r}")
        if field.name == "matrix":
            value = SympMat2.from_json(value if isinstance(value, str) else json.dumps(value))
        elif field.type == "int":
            value = int(value)
        kwargs[field.name] = value
    return spec_cls(**kwargs)


def cmd_transform(args) -> int:
    field = read_field(args.infile)
    spec = _transform_spec(args)
    kind = field.grid.kind
    out_grid = _parse_grid(args.out_grid, kind) if args.out_grid else field.grid
    out = transforms.apply(spec, field, out_grid, _quad_config(args))
    write_field(out, args.out)
    print(f"wrote {out_grid.count} samples to {args.out}")
    return 0


def cmd_propagate(args) -> int:
    field = read_field(args.infile)
    out_grid = _parse_grid(args.out_grid, field.grid.kind) if args.out_grid else field.grid
    propagate = _EQUATIONS[EquationKind(args.eq)][1]
    m = args.m if args.m is not None else 0
    mu = args.mu if args.mu is not None else 2.0
    out = propagate(field, args.evol, m, mu, out_grid, _quad_config(args))
    write_field(out, args.out)
    print(f"wrote {out_grid.count} samples to {args.out}")
    return 0


def cmd_appell(args) -> int:
    if args.spec_json:
        spec = AppellSpec.from_json(args.spec_json)
    else:
        if not args.eq:
            raise CanonicaError("appell needs --eq or --spec-json")
        spec = AppellSpec(
            EquationKind(args.eq),
            alpha=args.alpha,
            evol=args.evol,
            direction=Direction(args.direction),
            m=args.m if args.m is not None else 0,
            mu=args.mu if args.mu is not None else 2.0,
        )
    if args.infile:
        source = read_field(args.infile)
        kind = source.grid.kind
        out_grid = _parse_grid(args.out_grid, kind) if args.out_grid else source.grid
        out = appell_numeric(source, spec, out_grid, _quad_config(args))
    else:
        if not args.family:
            raise CanonicaError("appell needs --in FILE or --family NAME")
        if args.family == "gauss" and args.eq is None:
            args.eq = spec.equation.value
        family = _build_family(args)
        image = appell_analytic(family, spec)
        if not args.grid:
            raise CanonicaError("analytic appell needs --grid start:end:count")
        grid = _parse_grid(args.grid, _grid_kind(family))
        out = sample(image, grid, spec.evol)
    write_field(out, args.out)
    print(f"wrote {out.grid.count} samples to {args.out}")
    return 0


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
        return SympMat2.from_json(token)
    name, _, params = token.partition(":")
    vals = [float(p) for p in params.split(",")] if params else []
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
    elif args.op == "invert":
        if len(mats) != 1:
            raise CanonicaError("invert takes exactly one matrix")
        print(inverse(mats[0]).to_json())
    else:  # factor
        if len(mats) != 1:
            raise CanonicaError("factor takes exactly one matrix")
        m = mats[0]
        if m.is_l_form() and not m.is_real():
            f = wei_norman_lform(m)
            print(json.dumps({"form": "gauss-scale-shift", "inv_width": f.inv_width,
                              "scale": f.scale, "tau": f.tau}, sort_keys=True))
        else:
            f = wei_norman_real(m)
            print(json.dumps({"form": "lens-scale-free",
                              "lens_power": [f.lens_power.real, f.lens_power.imag],
                              "scale": [f.scale.real, f.scale.imag],
                              "free_length": [f.free_length.real, f.free_length.imag]},
                             sort_keys=True))
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

    def add_quad(p):
        p.add_argument("--scheme", choices=["auto", "gauss-legendre", "chirp-fft"])
        p.add_argument("--panels", type=int)
        p.add_argument("--nodes", type=int)
        p.add_argument("--apodize", type=float, help="gaussian apodization width")
        p.add_argument("--truncation", type=float)

    def add_family(p):
        p.add_argument("--family")
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--n", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--mu", type=float)
        p.add_argument("--width", type=float)
        p.add_argument("--center", type=float)

    p = sub.add_parser("sample", help="sample an analytic family to a field file")
    add_family(p)
    p.add_argument("--eq", choices=[e.value for e in EquationKind])
    p.add_argument("--grid", required=True, help="start:end:count")
    p.add_argument("--evol", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("transform", help="apply a canonical transform to a field file")
    p.add_argument("--name", help=f"one of {', '.join(transforms.TRANSFORMS)}")
    p.add_argument("--spec-json", help="full transform spec as JSON")
    p.add_argument("--alpha", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--kind", type=int)
    p.add_argument("--nu", type=float)
    p.add_argument("--nu-prime", dest="nu_prime", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--n-dim", dest="n_dim", type=float)
    p.add_argument("--matrix", help="matrix JSON for linear-ct/geometric/radial-ct")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-grid")
    p.add_argument("--out", required=True)
    add_quad(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("propagate", help="kernel propagator of one of the four equations")
    p.add_argument("--eq", required=True, choices=[e.value for e in EquationKind])
    p.add_argument("--evol", type=float, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--mu", type=float)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-grid")
    p.add_argument("--out", required=True)
    add_quad(p)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("appell", help="apply a symmetry map (analytic or numeric path)")
    p.add_argument("--eq", choices=[e.value for e in EquationKind])
    p.add_argument("--spec-json", help="full AppellSpec as JSON")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--evol", type=float, default=0.0)
    p.add_argument("--direction", choices=["forward", "inverse"], default="forward")
    add_family(p)
    p.add_argument("--grid", help="sampling grid for the analytic path")
    p.add_argument("--in", dest="infile", help="source field file (numeric path)")
    p.add_argument("--out-grid")
    p.add_argument("--out", required=True)
    add_quad(p)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT
    numeric_errors = (ImagingSingular, LaplaceSingular, DivergenceRisk,
                      IntegrabilityViolation, SingularEvol)
    try:
        return args.func(args)
    except numeric_errors as exc:
        print(f"canonica: numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except CanonicaError as exc:
        print(f"canonica: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"canonica: numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
