"""The benchmark's three closed-loop workloads.

A workload turns a seed into passes of operations. One operation is one
library or CLI call the benchmark times; its output is checked after the
timer stops. Inputs for a pass are made before the pass starts and are not
timed. Library functions are looked up on their module at call time, so a
traced run sees the wrapped versions.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import canonica.appell as appell
import canonica.cli as cli
import canonica.fields as fields
import canonica.verify as verify
from canonica.common import EquationKind as EK
from canonica.transforms import QuadratureConfig


@dataclass
class Op:
    """One timed call: `run()` is timed, `check(result)` is not.

    `check` returns (passed, margin) where margin is log10(tolerance / error)
    in decades, or None when the verdict is not an error bound.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, float | None]]


def decades(tolerance: float, error: float) -> float:
    """log10(tolerance / error); an exact zero error counts as 16 decades."""
    return math.log10(tolerance / max(error, tolerance * 1e-16))


def rel_l2(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _within(error: float, tolerance: float) -> tuple[bool, float]:
    return bool(error <= tolerance), decades(tolerance, error)


# ---------------------------------------------------------------------------
# verify-all: every registered check, one run_suite call each

class VerifyAll:
    """The identity suite, one check per op, in registry order.

    The suite has no free inputs, so the seed does not change the ops.
    """

    def __init__(self, seed: int, workdir: str):
        self.ids: list[str] = []

    def setup(self) -> None:
        self.ids = [cid for cid, _, _ in verify.CHECKS]

    def pass_ops(self) -> list[Op]:
        return [Op(cid, _run_check(cid), _check_row) for cid in self.ids]


def _run_check(cid: str):
    return lambda: verify.run_suite([cid])


def _check_row(report) -> tuple[bool, float | None]:
    (row,) = report["checks"]
    # rows that hold an observed order to a minimum (tolerance >= 1) carry no error bound
    if "observed_order" in row and row["tolerance"] >= 1.0:
        return bool(row["pass"]), None
    return bool(row["pass"]), decades(row["tolerance"], row["max_abs"])


# ---------------------------------------------------------------------------
# appell-numeric: fresh numeric symmetry maps, checked against the analytic path

def _full(lo, hi, n):
    return fields.Grid1D.from_span(fields.GridKind.FULL_LINE, lo, hi, n)


def _half(hi, n):
    return fields.Grid1D.from_span(fields.GridKind.HALF_LINE, 0.0, hi, n)


class RadialGauss(fields.AnalyticField):
    """Radial-heat Gaussian of effective dimension mu, as in tests/test_appell.py."""

    equation = EK.RADIAL_HEAT

    def __init__(self, width: float, mu: float):
        self.g = 1.0 / width**2
        self.mu = mu
        self.geometry = fields.RadialDim(mu, 0)

    def _eval(self, r, t):
        return complex(1 + self.g * t) ** (-self.mu / 2) * np.exp(
            -self.g * r**2 / (2 * (1 + self.g * t)))


CFG16 = QuadratureConfig(nodes_per_panel=16)

# Grids, output windows, configs and tolerances of the cross-path tests in
# tests/test_appell.py. Each op draws (alpha, evol, width, mu) within JITTER
# of the test's values (relative; absolute for alpha): no two ops share a
# kernel, and each op stays the configuration its test validates. The accuracy of these maps
# is steep in the parameters: at 5 % jitter the alpha = 1 heat map misses its
# 1e-6 tolerance (width +5 %: margin -0.45 decades), and alpha +-1e-4 moves
# the alpha = 0.6 radial-heat margin by +-0.017 decades.
JITTER = 1e-5
PWE_CASES = (("gauss", 1e-5), ("hg2", 1e-6))  # alpha 1, evol 0.7, |x| <= 10 checked
HEAT_CASES = ((1.0, 1.0, 0.5, 1e-6, 8.0),     # (alpha, width, t, tol, mid half-width)
              (0.6, 0.7, 0.4, 1e-4, 11.5),
              (-1.0, 1.0, 0.5, 1e-6, 8.0))
RADIAL_PWE_CASES = ((1, 1, 1.0), (2, 0, 0.7))  # (n, m, alpha), evol 0.7, tol 1e-6
RADIAL_HEAT_CASES = ((1.0, 1.0, 14.0, 6.0, 256),  # (alpha, width, mid end, out end, out count)
                     (0.6, 0.7, 12.0, 1.5, 128))   # t 0.4, mu 3, tol 1e-5


class AppellNumeric:
    """Two to three numeric maps per family per pass, no two sharing a kernel.

    Every pass holds the same cases in the same order; only the draws differ.
    """

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        pass

    def _jitter(self, value: float) -> float:
        return value * (1.0 + self.rng.uniform(-JITTER, JITTER))

    def _alpha(self, alpha: float) -> float:
        return alpha + self.rng.uniform(-JITTER, JITTER)

    def pass_ops(self) -> list[Op]:
        ops = []
        grid_l = _full(-20.0, 20.0, 2048)
        for kind, tol in PWE_CASES:
            alpha, evol = self._alpha(1.0), self._jitter(0.7)
            src = fields.Gauss(self._jitter(1.0)) if kind == "gauss" else fields.StdHG(2)
            ops.append(self._op("pwe", src, appell.AppellSpec(EK.PWE, alpha=alpha, evol=evol),
                                grid_l, grid_l, None, None, tol, window=10.0))
        grid_h = _full(-14.0, 14.0, 2048)
        out_h = _full(-1.5, 1.5, 128)
        for alpha, width, t, tol, mid in HEAT_CASES:
            src = fields.Gauss(self._jitter(width), 0.0, EK.HEAT)
            spec = appell.AppellSpec(EK.HEAT, alpha=self._alpha(alpha), evol=self._jitter(t))
            ops.append(self._op("heat", src, spec, grid_h, out_h, _full(-mid, mid, 4096),
                                None, tol))
        grid_rp, out_rp = _half(14.0, 1024), _half(6.0, 256)
        for n, m, alpha in RADIAL_PWE_CASES:
            spec = appell.AppellSpec(EK.RADIAL_PWE, alpha=self._alpha(alpha),
                                     evol=self._jitter(0.7), m=m)
            ops.append(self._op("radial-pwe", fields.StdLG(n, m), spec, grid_rp, out_rp,
                                None, CFG16, 1e-6))
        grid_rh = _half(18.0, 1536)
        for alpha, width, mid, out_end, out_n in RADIAL_HEAT_CASES:
            mu = self._jitter(3.0)  # the tests' only dimension
            spec = appell.AppellSpec(EK.RADIAL_HEAT, alpha=self._alpha(alpha),
                                     evol=self._jitter(0.4), mu=mu)
            ops.append(self._op("radial-heat", RadialGauss(self._jitter(width), mu), spec,
                                grid_rh, _half(out_end, out_n), _half(mid, 2048), CFG16, 1e-5))
        return ops

    @staticmethod
    def _op(label, field, spec, grid, out, mid, cfg, tol, window=None) -> Op:
        source = fields.sample(field, grid, 0.0)
        kwargs = {"mid_grid": mid} if mid is not None else {}
        if cfg is not None:
            kwargs["cfg"] = cfg

        def run():
            return appell.appell_numeric(source, spec, out, **kwargs)

        def check(result):
            ref = np.asarray(appell.appell_analytic(field, spec).eval(out.points, spec.evol))
            keep = np.abs(out.points) <= window if window is not None else slice(None)
            return _within(rel_l2(result.values[keep], ref[keep]), tol)

        return Op(label, run, check)


# ---------------------------------------------------------------------------
# cli-pipeline: field files pushed through `canonica transform` / `propagate`

LINEAR_GRID = "-20:20:100000"
LINEAR_FILES = 2
FRFT_ALPHA, PWE_EVOL, LINEAR_TOL = 0.7, 0.5, 1e-6  # tol of the frft eigenmode test
HEAT_GRID = "-14:14:2048"
HEAT_FILES = 6
HEAT_T, HEAT_TOL = 0.5, 1e-9  # tol of the heat-semigroup test


class CliPipeline:
    """A seeded batch of source files; every pass sends each file through the CLI."""

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.ops: list[Op] = []

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        lin = _grid_from_spec(LINEAR_GRID)
        for i, n in enumerate(self.rng.integers(0, 7, LINEAR_FILES)):
            src, mid, out = (self._path(f"hg{i}-{s}.csv") for s in ("src", "frft", "pwe"))
            fields.write_field(fields.sample(fields.StdHG(int(n)), lin, 0.0), src)
            eigen = np.exp(-1j * int(n) * FRFT_ALPHA * math.pi / 2.0)
            mode = fields.StdHG(int(n))
            self.ops += [
                Op("frft", _cli("transform", "--name", "frft", "--alpha", repr(FRFT_ALPHA),
                                "--in", src, "--out", mid),
                   _file_check(mid, lambda x, m=mode, e=eigen: e * m.eval(x, 0.0), LINEAR_TOL)),
                Op("pwe", _cli("propagate", "--eq", "pwe", "--evol", repr(PWE_EVOL),
                               "--in", mid, "--out", out),
                   _file_check(out, lambda x, m=mode, e=eigen: e * m.eval(x, PWE_EVOL),
                               LINEAR_TOL)),
            ]
        heat = _grid_from_spec(HEAT_GRID)
        for i, width in enumerate(self.rng.uniform(0.7, 1.3, HEAT_FILES)):
            src, out = self._path(f"gauss{i}-src.csv"), self._path(f"gauss{i}-heat.csv")
            gauss = fields.Gauss(float(width), 0.0, EK.HEAT)
            fields.write_field(fields.sample(gauss, heat, 0.0), src)
            self.ops.append(
                Op("heat", _cli("propagate", "--eq", "heat", "--evol", repr(HEAT_T),
                                "--in", src, "--out", out),
                   _file_check(out, lambda x, g=gauss: g.eval(x, HEAT_T), HEAT_TOL)))

    def pass_ops(self) -> list[Op]:
        return list(self.ops)


def _grid_from_spec(text: str):
    start, end, count = text.split(":")
    return _full(float(start), float(end), int(count))


def _cli(*argv: str):
    return lambda: cli.main(list(argv))


def _file_check(path: str, closed_form, tol: float):
    def check(exit_code):
        if exit_code != 0:
            return False, None
        out = fields.read_field(path)
        return _within(rel_l2(out.values, np.asarray(closed_form(out.grid.points))), tol)

    return check


WORKLOADS = {
    "verify-all": VerifyAll,
    "appell-numeric": AppellNumeric,
    "cli-pipeline": CliPipeline,
}
