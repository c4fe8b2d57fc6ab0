"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here at its stated value; the named checks in
canonica.verify are the same computations, so `canonica verify all` and
this module agree check for check.
"""

import json
import subprocess
import sys
import time
import warnings

import pytest

import canonica.verify as V
from canonica.appell import self_appell_eigencheck
from canonica.fields import Grid1D, GridKind

warnings.simplefilter("ignore")

CHECK_FN = {cid: fn for cid, _, fn in V.CHECKS}


def _line(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_matrix_layer():
    t0 = time.monotonic()
    worst = {}
    for cid, tol in [("m1-det-random", 1e-14), ("m1-appell-closed-form", 1e-14),
                     ("m1-laplace-similarity", 1e-15),
                     ("m1-disentangle-elliptic", 1e-12),
                     ("m1-disentangle-hyperbolic", 1e-12),
                     ("m1-semigroup-duality", 1e-14)]:
        worst[cid] = (CHECK_FN[cid]()["max_abs"], tol)
    elapsed = time.monotonic() - t0
    ok = all(v <= tol for v, tol in worst.values()) and elapsed < 1.0
    detail = "; ".join(f"{k}={v:.1e}" for k, (v, _) in worst.items()) + f"; {elapsed:.2f}s"
    _line(1, "matrix layer", ok, detail)


def test_criterion_02_appell_pairs():
    t0 = time.monotonic()
    tols = {"a2-pair-chirp-point": 1e-12, "a2-pair-heat-vw": 1e-10,
            "a2-pair-radial-rr": 1e-9, "a2-pair-airy-km-bb": 1e-9,
            "a2-pair-bessel-bg": 1e-9}
    devs = {cid: CHECK_FN[cid]()["max_abs"] for cid in tols}
    elapsed = time.monotonic() - t0
    ok = all(devs[c] <= tols[c] for c in tols) and elapsed < 5.0
    _line(2, "symmetry pairs (analytic)", ok,
          "; ".join(f"{c.split('-', 2)[2]}={devs[c]:.1e}" for c in tols) + f"; {elapsed:.2f}s")


def test_criterion_03_fractional_group_law():
    devs = {cid: CHECK_FN[cid]()["max_abs"]
            for cid in ("a3-group-law-pwe", "a3-group-law-heat", "a3-radial-involution")}
    ok = all(v <= 1e-10 for v in devs.values())
    _line(3, "fractional group law", ok,
          "; ".join(f"{k.split('-', 1)[1]}={v:.1e}" for k, v in devs.items()))


def test_criterion_04_self_appell():
    ghg = Grid1D.from_span(GridKind.FULL_LINE, -4.0, 4.0, 64)
    glg = Grid1D.from_span(GridKind.HALF_LINE, 0.0, 5.0, 64)
    worst_hg = max(self_appell_eigencheck("hg", n, a, z, ghg)
                   for n in range(9) for a in (0.5, 1.0, 1.7) for z in (0.0, 0.5, 2.0))
    worst_lg = max(self_appell_eigencheck("lg", n, a, z, glg, m=m)
                   for n in range(7) for m in range(3)
                   for a in (0.5, 1.0, 1.7) for z in (0.0, 0.5, 2.0))
    ok = worst_hg <= 1e-8 and worst_lg <= 1e-8
    _line(4, "self-Appell eigenrelations", ok, f"hg={worst_hg:.1e}; lg={worst_lg:.1e}")


def test_criterion_05_solution_preservation():
    t0 = time.monotonic()
    orders = {}
    for name in V._RESIDUAL_CASES:
        r = V._check_residual(name)
        orders[name] = r["observed_order"]
    elapsed = time.monotonic() - t0
    ok = all(o >= 1.8 for o in orders.values()) and elapsed < 30.0
    _line(5, "solution preservation (residual order)", ok,
          "; ".join(f"{k}={v:.2f}" for k, v in orders.items()) + f"; {elapsed:.2f}s")


def test_criterion_06_numeric_vs_analytic():
    t0 = time.monotonic()
    gauss = CHECK_FN["n6-cross-gauss"]()["max_abs"]
    airy = CHECK_FN["n6-cross-airy"]()["max_abs"]
    elapsed = time.monotonic() - t0
    ok = gauss <= 1e-5 and airy <= 1e-5 and elapsed < 10.0
    _line(6, "numeric vs analytic cross-check", ok,
          f"gauss={gauss:.1e}; apodized-airy={airy:.1e}; {elapsed:.2f}s")


def test_criterion_07_transform_engine():
    tols = {"t7-frft-eigen": 1e-6, "t7-frft-group": 1e-5, "t7-hankel-selfrec": 1e-6,
            "t7-hankel-type-selfrec": 1e-5, "t7-parseval": 1e-5,
            "t7-poisson-heat-poly": 1e-10, "t7-radial-heat-poly": 1e-6}
    devs = {cid: CHECK_FN[cid]()["max_abs"] for cid in tols}
    ok = all(devs[c] <= tols[c] for c in tols)
    _line(7, "transform engine", ok,
          "; ".join(f"{c[3:]}={devs[c]:.1e}" for c in tols))


def test_criterion_08_operator_algebra():
    rows = {cid: CHECK_FN[cid]() for cid in
            ("o8-commutators-linear", "o8-commutators-radial", "o8-commutators-type1")}
    eveq = CHECK_FN["o8-eveq-identities"]()
    ok = all(r["passed"] for r in rows.values()) and eveq["observed_order"] >= 1.8
    _line(8, "operator algebra", ok,
          "; ".join(f"{k[3:]}~{r['observed_order']:.2f}" for k, r in rows.items())
          + f"; eveq={eveq['observed_order']:.2f}")


def test_criterion_09_generating_function():
    dev = CHECK_FN["g9-generating-function"]()["max_abs"]
    _line(9, "generating function", dev <= 1e-8, f"dev={dev:.1e}")


@pytest.mark.slow
def test_criterion_10_verify_all_deterministic(tmp_path):
    cmd = [sys.executable, "-m", "canonica.cli", "verify", "all"]
    blobs = []
    codes = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        res = subprocess.run(cmd + ["--report", str(path)], capture_output=True)
        codes.append(res.returncode)
        blobs.append(path.read_bytes())
    ok = codes == [0, 0] and blobs[0] == blobs[1]
    failed = [c["check_id"] for c in json.loads(blobs[0])["checks"] if not c["pass"]]
    _line(10, "verify all determinism", ok,
          f"exit codes {codes}; byte-identical={blobs[0] == blobs[1]}; "
          f"failed checks: {', '.join(failed) or 'none'}")
