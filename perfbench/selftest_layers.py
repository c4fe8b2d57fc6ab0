"""Self-test of the benchmark's tracing: every layer a workload loads shows up,
every layer it bypasses reads zero, and the layer times add up.

    python3 -m pytest perfbench/selftest_layers.py

Each workload runs once in trace mode (about two minutes in all). The file
name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# workload -> (layers it must load, layers it must bypass)
EXPECTED = {
    "verify-all": (
        ["specfun.bessel_j.self_s", "specfun.bessel_j.points", "transforms.hankel.self_s",
         "transforms.hankel_type.self_s", "transforms.poisson_propagate.self_s",
         "fields.eval.self_s", "appell.image.self_s", "appell.appell_numeric.self_s",
         "symplectic.self_s", "verify.self_s", "verify.check.t7-parseval.s"],
        ["fields.read_field.self_s", "fields.read_field.bytes", "fields.write_field.self_s",
         "fields.write_field.bytes", "cli.self_s"],
    ),
    "appell-numeric": (
        ["specfun.bessel_j.self_s", "specfun.bessel_i_scaled.self_s",
         "specfun.bessel_i_scaled.points", "transforms.frft.self_s",
         "transforms.fr_laplace.self_s", "transforms.poisson_propagate.self_s",
         "transforms.fr_hankel.self_s", "transforms.radial_ct.self_s",
         "transforms.fr_radial_laplace.self_s", "transforms.radial_heat_propagate.self_s",
         "appell.appell_numeric.self_s", "symplectic.self_s"],
        ["fields.read_field.self_s", "fields.write_field.self_s", "verify.self_s",
         "verify.check.t7-parseval.s", "cli.self_s", "appell.image.self_s"],
    ),
    "cli-pipeline": (
        ["fields.read_field.self_s", "fields.read_field.bytes", "fields.write_field.self_s",
         "fields.write_field.bytes", "transforms.apply.self_s", "transforms.linear_ct.self_s",
         "transforms.poisson_propagate.self_s", "cli.self_s"],
        ["specfun.bessel_j.self_s", "specfun.bessel_j.points", "specfun.bessel_i_scaled.self_s",
         "verify.self_s", "appell.image.self_s", "appell.appell_numeric.self_s"],
    ),
}


@pytest.fixture(scope="module")
def traced():
    cache = {}

    def run(workload):
        if workload not in cache:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            cache[workload] = {k: v["value"] for k, v in result["metrics"].items()}
            assert result["correct"] and result["failed"] == 0
        return cache[workload]

    return run


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_loaded_and_bypassed_layers(traced, workload):
    metrics = traced(workload)
    loaded, bypassed = EXPECTED[workload]
    assert [k for k in loaded if not metrics[k] > 0] == []
    assert [k for k in bypassed if metrics[k] != 0] == []


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_layer_self_times_add_up_to_traced_wall(traced, workload):
    m = traced(workload)
    layers = sum(v for k, v in m.items()
                 if k.endswith(".self_s") and not k.startswith("harness."))
    assert math.isclose(layers + m["harness.untraced_s"], m["harness.traced_wall_s"],
                        rel_tol=1e-9)
    assert 0 <= m["harness.untraced_s"] < 0.05 * m["harness.traced_wall_s"]


def test_largest_layers(traced):
    def top(metrics):
        own = {k: v for k, v in metrics.items()
               if k.endswith(".self_s") and not k.startswith("harness.")}
        return max(own, key=own.get)

    assert top(traced("verify-all")) == "specfun.bessel_j.self_s"
    cli = traced("cli-pipeline")
    io = cli["fields.read_field.self_s"] + cli["fields.write_field.self_s"]
    others = [v for k, v in cli.items() if k.endswith(".self_s") and not k.startswith(
        ("harness.", "fields.read_field", "fields.write_field"))]
    assert io > max(others)


def test_repeat_share_orders_the_workloads(traced):
    share = {w: traced(w)["transforms.repeat_share"] for w in EXPECTED}
    assert share["appell-numeric"] == 0
    assert 0 < share["verify-all"] < share["cli-pipeline"]
