"""One benchmark process: import canonica, build a workload's inputs, run it.

Started by run.py in a fresh interpreter, so `setup` covers the import.
Modes:
  setup    import and build inputs, report when the first op could start
  measure  also run whole passes of ops for --seconds, untraced
  trace    run passes untraced for half of --seconds, then one more pass
           with the tracer installed; report its per-layer metrics
The result is written as JSON to --out.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time

RESAMPLE_BELOW_S = 0.25
MAX_SWEEPS = 40
PROBE_EVERY_S = 0.25
PROBE_WINDOW_S = 0.5
PROBE_NOMINAL_S = 0.006


class HostClock:
    """Measures how fast the shared host runs right now.

    The host's speed drifts by up to 1.7x over seconds and between runs, and
    canonica's op times follow it. A fixed probe (scipy's J_1.5 on 8000
    points, no canonica code) runs between ops; an op's time is scaled by
    PROBE_NOMINAL_S over the probe's median time around the op, which gives
    the op's time on a host where the probe takes PROBE_NOMINAL_S.
    """

    def __init__(self):
        import numpy as np
        from scipy import special

        self._jv = special.jv
        self._x = np.linspace(0.0, 50.0, 8000)
        self.samples: list[tuple[float, float]] = []  # (midpoint, duration)
        self._last = -math.inf

    def probe(self) -> None:
        t0 = time.perf_counter()
        self._jv(1.5, self._x)
        t1 = time.perf_counter()
        self.samples.append(((t0 + t1) / 2.0, t1 - t0))
        self._last = t1

    def probe_if_due(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scale(self, t0: float, t1: float) -> float:
        near = [d for t, d in self.samples if t0 - PROBE_WINDOW_S <= t <= t1 + PROBE_WINDOW_S]
        return PROBE_NOMINAL_S / statistics.median(near)


def _load_canonica(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import canonica  # noqa: F401

    if not os.path.abspath(canonica.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"canonica imported from {canonica.__file__}, not from {src}")


def _run_passes(workload, first_ops, seconds: float, out: dict, clock=None) -> list[float]:
    """Run whole passes until the next would end after `seconds`; return their op times."""
    pass_times: list[float] = []
    start = time.perf_counter()
    ops = first_ops
    while True:
        pass_times.append(_run_ops(ops, out, clock=clock, pass_index=len(pass_times)))
        if time.perf_counter() - start + statistics.median(pass_times) > seconds:
            return pass_times
        ops = workload.pass_ops()


def _resample_short_ops(workload, seconds: float, out: dict, clock) -> None:
    """Spend the time left after the last pass re-running the short ops.

    A single run of a few milliseconds on a shared host can read 2x slow;
    the median of runs spread over the rest of the run is steadier. Each sweep
    takes the short positions of a fresh pass, so ops with drawn inputs get
    new draws.
    """
    fastest = {}
    for rec in out["ops"]:
        fastest[rec["pos"]] = min(rec["s"], fastest.get(rec["pos"], math.inf))
    short = sorted(pos for pos, s in fastest.items() if s < RESAMPLE_BELOW_S)
    start = time.perf_counter()
    sweep_s = 0.0
    for _ in range(MAX_SWEEPS if short else 0):
        if time.perf_counter() - start + sweep_s > seconds:
            return
        sweep_start = time.perf_counter()
        ops = workload.pass_ops()
        _run_ops([ops[pos] for pos in short], out, clock=clock, positions=short)
        sweep_s = time.perf_counter() - sweep_start


def _run_ops(ops, out: dict, tracer=None, clock=None, positions=None, pass_index=None) -> float:
    """Time each op, then check it; append to out["ops"]. Returns the summed op time."""
    total = 0.0
    for pos, op in zip(positions or range(len(ops)), ops):
        error = None
        if clock:
            clock.probe_if_due()
        t0 = time.perf_counter()
        try:
            with tracer.op() if tracer else contextlib.nullcontext():
                result = op.run()
        except Exception as exc:  # a failed op is counted, never dropped
            result, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        total += dt
        if clock and dt >= PROBE_EVERY_S:
            clock.probe()
        passed, margin = False, None
        if error is None:
            try:
                with tracer.harness() if tracer else contextlib.nullcontext():
                    passed, margin = op.check(result)
            except Exception as exc:
                error = f"check {type(exc).__name__}: {exc}"
        if error is not None:
            print(f"perfbench: op {op.label} failed: {error}", file=sys.stderr)
        elif not passed:
            print(f"perfbench: op {op.label} out of tolerance (margin {margin})", file=sys.stderr)
        out["ops"].append({"label": op.label, "pos": pos, "pass": pass_index, "t0": t0,
                           "s": dt, "ok": passed and error is None, "margin": margin})
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    _load_canonica(args.root)
    import workloads  # imports canonica's modules by name; must follow the path set-up

    t1 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    first_ops = workload.pass_ops()
    ready = time.perf_counter()
    out = {"ready": ready, "import_s": t1 - t0, "inputs_s": ready - t1, "ops": []}

    if args.mode == "measure":
        clock = HostClock()
        started = time.perf_counter()
        out["pass_s"] = _run_passes(workload, first_ops, args.seconds, out, clock)
        _resample_short_ops(workload, args.seconds - (time.perf_counter() - started), out, clock)
        for rec in out["ops"]:
            rec["scaled_s"] = rec["s"] * clock.scale(rec["t0"], rec["t0"] + rec["s"])
        out["pass_scaled_s"] = [sum(r["scaled_s"] for r in out["ops"] if r["pass"] == k)
                                for k in range(len(out["pass_s"]))]
        out["probe_s"] = statistics.median(d for _, d in clock.samples)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["facts"] = _machine_facts()
    elif args.mode == "trace":
        from tracing import Tracer

        pass_s = _run_passes(workload, first_ops, args.seconds / 2.0, out)
        n_untraced = len(out["ops"])
        tracer = Tracer()
        tracer.install()
        # one fresh pass: appell-numeric gets new draws, so no kernel repeats the untraced ones
        traced = _run_ops(workload.pass_ops(), out, tracer)
        layers = tracer.layer_metrics()
        layers["harness.overhead_ratio"] = traced / statistics.median(pass_s)
        layers["setup.import_s"] = out["import_s"]
        layers["setup.inputs_s"] = out["inputs_s"]
        if args.workload == "verify-all":
            for op in out["ops"][n_untraced:]:
                layers[f"verify.check.{op['label']}.s"] = op["s"]
        out["layers"] = layers
        tracer.write_spans(os.path.join(args.workdir, "spans.json"))

    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


def _machine_facts() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "CANONICA_THREADS") if k in os.environ},
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
