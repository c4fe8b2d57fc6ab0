"""canonica benchmark: the three workloads, or one of them, for one seed.

    python3 perfbench/run.py --seed 1 --seconds 36 [--workload verify-all] [--trace 1]

Run from the root of a checkout. For each workload it starts fresh
interpreters (perfbench/child.py): SETUP_PROBES that only import canonica
and build the workload's inputs, then one that also runs the timed ops.
`--trace 1` runs untraced passes and then one traced pass, and reports
per-layer metrics instead of end-to-end ones. The last line of stdout is the
JSON result (for all three workloads, metric names get a `<workload>/`
prefix); the lines before it print every metric with its unit and the
machine facts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170.0
WORKLOAD_NAMES = ("verify-all", "appell-numeric", "cli-pipeline")


def _child(mode: str, workload: str, args, workdir: str) -> dict:
    """Run child.py to completion; return its result with setup_s added."""
    result_path = os.path.join(workdir, f"result-{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--mode", mode,
           "--workdir", workdir, "--out", result_path]
    env = {k: v for k, v in os.environ.items() if k != "CANONICA_THREADS"}
    spawned = time.perf_counter()  # system-wide clock, comparable with the child's
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child ({mode}) exited with {proc.returncode}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - spawned
    return result


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it; with fewer than
    20 samples that would fall below the median, so the slowest op is used."""
    return 100.0 * (1.0 - 10.0 / n) if n >= 20 else 100.0


def end_to_end(main: dict, probes: list[dict]) -> tuple[dict, dict]:
    # one time per op of the pass: the median of its runs (same position, any pass or
    # sweep), each run scaled to nominal host speed
    runs: dict[int, list[float]] = {}
    for op in main["ops"]:
        runs.setdefault(op["pos"], []).append(op["scaled_s"])
    times = [statistics.median(v) for v in runs.values()]
    pct = tail_percentile(len(times))
    margins = [op["margin"] for op in main["ops"] if op["margin"] is not None]
    metrics = {
        "setup_s": statistics.median([p["setup_s"] for p in probes + [main]]),
        "wall_s": statistics.median(main["pass_scaled_s"]),
        "op_p50_s": _percentile(times, 50.0),
        "op_tail_s": _percentile(times, pct),
        "accuracy_margin_dec": min(margins) if margins else math.nan,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {"ops_per_pass": len(times), "op_runs": len(main["ops"]),
             "passes": len(main["pass_s"]), "op_tail_pct": round(pct, 2),
             "op_tail_beyond": round(len(times) * (1.0 - pct / 100.0), 2),
             "setup_samples": [round(p["setup_s"], 4) for p in probes + [main]],
             "unscaled_wall_s": round(statistics.median(main["pass_s"]), 4),
             "host_probe_s": round(main["probe_s"], 6)}
    return metrics, notes


def _percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_workload(workload: str, args, spec: dict) -> dict | None:
    """Run one workload and print its metrics; return the result object, or
    None when a child process failed."""
    workdir = os.path.join(WORKDIR, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.trace:
            main_run = _child("trace", workload, args, workdir)
            wanted = spec["per_layer"]
            computed = main_run["layers"]
            extra = {}
        else:
            probes = [_child("setup", workload, args, workdir) for _ in range(SETUP_PROBES)]
            main_run = _child("measure", workload, args, workdir)
            wanted = spec["end_to_end"]
            computed, extra = end_to_end(main_run, probes)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
        print(f"perfbench: {workload} seed {args.seed}: {exc}", file=sys.stderr)
        return None

    ops = main_run["ops"]
    failed = sum(1 for op in ops if not op["ok"])
    metrics = {}
    for m in wanted:
        # a layer the workload never entered has no spans: it reads 0
        value = computed.get(m["name"], 0.0) if args.trace else computed[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    for name, m in metrics.items():
        print(f"  {name:<44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':<44s} {failed / len(ops):.6g} 1  ({failed} of {len(ops)} ops)")
    for key, value in extra.items():
        print(f"  {key:<44s} {value}")
    if "facts" in main_run:
        print("facts " + json.dumps(main_run["facts"], sort_keys=True))
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "canonica", "__init__.py")):
        print(f"perfbench: no canonica sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args, spec)
        if result is None:
            return 1
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
