"""Benchmark of isogeo: time to a checked verdict on three verification workloads.

    python3 bench/run.py --workload exact-suite --seed 1 --seconds 32 --trace 0

Run from the root of a checkout.  The workload runs in fresh child
processes, one after another, each on one thread as a closed loop with one
client; each child sets up, warms up, and runs passes for a share of
``--seconds``.  Every verdict is checked against an answer computed here
beforehand without isogeo (see reference.py).  The last line of standard
output is one JSON object: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of alternating traced passes.
A run record and the spans go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import numpy as np

from inputs import SIZES, generate
from reference import REFERENCES
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILDREN = 5  # fresh processes per run: set-up is measured this many times
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
# child.calibrate()'s time on the reference machine (a 2-core Xeon VM) at its
# usual speed; times are reported at that speed (see README, "Speed factor")
CALIBRATION_NOMINAL_S = 0.025


def tail(samples: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; the maximum (percentile 100) when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def declared(trace: int) -> list:
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        bench = json.load(fp)
    return [(m["name"], m["unit"]) for m in bench["per_layer" if trace else "end_to_end"]]


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((line.split(":", 1)[1].strip() for line in fp
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown"  # a checkout without .git has no sha of its own
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def run_children(args, run_dir: str, expected_path: str) -> list:
    env = dict(os.environ)
    env.pop("ISOGEO_THREADS", None)  # the default single worker is what is measured
    budget = args.seconds / CHILDREN
    results = []
    for k in range(CHILDREN):
        workdir = os.path.join(run_dir, f"child{k}")
        os.makedirs(workdir)
        request = os.path.join(workdir, "request.json")
        result = os.path.join(workdir, "result.json")
        with open(request, "w") as fp:
            json.dump({"workload": args.workload, "seed": args.seed, "budget": budget,
                       "trace": bool(args.trace), "workdir": workdir,
                       "expected": expected_path}, fp)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), request, result],
                              stdout=sys.stderr, env=env, timeout=budget + 20)
        if proc.returncode != 0:
            raise RuntimeError(f"child {k} exited with code {proc.returncode}")
        with open(result) as fp:
            results.append(json.load(fp))
    return results


def summarise(args, results: list) -> tuple[dict, dict]:
    passes = [p for r in results for p in r["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    known = sum(p["known"] for p in passes)
    outputs = [r["outputs"] for r in results]
    consistent = all(o == outputs[0] for o in outputs)
    errors = [e for r in results for p in [r["warm"]] + r["passes"] for e in p["errors"]]
    warm_failed = sum(r["warm"]["failed"] for r in results)
    plain = [p["active"] for p in passes if not p["traced"]]
    facts = {
        "attempted": attempted,
        "failed": failed,
        "known_defect": known,
        "failed_share": (failed + known) / attempted,
        "correct": failed == 0 and warm_failed == 0 and consistent,
        "outputs_consistent": consistent,
        "errors": errors[:10],
        "passes": len(plain),
        # > 1 when the machine ran slower than nominal
        "speed_factor": statistics.median(p["calibration_s"] for p in passes) / CALIBRATION_NOMINAL_S,
    }
    if not args.trace:
        scaled = [p["active"] * CALIBRATION_NOMINAL_S / p["calibration_s"] for p in passes]
        value, pct = tail(scaled)
        facts["tail_percentile"] = pct
        facts["wall"] = {"verdict_s.p50": statistics.median(plain), "verdict_s.tail": tail(plain)[0],
                         "setup_s": statistics.median(r["setup_s"] for r in results)}
        metrics = {
            "verdict_s.p50": statistics.median(scaled),
            "verdict_s.tail": value,
            "setup_s": statistics.median(r["setup_s"] * CALIBRATION_NOMINAL_S / r["setup_calibration_s"]
                                         for r in results),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
            "ok_share": 1.0 - facts["failed_share"],
        }
    else:
        traced = [p["layers"] for p in passes if p["traced"]]
        metrics = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - statistics.median(plain)
        facts["traced_passes"] = len(traced)
    return metrics, facts


def report(args, metrics: dict, facts: dict) -> None:
    print(f"workload {args.workload}, seed {args.seed}: {facts['passes']} untraced passes in "
          f"{CHILDREN} fresh processes, {facts['attempted']} operations")
    if not args.trace:
        wall = facts["wall"]
        print(f"speed factor = {facts['speed_factor']:.4f} (median over passes); each time "
              f"below is its wall time divided by the factor measured next to it")
        print(f"verdict_s.p50 = {metrics['verdict_s.p50']:.6f} s "
              f"(wall {wall['verdict_s.p50']:.6f} s)")
        print(f"verdict_s.tail = {metrics['verdict_s.tail']:.6f} s "
              f"(wall {wall['verdict_s.tail']:.6f} s; p{facts['tail_percentile']:.0f} "
              f"of {facts['passes']} passes)")
        print(f"setup_s = {metrics['setup_s']:.6f} s (wall {wall['setup_s']:.6f} s; "
              f"median of {CHILDREN})")
        print(f"peak_rss_mb = {metrics['peak_rss_mb']:.3f} MB")
        print(f"failed_share = {facts['failed_share']:.6f} "
              f"({facts['known_defect']} documented-defect and {facts['failed']} other failures)")
    else:
        for layer in LAYERS:
            print(f"{layer}.self_s = {metrics[layer + '.self_s']:.6f} s, "
                  f"calls = {metrics[layer + '.calls']}")
        print(f"trace.overhead_s = {metrics['trace.overhead_s']:.6f} s "
              f"(traced pass {metrics['trace.pass_s']:.6f} s)")
    for e in facts["errors"]:
        print(f"failure: {e}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "isogeo", "__init__.py")):
        print(f"error: no isogeo source under {ROOT}/src", file=sys.stderr)
        return 2

    run_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    inp = generate(args.workload, args.seed)
    expected_path = os.path.join(run_dir, "expected.json")
    with open(expected_path, "w") as fp:
        json.dump(REFERENCES[args.workload](inp), fp)
    try:
        results = run_children(args, run_dir, expected_path)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, facts = summarise(args, results)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ISOGEO_THREADS": os.environ.get("ISOGEO_THREADS"),
              **machine(), "metrics": metrics, **facts,
              "children": [{k: r[k] for k in ("setup_s", "peak_rss_mb")} for r in results]}
    with open(os.path.join(run_dir, "record.json"), "w") as fp:
        json.dump(record, fp, indent=1)
    report(args, metrics, facts)
    print(json.dumps({
        "correct": facts["correct"],
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": u} for name, u in declared(args.trace)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
