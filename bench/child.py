"""One fresh process of a workload run: set up, warm up, then measure passes.

Started by run.py as ``python3 bench/child.py REQUEST.json RESULT.json``.
Set-up time runs from before isogeo is imported, through input
generation, writing the input files and one warm-up pass; the
independent answers are loaded off that clock.  A calibration loop is
timed before set-up and after set-up and every pass, outside all of them.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def calibrate() -> float:
    """Seconds for a fixed loop of int, big-int and float arithmetic that
    calls no isogeo code and allocates no containers (so the cyclic
    garbage collector, whose state the program can change, never runs in
    it).  Timed next to a pass, it tracks how fast the machine is running
    then, which drifts by tens of percent within seconds on a shared VM."""
    start = time.perf_counter()
    x, y, z, m = 0, 1.0, 3**120, 7**90
    for i in range(60000):
        x = (x * 31 + i) % 1000003
        y = y * 0.9999999 + (i & 7) * 0.5
        z = (z * 5 + i) % m
    return time.perf_counter() - start


def _summary(p, calibration: float) -> dict:
    return {
        "traced": p.traced,
        "active": p.active,
        "calibration_s": calibration,
        "attempted": p.attempted,
        "failed": p.failed,
        "known": p.known,
        "errors": p.errors,
        "layers": p.layer_metrics() if p.traced else None,
    }


def main(request_path: str, result_path: str) -> None:
    with open(request_path) as fp:
        req = json.load(fp)
    before = calibrate()
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import isogeo

    if not os.path.abspath(isogeo.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"isogeo was imported from {isogeo.__file__}, not from {SRC}")
    from inputs import generate
    from tracing import Pass
    from workloads import WORKLOADS

    workload = WORKLOADS[req["workload"]](generate(req["workload"], req["seed"]), req["workdir"])
    setup = time.perf_counter() - start
    with open(req["expected"]) as fp:
        workload.expected = json.load(fp)
    with Pass(-1, traced=False) as warm:
        workload.run(warm)
    setup += warm.active
    after = calibrate()
    setup_calibration = (before + after) / 2

    # closed loop, one client: each pass starts when the previous verdict is in;
    # a traced run alternates untraced and traced passes
    passes, spans = [], []
    measuring = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - measuring < req["budget"]:
        before = after
        with Pass(i, traced=req["trace"] and i % 2 == 1) as p:
            workload.run(p)
        after = calibrate()
        passes.append(_summary(p, (before + after) / 2))
        spans += p.spans
        i += 1

    with open(os.path.join(req["workdir"], "spans.jsonl"), "w") as fp:
        for task, span_id, parent, name, t0, t1 in spans:
            fp.write(json.dumps({"task": task, "id": span_id, "parent": parent, "name": name,
                                 "start": t0 - start, "end": t1 - start}) + "\n")
    result = {
        "setup_s": setup,
        "setup_calibration_s": setup_calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warm": _summary(warm, setup_calibration),
        "passes": passes,
        "outputs": workload.output_digests(),
    }
    with open(result_path, "w") as fp:
        json.dump(result, fp)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
