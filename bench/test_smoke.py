"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from inputs import TINY, generate  # noqa: E402
from reference import REFERENCES  # noqa: E402
from run import tail  # noqa: E402
from tracing import LAYERS, Pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# operations per pass that hit the documented OverflowError: both Dirichlet
# forms on both q=10 spectra, and q_factor at the q=10 horizon
KNOWN_DEFECTS = {"exact-suite": 5, "numeric-compare": 0, "enumerate": 0}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_passes_are_correct_and_traced(name, tmp_path):
    inp = generate(name, 7, TINY[name])
    workload = WORKLOADS[name](inp, str(tmp_path))
    # the answers travel as JSON between processes, so test them that way
    workload.expected = json.loads(json.dumps(REFERENCES[name](inp)))
    with Pass(0, traced=False) as plain:
        workload.run(plain)
    with Pass(1, traced=True) as traced:
        workload.run(traced)

    for p in (plain, traced):
        assert p.errors == [] and p.failed == 0
        assert p.known == KNOWN_DEFECTS[name]
        assert p.attempted == plain.attempted > 0
    assert plain.spans == []

    spans = traced.spans
    ops = [s for s in spans if s[3].split(".", 1)[0] in LAYERS]
    assert len(ops) == traced.attempted
    tasks = {s[1]: s for s in spans if s[3] == "bench.task"}
    for task, _, parent, _, start, end in ops:
        assert tasks[parent][0] == task and start <= end

    m = traced.layer_metrics()
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert layers + m["trace.glue_s"] == pytest.approx(m["trace.pass_s"])
    assert sum(m[f"{layer}.calls"] for layer in LAYERS) == traced.attempted
    assert m["cli.output_mismatch"] == 0


def test_tail_has_ten_samples_beyond_it():
    value, pct = tail([float(i) for i in range(1, 51)])
    assert value == 40.0 and pct == 80.0
    assert tail([1.0, 2.0]) == (2.0, 100.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enumerate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
