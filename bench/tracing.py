"""One workload pass: timed calls into isogeo, untimed checks, optional spans.

Every call the benchmark makes into isogeo goes through ``Pass.call``,
which counts it as one operation and, in a traced pass, records a span
named ``<layer>.<function>`` whose parent is the task span it runs in.
``Pass.check`` judges the last operation's result with the clock paused,
so a pass's ``active`` time runs from its first call into isogeo to its
last verdict and leaves out the benchmark's own answer checks.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("lengths", "spectrum", "scenario", "dirichlet", "flat", "hyperbolic",
          "interchange", "cli")

# per-layer time metrics: metric name -> the span names it sums
TIMED = {
    "lengths.cluster_s": ("lengths.cluster_lengths",),
    "spectrum.build_s": ("spectrum.LengthTwistSpectrum",),
    "spectrum.compare_weights_s": ("spectrum.compare_weights",),
    "spectrum.almost_conjugate_s": ("spectrum.almost_conjugate",),
    "spectrum.discrepancy_s": ("spectrum.discrepancy",),
    "spectrum.counting_s": ("spectrum.CountingFunction",),
    "spectrum.query_s": ("spectrum.CountingFunction.jump", "spectrum.CountingFunction.count_up_to",
                         "spectrum.total_weight"),
    "spectrum.support_s": ("spectrum.support_sets", "spectrum.lemma1_residual",
                           "spectrum.forced_growth"),
    "scenario.build_s": ("scenario.build_scenario", "scenario.to_discrepancy"),
    "scenario.verify_s": ("scenario.scenario_rows",),
    "scenario.to_spectra_s": ("scenario.to_spectra",),
    "scenario.oracle_s": ("scenario.necklace_count_oracle",),
    "flat.census_s": ("flat.norm_census",),
    "flat.relation_s": ("flat.verify_relation",),
    "flat.orbit_oracle_s": ("flat.orbit_multiplicity", "flat.orbit_multiplicity_oracle"),
    "hyperbolic.enumerate_s": ("hyperbolic.enumerate_geodesics",),
    "hyperbolic.laws_s": ("hyperbolic.translation_length", "hyperbolic.classify",
                          "hyperbolic.Isometry.power"),
    "dirichlet.sum_s": ("dirichlet.dirichlet_partial_sum",),
    "dirichlet.grouped_s": ("dirichlet.dirichlet_partial_sum_grouped",),
    "dirichlet.q_factor_s": ("dirichlet.q_factor",),
    "interchange.load_s": ("interchange.load_spectrum",),
    "interchange.dump_s": ("interchange.dump_spectrum",),
    "cli.scenario_s": ("cli.scenario",),
    "cli.flat-verify_s": ("cli.flat-verify",),
    "cli.compare_s": ("cli.compare",),
    "cli.weights_s": ("cli.weights",),
    "cli.dirichlet_s": ("cli.dirichlet",),
    "cli.enumerate_s": ("cli.enumerate",),
}
SPAN_METRIC = {span: metric for metric, spans in TIMED.items() for span in spans}

# counters a pass records, all per pass
COUNTERS = (
    "lengths.values", "lengths.clusters", "spectrum.entries", "spectrum.total_weight_mismatch",
    "scenario.residuals", "scenario.residuals_nonzero", "scenario.oracle_strings",
    "flat.norms", "flat.relations_passed", "hyperbolic.types", "hyperbolic.geodesics",
    "hyperbolic.elliptic", "hyperbolic.dropped", "dirichlet.terms", "interchange.bytes",
    "cli.output_mismatch",
)
COMPARISON_SPANS = ("spectrum.compare_weights", "spectrum.almost_conjugate",
                    "spectrum.discrepancy", "spectrum.CountingFunction")


class Failed:
    """Stands in for the result of an operation that raised or was fed one."""

    __slots__ = ("error",)

    def __init__(self, error: str):
        self.error = error


class Pass:
    """Operations, verdicts, counters and (when traced) spans of one pass."""

    def __init__(self, index: int, traced: bool):
        self.index = index
        self.traced = traced
        self.spans: list = []  # [task, id, parent, name, start, end]
        self.attempted = 0
        self.failed = 0  # operations that failed other than by a documented defect
        self.known = 0  # operations that hit a documented defect
        self.calls: Counter = Counter()
        self.layer_failed: Counter = Counter()
        self.counters: Counter = Counter()
        self.max_ref_err = 0.0
        self.errors: list = []
        self.active = 0.0
        self._task = None
        self._parent = 0
        self._ids = 0
        self._last = ""
        self._last_failed = False

    def __enter__(self) -> "Pass":
        self._start = self._resume = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.active += end - self._resume
        if self.traced:
            self.spans.append([f"{self.index}", 0, None, "bench.pass", self._start, end])

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    @contextmanager
    def task(self, name: str):
        """A group of calls that share a task id and a parent span."""
        task, span = f"{self.index}/{name}", self._new_id()
        outer = self._task, self._parent
        self._task, self._parent = task, span
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._task, self._parent = outer
            if self.traced:
                self.spans.append([task, span, 0, "bench.task", start, end])

    def _fail(self, message: str, known: bool) -> None:
        self._last_failed = True
        self.layer_failed[self._last.split(".", 1)[0]] += 1
        if known:
            self.known += 1
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{self._last}: {message}")

    def call(self, name: str, fn, *args, known: type | None = None, **kwargs):
        """Call into isogeo as one operation; ``known`` names the exception
        type of a documented defect this call's input is expected to hit."""
        self.attempted += 1
        self.calls[name.split(".", 1)[0]] += 1
        self._last, self._last_failed = name, False
        if any(isinstance(a, Failed) for a in args):
            self._fail("input came from a failed operation", False)
            return Failed("input came from a failed operation")
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a raising operation is a failed one, not a crash
            result = Failed(f"{type(exc).__name__}: {exc}")
            self._fail(result.error, known is not None and isinstance(exc, known))
        end = time.perf_counter()
        if self.traced:
            self.spans.append([self._task, self._new_id(), self._parent, name, start, end])
        return result

    def check(self, predicate, what: str = "") -> None:
        """Judge the last operation's result off the clock; a false or
        raising predicate marks that operation failed."""
        if self._last_failed:
            return
        paused = time.perf_counter()
        self.active += paused - self._resume
        try:
            ok = bool(predicate())
        except Exception as exc:  # a malformed result is a wrong verdict
            ok, what = False, f"{what} ({type(exc).__name__}: {exc})"
        if not ok:
            self._fail(f"wrong verdict {what}".strip(), False)
        self._resume = time.perf_counter()

    def count(self, name: str, value: int | float = 1) -> None:
        self.counters[name] += value

    def reference_error(self, err: float) -> None:
        self.max_ref_err = max(self.max_ref_err, err)

    def layer_metrics(self) -> dict:
        """Per-layer figures of this (traced) pass."""
        out = {m: 0.0 for m in TIMED}
        for span in self.spans:
            metric = SPAN_METRIC.get(span[3])
            if metric is not None:
                out[metric] += span[5] - span[4]
        self_s = _self_times(self.spans)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.failed"] = self.layer_failed[layer]
        for name in COUNTERS:
            out[name] = self.counters[name]
        comparison = sum(s[5] - s[4] for s in self.spans if s[3] in COMPARISON_SPANS)
        out["spectrum.entries_per_s"] = self.counters["spectrum.entries"] / comparison if comparison else 0.0
        out["dirichlet.max_ref_err"] = self.max_ref_err
        out["trace.pass_s"] = self.active
        out["trace.glue_s"] = self.active - sum(self_s.values())
        return out


def _self_times(spans: list) -> Counter:
    """Each layer's span time minus the part of it that child spans cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s[2], []).append(s)
    out: Counter = Counter()
    for s in spans:
        layer = s[3].split(".", 1)[0]
        if layer not in LAYERS:
            continue
        covered, cursor = 0.0, s[4]
        for c in sorted(children.get(s[1], ()), key=lambda c: c[4]):
            lo, hi = max(c[4], cursor), min(c[5], s[5])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[layer] += (s[5] - s[4]) - covered
    return out
