"""The three workloads: set-up, and one pass of calls into isogeo with checks.

Each workload object is built from the seeded inputs (the set-up: isogeo
objects, input files), takes the independent answers once they are
loaded, and then runs passes.  A pass calls isogeo's public functions and
the in-process ``isogeo.cli.main`` one after another, each through
``Pass.call``, and checks every result against the answers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from fractions import Fraction

from isogeo import cli, dirichlet, flat, hyperbolic, interchange, lengths, scenario, spectrum
from isogeo.dirichlet import TwistData
from isogeo.hyperbolic import EnumConfig, Isometry, IsometryClass
from isogeo.lengths import Exact, Numeric
from isogeo.spectrum import GeodesicEntry, LengthTwistSpectrum, Orientation

from inputs import EXACT_QS, LOG_DBL_MAX
from tracing import Failed, Pass

HERE = os.path.dirname(os.path.abspath(__file__))
# float results against 30-digit references: error relative to sum(|terms|)
EXACT_REL_TOL = 1e-12
# the enumerated lengths differ from the reference's in the last digits
ENUMERATE_REL_TOL = 1e-10
LENGTH_TOL = 1e-9


def run_cli(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def load_spectrum(path: str) -> LengthTwistSpectrum:
    with open(path) as fp:
        return interchange.load_spectrum(fp)


def dump_text(spec: LengthTwistSpectrum) -> str:
    fp = io.StringIO()
    interchange.dump_spectrum(spec, fp)
    return fp.getvalue()


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fp:
        return fp.read()


def as_float(text) -> float:
    """A weight as the CLI prints it: ``num/den`` or a float repr."""
    return float(Fraction(text)) if isinstance(text, str) and "/" in text else float(text)


class Workload:
    """Shared output checks; subclasses set up inputs and run passes."""

    def __init__(self, inp: dict, workdir: str):
        self.inp = inp
        self.workdir = workdir
        self.expected: dict = {}
        self.first_outputs: dict = {}
        with open(os.path.join(HERE, "digests.json")) as fp:
            self.digests = json.load(fp)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def same_bytes(self, key: str, data: bytes) -> bool:
        """``data`` equals every earlier output for ``key`` in this process."""
        return data == self.first_outputs.setdefault(key, data)

    def output_ok(self, p: Pass, key: str, path: str, digest: str | None = None) -> bool:
        """The CLI's bytes at ``path`` equal its earlier bytes for ``key`` and,
        for exact-tier output, the recorded digest."""
        data = read_bytes(path)
        ok = self.same_bytes(key, data)
        if digest is not None:
            ok = ok and hashlib.sha256(data).hexdigest() == self.digests.get(digest)
        if not ok:
            p.count("cli.output_mismatch")
        return ok

    def output_digests(self) -> dict:
        return {k: hashlib.sha256(v).hexdigest() for k, v in self.first_outputs.items()}

    @staticmethod
    def near(p: Pass, got, ref: list, rel_tol: float) -> bool:
        """A complex result against [re, im, scale] from the reference."""
        err = abs(complex(got) - complex(ref[0], ref[1])) / ref[2]
        p.reference_error(err)
        return err <= rel_tol

    @staticmethod
    def q_ok(p: Pass, value: float, ref: float) -> bool:
        """A Q-factor against its 30-digit reference."""
        err = abs(value - ref) / ref
        p.reference_error(err)
        return err <= EXACT_REL_TOL


# --- exact-suite -------------------------------------------------------------------

class ExactSuite(Workload):
    """The paper's exact chain for q in {2,3,5,7,10}, the flat relations, and
    the exact-tier CLI."""

    def __init__(self, inp: dict, workdir: str):
        super().__init__(inp, workdir)
        self.s = complex(*inp["s"])
        self.l0 = {q: Exact(q, 1) for q in EXACT_QS}
        self.queries = {q: [Exact(q, n) for n in inp["qs"][q]["query_n"]] for q in EXACT_QS}
        self.preserving = TwistData.preserving()
        self.lattices = {"square": flat.LatticeKind.SQUARE, "hex": flat.LatticeKind.HEXAGONAL}

    def run(self, p: Pass) -> None:
        for q in EXACT_QS:
            with p.task(f"q={q}"):
                self._chain(p, q, self.inp["qs"][q], self.expected["qs"][str(q)])
        with p.task("flat"):
            self._flat(p)
        with p.task("cli"):
            self._cli(p)

    def _chain(self, p: Pass, q: int, d: dict, e: dict) -> None:
        h, l0 = d["horizon"], self.l0[q]
        sol = p.call("scenario.build_scenario", scenario.build_scenario, q, h)
        p.check(lambda: [list(x) for x in sorted(sol.a.items())] == e["a"]
                and [list(x) for x in sorted(sol.b.items())] == e["b"], "assignments")
        rows = p.call("scenario.scenario_rows", scenario.scenario_rows, sol)
        p.check(lambda: self._rows_ok(p, rows, e["c"]), "residuals")
        for n in d["oracle_n"]:
            count = p.call("scenario.necklace_count_oracle", scenario.necklace_count_oracle, q, n)
            p.check(lambda: count == e["c"][n - 1], "oracle")
            p.count("scenario.oracle_strings", q**n)

        table = p.call("scenario.to_discrepancy", scenario.to_discrepancy, sol)
        p.check(lambda: self._table_ok(table, e), "to_discrepancy")
        support = p.call("spectrum.support_sets", spectrum.support_sets, table)
        p.check(lambda: support[1] == {l0} and len(support[0]) == len(
            {n for n, _ in e["a"]} | {n for n, _ in e["b"]}), "support")
        residual = p.call("spectrum.lemma1_residual", spectrum.lemma1_residual, table, l0)
        p.check(lambda: residual == 0, "lemma 1")
        for prime, c_p in e["forced"]:
            fg = p.call("spectrum.forced_growth", spectrum.forced_growth, table, l0, prime)
            p.check(lambda: fg.value == c_p and fg.bound == Fraction(q**prime, 2 * prime),
                    f"forced growth p={prime}")

        pair = p.call("scenario.to_spectra", scenario.to_spectra, sol)
        p.check(lambda: self._entries(pair[0]) == e["first"]
                and self._entries(pair[1]) == e["second"], "to_spectra")
        first, second = (pair, pair) if isinstance(pair, Failed) else pair
        diffs = p.call("spectrum.compare_weights", spectrum.compare_weights, first, second)
        p.check(lambda: diffs == [], "weights differ")
        verdict = p.call("spectrum.almost_conjugate", spectrum.almost_conjugate, first, second)
        p.check(lambda: verdict[0] is False and (
            verdict[1].length, verdict[1].orientation, verdict[1].nu,
            verdict[1].multiplicity_a, verdict[1].multiplicity_b,
        ) == (l0, Orientation.PRESERVING, 1, q - 1, 0), "witness at l0")
        disc = p.call("spectrum.discrepancy", spectrum.discrepancy, first, second)
        p.check(lambda: self._table_ok(disc, e), "discrepancy")
        counting = p.call("spectrum.CountingFunction", spectrum.CountingFunction, first)
        p.check(lambda: counting.total() == e["total_first"], "F(horizon)")
        for (n, jump), l in zip(e["jump"], self.queries[q]):
            got = p.call("spectrum.CountingFunction.jump", spectrum.CountingFunction.jump,
                         counting, l)
            p.check(lambda: got == jump, f"jump at n={n}")
        for (n, total), l in zip(e["count_up_to"], self.queries[q]):
            got = p.call("spectrum.CountingFunction.count_up_to",
                         spectrum.CountingFunction.count_up_to, counting, l)
            p.check(lambda: got == total, f"F at n={n}")
        if not isinstance(pair, Failed):
            values = [x.length for x in first.entries] + [x.length for x in second.entries]
            p.count("spectrum.entries", 3 * (len(first) + len(second)) + len(first))
        else:
            values = pair
        clusters = p.call("lengths.cluster_lengths", lengths.cluster_lengths, values)
        p.check(lambda: len(clusters) == e["clusters"], "clusters")
        if not isinstance(clusters, Failed):
            p.count("lengths.values", len(values))
            p.count("lengths.clusters", len(clusters))

        known = OverflowError if e["overflow"] else None
        for name, spec in (("first", first), ("second", second)):
            ref = e["dirichlet"][name]
            value = p.call("dirichlet.dirichlet_partial_sum", dirichlet.dirichlet_partial_sum,
                           spec, self.s, known=known)
            p.check(lambda: self.near(p, value, ref, EXACT_REL_TOL), f"D(s) {name}")
            value = p.call("dirichlet.dirichlet_partial_sum_grouped",
                           dirichlet.dirichlet_partial_sum_grouped, spec, self.s, known=known)
            p.check(lambda: self.near(p, value, ref, EXACT_REL_TOL), f"grouped D(s) {name}")
            if not isinstance(spec, Failed):
                p.count("dirichlet.terms", 2 * len(spec))
        for l, ref in e["q_factor"]:
            value = p.call("dirichlet.q_factor", dirichlet.q_factor, l, self.preserving,
                           known=OverflowError if l > LOG_DBL_MAX else None)
            p.check(lambda: self.q_ok(p, value, ref), f"Q({l})")

    @staticmethod
    def _rows_ok(p: Pass, rows: list, c: list) -> bool:
        p.count("scenario.residuals", len(rows))
        p.count("scenario.residuals_nonzero", sum(r.residual_num != 0 for r in rows))
        return len(rows) == len(c) and all(
            r.n == i + 1 and r.c_n == c[i] and (r.residual_num, r.residual_den) == (0, 1)
            for i, r in enumerate(rows))

    @staticmethod
    def _table_ok(table, e: dict) -> bool:
        def by_n(values):
            return sorted([l.integer_mult(), v] for l, v in values.items())
        return by_n(table.a) == e["a"] and by_n(table.b) == e["b"]

    @staticmethod
    def _entries(spec) -> list:
        return sorted([x.length.integer_mult(), x.orientation.value, x.nu, x.multiplicity]
                      for x in spec.entries)

    def _flat(self, p: Pass) -> None:
        m, e = self.inp["max_norm"], self.expected
        for family, kind in self.lattices.items():
            census = p.call("flat.norm_census", flat.norm_census, kind, m)
            p.check(lambda: census == e["census"][family], f"{family} census")
            p.count("flat.norms", m + 1)
        for rel in flat.ISOSPECTRAL_RELATIONS:
            verdict = p.call("flat.verify_relation", flat.verify_relation, rel, m)
            p.check(lambda: verdict == (True, None), str(rel))
            if verdict == (True, None):
                p.count("flat.relations_passed")
        for family, order, n, mult in e["orbits"]:
            kind = self.lattices[family]
            for fn in (flat.orbit_multiplicity, flat.orbit_multiplicity_oracle):
                got = p.call(f"flat.{fn.__name__}", fn, kind, order, n)
                p.check(lambda: got == mult, f"{family} order {order} n={n}")

    def _cli(self, p: Pass) -> None:
        inp = self.inp
        q, n = inp["cli_q"], inp["cli_n"]
        out = self.path("scenario.csv")
        code = p.call("cli.scenario", run_cli,
                      ["scenario", "--q", str(q), "--n", str(n), "--out", out])
        p.check(lambda: code == 0 and read_bytes(out).decode() == self.expected["cli_scenario_csv"]
                and self.output_ok(p, "scenario", out, f"scenario --q {q} --n {n}"), "scenario CSV")

        family, orbifold, m = inp["cli_family"], inp["cli_orbifold"], inp["cli_max_norm"]
        out = self.path("flat.csv")
        args = ["flat-verify", "--family", family, "--max-norm", str(m), "--emit-spectrum", orbifold]
        code = p.call("cli.flat-verify", run_cli, args + ["--out", out])
        p.check(lambda: code == 0 and self.output_ok(p, "flat-verify", out, " ".join(args)),
                "flat CSV")

        cn = inp["cli_compare_n"]
        sol = p.call("scenario.build_scenario", scenario.build_scenario, q, cn)
        pair = p.call("scenario.to_spectra", scenario.to_spectra, sol)
        paths = [self.path("first.json"), self.path("second.json")]
        for i, path in enumerate(paths):
            spec = pair if isinstance(pair, Failed) else pair[i]
            text = p.call("interchange.dump_spectrum", dump_text, spec)
            p.check(lambda: self.same_bytes(f"dump {i}", text.encode()), "dump bytes")
            if not isinstance(text, Failed):
                p.count("interchange.bytes", len(text))
                with open(path, "w") as fp:
                    fp.write(text)
        out = self.path("compare.json")
        code = p.call("cli.compare", run_cli,
                      ["compare", "--a", paths[0], "--b", paths[1], "--format", "json", "--out", out])
        p.check(lambda: code == 1 and self.output_ok(
            p, "compare", out, f"compare scenario --q {q} --n {cn} --format json")
            and self._scenario_compare_ok(out), "compare JSON")

    @staticmethod
    def _scenario_compare_ok(path: str) -> bool:
        with open(path) as fp:
            doc = json.load(fp)
        return doc["almost_conjugate"] is False and doc["weight_differences"] == []


# --- numeric-compare -------------------------------------------------------------

def _spectrum_doc(entries: list, horizon: float) -> dict:
    return {
        "horizon": {"numeric": horizon},
        "entries": [{"length": {"numeric": l}, "orientation": o, "nu": nu, "multiplicity": m}
                    for l, o, nu, m in entries],
    }


class NumericCompare(Workload):
    """Seeded pairs of numeric spectra, loaded from JSON and compared."""

    def __init__(self, inp: dict, workdir: str):
        super().__init__(inp, workdir)
        self.s = complex(*inp["s"])
        self.files = {}
        for name, (a, b) in inp["pairs"].items():
            # the first spectrum of a pair is written in canonical order, as
            # interchange.dump_spectrum writes it; the second as generated
            canonical = sorted(a, key=lambda e: (e[0], e[1], e[2]))
            self.files[name] = []
            for side, entries in (("a", canonical), ("b", b)):
                path = self.path(f"{name}_{side}.json")
                with open(path, "w") as fp:
                    json.dump(_spectrum_doc(entries, inp["horizon"]), fp,
                              sort_keys=True, separators=(",", ":"))
                    fp.write("\n")
                self.files[name].append(path)
        self.canonical_text = read_bytes(self.files["conj"][0]).decode()
        self.horizon = Numeric(inp["horizon"])
        self.conj_entries = [GeodesicEntry(Numeric(l), Orientation(o), nu, m)
                             for l, o, nu, m in inp["pairs"]["conj"][0]]
        self.jump_at = [Numeric(x) for x in inp["jump_at"]]
        self.count_at = [Numeric(x) for x in inp["count_at"]]
        self.weight_at = [Numeric(x) for x in inp["weight_at"]]
        rot = inp["rotation"]
        self.twists = [TwistData.preserving(), TwistData.reversing(),
                       TwistData.from_matrix([[math.cos(rot), -math.sin(rot)],
                                              [math.sin(rot), math.cos(rot)]])]

    def run(self, p: Pass) -> None:
        loaded = {}
        for name in self.files:
            with p.task(name):
                loaded[name] = self._pair(p, name)
        with p.task("single"):
            self._single(p, loaded["conj"][0])
        with p.task("cli"):
            self._cli(p)

    def _pair(self, p: Pass, name: str):
        e = self.expected["pairs"][name]
        specs = []
        for path, entries in zip(self.files[name], self.inp["pairs"][name]):
            spec = p.call("interchange.load_spectrum", load_spectrum, path)
            p.check(lambda: len(spec) == len(entries), "entries loaded")
            p.count("interchange.bytes", os.path.getsize(path))
            specs.append(spec)
        a, b = specs
        if name == "conj":
            built = p.call("spectrum.LengthTwistSpectrum", LengthTwistSpectrum,
                           self.conj_entries, self.horizon)
            p.check(lambda: built == a, "loaded equals built")
            text = p.call("interchange.dump_spectrum", dump_text, a)
            p.check(lambda: text == self.canonical_text, "canonical dump")
            if not isinstance(text, Failed):
                p.count("interchange.bytes", len(text))

        diffs = p.call("spectrum.compare_weights", spectrum.compare_weights, a, b)
        p.check(lambda: len(diffs) == len(e["weight_diffs"]) and all(
            abs(l.approx() - x[0]) <= LENGTH_TOL and abs(float(wa) - x[1]) <= LENGTH_TOL
            and abs(float(wb) - x[2]) <= LENGTH_TOL for (l, wa, wb), x in zip(diffs, e["weight_diffs"])),
            "weight differences")
        verdict = p.call("spectrum.almost_conjugate", spectrum.almost_conjugate, a, b)
        p.check(lambda: _witness_ok(verdict, e["witness"]), "witness")
        disc = p.call("spectrum.discrepancy", spectrum.discrepancy, a, b)
        p.check(lambda: _discrepancy_ok(disc, e["discrepancy"]), "discrepancy")
        if not isinstance(a, Failed) and not isinstance(b, Failed):
            p.count("spectrum.entries", 3 * (len(a) + len(b)))
            values = [x.length for x in a.entries] + [x.length for x in b.entries]
        else:
            values = Failed("no spectra")
        clusters = p.call("lengths.cluster_lengths", lengths.cluster_lengths, values)
        p.check(lambda: len(clusters) == e["clusters"], "clusters")
        if not isinstance(clusters, Failed):
            p.count("lengths.values", len(values))
            p.count("lengths.clusters", len(clusters))
        return a, b

    def _single(self, p: Pass, spec) -> None:
        e = self.expected["single"]
        counting = p.call("spectrum.CountingFunction", spectrum.CountingFunction, spec)
        p.check(lambda: counting.total() == e["total"], "F(horizon)")
        if not isinstance(spec, Failed):
            p.count("spectrum.entries", len(spec))
        for l, (_, jump) in zip(self.jump_at, e["jump"]):
            got = p.call("spectrum.CountingFunction.jump", spectrum.CountingFunction.jump, counting, l)
            p.check(lambda: got == jump, "jump")
        for l, (_, total) in zip(self.count_at, e["count_up_to"]):
            got = p.call("spectrum.CountingFunction.count_up_to",
                         spectrum.CountingFunction.count_up_to, counting, l)
            p.check(lambda: got == total, "F(l)")
        for l, (_, clustered, pairwise) in zip(self.weight_at, e["total_weight"]):
            got = p.call("spectrum.total_weight", spectrum.total_weight, spec, l)
            p.check(lambda: self._total_weight_ok(p, got, clustered, pairwise), "W(l)")

        value = p.call("dirichlet.dirichlet_partial_sum", dirichlet.dirichlet_partial_sum, spec, self.s)
        p.check(lambda: self.near(p, value, e["dirichlet"], EXACT_REL_TOL), "D(s)")
        value = p.call("dirichlet.dirichlet_partial_sum_grouped",
                       dirichlet.dirichlet_partial_sum_grouped, spec, self.s)
        p.check(lambda: self.near(p, value, e["dirichlet_grouped"], EXACT_REL_TOL), "grouped D(s)")
        if not isinstance(spec, Failed):
            p.count("dirichlet.terms", 2 * len(spec))
        for i, (l, _, ref) in enumerate(self.expected["q_factor"]):
            value = p.call("dirichlet.q_factor", dirichlet.q_factor, l, self.twists[i % 3])
            p.check(lambda: self.q_ok(p, value, ref), "Q-factor")

    @staticmethod
    def _total_weight_ok(p: Pass, got, clustered: float, pairwise: float) -> bool:
        """Either meaning of W(l) is a right answer; the pairwise one, where it
        differs from the clustered W, is counted as a mismatch."""
        if abs(float(got) - clustered) <= LENGTH_TOL:
            return True
        if abs(float(got) - pairwise) <= LENGTH_TOL:
            p.count("spectrum.total_weight_mismatch")
            return True
        return False

    def _cli(self, p: Pass) -> None:
        e = self.expected
        a, b = self.files["orientation"]
        out = self.path("compare.json")
        code = p.call("cli.compare", run_cli,
                      ["compare", "--a", a, "--b", b, "--format", "json", "--out", out])
        p.check(lambda: code == 1 and self.output_ok(p, "compare", out)
                and _compare_doc_ok(out, e["pairs"]["orientation"]), "compare JSON")

        spec_path = self.files["conj"][0]
        out = self.path("weights.csv")
        code = p.call("cli.weights", run_cli, ["weights", "--spectrum", spec_path, "--out", out])
        p.check(lambda: code == 0 and self.output_ok(p, "weights", out)
                and _weights_csv_ok(out, e["single"]["weights"]), "weights CSV")

        sigma, t = self.inp["s"]
        out = self.path("dirichlet.csv")
        code = p.call("cli.dirichlet", run_cli, ["dirichlet", "--spectrum", spec_path, "--sigma",
                                                 repr(sigma), "--t", repr(t), "--out", out])
        p.check(lambda: code == 0 and self.output_ok(p, "dirichlet", out)
                and self._dirichlet_csv_ok(p, out, e["single"]["dirichlet"]), "dirichlet CSV")

    def _dirichlet_csv_ok(self, p: Pass, path: str, ref: list) -> bool:
        """15 significant digits against the reference, within the stated
        tolerance plus the rounding of the printed digits."""
        with open(path) as fp:
            header, row = fp.read().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        got = complex(float(values["real"]), float(values["imag"]))
        err = abs(got - complex(ref[0], ref[1]))
        p.reference_error(err / ref[2])
        return err <= EXACT_REL_TOL * ref[2] + 1e-14 * abs(got)


def _witness_ok(verdict, expected) -> bool:
    ok, w = verdict
    if expected is None:
        return ok is True and w is None
    rep, orientation, nu, ma, mb = expected
    return (ok is False and abs(w.length.approx() - rep) <= LENGTH_TOL
            and (w.orientation.value, w.nu, w.multiplicity_a, w.multiplicity_b)
            == (orientation, nu, ma, mb))


def _discrepancy_ok(table, expected: list) -> bool:
    got = {}
    for l, v in table.a.items():
        got.setdefault(l.approx(), [0, 0])[0] = v
    for l, v in table.b.items():
        got.setdefault(l.approx(), [0, 0])[1] = v
    rows = sorted([l, *v] for l, v in got.items())
    return len(rows) == len(expected) and all(
        abs(r[0] - x[0]) <= LENGTH_TOL and r[1:] == x[1:] for r, x in zip(rows, expected))


def _compare_doc_ok(path: str, e: dict) -> bool:
    with open(path) as fp:
        doc = json.load(fp)
    rep, orientation, nu, ma, mb = e["witness"]
    w = doc["witness"]
    diffs = doc["weight_differences"]
    table = doc["discrepancy"]["entries"]
    return (doc["almost_conjugate"] is False
            and abs(w["length"]["numeric"] - rep) <= LENGTH_TOL
            and (w["orientation"], w["nu"], w["multiplicity_a"], w["multiplicity_b"])
            == (orientation, nu, ma, mb)
            and len(diffs) == len(e["weight_diffs"])
            and all(abs(d["length"]["numeric"] - x[0]) <= LENGTH_TOL
                    and abs(as_float(d["w_a"]) - x[1]) <= LENGTH_TOL
                    and abs(as_float(d["w_b"]) - x[2]) <= LENGTH_TOL
                    for d, x in zip(diffs, e["weight_diffs"]))
            and len(table) == len(e["discrepancy"])
            and all(abs(r["length"]["numeric"] - x[0]) <= LENGTH_TOL and [r["a"], r["b"]] == x[1:]
                    for r, x in zip(table, e["discrepancy"])))


def _weights_csv_ok(path: str, expected: list) -> bool:
    with open(path, newline="") as fp:
        rows = list(csv.reader(fp))[1:]
    if len(rows) != len(expected):
        return False
    for (length, weight), (rep, w) in zip(rows, expected):
        length = json.loads(length)
        if abs(length["numeric"] - rep) > LENGTH_TOL or abs(as_float(weight) - w) > LENGTH_TOL:
            return False
    return True


# --- enumerate ---------------------------------------------------------------------

def _same_spectrum(spec, ref: list) -> bool:
    """Entries equal the reference's, lengths within the enumerator's tolerance."""
    got = sorted((x.orientation.value, x.nu, x.length.approx(), x.multiplicity) for x in spec.entries)
    want = sorted((o, nu, l, m) for l, o, nu, m in ref)
    return len(got) == len(want) and all(
        g[:2] == w[:2] and abs(g[2] - w[2]) <= LENGTH_TOL and g[3] == w[3]
        for g, w in zip(got, want))


class Enumerate(Workload):
    """Word enumeration on a seeded Schottky pair and on a conjugate of it."""

    def __init__(self, inp: dict, workdir: str):
        super().__init__(inp, workdir)
        self.s = complex(*inp["s"])
        self.generators = [Isometry.from_matrix(m) for m in inp["generators"]]
        self.conjugated = [Isometry.from_matrix(m) for m in inp["conjugated"]]
        self.config = EnumConfig(inp["max_word_length"], inp["cutoff"])
        self.gen_path = self.path("generators.json")
        with open(self.gen_path, "w") as fp:
            json.dump({"generators": inp["generators"]}, fp)
        self.laws = [(Isometry.from_matrix(law["matrix"]), law["k"]) for law in inp["laws"]]
        self.weight_at = [Numeric(x) for x in inp["weight_at"]]
        self.preserving = TwistData.preserving()

    def run(self, p: Pass) -> None:
        with p.task("enumerate"):
            spec = self._enumerate(p)
        with p.task("laws"):
            self._laws(p)
        with p.task("weights"):
            self._weights(p, spec)
        with p.task("cli"):
            self._cli(p)

    def _enumerate(self, p: Pass):
        ref = self.expected["spectrum"]
        specs = []
        for gens in (self.generators, self.conjugated):
            result = p.call("hyperbolic.enumerate_geodesics", hyperbolic.enumerate_geodesics,
                            gens, self.config)
            p.check(lambda: _same_spectrum(result.spectrum, ref)
                    and result.elliptic == () and result.dropped == 0, "spectrum")
            if isinstance(result, Failed):
                specs.append(result)
                continue
            specs.append(result.spectrum)
            p.count("hyperbolic.types", len(result.spectrum))
            p.count("hyperbolic.geodesics", result.spectrum.total_multiplicity())
            p.count("hyperbolic.elliptic", len(result.elliptic))
            p.count("hyperbolic.dropped", result.dropped)
        verdict = p.call("spectrum.almost_conjugate", spectrum.almost_conjugate, *specs)
        p.check(lambda: verdict == (True, None), "conjugation invariance")
        if not isinstance(specs[0], Failed):
            p.count("spectrum.entries", 2 * len(specs[0]))
        return specs[0]

    def _laws(self, p: Pass) -> None:
        for (g, k), e in zip(self.laws, self.expected["laws"]):
            l = p.call("hyperbolic.translation_length", hyperbolic.translation_length, g)
            p.check(lambda: abs(l - e["length"]) <= LENGTH_TOL * max(1.0, l), "length")
            kind = p.call("hyperbolic.classify", hyperbolic.classify, g)
            p.check(lambda: kind is (IsometryClass.GLIDE_REFLECTION if g.det() < 0
                                     else IsometryClass.HYPERBOLIC), "class")
            gk = p.call("hyperbolic.Isometry.power", Isometry.power, g, k)
            p.check(lambda: (gk.det() < 0) == e["power_reversing"], "power orientation")
            lk = p.call("hyperbolic.translation_length", hyperbolic.translation_length, gk)
            p.check(lambda: abs(lk - e["power_length"]) <= LENGTH_TOL * max(1.0, lk), "power law")

    def _weights(self, p: Pass, spec) -> None:
        e = self.expected
        for l, (_, w) in zip(self.weight_at, e["total_weight"]):
            got = p.call("spectrum.total_weight", spectrum.total_weight, spec, l)
            p.check(lambda: abs(float(got) - w) <= LENGTH_TOL, "W(l)")
        for fn in (dirichlet.dirichlet_partial_sum, dirichlet.dirichlet_partial_sum_grouped):
            value = p.call(f"dirichlet.{fn.__name__}", fn, spec, self.s)
            p.check(lambda: self.near(p, value, e["dirichlet"], ENUMERATE_REL_TOL), fn.__name__)
            if not isinstance(spec, Failed):
                p.count("dirichlet.terms", len(spec))
        for l, ref in e["q_factor"]:
            value = p.call("dirichlet.q_factor", dirichlet.q_factor, l, self.preserving)
            p.check(lambda: self.q_ok(p, value, ref), "Q-factor")

    def _cli(self, p: Pass) -> None:
        inp = self.inp
        out = self.path("enumerated.json")
        code = p.call("cli.enumerate", run_cli, [
            "enumerate", "--generators", self.gen_path, "--max-word-length",
            str(inp["max_word_length"]), "--cutoff", repr(inp["cutoff"]),
            "--out", out, "--format", "json"])
        p.check(lambda: code == 0 and self.output_ok(p, "enumerate", out), "enumerate JSON")
        spec = p.call("interchange.load_spectrum", load_spectrum, out)
        p.check(lambda: _same_spectrum(spec, self.expected["spectrum"]), "enumerated spectrum")
        if not isinstance(spec, Failed):
            p.count("interchange.bytes", os.path.getsize(out))


WORKLOADS = {
    "exact-suite": ExactSuite,
    "numeric-compare": NumericCompare,
    "enumerate": Enumerate,
}
