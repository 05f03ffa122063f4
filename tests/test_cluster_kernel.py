"""Property tests: the sorted-sweep cluster index against a span-scan oracle.

The oracle below is the O(N * clusters) bucketing the comparison layer used
before every consumer read one cluster index: an independent sort-and-sweep
clustering, then, for each entry, a scan of every cluster span widened by the
tolerance, taking the first that contains the entry.  Every consumer must
give exactly what the oracle gives, floats included, since both add a
cluster's weights in canonical entry order.  A second oracle is the
object-based canonical form: entries merged in a dict and sorted by a
per-entry key, as spectra were built before they were held as columns.
"""

import math
import random
from fractions import Fraction
from typing import Dict, List

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isogeo import spectrum as spectrum_module
from isogeo.dirichlet import dirichlet_partial_sum, dirichlet_partial_sum_grouped
from isogeo.interchange import spectrum_from_json, spectrum_to_json
from isogeo.lengths import Clusters, Exact, Numeric, cluster_lengths, exact_keys, sorted_order, tanh_half
from isogeo.scenario import build_scenario, to_spectra
from isogeo.spectrum import (
    ConjugacyWitness,
    CountingFunction,
    DiscrepancyTable,
    GeodesicEntry,
    LengthTwistSpectrum,
    Orientation,
    almost_conjugate,
    compare_weights,
    discrepancy,
    total_weight,
    weight,
    weight_function,
)
from test_lengths import oracle_order

P = Orientation.PRESERVING
R = Orientation.REVERSING
HORIZON = Numeric(30.0)


# --- oracle: span scans over independently swept clusters ----------------------


def oracle_clusters(values, tol):
    def key(l):
        if isinstance(l, Exact):
            return (l.approx(), 0, l.base, l.mult)
        return (l.approx(), 1, 0, l.value)

    ordered = sorted(values, key=key)
    clusters = []
    prev = None
    for v in ordered:
        x = v.approx()
        if prev is None or x - prev > tol:
            clusters.append([v])
        else:
            clusters[-1].append(v)
        prev = x
    return clusters


def representative(cluster):
    """A swept cluster's first Exact value, else its first value."""
    return next((v for v in cluster if isinstance(v, Exact)), cluster[0])


def spans_of(clusters):
    return [(min(v.approx() for v in c), max(v.approx() for v in c)) for c in clusters]


def oracle_clustered_weights(spec, clusters, tol):
    sums = [Fraction(0)] * len(clusters)
    spans = spans_of(clusters)
    for e in spec.entries:
        x = e.length.approx()
        for i, (lo, hi) in enumerate(spans):
            if lo - tol <= x <= hi + tol:
                sums[i] = sums[i] + e.multiplicity * weight(e)
                break
    return sums


def oracle_weight_function(spec):
    clusters = oracle_clusters([e.length for e in spec.entries], spec.tolerance)
    weights = oracle_clustered_weights(spec, clusters, spec.tolerance)
    return [(representative(c), w) for c, w in zip(clusters, weights)]


def oracle_total_weight(spec, clusters, weights, l):
    x = l.approx()
    for (lo, hi), w in zip(spans_of(clusters), weights):
        if lo - spec.tolerance <= x <= hi + spec.tolerance:
            return w
    return Fraction(0)


def oracle_compare_weights(a, b, tol):
    every = [e.length for e in a.entries] + [e.length for e in b.entries]
    clusters = oracle_clusters(every, tol)
    wa = oracle_clustered_weights(a, clusters, tol)
    wb = oracle_clustered_weights(b, clusters, tol)
    out = []
    for c, va, vb in zip(clusters, wa, wb):
        if isinstance(va, Fraction) and isinstance(vb, Fraction):
            differ = va != vb
        else:
            differ = abs(float(va) - float(vb)) > tol
        if differ:
            out.append((representative(c), va, vb))
    return out


def oracle_almost_conjugate(a, b, tol):
    every = [e.length for e in a.entries] + [e.length for e in b.entries]
    clusters = oracle_clusters(every, tol)
    spans = spans_of(clusters)

    def bucket(spec) -> Dict[tuple, int]:
        out: Dict[tuple, int] = {}
        for e in spec.entries:
            x = e.length.approx()
            for i, (lo, hi) in enumerate(spans):
                if lo - tol <= x <= hi + tol:
                    key = (i, e.orientation.value, e.nu)
                    out[key] = out.get(key, 0) + e.multiplicity
                    break
        return out

    ma, mb = bucket(a), bucket(b)
    for key in sorted(set(ma) | set(mb)):
        va, vb = ma.get(key, 0), mb.get(key, 0)
        if va != vb:
            i, orient, nu = key
            return False, ConjugacyWitness(representative(clusters[i]), Orientation(orient), nu, va, vb)
    return True, None


def oracle_discrepancy(a, b, tol):
    prims = [e.length for e in a.primitives()] + [e.length for e in b.primitives()]
    clusters = oracle_clusters(prims, tol)
    spans = spans_of(clusters)

    def counts(spec, orient) -> List[int]:
        out = [0] * len(clusters)
        for e in spec.primitives():
            if e.orientation is not orient:
                continue
            x = e.length.approx()
            for i, (lo, hi) in enumerate(spans):
                if lo - tol <= x <= hi + tol:
                    out[i] += e.multiplicity
                    break
        return out

    alpha_a, alpha_b = counts(a, P), counts(b, P)
    beta_a, beta_b = counts(a, R), counts(b, R)
    table_a, table_b = {}, {}
    for i, c in enumerate(clusters):
        rep = representative(c)
        if alpha_a[i] != alpha_b[i]:
            table_a[rep] = alpha_a[i] - alpha_b[i]
        if beta_b[i] != beta_a[i]:
            table_b[rep] = beta_b[i] - beta_a[i]
    return DiscrepancyTable(table_a, table_b, a.horizon)


class OracleCounting:
    def __init__(self, spec):
        self.tolerance = spec.tolerance
        clusters = oracle_clusters([e.length for e in spec.entries], spec.tolerance)
        spans = spans_of(clusters)
        jumps = [0] * len(clusters)
        for e in spec.entries:
            x = e.length.approx()
            for i, (lo, hi) in enumerate(spans):
                if lo - self.tolerance <= x <= hi + self.tolerance:
                    jumps[i] += e.multiplicity
                    break
        self._reps = [representative(c) for c in clusters]
        self._jumps = jumps
        cums = []
        running = 0
        for j in jumps:
            running += j
            cums.append(running)
        self._cums = cums

    def jump(self, l):
        x = l.approx()
        for rep, j in zip(self._reps, self._jumps):
            if abs(rep.approx() - x) <= self.tolerance:
                return j
        return 0

    def count_up_to(self, l):
        x = l.approx() + self.tolerance
        total = 0
        for rep, c in zip(self._reps, self._cums):
            if rep.approx() <= x:
                total = c
            else:
                break
        return total


def oracle_entries(entries):
    """Canonical entries: copies of one (length, orientation, nu) merged, then
    sorted by length, exact before numeric, preserving before reversing, nu."""
    merged = {}
    for e in entries:
        key = (e.length, e.orientation, e.nu)
        prior = merged.get(key)
        merged[key] = e if prior is None else GeodesicEntry(
            e.length, e.orientation, e.nu, prior.multiplicity + e.multiplicity
        )

    def order(e):
        exact = isinstance(e.length, Exact)
        return (
            e.length.approx(),
            0 if exact else 1,
            (e.length.base, e.length.mult) if exact else (0, e.length.value),
            e.orientation.value,
            e.nu,
        )

    return tuple(sorted(merged.values(), key=order))


# --- strategies -----------------------------------------------------------------

anchors = st.one_of(
    st.builds(Exact, st.sampled_from([2, 3, 4, 5]), st.integers(1, 6)),
    st.builds(Exact, st.sampled_from([2, 3]), st.integers(1, 24).map(lambda n: Fraction(n, 4))),
    st.floats(0.1, 20.0).map(Numeric),
    # exact lengths on three grids within 1e-3 of log 2: one cluster at tol 1e-3
    st.sampled_from([Exact(2, 1), Exact(3, Fraction(631, 1000)), Exact(5, Fraction(431, 1000))]),
)


@st.composite
def spectrum_pair(draw):
    """Two spectra over one shared pool of lengths.

    Each anchor length, exact or numeric, may carry a chain of numeric
    near-duplicates 0.75*tol apart, so the ends of a chain are more than tol
    apart and only the chain joins them; an exact anchor may also have a
    numeric twin of the same float.  Both sides draw from the pool, so
    lengths repeat within and across the spectra."""
    tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    pool = []
    for a in draw(st.lists(anchors, min_size=1, max_size=8)):
        pool.append(a)
        if isinstance(a, Exact) and draw(st.booleans()):
            pool.append(Numeric(a.approx()))  # a numeric twin: ties go exact first
        for k in range(1, draw(st.integers(0, 3)) + 1):
            pool.append(Numeric(a.approx() + k * 0.75 * tol))
    # counts past 2**63 sometimes: nu and multiplicity columns hold Python ints; a
    # multiplicity in [2**62, 2**63) fits int64, but a sum of two of them does not
    entry = st.builds(
        GeodesicEntry,
        st.sampled_from(pool),
        st.sampled_from([P, R]),
        st.one_of(st.integers(1, 3), st.integers(2**63, 2**63 + 2)),
        st.one_of(st.integers(1, 4), st.integers(2**62, 2**63 - 1), st.integers(2**63, 2**70)),
    )
    sides = [LengthTwistSpectrum(draw(st.lists(entry, max_size=14)), HORIZON, tol) for _ in "ab"]
    queries = pool + [Numeric(v.approx() + d * tol) for v in pool for d in (-1.5, 0.5, 1.9)]
    return sides[0], sides[1], tol, [q for q in queries if q.approx() <= HORIZON.approx()]


# --- properties -----------------------------------------------------------------


# two multiplicities of 2**62 in one (cluster, orientation, nu) group: their sum wraps in int64
@example((LengthTwistSpectrum([GeodesicEntry(Numeric(x), P, 1, 2**62) for x in (1.0, 1.0 + 5e-10)], HORIZON),
          LengthTwistSpectrum([], HORIZON), 1e-9, []))
@settings(max_examples=300, deadline=None)
@given(spectrum_pair())
def test_comparisons_match_the_span_scan(case):
    a, b, tol, _ = case
    assert compare_weights(a, b) == oracle_compare_weights(a, b, tol)
    verdict, table = almost_conjugate(a, b), discrepancy(a, b)
    assert verdict == oracle_almost_conjugate(a, b, tol)
    assert table == oracle_discrepancy(a, b, tol)
    # a numpy scalar passes ==, but compare --format json cannot encode it
    witness = verdict[1]
    if witness is not None:
        assert all(type(v) is int for v in (witness.nu, witness.multiplicity_a, witness.multiplicity_b))
    assert all(type(v) is int for v in [*table.a.values(), *table.b.values()])


# one cluster of two multiplicities of 2**62: its jump, their sum, is past int64
@example((LengthTwistSpectrum([GeodesicEntry(Numeric(x), o, 1, 2**62) for x, o in ((1.0, P), (1.0 + 5e-10, R))],
                              HORIZON), LengthTwistSpectrum([], HORIZON), 1e-9, [Numeric(1.0), Numeric(2.0)]))
@settings(max_examples=300, deadline=None)
@given(spectrum_pair())
def test_single_spectrum_queries_match_the_span_scan(case):
    a, b, _, queries = case
    for spec in (a, b, a.union(b)):
        assert weight_function(spec) == oracle_weight_function(spec)
        counting, oracle = CountingFunction(spec), OracleCounting(spec)
        clusters = oracle_clusters([e.length for e in spec.entries], spec.tolerance)
        weights = oracle_clustered_weights(spec, clusters, spec.tolerance)
        for q in queries:
            assert total_weight(spec, q) == oracle_total_weight(spec, clusters, weights, q)
            assert counting.jump(q) == oracle.jump(q)
            assert counting.count_up_to(q) == oracle.count_up_to(q)


@settings(max_examples=200, deadline=None)
@given(spectrum_pair())
def test_cluster_lengths_place_every_value_in_its_cluster(case):
    a, b, tol, _ = case
    values = [e.length for e in a.entries + b.entries]
    clusters = cluster_lengths(values, tol)
    assert clusters == oracle_clusters(values, tol)
    assert sorted(map(id, (v for c in clusters for v in c))) == sorted(map(id, values))


# copies of one type with multiplicity 2**62 each: a.union(b) folds two into one row of 2**63
@example(tuple(LengthTwistSpectrum([GeodesicEntry(Exact(2, 1), R, 1, 2**62)], HORIZON) for _ in "ab") + (1e-9, []),
         random.Random(0))
@settings(max_examples=200, deadline=None)
@given(spectrum_pair(), st.randoms(use_true_random=False))
def test_columns_round_trip_and_keep_the_canonical_form(case, rnd: random.Random):
    a, b, tol, _ = case
    for spec in (a, b, a.union(b)):
        assert spec.approx.dtype == np.float64 and spec.reversing.dtype == np.int8
        assert all(type(v) is int for v in spec.nu + spec.multiplicity)
        # the multiplicity column is int64 unless a value is past it, then Python ints
        assert spec.counts[1].tolist() == spec.multiplicity
        assert spec.counts[1].dtype == (object if max(spec.multiplicity, default=0) >= 2**63 else np.int64)
        assert all(l is None or isinstance(l, Exact) for l in spec.exact)
        loaded = spectrum_from_json(spectrum_to_json(spec), tol)
        assert loaded == spec and loaded.entries == spec.entries
    # shuffled entries with copies of one type: merged and ordered as the oracle does
    entries = list(a.entries + b.entries + a.entries[::2])
    rnd.shuffle(entries)
    built = LengthTwistSpectrum(entries, HORIZON, tol)
    assert built.entries == oracle_entries(entries)
    assert [e.length.approx() for e in built.entries] == built.approx.tolist()


# --- the column kernel of W against the promotion rule ------------------------------


def test_w_keeps_the_exact_prefix_where_a_float_sum_would_round_it():
    # one cluster: 1/3 twice as exact terms (nu = 3, and tanh(log(2)/2) = 1/3), then a
    # reversing float term, then a later 5/3 that adds as its rounded value
    l0 = Exact(2, 1)
    x0 = l0.approx()
    entries = [GeodesicEntry(l0, P, 3, 1), GeodesicEntry(l0, R, 1, 1),
               GeodesicEntry(Numeric(x0 + 4e-10), R, 1, 1), GeodesicEntry(Numeric(x0 + 8e-10), P, 3, 5)]
    spec = LengthTwistSpectrum(entries, HORIZON)
    clusters = oracle_clusters([e.length for e in spec.entries], spec.tolerance)
    [want] = oracle_clustered_weights(spec, clusters, spec.tolerance)
    [(rep, got)] = weight_function(spec)
    assert rep == l0 and type(got) is float and got.hex() == want.hex()
    # every term rounded first and summed as floats misses the last bit
    naive = np.bincount([0] * len(spec), [e.multiplicity * float(weight(e)) for e in spec.entries])
    assert naive[0] != got


def test_w_of_two_exact_grids_in_one_cluster_at_counts_past_int64():
    # 3*log(2) and 2*log(3) lie 0.118 apart: one cluster at tol 0.2, with the exact
    # factors tanh = 7/9 and 4/5; a later cluster adds a float term after big exact ones
    tol, big = 0.2, 2**63
    l2, l3, far = Exact(2, 3), Exact(3, 2), Exact(5, 2)

    def spec(k: int) -> LengthTwistSpectrum:
        return LengthTwistSpectrum([
            GeodesicEntry(l2, P, big + 1, 2**70 + k), GeodesicEntry(l2, R, 1, 2 * big + 3),
            GeodesicEntry(l3, R, 3, 2**65 - k), GeodesicEntry(l3, P, 1, big),
            GeodesicEntry(far, P, 2, 2**66 + k), GeodesicEntry(far, R, big + 5, 2**64),
            GeodesicEntry(Numeric(far.approx() + 0.1), R, 1, big + 7 * k),
        ], HORIZON, tol)

    a, b = spec(0), spec(2**20)
    w2 = Fraction(2**70, big + 1) + Fraction(7, 9) * (2 * big + 3)
    w3 = Fraction(4, 5) * Fraction(2**65, 3) + big
    assert weight_function(a)[0] == (l2, w2 + w3)
    for s in (a, b):
        got = weight_function(s)
        assert [tuple(map(type, row)) for row in got] == [(Exact, Fraction), (Exact, float)]
        assert got == oracle_weight_function(s)
    assert compare_weights(a, b) == oracle_compare_weights(a, b, tol)
    assert len(compare_weights(a, b)) == 2


def test_w_of_counts_between_2_53_and_int64():
    # every count fits int64, but the lcm of two large coprime nu times a count does
    # not, and past 2**53 an int no longer converts to a float exactly
    x = Numeric(2.0)
    entries = [GeodesicEntry(x, P, 2**31 - 1, 2**40 + 7), GeodesicEntry(x, P, 2**31 - 19, 2**41 + 3),
               GeodesicEntry(Numeric(5.0), P, 3, 2**54 + 1), GeodesicEntry(Numeric(5.0), R, 3, 2**55 + 1),
               GeodesicEntry(Numeric(5.0 + 5e-10), P, 7, 2**62 + 3)]
    spec = LengthTwistSpectrum(entries, HORIZON)
    got = weight_function(spec)
    assert [type(w) for _, w in got] == [Fraction, float]
    assert got == oracle_weight_function(spec)
    assert got[0][1] == Fraction(2**40 + 7, 2**31 - 1) + Fraction(2**41 + 3, 2**31 - 19)
    # (2**54 + 1)/3 rounds to 6004799503160662.0, float(2**54)/3 to one less: equal W here
    a = LengthTwistSpectrum([GeodesicEntry(x, P, 3, 2**54 + 1)], HORIZON)
    b = LengthTwistSpectrum([GeodesicEntry(x, P, 1, 6004799503160662), GeodesicEntry(x, R, 2**40, 1)], HORIZON)
    assert compare_weights(a, b) == oracle_compare_weights(a, b, a.tolerance) == []


def test_the_w_path_reads_neither_weights_nor_entries(tmp_path, monkeypatch):
    l0 = Exact(2, 1)
    entries = [GeodesicEntry(l0, P, 3, 1), GeodesicEntry(l0, R, 1, 2**70),
               GeodesicEntry(Numeric(l0.approx() + 4e-10), R, 1, 1), GeodesicEntry(Numeric(2.5), P, 2, 3),
               GeodesicEntry(Exact(3, Fraction(1, 2)), R, 1, 2), GeodesicEntry(Numeric(3.25), R, 2**64, 1),
               GeodesicEntry(Numeric(3.5), R, 10**400, 10**400)]
    queries = [l0, Numeric(2.5), Numeric(1.0), Exact(3, Fraction(1, 2))]
    a = LengthTwistSpectrum(entries, HORIZON)
    b = LengthTwistSpectrum(entries[1:], HORIZON)
    want = (compare_weights(a, b), weight_function(a), [total_weight(a, q) for q in queries])

    def refuse(*args):
        raise AssertionError("the W path reads the columns only")

    monkeypatch.setattr(LengthTwistSpectrum, "entries", property(refuse))
    a = LengthTwistSpectrum(entries, HORIZON)
    b = LengthTwistSpectrum(entries[1:], HORIZON)
    assert (compare_weights(a, b), weight_function(a), [total_weight(a, q) for q in queries]) == want


# --- the damping column behind W and the term floats --------------------------------


# below a horizon of 100: exact damping p/q (its q past int64 from 2**63 and 3**41 on), float damping
# at fractional multiples, numeric lengths
damped_lengths = st.one_of(
    st.builds(Exact, st.sampled_from([2, 3]), st.integers(1, 90)),
    st.builds(Exact, st.sampled_from([2, 3]), st.integers(1, 360).map(lambda n: Fraction(n, 4))),
    st.floats(0.01, 99.0).map(Numeric),
)


# nu past the float range: t / nu would raise; near 2**1030 the quotient is subnormal
huge_nu = st.one_of(st.integers(1, 10**400), st.integers(2**1029, 2**1031))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(GeodesicEntry, damped_lengths, st.sampled_from([P, R]),
                          st.one_of(st.integers(1, 7), huge_nu),
                          st.one_of(st.integers(1, 4), st.integers(1, 2**70))), max_size=20))
@example([GeodesicEntry(Numeric(1.5), R, 2**1030 + 1, 1), GeodesicEntry(Exact(2, Fraction(3, 4)), R, 10**400, 3)])
def test_weights_are_the_scalar_weight_of_each_entry(entries):
    spec = LengthTwistSpectrum(entries, Numeric(100.0))
    want = [weight(e) for e in spec.entries]
    assert [x.hex() for x in spec.term_floats.tolist()] == [
        (float(e.multiplicity) * float(w)).hex() for e, w in zip(spec.entries, want)]
    # the exact term of each entry: m * w, with a float damping factor taken exactly
    assert spec.exact_terms(range(len(spec))) == [
        e.multiplicity * (w if type(w) is Fraction else Fraction(math.tanh(e.length.approx() / 2.0)) / e.nu)
        for e, w in zip(spec.entries, want)]
    for e, w in zip(spec.entries, want):
        if type(w) is float and e.nu > 2**1024:  # the correctly rounded quotient, 0.0 or a subnormal
            assert w == float(Fraction(math.tanh(e.length.approx() / 2.0)) / e.nu) < 2.3e-308
    assert weight_function(spec) == oracle_weight_function(spec)


def test_damping_column_calls_no_tanh_half(monkeypatch):
    # W, weights and both Dirichlet sums read one damping column per spectrum, whose
    # exact factors come from the key rows alone; each is tanh_half of its entry's length
    calls = []

    def counted(l):
        calls.append((l.base, l.mult))
        return tanh_half(l)

    monkeypatch.setattr(spectrum_module, "tanh_half", counted)
    a, b = to_spectra(build_scenario(3, 30))
    # 2^3 three ways, and factors of odd and even bases past int64
    c = LengthTwistSpectrum([GeodesicEntry(Exact(2, 3), R, 1), GeodesicEntry(Exact(8, 1), R, 3),
                             GeodesicEntry(Exact(4, Fraction(3, 2)), R, 5), GeodesicEntry(Exact(2, 3), P),
                             GeodesicEntry(Exact(3, 41), R), GeodesicEntry(Exact(2, 70), R)], Numeric(100.0))
    compare_weights(a, b)
    compare_weights(b, a)
    for spec in (a, b, c):
        weight_function(spec)
        for l in spec.exact[::7]:
            total_weight(spec, l)
        assert len(spec.term_floats) == len(spec.exact_terms(range(len(spec)))) == len(spec)
        dirichlet_partial_sum(spec, 2.0)
        dirichlet_partial_sum_grouped(spec, 2.0)
    assert calls == []
    for spec in (a, b, c):
        p, q, t, is_float = spec._damping
        assert [p.tolist(), q.tolist(), t.tolist(), is_float.tolist()] == object_damping(spec)
    assert c._damping[0].dtype == object and a._damping[0].dtype == np.int64


# --- the key columns against their definitions ------------------------------------
#
# Each kernel the key columns feed is checked against its definition: sorted_order
# against a sort key per index, the canonical columns against oracle_entries, W
# against the span scan, each cluster's representative against the swept
# clusters, and the damping column against one tanh_half per Exact object.


def object_damping(spec):
    """The damping columns from one tanh_half per Exact object, as spectra made them."""
    out = []
    for l, r, x in zip(spec.exact, spec.reversing.tolist(), spec.approx.tolist()):
        t = tanh_half(l) if r and l is not None else None
        out.append((t.numerator, t.denominator, 0.0, False) if type(t) is Fraction
                   else (1, 1, math.tanh(x / 2.0), True) if r else (1, 1, 0.0, False))
    return [list(c) for c in zip(*out)] if out else [[]] * 4


# bases 2, 3, 4, 8 and 10 (4 and 8 canonicalise onto 2), fractional multipliers, a
# multiplier past int64, and different exact keys with the float of log 2: dens 1, 2,
# 10**20 and 3*10**19, so a run of equal floats holds multipliers of different den
TIED_LOG2 = [Exact(2, 1), Exact(4, Fraction(1, 2)), Exact(8, Fraction(1, 3)),
             Exact(2, Fraction(10**20 + 1, 10**20)), Exact(2, Fraction(10**20 - 1, 10**20)),
             Exact(2, Fraction(3 * 10**19 + 1, 3 * 10**19)), Exact(4, Fraction(3 * 10**19 - 1, 6 * 10**19))]
mixed_anchors = st.one_of(
    st.builds(Exact, st.sampled_from([2, 3, 4, 8, 10]), st.integers(1, 9)),
    st.builds(Exact, st.sampled_from([2, 3, 4, 8, 10]),
              st.builds(Fraction, st.integers(1, 40), st.integers(1, 7))),
    st.builds(Exact, st.sampled_from([2, 3]), st.builds(Fraction, st.integers(2**64, 2**64 + 9), st.just(2**63))),
    st.sampled_from(TIED_LOG2),
    st.floats(0.1, 20.0).map(Numeric),
).filter(lambda l: l.approx() < HORIZON.approx() - 1)  # its numeric neighbours stay below the horizon


@st.composite
def mixed_spectra(draw):
    tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    pool = []
    for a in draw(st.lists(mixed_anchors, min_size=1, max_size=7)):
        pool.append(a)
        if isinstance(a, Exact) and draw(st.booleans()):
            pool.append(Numeric(a.approx()))  # a numeric twin of the same float
        pool += [Numeric(a.approx() + k * 0.75 * tol) for k in range(1, draw(st.integers(0, 2)) + 1)]
    entry = st.builds(GeodesicEntry, st.sampled_from(pool), st.sampled_from([P, R]),
                      st.one_of(st.integers(1, 3), st.just(2**63)), st.one_of(st.integers(1, 4), st.just(2**64)))
    return [draw(st.lists(entry, max_size=16)) for _ in "ab"], tol


@settings(max_examples=300, deadline=None)
@given(mixed_spectra())
@example(([[GeodesicEntry(l, P) for l in TIED_LOG2] + [GeodesicEntry(Numeric(TIED_LOG2[0].approx()), R)],
           [GeodesicEntry(l, R, 3) for l in TIED_LOG2[::-1]]], 1e-9))
def test_key_columns_match_the_definitions(case):
    (ea, eb), tol = case
    a, b = (LengthTwistSpectrum(e, HORIZON, tol) for e in (ea, eb))
    for entries, spec in ((ea, a), (eb, b)):
        lengths = [e.length for e in entries]
        x = np.array([l.approx() for l in lengths], dtype=float)
        rev = np.array([e.orientation is R for e in entries], dtype=np.int8)
        nu = [e.nu for e in entries]
        exact = [l if isinstance(l, Exact) else None for l in lengths]
        assert sorted_order(x, exact_keys(exact), rev, nu).tolist() == oracle_order(x, exact, rev, nu)
        assert sorted_order(x, exact_keys(lengths)).tolist() == oracle_order(x, lengths)
        # the entries hold the exact, reversing, nu and multiplicity columns
        canonical = oracle_entries(entries)
        assert spec.entries == canonical
        assert spec.approx.tolist() == [e.length.approx() for e in canonical]
        keys = exact_keys([e.length if isinstance(e.length, Exact) else None for e in canonical])
        assert all(np.array_equal(k, c) for k, c in zip(spec.keys, keys))
        assert all(k.dtype == (object if c.dtype == object else np.int64) for k, c in zip(spec.keys, keys))
        # the same spectrum from its key columns, from its Exact column and from shuffled entries
        for column in (spec.keys, spec.exact):
            assert LengthTwistSpectrum.from_columns(
                (spec.approx, column, spec.reversing, spec.nu, spec.multiplicity), HORIZON, tol) == spec
        assert LengthTwistSpectrum(entries[::-1], HORIZON, tol) == spec
        p, q, t, is_float = spec._damping
        assert [p.tolist(), q.tolist(), t.tolist(), is_float.tolist()] == object_damping(spec)
        assert weight_function(spec) == oracle_weight_function(spec)
        want = oracle_clustered_weights(spec, oracle_clusters([e.length for e in spec.entries], tol), tol)
        w = spec.weight_columns
        assert w.values() == want and w.floats(np.arange(len(w.flo))).tolist() == [float(v) for v in want]
    for specs in ((a,), (a, b)):
        clusters = Clusters([(s.approx, exact_keys(s.exact)) for s in specs], tol)
        want = [representative(c) for c in oracle_clusters([e.length for s in specs for e in s.entries], tol)]
        assert clusters.reps(range(clusters.size)) == want
        assert clusters.rep_floats.tolist() == [l.approx() for l in want]


def test_to_spectra_constructs_no_exact(monkeypatch):
    sol = build_scenario(10, 314)
    want = to_spectra(sol)
    made = []
    init = Exact.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(Exact, "__init__", counted)
    got = to_spectra(sol)
    assert made == [] and got == want
    assert all(k.dtype == np.int64 for s in got for k in s.keys) and not any(s.__dict__.get("exact") for s in got)
