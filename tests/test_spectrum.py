import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeo.errors import HorizonMismatch, QueryBeyondHorizon
from isogeo.lengths import Exact, Numeric
from isogeo.scenario import build_scenario, to_spectra
from isogeo.spectrum import (
    CountingFunction,
    DiscrepancyTable,
    GeodesicEntry,
    JumpReport,
    LengthTwistSpectrum,
    Orientation,
    almost_conjugate,
    compare_weights,
    discrepancy,
    pgt_jump_report,
    total_weight,
    validate_surface,
    weight,
    weight_function,
)

P = Orientation.PRESERVING
R = Orientation.REVERSING


def spec_of(entries, horizon=Numeric(10.0), tol=1e-9):
    return LengthTwistSpectrum(entries, horizon, tol)


def test_weight_preserving():
    assert weight(GeodesicEntry(Numeric(1.0), P)) == 1
    assert weight(GeodesicEntry(Numeric(7.7), P, nu=3)) == Fraction(1, 3)


def test_weight_reversing_exact():
    # tanh(log 3) = (9-1)/(9+1)
    assert weight(GeodesicEntry(Exact(3, 2), R)) == Fraction(4, 5)
    assert weight(GeodesicEntry(Exact(2, 1), R)) == Fraction(1, 3)
    assert weight(GeodesicEntry(Exact(2, 1), R, nu=3)) == Fraction(1, 9)


def test_weight_reversing_numeric():
    w = weight(GeodesicEntry(Numeric(2.0), R, nu=2))
    assert isinstance(w, float)
    assert w == pytest.approx(math.tanh(1.0) / 2, abs=1e-12)


def test_weight_bounds_and_monotonicity():
    prev = 0.0
    for l in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]:
        w = float(weight(GeodesicEntry(Numeric(l), R, nu=2)))
        assert prev < w < 0.5
        prev = w


def test_total_weight_empty_and_simple():
    empty = spec_of([])
    assert total_weight(empty, Numeric(1.0)) == 0
    two = spec_of([GeodesicEntry(Numeric(1.0), P, multiplicity=2)])
    assert total_weight(two, Numeric(1.0)) == 2


def test_total_weight_mixed_exact():
    l0 = Exact(2, 1)
    s = spec_of([GeodesicEntry(l0, P), GeodesicEntry(l0, R)], horizon=Exact(2, 5))
    assert total_weight(s, l0) == Fraction(4, 3)


def test_total_weight_beyond_horizon():
    s = spec_of([GeodesicEntry(Numeric(1.0), P)], horizon=Numeric(2.0))
    with pytest.raises(QueryBeyondHorizon):
        total_weight(s, Numeric(3.0))


def test_total_weight_reads_the_clustered_w():
    # 1.0 and 1+1.6e-9 are more than tol apart, but the middle value chains them
    s = spec_of([GeodesicEntry(Numeric(1.0 + k * 0.8e-9), P) for k in range(3)])
    assert weight_function(s) == [(Numeric(1.0), 3)]
    assert total_weight(s, Numeric(1.0)) == 3
    assert total_weight(s, Numeric(1.0 + 1.6e-9)) == 3
    # the span [1, 1+1.6e-9] widened by tol on each side, and nothing outside it
    assert total_weight(s, Numeric(1.0 - 0.9e-9)) == 3
    assert total_weight(s, Numeric(1.0 + 2.5e-9)) == 3
    assert total_weight(s, Numeric(1.0 - 1.1e-9)) == 0
    assert total_weight(s, Numeric(1.0 + 2.7e-9)) == 0
    assert total_weight(s, Numeric(5.0)) == 0


def test_entry_counts_must_be_integral():
    for field in ("nu", "multiplicity"):
        for bad in (1.5, "2", Fraction(3, 2)):
            with pytest.raises(ValueError, match=field):
                GeodesicEntry(Numeric(1.0), P, **{field: bad})
    e = GeodesicEntry(Numeric(1.0), P, nu=2.0, multiplicity=3.0)
    assert (e.nu, e.multiplicity) == (2, 3)
    assert type(e.nu) is int and type(e.multiplicity) is int


@pytest.mark.parametrize(
    "columns, message",
    [
        (([1.0, -3.0], [None, None], [0, 1], [0, 1], [-5, 1]), "imprimitivity index must be >= 1, got 0"),
        (([1.0], [None], [0], [1], [0]), "multiplicity must be >= 1, got 0"),
        (([1.0], [None], [0], [True], [1]), "nu must be an integer, got True"),
        (([1.0], [None], [0], [1], [1.5]), "multiplicity must be an integer, got 1.5"),
        (([1.0, -3.0], [None, None], [0, 1], [1, 1], [1, 1]), "positive and finite, got -3.0"),
        (([0.0], [None], [0], [1], [1]), "positive and finite, got 0.0"),
        (([math.nan], [None], [0], [1], [1]), "positive and finite, got nan"),
        (([math.inf], [None], [0], [1], [1]), "positive and finite, got inf"),
    ],
    ids=["negative-counts", "zero-multiplicity", "bool-nu", "fractional-multiplicity", "negative-length",
         "zero-length", "nan-length", "inf-length"],
)
def test_from_columns_checks_what_an_entry_checks(columns, message):
    with pytest.raises(ValueError, match=message):
        LengthTwistSpectrum.from_columns(columns, Numeric(2.0))


def test_from_columns_converts_integral_float_counts():
    s = LengthTwistSpectrum.from_columns(([1.0, 1.5], [None, None], [0, 1], [2.0, 1], [1, 3.0]), Numeric(2.0))
    assert s == spec_of([GeodesicEntry(Numeric(1.0), P, nu=2), GeodesicEntry(Numeric(1.5), R, multiplicity=3)],
                        Numeric(2.0))
    assert list(map(type, s.nu + s.multiplicity)) == [int] * 4


def test_total_weight_additive_over_union():
    rng = random.Random(7)
    horizon = Numeric(20.0)
    for _ in range(20):
        def rand_spec():
            entries = [
                GeodesicEntry(
                    Numeric(rng.uniform(0.5, 15.0)),
                    rng.choice([P, R]),
                    nu=rng.randint(1, 3),
                    multiplicity=rng.randint(1, 4),
                )
                for _ in range(rng.randint(1, 6))
            ]
            return spec_of(entries, horizon)

        a, b = rand_spec(), rand_spec()
        u = a.union(b)
        for e in a.entries + b.entries:
            wa = total_weight(a, e.length)
            wb = total_weight(b, e.length)
            wu = total_weight(u, e.length)
            assert float(wu) == pytest.approx(float(wa) + float(wb), abs=1e-12)


def test_entries_aggregate_and_order():
    s = spec_of(
        [
            GeodesicEntry(Numeric(2.0), P, multiplicity=1),
            GeodesicEntry(Numeric(1.0), R),
            GeodesicEntry(Numeric(2.0), P, multiplicity=3),
        ]
    )
    assert len(s.entries) == 2
    assert s.entries[0].length == Numeric(1.0)
    assert s.entries[1].multiplicity == 4


@pytest.mark.parametrize(
    "length, horizon, tol, rejected",
    [
        (Numeric(11.0), Numeric(10.0), 1e-9, True),
        # only lengths at or above the horizon's float are checked one by one
        (Numeric(10.0 + 0.5e-9), Numeric(10.0), 1e-9, False),
        (Numeric(10.0 + 2e-9), Numeric(10.0), 1e-9, True),
        # on one grid the check is exact, whatever the tolerance
        (Exact(2, 11), Exact(2, 10), 1.0, True),
        (Exact(2, 10), Exact(2, 10), 1e-9, False),
    ],
    ids=["far-above", "half-tol-above", "two-tol-above", "next-grid-point", "grid-horizon"],
)
def test_entry_beyond_horizon_rejected(length, horizon, tol, rejected):
    entries = [GeodesicEntry(Numeric(0.5), P), GeodesicEntry(length, R), GeodesicEntry(length, P)]
    if rejected:
        with pytest.raises(ValueError, match="exceeds horizon"):
            spec_of(entries, horizon, tol)
    else:
        assert [e.length for e in spec_of(entries, horizon, tol).entries] == [Numeric(0.5), length, length]


def test_compare_weights_identical():
    s = spec_of([GeodesicEntry(Numeric(1.0), P), GeodesicEntry(Numeric(2.0), R)])
    assert compare_weights(s, s) == []


def test_compare_weights_one_extra():
    base = [GeodesicEntry(Numeric(1.0), P, multiplicity=2)]
    a = spec_of(base + [GeodesicEntry(Numeric(1.0), P)])
    b = spec_of(base)
    diffs = compare_weights(a, b)
    assert len(diffs) == 1
    l, wa, wb = diffs[0]
    assert l == Numeric(1.0)
    assert wa == wb + 1


def test_compare_weights_reads_an_exact_w_past_the_float_range_as_a_row():
    # W = 10**400 exactly, past the float range, against the float W 3*tanh(1/2): one row
    a = spec_of([GeodesicEntry(Numeric(1.0), P, multiplicity=10**400)], Numeric(5.0))
    b = spec_of([GeodesicEntry(Numeric(1.0), R, multiplicity=3)], Numeric(5.0))
    assert compare_weights(a, b) == [(Numeric(1.0), Fraction(10**400), 3 * math.tanh(0.5))]
    assert compare_weights(b, a) == [(Numeric(1.0), 3 * math.tanh(0.5), Fraction(10**400))]
    # two float W of inf (1e308 + 1e308 in one cluster) agree, and inf - inf warns of nothing
    inf = [spec_of([GeodesicEntry(Numeric(40.0 + d), R, multiplicity=10**308) for d in (0.0, dx)], Numeric(50.0))
           for dx in (5e-10, 4e-10)]
    assert [w for _, w in weight_function(inf[0])] == [math.inf]
    assert compare_weights(*inf) == []


def test_compare_weights_horizon_mismatch():
    a = spec_of([], horizon=Numeric(5.0))
    b = spec_of([], horizon=Numeric(6.0))
    with pytest.raises(HorizonMismatch):
        compare_weights(a, b)


def test_almost_conjugate_reflexive():
    s = spec_of(
        [GeodesicEntry(Numeric(1.0), P, multiplicity=2), GeodesicEntry(Numeric(2.0), R, nu=1)]
    )
    ok, witness = almost_conjugate(s, s)
    assert ok and witness is None


def test_almost_conjugate_orientation_swap():
    a = spec_of([GeodesicEntry(Numeric(1.5), P)])
    b = spec_of([GeodesicEntry(Numeric(1.5), R)])
    ok, witness = almost_conjugate(a, b)
    assert not ok
    assert witness.length == Numeric(1.5)
    assert witness.orientation is P
    assert (witness.multiplicity_a, witness.multiplicity_b) == (1, 0)


def test_almost_conjugate_implies_equal_weights():
    # same multiset assembled differently: split multiplicities, jittered lengths
    rng = random.Random(13)
    for _ in range(20):
        entries = [
            GeodesicEntry(
                Numeric(rng.uniform(0.5, 8.0)),
                rng.choice([P, R]),
                nu=rng.randint(1, 3),
                multiplicity=rng.randint(2, 5),
            )
            for _ in range(rng.randint(1, 5))
        ]
        a = spec_of(entries)
        tweaked = []
        for e in entries:
            jitter = rng.uniform(-4e-10, 4e-10)
            half = e.multiplicity // 2
            l = Numeric(e.length.value + jitter)
            tweaked.append(GeodesicEntry(l, e.orientation, e.nu, half))
            tweaked.append(GeodesicEntry(e.length, e.orientation, e.nu, e.multiplicity - half))
        b = spec_of(tweaked)
        ok, _ = almost_conjugate(a, b)
        assert ok
        assert compare_weights(a, b) == []


def test_discrepancy_zero_on_equal():
    s = spec_of([GeodesicEntry(Numeric(1.0), P), GeodesicEntry(Numeric(2.0), R)])
    t = discrepancy(s, s)
    assert t.a == {} and t.b == {}
    assert t.a_at(Numeric(1.0)) == 0


def test_discrepancy_checks_its_support_within_the_pair_tolerance():
    # a length the spectra accept within their tolerance stays within it in their table
    a = spec_of([GeodesicEntry(Numeric(3.0005), P)], Numeric(3.0), 1e-3)
    t = discrepancy(a, spec_of([], Numeric(3.0), 1e-4))
    assert (t.support(), t.a_at(Numeric(3.0005)), t.tolerance) == ([Numeric(3.0005)], 1, 1e-3)
    assert t == DiscrepancyTable(t.a, t.b, t.horizon, 1e-2)  # equality ignores the tolerance
    with pytest.raises(ValueError, match="support length 3.0005 exceeds horizon 3.0"):
        DiscrepancyTable(t.a, t.b, t.horizon)


def test_discrepancy_table_repr_counts_both_functions():
    t = DiscrepancyTable({Numeric(1.0): 2, Numeric(2.0): -1}, {Numeric(1.0): 1}, Numeric(3.0))
    assert repr(t) == "DiscrepancyTable(2 a-values, 1 b-values)"


@pytest.mark.parametrize("value", [1.5, True, False])
@pytest.mark.parametrize("side", ["a", "b"])
def test_discrepancy_table_values_are_integers(side, value):
    # a value converts as a count does: 2.0 becomes the int 2, while 1.5 and a bool raise
    values = {"a": {}, "b": {}}
    values[side] = {Numeric(1.0): 2.0}
    t = DiscrepancyTable(values["a"], values["b"], Numeric(2.0))
    assert [(v, type(v)) for v in getattr(t, side).values()] == [(2, int)]
    values[side] = {Numeric(1.0): value}
    with pytest.raises(ValueError, match=f"^{side} must be an integer, got {value!r}$"):
        DiscrepancyTable(values["a"], values["b"], Numeric(2.0))


def test_discrepancy_counts_primitives_only():
    l = Numeric(1.0)
    a = spec_of(
        [
            GeodesicEntry(l, P, multiplicity=3),
            GeodesicEntry(Numeric(2.0), P, nu=2, multiplicity=5),
        ]
    )
    b = spec_of([GeodesicEntry(l, P, multiplicity=1)])
    t = discrepancy(a, b)
    assert t.a_at(l) == 2
    assert t.b == {}
    assert all(k.approx() != 2.0 for k in t.a)


def test_discrepancy_antisymmetric():
    rng = random.Random(99)
    for _ in range(10):
        def rand_spec():
            return spec_of(
                [
                    GeodesicEntry(
                        Numeric(rng.choice([1.0, 2.0, 3.0])),
                        rng.choice([P, R]),
                        multiplicity=rng.randint(1, 4),
                    )
                    for _ in range(rng.randint(1, 5))
                ]
            )

        a, b = rand_spec(), rand_spec()
        t_ab = discrepancy(a, b)
        t_ba = discrepancy(b, a)
        for l in t_ab.support():
            assert t_ab.a_at(l) == -t_ba.a_at(l)
            assert t_ab.b_at(l) == -t_ba.b_at(l)


def test_validate_surface():
    clean = spec_of(
        [
            GeodesicEntry(Numeric(1.0), P, multiplicity=2),
            GeodesicEntry(Numeric(2.0), R, nu=3, multiplicity=4),
        ]
    )
    assert validate_surface(clean) == []
    odd = spec_of([GeodesicEntry(Numeric(1.0), P, multiplicity=3)])
    assert len(validate_surface(odd)) == 1
    bad_nu = spec_of([GeodesicEntry(Numeric(1.0), R, nu=2, multiplicity=2)])
    assert len(validate_surface(bad_nu)) == 1


def test_counting_function_invariants():
    rng = random.Random(5)
    for _ in range(20):
        entries = [
            GeodesicEntry(
                Numeric(rng.uniform(0.2, 9.5)),
                rng.choice([P, R]),
                multiplicity=rng.randint(1, 5),
            )
            for _ in range(rng.randint(1, 12))
        ]
        s = spec_of(entries)
        counting = CountingFunction(s)
        assert sum(f for _, f in counting.jumps()) == counting.total()
        assert counting.total() == s.total_multiplicity()
        assert counting.count_up_to(s.horizon) == counting.total()
        prev = 0
        for rep, _ in counting.jumps():
            cur = counting.count_up_to(rep)
            assert cur >= prev
            prev = cur


def test_pgt_jump_report_empty_and_small():
    empty = spec_of([])
    report = pgt_jump_report(empty, 1.0)
    assert report.violations == ()
    assert report.max_normalized == 0.0

    # oriented pair at l=1: f=2 stays under e^1/1
    s = spec_of([GeodesicEntry(Numeric(1.0), P, multiplicity=2)])
    report = pgt_jump_report(s, 1.0)
    assert report.violations == ()
    assert report.max_normalized == pytest.approx(2 * math.exp(-1.0), abs=1e-12)


def test_pgt_jump_report_flags_injected_growth():
    p, l = 3, 1.0
    big = math.ceil(math.exp(p * l) / (2 * p))
    s = spec_of(
        [
            GeodesicEntry(Numeric(l), R, multiplicity=2),
            GeodesicEntry(Numeric(p * l), R, multiplicity=big),
        ]
    )
    report = pgt_jump_report(s, 0.1)
    flagged = [v[0].approx() for v in report.violations]
    assert p * l in flagged


def test_pgt_jump_report_past_log_dbl_max_against_mpmath():
    # the q = 10 scenario spectrum: lengths n*log(10) up to n = 312, so e^l passes the float
    # range from n = 309 on, and so does a necklace count near 10**n / n; f*l*e^-l stays near
    # log(10).  At C = 1 the envelope e^l/l passes it too
    spec = to_spectra(build_scenario(10, 312))[0]
    for c in (1e-300, 1.0):
        report = pgt_jump_report(spec, c)
        with mpmath.workdps(40):
            rows = [(rep, f, mpmath.mpf(rep.approx())) for rep, f in CountingFunction(spec).jumps()]
            want_max = max(f * l * mpmath.exp(-l) for _, f, l in rows)
            want = [(rep, f, c * mpmath.exp(l) / l) for rep, f, l in rows if f > c * mpmath.exp(l) / l]
        assert abs(report.max_normalized - want_max) <= 1e-12 * want_max
        assert [(rep, f) for rep, f, _ in report.violations] == [(rep, f) for rep, f, _ in want]
        for (_, _, got), (_, _, env) in zip(report.violations, want):
            assert got == math.inf if env > sys.float_info.max else abs(got - env) <= 1e-12 * env
    assert report.max_normalized == pytest.approx(2.3417290395749433, rel=1e-12)
    # a huge count on a long length: f * l and e^l both pass the float range
    big = spec_of([GeodesicEntry(Numeric(800.0), P, multiplicity=10**400)], horizon=Numeric(1000.0))
    report = pgt_jump_report(big, 1.0)
    assert report.violations == ((Numeric(800.0), 10**400, math.inf),)
    with mpmath.workdps(40):
        want = float(10**400 * mpmath.mpf(800) * mpmath.exp(-800))
    assert abs(report.max_normalized - want) <= 1e-12 * want


def test_pgt_jump_report_max_normalized_past_the_float_range_is_inf():
    # f*l*e^-l = 10**400 / e at l = 1 is past the float range; the envelope e^1/1 is not
    report = pgt_jump_report(spec_of([GeodesicEntry(Numeric(1.0), P, multiplicity=10**400)]), 1.0)
    assert report == JumpReport(((Numeric(1.0), 10**400, math.e),), math.inf)


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
def test_pgt_jump_report_refuses_a_bad_envelope_constant(c):
    with pytest.raises(ValueError, match="envelope constant must be positive and finite"):
        pgt_jump_report(spec_of([]), c)


# Exact(2, 1) twice over (base 4 folds to base 2) and its Numeric twin with the same float
_EQ_LENGTHS = [Exact(2, 1), Exact(4, Fraction(1, 2)), Numeric(math.log(2)), Exact(3, 1), Numeric(1.5)]
_eq_entries = st.builds(GeodesicEntry, st.sampled_from(_EQ_LENGTHS), st.sampled_from([P, R]),
                        st.integers(1, 2), st.integers(1, 3))
_eq_horizons = st.sampled_from([Numeric(10.0), Exact(2, 20)])


@settings(max_examples=300, deadline=None)
@given(st.lists(_eq_entries, max_size=8), st.lists(_eq_entries, max_size=8), _eq_horizons, _eq_horizons,
       st.sampled_from(["copies", "twins", "drawn"]), st.randoms(use_true_random=False))
def test_column_equality_is_entry_equality(entries, others, horizon, other_horizon, how, rnd):
    if how == "copies":  # the same multiset, each multiplicity split into copies that fold again
        others = [GeodesicEntry(e.length, e.orientation, e.nu) for e in entries for _ in range(e.multiplicity)]
    elif how == "twins":  # log 2 exact where it was numeric and numeric where it was exact
        swap = {Exact(2, 1): Numeric(math.log(2)), Numeric(math.log(2)): Exact(2, 1)}
        others = [GeodesicEntry(swap.get(e.length, e.length), e.orientation, e.nu, e.multiplicity)
                  for e in entries]
    rnd.shuffle(others)
    a, b = LengthTwistSpectrum(entries, horizon), LengthTwistSpectrum(others, other_horizon)
    want = (a.entries, a.horizon) == (b.entries, b.horizon)
    assert (a == b) is want and (b == a) is want
    assert a == LengthTwistSpectrum(list(reversed(entries)), horizon) and a != a.entries
