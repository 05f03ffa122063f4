"""Divisibility-minimal support analysis and the forced-growth identity."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeo import spectrum
from isogeo.errors import (
    InexactLength,
    InvariantViolation,
    MixedBases,
    NotMinimal,
    PrimeCollision,
    QueryBeyondHorizon,
    RatioIsInteger,
)
from isogeo.lengths import Exact, Numeric
from isogeo.scenario import build_scenario, necklace_count, to_discrepancy
from isogeo.spectrum import (
    DiscrepancyTable,
    ForcedGrowth,
    forced_growth,
    lemma1_residual,
    odd_prime_multiples,
    support_sets,
)


def table(a, b, horizon):
    return DiscrepancyTable(a, b, horizon)


def test_support_sets_empty():
    t = table({}, {}, Exact(2, 10))
    assert support_sets(t) == (set(), set())


def test_support_sets_invariant_raises(monkeypatch):
    # with no length a multiple of another each length is minimal, and then no
    # length is a checked multiple of one: the invariant check must fire, even under -O
    t = table({Exact(2, 1): 1, Exact(2, 2): 1}, {}, Exact(2, 10))
    monkeypatch.setattr(spectrum, "_is_multiple", lambda l, m: False)
    with pytest.raises(InvariantViolation):
        support_sets(t)
    with pytest.raises(InvariantViolation):  # a failed analysis stores nothing
        lemma1_residual(t, Exact(2, 1))
    monkeypatch.undo()
    assert support_sets(t) == ({Exact(2, 1), Exact(2, 2)}, {Exact(2, 1)})


def test_support_sets_scenario():
    t = to_discrepancy(build_scenario(2, 12))
    L, L0 = support_sets(t)
    assert L0 == {Exact(2, 1)}
    expected = {Exact(2, 1), Exact(2, 2)} | {Exact(2, n) for n in range(3, 13, 2)}
    assert L == expected


def test_support_sets_two_minimal():
    t = table({Exact(2, 2): 1, Exact(2, 3): 1}, {}, Exact(2, 10))
    _, L0 = support_sets(t)
    assert L0 == {Exact(2, 2), Exact(2, 3)}


def test_support_sets_rejects_numeric_and_mixed():
    numeric = table({Numeric(1.0): 1}, {}, Numeric(5.0))
    mixed = table({Exact(2, 1): 1, Exact(3, 1): 1}, {}, Exact(2, 10))
    for t in (numeric, mixed, mixed):  # every call raises again
        with pytest.raises(MixedBases):
            support_sets(t)
    with pytest.raises(MixedBases):
        forced_growth(mixed, Exact(2, 1), 3)


def test_table_is_read_only():
    t = table({Exact(2, 1): 1}, {Exact(2, 2): 0}, Exact(2, 10))
    assert t.a == {Exact(2, 1): 1} and t.b == {}
    with pytest.raises(TypeError):
        t.a[Exact(2, 3)] = 1
    with pytest.raises(AttributeError):
        t.a = {}
    with pytest.raises(AttributeError):
        t.horizon = Exact(2, 1)
    assert support_sets(t) == ({Exact(2, 1)}, {Exact(2, 1)})
    assert t == table({Exact(2, 1): 1}, {}, Exact(2, 10))  # the analysis is not compared


def oracle_support_sets(t):
    """(L, L0) by the definition: l is minimal unless l/m is an integer for some other m."""
    support = t.support()
    L0 = {l for l in support
          if not any(m != l and (l.mult / m.mult).denominator == 1 for m in support)}
    return set(support), L0


@st.composite
def single_base_table(draw):
    # bases 2, 4 and 8 all normalise onto the base-2 grid, so Exact(4, r) is Exact(2, 2r)
    mult = st.builds(Fraction, st.integers(1, 36), st.sampled_from([1, 1, 1, 2, 3, 4, 6]))
    length = st.builds(Exact, st.sampled_from([2, 4, 8]), mult)
    value = st.integers(-3, 3).filter(bool)
    a = draw(st.dictionaries(length, value, max_size=15))
    b = draw(st.dictionaries(length, value, max_size=15))
    return table(a, b, Exact(2, 400))


@settings(max_examples=300, deadline=None)
@given(single_base_table())
def test_support_sets_matches_the_pairwise_definition(t):
    assert support_sets(t) == oracle_support_sets(t)


@settings(max_examples=200, deadline=None)
@given(single_base_table(), st.sampled_from(["support_sets", "lemma1_residual", "forced_growth"]))
def test_support_analysis_runs_once_in_any_call_order(t, first):
    l0 = Exact(2, 1)
    calls = {"support_sets": support_sets,
             "lemma1_residual": lambda u: lemma1_residual(u, l0),
             "forced_growth": lambda u: forced_growth(u, l0, 3)}

    def outcome(call, u):
        try:
            return call(u)
        except (NotMinimal, PrimeCollision, RatioIsInteger) as e:
            return type(e)

    want = oracle_support_sets(t)
    fresh, other = table(t.a, t.b, t.horizon), table(t.a, t.b, t.horizon)
    outcome(calls[first], fresh)  # the first call analyses the table
    L, L0 = support_sets(fresh)
    assert (L, L0) == want
    L.clear(), L0.clear()  # each call returns fresh sets
    assert support_sets(fresh) == want
    # other is analysed by support_sets first, fresh by whichever call came first
    assert [outcome(c, fresh) for c in calls.values()] == [outcome(c, other) for c in calls.values()]


@st.composite
def tied_lengths(draw):
    # exact lengths on several grids, some paired with a Numeric of the same float
    mult = st.builds(Fraction, st.integers(1, 40), st.integers(1, 6))
    exact = draw(st.lists(st.builds(Exact, st.sampled_from([2, 3, 4, 8, 9]), mult), max_size=20))
    twins = [Numeric(l.approx()) for l in exact if draw(st.booleans())]
    floats = draw(st.lists(st.floats(0.01, 60.0), max_size=5))
    return exact + twins + [Numeric(x) for x in floats]


@settings(max_examples=200, deadline=None)
@given(tied_lengths())
def test_support_order_is_float_then_exact_first(lengths):
    # ascending float; on a tie an Exact before a Numeric, exact lengths by (base, multiplier)
    key = lambda v: (v.approx(), 0, v.base, v.mult) if isinstance(v, Exact) else (v.approx(), 1, 0, 0)
    t = table(dict.fromkeys(lengths, 1), {}, Numeric(1000.0))
    assert t.support() == sorted(set(lengths), key=key)


def test_support_sets_accepts_power_base():
    # base 4 normalizes onto the base-2 grid
    t = table({Exact(4, 1): 1, Exact(2, 1): 1}, {}, Exact(2, 10))
    L, L0 = support_sets(t)
    assert L0 == {Exact(2, 1)}
    assert Exact(2, 2) in L


def test_lemma1_residual_scenario():
    t = to_discrepancy(build_scenario(2, 8))
    assert lemma1_residual(t, Exact(2, 1)) == 0
    t3 = to_discrepancy(build_scenario(3, 8))
    assert lemma1_residual(t3, Exact(3, 1)) == 0


def test_lemma1_residual_trivial_and_violation():
    empty = table({}, {}, Exact(2, 10))
    assert lemma1_residual(empty, Exact(2, 1)) == 0
    bad = table({Exact(2, 1): 1}, {}, Exact(2, 10))
    assert lemma1_residual(bad, Exact(2, 1)) == 1


def test_lemma1_residual_errors():
    t = to_discrepancy(build_scenario(2, 8))
    with pytest.raises(NotMinimal):
        lemma1_residual(t, Exact(2, 3))
    with pytest.raises(InexactLength):
        lemma1_residual(t, Numeric(1.0))
    with pytest.raises(InexactLength):
        lemma1_residual(t, Exact(2, Fraction(1, 2)))


def test_odd_prime_multiples_basic():
    l0 = Exact(2, 1)
    assert odd_prime_multiples(l0.scaled(2), l0.scaled(3), 100) == {3}
    assert odd_prime_multiples(l0.scaled(2), l0.scaled(5), 100) == {5}
    # bound excludes the only candidate
    assert odd_prime_multiples(l0.scaled(2), l0.scaled(5), 3) == set()
    # denominator 2 can never be an odd prime
    assert odd_prime_multiples(l0.scaled(3), l0.scaled(2), 100) == set()


def test_odd_prime_multiples_incommensurable():
    assert odd_prime_multiples(Exact(2, 1), Exact(3, 1), 100) == set()


def test_odd_prime_multiples_errors():
    l0 = Exact(2, 1)
    with pytest.raises(RatioIsInteger):
        odd_prime_multiples(l0.scaled(4), l0.scaled(2), 100)
    with pytest.raises(ValueError):
        odd_prime_multiples(l0, Exact(2, 1), 100)
    with pytest.raises(InexactLength):
        odd_prime_multiples(Numeric(1.0), l0, 100)


def test_odd_prime_multiples_cardinality_property():
    rng = random.Random(42)
    for _ in range(2000):
        num1, den1 = rng.randint(1, 60), rng.randint(1, 60)
        num2, den2 = rng.randint(1, 60), rng.randint(1, 60)
        r1, r2 = Fraction(num1, den1), Fraction(num2, den2)
        if r1 == r2 or (r1 / r2).denominator == 1:
            continue
        result = odd_prime_multiples(Exact(2, r1), Exact(2, r2), 10**6)
        assert len(result) <= 1


def test_forced_growth_matches_necklace_counts():
    t = to_discrepancy(build_scenario(2, 16))
    fg = forced_growth(t, Exact(2, 1), 3)
    assert fg.value == 2 == necklace_count(2, 3)
    assert fg.bound == Fraction(8, 6)
    assert forced_growth(t, Exact(2, 1), 5).value == necklace_count(2, 5)

    t3 = to_discrepancy(build_scenario(3, 16))
    assert forced_growth(t3, Exact(3, 1), 5).value == 48 == necklace_count(3, 5)


def test_forced_growth_reads_the_horizon_within_the_table_tolerance():
    # the table admits 3*log 2, 5e-4 past its horizon, within its tolerance 1e-3; so does forced_growth
    t = DiscrepancyTable({Exact(2, 1): 1}, {Exact(2, 1): 3, Exact(2, 3): 1}, Numeric(3 * math.log(2) - 5e-4), 1e-3)
    assert Exact(2, 3) in t.support()
    assert forced_growth(t, Exact(2, 1), 3) == ForcedGrowth(Fraction(13, 2), Fraction(4, 3))


def test_forced_growth_zero_table():
    t = table({}, {}, Exact(2, 20))
    assert forced_growth(t, Exact(2, 1), 3).value == 0


def test_forced_growth_matches_direct_constraint_solve():
    # independent route: solve the weight-equality constraint at p*l0 for
    # b(p) with b(p)-a(p) held at the table's value, on random tables
    # supported on {l0, p*l0}
    rng = random.Random(77)
    for _ in range(200):
        q = rng.randint(2, 7)
        p = rng.choice([3, 5, 7])
        a1, b1 = rng.randint(-5, 5), rng.randint(-5, 5)
        diff = rng.randint(-4, 4)
        ap = rng.randint(-3, 3)
        if a1 == 0 and b1 == 0 and (ap or ap + diff):
            continue  # l0 would drop out of the support
        t = table(
            {Exact(q, k): v for k, v in {1: a1, p: ap}.items() if v},
            {Exact(q, k): v for k, v in {1: b1, p: ap + diff}.items() if v},
            Exact(q, 20),
        )
        th = Fraction(q**p - 1, q**p + 1)
        direct = (Fraction(diff) + Fraction(1, p) * (th * b1 - a1)) / (1 - th)
        assert forced_growth(t, Exact(q, 1), p).value == direct


def test_forced_growth_errors():
    t = to_discrepancy(build_scenario(2, 16))
    with pytest.raises(ValueError):
        forced_growth(t, Exact(2, 1), 2)
    with pytest.raises(ValueError):
        forced_growth(t, Exact(2, 1), 9)
    with pytest.raises(NotMinimal):
        forced_growth(t, Exact(2, 3), 3)
    with pytest.raises(QueryBeyondHorizon):
        forced_growth(t, Exact(2, 1), 17)

    # support {2*l0, 3*l0}: 3*(2*l0) lands on the 3*l0 grid
    clash = table({Exact(2, 2): 1, Exact(2, 3): 1}, {}, Exact(2, 20))
    with pytest.raises(PrimeCollision):
        forced_growth(clash, Exact(2, 2), 3)
    # p=5 avoids the collision
    assert forced_growth(clash, Exact(2, 2), 5).value == Fraction(-1, 5) / (
        1 - Fraction(2**10 - 1, 2**10 + 1)
    )
