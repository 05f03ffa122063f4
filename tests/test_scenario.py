import io
from fractions import Fraction
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeo.errors import BeyondHorizon, TooLarge
from isogeo.interchange import dump_spectrum
from isogeo.lengths import Exact, tanh_half
from isogeo.scenario import (
    ORACLE_CAP,
    ScenarioRow,
    ScenarioSolution,
    asymptotic_ratio,
    build_scenario,
    mobius,
    necklace_count,
    necklace_count_oracle,
    scenario_rows,
    to_discrepancy,
    to_spectra,
    verify_constraint,
)
from isogeo.spectrum import (
    GeodesicEntry,
    LengthTwistSpectrum,
    Orientation,
    almost_conjugate,
    compare_weights,
    discrepancy,
    weight,
)

Q2_SEQUENCE = [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]
Q3_SEQUENCE = [3, 3, 8, 18, 48, 116, 312, 810, 2184, 5880]


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    with pytest.raises(ValueError):
        mobius(0)


def test_mobius_summatory_identity():
    # sum_{d | n} mu(d) is the indicator of n == 1, checked for all n <= 10^4
    # by accumulating each mu(d) over the multiples of d
    cap = 10**4
    acc = [0] * (cap + 1)
    for d in range(1, cap + 1):
        m = mobius(d)
        if m:
            for multiple in range(d, cap + 1, d):
                acc[multiple] += m
    assert acc[1] == 1
    assert all(acc[n] == 0 for n in range(2, cap + 1))


def test_necklace_sequences():
    assert [necklace_count(2, n) for n in range(1, 11)] == Q2_SEQUENCE
    assert [necklace_count(3, n) for n in range(1, 11)] == Q3_SEQUENCE
    for q in (2, 5, 17, 100):
        assert necklace_count(q, 1) == q


def test_necklace_oracle_agreement():
    for q in (2, 3, 4):
        for n in range(1, 11):
            if q**n <= 10**5:
                assert necklace_count(q, n) == necklace_count_oracle(q, n), (q, n)


def test_necklace_oracle_examples_and_cap():
    assert necklace_count_oracle(2, 3) == 2
    assert necklace_count_oracle(2, 1) == 2
    assert necklace_count_oracle(3, 2) == 3
    with pytest.raises(TooLarge):
        necklace_count_oracle(10, 8)


def test_build_scenario_assignments():
    sol = build_scenario(2, 10)
    assert sol.a_at(1) == 1 and sol.b_at(1) == 3
    assert sol.a_at(2) == 1 and sol.b_at(2) == 0
    assert sol.a_at(3) == 2 and sol.b_at(3) == 2
    assert sol.a_at(4) == 0 and sol.b_at(4) == 0
    sol3 = build_scenario(3, 10)
    assert sol3.a_at(1) == 2 and sol3.b_at(1) == 4
    for q in (2, 3, 7):
        sol = build_scenario(q, 12)
        assert sol.b_at(1) - sol.a_at(1) == 2
        for n in range(3, 13):
            assert sol.b_at(n) - sol.a_at(n) == 0


def test_verify_constraint_spot_values():
    sol = build_scenario(2, 12)
    # n=1: a(1) = tanh(l0/2) * b(1), i.e. 1 = 3 * (1/3)
    assert verify_constraint(sol, 1) == 0
    # n=2: LHS a(2) + a(1)/2 = 3/2 equals the even-k term b(1)/2
    assert verify_constraint(sol, 2) == 0
    for n in range(1, 13):
        assert verify_constraint(sol, n) == 0


def test_verify_constraint_all_q():
    for q in range(2, 11):
        sol = build_scenario(q, 24)
        for n in range(1, 25):
            assert verify_constraint(sol, n) == Fraction(0), (q, n)


def test_verify_constraint_zero_solution():
    zero = ScenarioSolution(q=2, horizon=10, a={}, b={})
    for n in range(1, 11):
        assert verify_constraint(zero, n) == 0


def test_verify_constraint_detects_violation():
    broken = ScenarioSolution(q=2, horizon=4, a={1: 2}, b={1: 3})
    assert verify_constraint(broken, 1) == 1


def oracle_verify_constraint(sol: ScenarioSolution, n: int) -> Fraction:
    """The weight-equality residual summed divisor by divisor in Fractions."""
    t = tanh_half(sol.grid_length(n))
    lhs = Fraction(0)
    rhs = Fraction(0)
    for k in [k for k in range(1, n + 1) if n % k == 0]:
        m = n // k
        lhs += Fraction(sol.a_at(m), k)
        if k % 2 == 1:
            rhs += t * Fraction(sol.b_at(m), k)
        else:
            rhs += Fraction(sol.b_at(m), k)
    return lhs - rhs


@st.composite
def signed_solution(draw):
    q = draw(st.integers(2, 12))
    horizon = draw(st.integers(1, 80))
    grid = st.integers(1, horizon)
    value = st.one_of(st.integers(-5, 5), st.integers(-(10**40), 10**40))
    a = draw(st.dictionaries(grid, value, max_size=12))
    b = draw(st.dictionaries(grid, value, max_size=12))
    return ScenarioSolution(q=q, horizon=horizon, a=a, b=b), draw(grid)


@settings(max_examples=300, deadline=None)
@given(signed_solution())
def test_verify_constraint_matches_the_divisor_loop(case):
    sol, n = case
    got, want = verify_constraint(sol, n), oracle_verify_constraint(sol, n)
    assert got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_verify_constraint_matches_the_divisor_loop_on_the_family():
    for q in (2, 3, 4, 10):
        sol = build_scenario(q, 40)
        broken = ScenarioSolution(q, 40, {**sol.a, 3: sol.a[3] + 1}, sol.b)
        for n in range(1, 41):
            assert verify_constraint(sol, n) == oracle_verify_constraint(sol, n) == 0
            got, want = verify_constraint(broken, n), oracle_verify_constraint(broken, n)
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@pytest.mark.parametrize("call, message", [
    (lambda: necklace_count(1, 3), "alphabet size must be >= 2, got 1"),
    (lambda: necklace_count(2, 0), "string length must be >= 1, got 0"),
    (lambda: necklace_count_oracle(2, 0), "string length must be >= 1, got 0"),
    (lambda: scenario_rows(ScenarioSolution(1, 3, {}, {})), "alphabet size must be >= 2, got 1"),
    (lambda: build_scenario(1, 5), "q must be >= 2, got 1"),
    (lambda: build_scenario(2, 0), "horizon must be >= 1, got 0"),
    (lambda: verify_constraint(build_scenario(2, 5), 0), "n must be >= 1, got 0"),
], ids=["necklace_count-q", "necklace_count-n", "necklace_count_oracle-n", "scenario_rows-q",
        "build_scenario-q", "build_scenario-horizon", "verify_constraint-n"])
def test_argument_checks_name_the_argument(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert (exc.type, str(exc.value)) == (ValueError, message)


def test_verify_constraint_beyond_horizon():
    sol = build_scenario(2, 5)
    with pytest.raises(BeyondHorizon):
        verify_constraint(sol, 6)


def test_asymptotic_ratio_values():
    assert asymptotic_ratio(2, 9) == Fraction(63, 64)
    assert asymptotic_ratio(2, 3) == Fraction(3, 4)
    assert asymptotic_ratio(3, 5) == Fraction(80, 81)
    with pytest.raises(ValueError):
        asymptotic_ratio(2, 4)
    with pytest.raises(ValueError):
        asymptotic_ratio(2, 1)


def test_asymptotic_ratio_error_bound():
    # deficit is controlled by the subleading divisor term
    for q in (2, 3, 5):
        for n in range(3, 26, 2):
            gap = abs(asymptotic_ratio(q, n) - 1)
            assert gap <= 2 * n * Fraction(1, q ** ((n + 1) // 2)), (q, n)


def per_n_row(sol: ScenarioSolution, n: int) -> ScenarioRow:
    res = verify_constraint(sol, n)
    return ScenarioRow(n, necklace_count(sol.q, n), sol.a_at(n), sol.b_at(n), res.numerator, res.denominator)


def test_scenario_rows_match_the_per_n_functions():
    for q in range(2, 11):
        sol = build_scenario(q, 320)
        rows = scenario_rows(sol)
        assert rows == [per_n_row(sol, n) for n in range(1, 321)], q
        oracle_n = [n for n in range(1, 321) if q**n <= ORACLE_CAP]
        assert [rows[n - 1].c_n for n in oracle_n] == [necklace_count_oracle(q, n) for n in oracle_n]


@settings(max_examples=100, deadline=None)
@given(signed_solution())
def test_scenario_rows_match_the_per_n_functions_on_signed_values(case):
    sol, _ = case
    assert scenario_rows(sol) == [per_n_row(sol, n) for n in range(1, sol.horizon + 1)]


def test_scenario_rows_shape():
    rows = scenario_rows(build_scenario(2, 10))
    assert [r.c_n for r in rows] == Q2_SEQUENCE
    assert all(r.residual_num == 0 and r.residual_den == 1 for r in rows)
    assert [r.a for r in rows][:4] == [1, 1, 2, 0]


def test_to_spectra_weight_equal_but_not_conjugate():
    sol = build_scenario(2, 10)
    a, b = to_spectra(sol)
    assert compare_weights(a, b) == []
    ok, witness = almost_conjugate(a, b)
    assert not ok
    assert witness.length == Exact(2, 1)


def test_to_spectra_discrepancy_roundtrip():
    for q in (2, 3):
        sol = build_scenario(q, 8)
        a, b = to_spectra(sol)
        t = discrepancy(a, b)
        for n in range(1, 9):
            l = Exact(q, n)
            assert t.a_at(l) == sol.a_at(n), (q, n)
            assert t.b_at(l) == sol.b_at(n), (q, n)


def test_to_discrepancy_matches_solution():
    sol = build_scenario(3, 9)
    t = to_discrepancy(sol)
    assert t.a_at(Exact(3, 1)) == 2
    assert t.b_at(Exact(3, 1)) == 4
    assert t.a_at(Exact(3, 4)) == 0


def oracle_to_spectra(sol: ScenarioSolution):
    """The spectrum pair built entry by entry, each power its own GeodesicEntry."""
    horizon = sol.grid_length(sol.horizon)
    first: List[GeodesicEntry] = []
    second: List[GeodesicEntry] = []

    def add_with_powers(target, n, orientation, count):
        for k in range(1, sol.horizon // n + 1):
            if orientation is Orientation.REVERSING and k % 2 == 0:
                power_orientation = Orientation.PRESERVING
            else:
                power_orientation = orientation
            target.append(
                GeodesicEntry(sol.grid_length(n * k), power_orientation, nu=k, multiplicity=count)
            )

    for n, v in sorted(sol.a.items()):
        add_with_powers(first if v > 0 else second, n, Orientation.PRESERVING, abs(v))
    for n, v in sorted(sol.b.items()):
        add_with_powers(second if v > 0 else first, n, Orientation.REVERSING, abs(v))
    return LengthTwistSpectrum(first, horizon), LengthTwistSpectrum(second, horizon)


def dumped(spec) -> str:
    fp = io.StringIO()
    dump_spectrum(spec, fp)
    return fp.getvalue()


def assert_same_pair(got, want):
    for g, w in zip(got, want):
        assert g == w
        assert g.entries == w.entries
        assert g.term_floats.tolist() == [float(e.multiplicity) * float(weight(e)) for e in w.entries]
        assert g.exact_terms(range(len(g))) == w.exact_terms(range(len(w)))
        assert dumped(g) == dumped(w)


@pytest.mark.parametrize("q", [2, 3, 4, 10])
@pytest.mark.parametrize("horizon", [1, 2, 7, 40])
def test_to_spectra_matches_the_entry_lists(q, horizon):
    sol = build_scenario(q, horizon)
    assert_same_pair(to_spectra(sol), oracle_to_spectra(sol))


def test_to_spectra_matches_the_entry_lists_on_signed_values():
    # negative values move mass to the other spectrum; n past the horizon adds nothing
    sol = ScenarioSolution(q=3, horizon=9, a={1: -2, 2: 5, 4: 1, 12: 7}, b={1: 4, 3: -1, 5: 2})
    assert_same_pair(to_spectra(sol), oracle_to_spectra(sol))
    zero = ScenarioSolution(q=2, horizon=4, a={2: 0}, b={})
    with pytest.raises(ValueError, match="multiplicity must be >= 1, got 0"):
        oracle_to_spectra(zero)
    with pytest.raises(ValueError, match="multiplicity must be >= 1, got 0"):
        to_spectra(zero)
