import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isogeo.lengths import (
    Clusters,
    Exact,
    ExactKeys,
    Numeric,
    _integer_root,
    canonical_power_root,
    cluster_lengths,
    exact_float,
    exact_keys,
    exact_ratio,
    length_le,
    lengths_equal,
    run_starts,
    sorted_order,
    tanh_half,
)


def all_exponent_root(q: int) -> tuple:
    """The root search before only prime exponents were tried: every exponent from
    the largest down, so the first hit's root is no perfect power."""
    for e in range(q.bit_length() - 1, 1, -1):
        g = _integer_root(q, e)
        if g**e == q:
            return g, e
    return q, 1


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**6), st.integers(1, 60))
@example(2, 64)
@example(6, 12)
@example(12, 35)
@example(15, 40)
def test_canonical_power_root_matches_the_all_exponent_search(g, e):
    assert canonical_power_root(g**e) == all_exponent_root(g**e)


def test_canonical_power_root():
    assert canonical_power_root(2) == (2, 1)
    assert canonical_power_root(4) == (2, 2)
    assert canonical_power_root(8) == (2, 3)
    assert canonical_power_root(9) == (3, 2)
    assert canonical_power_root(16) == (2, 4)
    assert canonical_power_root(64) == (2, 6)
    assert canonical_power_root(12) == (12, 1)
    assert canonical_power_root(36) == (6, 2)
    # past float precision (a big square) and past float range (a base over 1e308)
    big = 10**17 + 3
    assert Exact(big**2, 1) == Exact(big, 2)
    assert canonical_power_root(10**400) == (10, 400)
    assert Exact(10**400, 1) == Exact(10, 400)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10**20), st.integers(1, 12))
def test_canonical_power_root_round_trip(g, e):
    root, k = canonical_power_root(g)
    assert canonical_power_root(g**e) == (root, k * e)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10**6), st.integers(1, 6), st.fractions(min_value=Fraction(1, 10**6), max_value=10**6))
def test_exact_is_one_length_on_any_power_of_its_base(g, e, r):
    a, b = Exact(g**e, r), Exact(g, r * e)
    assert a == b and hash(a) == hash(b) and (a.base, a.mult) == (b.base, b.mult)
    assert type(a.mult) is Fraction and a.base == canonical_power_root(g)[0]


@pytest.mark.parametrize("base, mult, error, message", [
    (True, 1, ValueError, "base must be an integer, got True"),
    (2, 0.5, TypeError, "exact multiplier must be int, str, or Fraction, not float"),
    (4, Fraction(-1, 2), ValueError, "length multiplier must be positive, got -1/2"),
    (1, 1, ValueError, "base must be an integer >= 2, got 1"),
])
def test_exact_keeps_every_check_on_a_known_base(base, mult, error, message):
    Exact(4, 1)  # the base's root is known before the faulty construction
    for _ in range(2):  # and a refused base is refused again
        with pytest.raises(error, match=re.escape(message)):
            Exact(base, mult)


def test_exact_normalizes_base():
    assert Exact(4, 1) == Exact(2, 2)
    assert Exact(8, Fraction(1, 3)) == Exact(2, 1)
    assert Exact(9, Fraction(1, 2)) == Exact(3, 1)
    assert Exact(2, 3).approx() == pytest.approx(3 * math.log(2), abs=1e-15)


def test_exact_validation():
    with pytest.raises(ValueError):
        Exact(1, 1)
    with pytest.raises(ValueError):
        Exact(2, 0)
    with pytest.raises(ValueError):
        Exact(2, -3)
    with pytest.raises(TypeError):
        Exact(2, 0.1)
    assert Exact(2, "1/2") == Exact(2, Fraction(1, 2))
    with pytest.raises(ValueError, match="base"):
        Exact(2.7, 1)
    with pytest.raises(ValueError, match="base"):
        Exact("2", 1)
    assert Exact(4.0, 1) == Exact(2, 2)
    with pytest.raises(TypeError) as exc:
        Exact(2, 1).scaled(0.5)
    assert (exc.type, str(exc.value)) == (TypeError, "scale factor must be int, str, or Fraction, not float")


def test_numeric_validation():
    with pytest.raises(ValueError):
        Numeric(0.0)
    with pytest.raises(ValueError):
        Numeric(-1.0)
    with pytest.raises(ValueError):
        Numeric(math.inf)


@pytest.mark.parametrize(
    "value, message",
    [(True, "numeric must be a number, got True"), (False, "numeric must be a number, got False"),
     ("1.5", "numeric must be a number, got '1.5'"), ("inf", "numeric must be a number, got 'inf'"),
     # an int past the float range has no finite float: no bare OverflowError
     (10**400, "numeric length must be positive and finite, got inf")],
    ids=["True", "False", "1.5", "inf", "int-past-float-range"],
)
def test_numeric_refuses_what_is_no_number(value, message):
    # float() would take the first four; a document refuses each with the same message
    with pytest.raises(ValueError, match=re.escape(message)):
        Numeric(value)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 6, 10, 10**20 + 39]), st.integers(1, 10**300), st.integers(1, 10**30))
@example(2, 10**308, 1)
def test_exact_float_is_the_float_of_the_multiplier_times_the_log(base, num, den):
    r = Fraction(num, den)
    want = float(r) * math.log(base)
    assert exact_float(base, r.numerator, r.denominator) == want
    assert Exact(base, r).approx() == want


@pytest.mark.parametrize("base, mult", [(10, 10**308), (2, 10**400), (2, Fraction(10**400, 3))],
                         ids=["product-past-the-float-range", "multiplier-past-the-float-range", "fraction"])
def test_exact_length_past_the_float_range_is_refused_by_name(base, mult):
    # one ValueError naming the length, where its float would be inf or could not be formed
    message = re.escape(f"exact length {mult}*log({base}) is past the float range")
    with pytest.raises(ValueError, match=message):
        Exact(base, mult)
    with pytest.raises(ValueError, match=message):
        exact_float(base, *Fraction(mult).as_integer_ratio())


def test_equality_and_ordering():
    assert lengths_equal(Exact(2, 3), Exact(4, Fraction(3, 2)))
    assert lengths_equal(Exact(2, 1), Numeric(math.log(2)))
    assert not lengths_equal(Exact(2, 1), Numeric(math.log(2) + 1e-6))
    assert length_le(Exact(2, 1), Exact(2, 2))
    assert not length_le(Exact(2, 2), Exact(2, 1))
    assert length_le(Numeric(1.0), Numeric(1.0 + 1e-12))
    # on one grid both tests are exact, whatever the tolerance
    near = Exact(2, Fraction(10**12 + 1, 10**12))
    assert not lengths_equal(Exact(2, 1), near, 1.0) and not lengths_equal(near, Exact(2, 1), 1.0)
    assert not length_le(near, Exact(2, 1), 1.0) and length_le(Exact(2, 1), Exact(4, Fraction(1, 2)), 0.0)


def test_ratios():
    assert exact_ratio(Exact(2, 6), Exact(2, 2)) == Fraction(3)
    assert exact_ratio(Exact(4, 3), Exact(2, 2)) == Fraction(3)
    assert exact_ratio(Exact(2, 1), Exact(3, 1)) is None
    assert exact_ratio(Exact(2, 2), Exact(2, 6)) == Fraction(1, 3)
    assert exact_ratio(Exact(2, 3), Exact(2, 2)) == Fraction(3, 2)


def test_tanh_half_exact_values():
    # l = n*log(q) gives tanh(l/2) = (q**n - 1)/(q**n + 1)
    assert tanh_half(Exact(2, 1)) == Fraction(1, 3)
    assert tanh_half(Exact(3, 2)) == Fraction(4, 5)
    assert tanh_half(Exact(2, 3)) == Fraction(7, 9)
    for q, n in ((2, 1), (3, 2), (5, 3)):
        assert float(tanh_half(Exact(q, n))) == pytest.approx(
            math.tanh(n * math.log(q) / 2), abs=1e-12
        )


def test_tanh_half_fractional_mult_is_float():
    t = tanh_half(Exact(2, Fraction(1, 2)))
    assert isinstance(t, float)
    assert t == pytest.approx(math.tanh(math.log(2) / 4), abs=1e-12)
    assert isinstance(tanh_half(Numeric(1.0)), float)


def test_cluster_lengths_sweep():
    vals = [Numeric(1.0), Numeric(1.0 + 5e-10), Numeric(2.0)]
    clusters = cluster_lengths(vals, 1e-9)
    assert [len(c) for c in clusters] == [2, 1]
    # chained closeness merges transitively
    vals = [Numeric(1.0), Numeric(1.0 + 8e-10), Numeric(1.0 + 1.6e-9)]
    assert len(cluster_lengths(vals, 1e-9)) == 1
    assert cluster_lengths([], 1e-9) == []
    # clusters ascend whatever the input order; exact first on a tie
    vals = [Numeric(2.0), Numeric(math.log(2)), Numeric(1.0 + 5e-10), Numeric(1.0), Exact(2, 1)]
    assert cluster_lengths(vals, 1e-9) == [
        [Exact(2, 1), Numeric(math.log(2))], [Numeric(1.0), Numeric(1.0 + 5e-10)], [Numeric(2.0)]]


def test_cluster_representative_prefers_exact():
    x = np.array([math.log(2), math.log(2), 1.5])
    clusters = Clusters([(x, exact_keys([None, Exact(2, 1), None]))], 1e-9)
    assert clusters.size == 2
    assert clusters.reps([0])[0] == Exact(2, 1)
    assert clusters.reps([1])[0] == Numeric(1.5)


# lengths whose floats tie: Exact(2, 1) and the same value on base 4, two other
# multipliers of log 2 that round to the same float, and numeric copies
ONE = Exact(2, 1)
TIED_POOL = [
    ONE, Exact(4, Fraction(1, 2)), Exact(2, Fraction(10**20 + 1, 10**20)),
    Exact(2, Fraction(10**20 - 1, 10**20)), None,
    Exact(3, 1), Numeric(math.log(3)), None, Numeric(1.5), Exact(2, 2),
]
TIED_X = [ONE.approx()] * 5 + [math.log(3)] * 2 + [2.0, 1.5, Exact(2, 2).approx()]


def oracle_order(x, lengths, *keys):
    """Ascending float, then Exact before numeric by base and multiplier, then the
    keys; index order on a full tie."""
    def key(i):
        l = lengths[i]
        return (x[i], (0, l.base, l.mult) if isinstance(l, Exact) else (1, 0, 0), *(k[i] for k in keys))
    return sorted(range(len(x)), key=key)


@st.composite
def tied_columns(draw):
    picks = draw(st.lists(st.integers(0, len(TIED_POOL) - 1), max_size=40))
    x = np.array([TIED_X[i] for i in picks], dtype=float)
    lengths = [TIED_POOL[i] for i in picks]
    rev = np.array(draw(st.lists(st.integers(0, 1), min_size=len(picks), max_size=len(picks))), dtype=np.int8)
    nu = draw(st.lists(st.sampled_from([1, 2, 3, 2**63, 2**63 + 1]), min_size=len(picks), max_size=len(picks)))
    return x, lengths, rev, nu


@settings(max_examples=300, deadline=None)
@given(tied_columns())
def test_sorted_order_matches_the_tiebreak_sort(case):
    x, lengths, rev, nu = case
    assert sorted_order(x, exact_keys(lengths), rev, nu).tolist() == oracle_order(x, lengths, rev, nu)
    # without keys, and with Numeric values in place of None (as cluster_lengths calls it)
    values = [l or Numeric(v) for l, v in zip(lengths, x.tolist())]
    assert sorted_order(x, exact_keys(values)).tolist() == oracle_order(x, values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.5, 1.0, 1.0 + 2**-52, 2.0]), st.integers(0, 1), st.integers(1, 3)),
                max_size=60))
def test_sorted_order_of_numeric_columns_is_their_key_lexsort(rows):
    # with no exact row and no further column the stable argsort is returned as it is
    x, rev, nu = (np.array(c, dtype=t) for c, t in zip(zip(*rows) if rows else ((),) * 3, (float, np.int8, np.int64)))
    keys = ExactKeys.numeric(len(x))
    lexsort = lambda *more: np.lexsort((*more, keys.num, keys.den, keys.base, keys.base == 0, x)).tolist()
    assert sorted_order(x, keys).tolist() == lexsort()
    assert sorted_order(x, keys, rev, nu).tolist() == lexsort(nu, rev)


@settings(max_examples=200, deadline=None)
@given(tied_columns(), tied_columns())
def test_clusters_represent_each_cluster_by_its_least_exact_length(a, b):
    columns = [(x, [l if isinstance(l, Exact) else None for l in lengths]) for x, lengths, _, _ in (a, b)]
    clusters = Clusters([(x, exact_keys(lengths)) for x, lengths in columns], 1e-9)
    members = {}
    for (x, lengths), ids in zip(columns, clusters.ids):
        for v, l, c in zip(x.tolist(), lengths, ids.tolist()):
            members.setdefault(c, []).append((v, l))
    assert sorted(members) == list(range(clusters.size))
    for c, m in members.items():
        exact = [l for _, l in m if l is not None]
        want = min(exact, key=lambda l: (l.approx(), l.base, l.mult)) if exact else Numeric(min(v for v, _ in m))
        assert clusters.reps([c])[0] == want


def test_clusters_least_exact_length_may_sit_in_a_later_column():
    above = Exact(2, Fraction(10**20 + 1, 10**20))
    below = Exact(2, Fraction(10**20 - 1, 10**20))
    x = np.array([ONE.approx()] * 2)
    clusters = Clusters([(x, exact_keys([above, None])), (x, exact_keys([ONE, below]))], 1e-9)
    assert clusters.size == 1 and clusters.reps([0])[0] == below
    near = np.array([math.log(3) - 1e-10])
    clusters = Clusters([(near, exact_keys([None])), (np.array([math.log(3)]), exact_keys([Exact(3, 1)]))], 1e-9)
    assert clusters.reps([0])[0] == Exact(3, 1)


# key values that make runs: -0.0 and 0.0 are one value, and Python ints past 2**63 stay whole
RUN_KEYS = {
    np.int64: st.integers(-2, 2),
    np.float64: st.sampled_from([-0.0, 0.0, 1.5, -2.25]),
    object: st.sampled_from([5, 2**63, 2**63 + 1, -(2**70)]),
}


@st.composite
def sorted_key_columns(draw):
    dtypes = draw(st.lists(st.sampled_from(list(RUN_KEYS)), min_size=1, max_size=3))
    rows = sorted(draw(st.lists(st.tuples(*(RUN_KEYS[t] for t in dtypes)), max_size=30)))
    return [np.array([r[k] for r in rows], dtype=t) for k, t in enumerate(dtypes)], rows


@settings(max_examples=300, deadline=None)
@given(sorted_key_columns())
def test_run_starts_matches_groupby(case):
    columns, rows = case
    starts = list(itertools.accumulate((len(list(g)) for _, g in itertools.groupby(rows)), initial=0))[:-1]
    assert run_starts(*columns).tolist() == starts
