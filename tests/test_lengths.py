import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isogeo.lengths import (
    Exact,
    Numeric,
    canonical_power_root,
    cluster_index,
    cluster_lengths,
    exact_ratio,
    integer_ratio,
    length_le,
    lengths_equal,
    representative,
    tanh_half,
)


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


def test_numeric_validation():
    with pytest.raises(ValueError):
        Numeric(0.0)
    with pytest.raises(ValueError):
        Numeric(-1.0)
    with pytest.raises(ValueError):
        Numeric(math.inf)


def test_equality_and_ordering():
    assert lengths_equal(Exact(2, 3), Exact(4, Fraction(3, 2)))
    assert lengths_equal(Exact(2, 1), Numeric(math.log(2)))
    assert not lengths_equal(Exact(2, 1), Numeric(math.log(2) + 1e-6))
    assert length_le(Exact(2, 1), Exact(2, 2))
    assert not length_le(Exact(2, 2), Exact(2, 1))
    assert length_le(Numeric(1.0), Numeric(1.0 + 1e-12))


def test_ratios():
    assert exact_ratio(Exact(2, 6), Exact(2, 2)) == Fraction(3)
    assert exact_ratio(Exact(4, 3), Exact(2, 2)) == Fraction(3)
    assert exact_ratio(Exact(2, 1), Exact(3, 1)) is None
    assert integer_ratio(Exact(2, 6), Exact(2, 2)) == 3
    assert integer_ratio(Exact(2, 2), Exact(2, 6)) is None
    assert integer_ratio(Exact(2, 3), Exact(2, 2)) is None


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
    # the index names each input value's cluster, in input order
    clusters, index = cluster_index([Numeric(2.0), Numeric(1.0), Numeric(1.0 + 5e-10)], 1e-9)
    assert clusters == [[Numeric(1.0), Numeric(1.0 + 5e-10)], [Numeric(2.0)]]
    assert index == [1, 0, 0]
    assert cluster_index([], 1e-9) == ([], [])


def test_cluster_representative_prefers_exact():
    c = cluster_lengths([Numeric(math.log(2)), Exact(2, 1)], 1e-9)
    assert len(c) == 1
    assert representative(c[0]) == Exact(2, 1)
    assert representative([Numeric(1.5)]) == Numeric(1.5)
