"""Two-tier geodesic length values.

Every length in this package is either

* ``Exact(base=q, mult=r)`` meaning ``l = r * log(q)`` with ``q >= 2`` an
  integer and ``r`` a positive rational, or
* ``Numeric(value=x)`` meaning a positive float, compared within an
  absolute tolerance.

Divisibility questions (is ``m`` an integer multiple of ``l``?) are only
answered for Exact values; they are undecidable in floating point.  Exact
bases are normalised to their canonical root (``Exact(4, r)`` becomes
``Exact(2, 2r)``) so that lengths on commensurable grids compare exactly.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Integral
from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

DEFAULT_TOLERANCE = 1e-9

RationalLike = Union[int, str, Fraction]


def as_integer(v, name: str) -> int:
    """``v`` as an int: integral floats convert, anything else (a bool
    included: JSON's true is no count) raises ValueError."""
    if type(v) is int:
        return v
    if isinstance(v, Integral) and not isinstance(v, bool) or isinstance(v, float) and v.is_integer():
        return int(v)
    raise ValueError(f"{name} must be an integer, got {v!r}")


def _integer_root(q: int, e: int) -> int:
    """floor(q ** (1/e)) in integer arithmetic, for q >= 1 and e >= 2."""
    if e == 2:
        return math.isqrt(q)
    x = 1 << -(-q.bit_length() // e)  # 2**ceil(bits/e) > q ** (1/e)
    while True:  # Newton's method decreases monotonically onto the floor
        y = ((e - 1) * x + q // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def canonical_power_root(q: int) -> tuple[int, int]:
    """Return ``(g, e)`` with ``q == g**e`` and ``g`` not a perfect power.

    Prime exponents are tried in ascending order, each again on the root after
    a hit: a composite exponent ab succeeds only where a and b do.
    """
    if q < 2:
        raise ValueError(f"base must be an integer >= 2, got {q}")
    g, e = q, 1
    for p in range(2, q.bit_length()):  # a p-th power of an integer >= 2 is at least 2**p
        if all(p % f for f in range(2, math.isqrt(p) + 1)):  # p is prime
            while (r := _integer_root(g, p)) ** p == g:
                g, e = r, e * p
    return g, e


_canonical_root = lru_cache(maxsize=1024)(canonical_power_root)  # bases repeat: one grid per document


@dataclass(frozen=True, slots=True)
class Exact:
    """Length ``mult * log(base)``, held in exact rational arithmetic."""

    base: int
    mult: Fraction

    def __init__(self, base: int, mult: RationalLike):
        if isinstance(mult, float):
            # Fraction(0.1) is the exact binary expansion, never what was meant
            raise TypeError("exact multiplier must be int, str, or Fraction, not float")
        r = mult if type(mult) is Fraction else Fraction(mult)
        if r <= 0:
            raise ValueError(f"length multiplier must be positive, got {r}")
        g, e = _canonical_root(as_integer(base, "base"))
        object.__setattr__(self, "base", g)
        object.__setattr__(self, "mult", r if e == 1 else r * e)

    def approx(self) -> float:
        return float(self.mult) * math.log(self.base)

    def integer_mult(self) -> int | None:
        """The integer n with self = n*log(base), or None if fractional."""
        return int(self.mult) if self.mult.denominator == 1 else None

    def scaled(self, k: RationalLike) -> "Exact":
        if isinstance(k, float):
            raise TypeError("scale factor must be int, str, or Fraction, not float")
        return Exact(self.base, self.mult * Fraction(k))

    def __str__(self) -> str:
        r = self.mult
        coeff = str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
        return f"{coeff}*log({self.base})"


@dataclass(frozen=True, slots=True)
class Numeric:
    """Length as a positive float, compared within an absolute tolerance."""

    value: float

    def __init__(self, value: float):
        object.__setattr__(self, "value", positive_length(value))

    def approx(self) -> float:
        return self.value

    def __str__(self) -> str:
        return repr(self.value)


def positive_length(value) -> float:
    """``value`` as the float of a Numeric length; ValueError unless a positive
    finite number (a string or a bool is none, although float() takes both)."""
    if isinstance(value, (bool, str)):
        raise ValueError(f"numeric must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int past the float range
        v = math.inf
    if not math.isfinite(v) or v <= 0:
        raise ValueError(f"numeric length must be positive and finite, got {v}")
    return v


def finite_number(value, name: str) -> float:
    """``value`` as a finite float, either sign; ValueError for anything but an int
    or a float (a bool or a string included, although float() takes both) and for
    a value with no finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int past the float range
        v = math.inf
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


_SET_VALUE = Numeric.value.__set__  # a frozen dataclass's field, set on a bare instance


def numerics(values: Iterable[float]) -> List[Numeric]:
    """Numeric lengths of floats already checked positive and finite, set without
    checking them again."""
    values = list(values)
    out = [object.__new__(Numeric) for _ in values]
    deque(map(_SET_VALUE, out, values), 0)
    return out


LengthValue = Union[Exact, Numeric]


def lengths_equal(a: LengthValue, b: LengthValue, tol: float = DEFAULT_TOLERANCE) -> bool:
    if isinstance(a, Exact) and isinstance(b, Exact) and a.base == b.base:
        return a.mult == b.mult
    return abs(a.approx() - b.approx()) <= tol


def length_le(a: LengthValue, b: LengthValue, tol: float = DEFAULT_TOLERANCE) -> bool:
    """a <= b, exact on a common grid, within tol otherwise."""
    if isinstance(a, Exact) and isinstance(b, Exact) and a.base == b.base:
        return a.mult <= b.mult
    return a.approx() <= b.approx() + tol


def exact_ratio(a: LengthValue, b: LengthValue) -> Fraction | None:
    """a/b as an exact rational, or None when not decidable exactly."""
    if isinstance(a, Exact) and isinstance(b, Exact) and a.base == b.base:
        return a.mult / b.mult
    return None


def integer_ratio(a: LengthValue, b: LengthValue) -> int | None:
    """The positive integer k with a == k*b, if one exists exactly."""
    r = exact_ratio(a, b)
    if r is not None and r.denominator == 1 and r >= 1:
        return int(r)
    return None


def tanh_half(l: LengthValue | float) -> Fraction | float:
    """tanh(l/2); exact (q**n - 1)/(q**n + 1) when l = n*log(q), n integer."""
    if isinstance(l, Exact):
        n = l.integer_mult()
        if n is not None:
            qn = l.base**n
            return Fraction(qn - 1, qn + 1)
    return math.tanh((l if isinstance(l, float) else l.approx()) / 2.0)


def sorted_order(x: np.ndarray, lengths: Sequence[LengthValue | None], *keys: Sequence) -> np.ndarray:
    """Stable argsort of the float column x of the given lengths (None for a
    numeric one).  Equal floats put exact lengths first, by base and then
    multiplier, then the given keys decide.  The runs of equal floats are
    ordered by one lexsort; only a run holding two different Exact values
    reaches Python."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    tied = xs[1:] == xs[:-1]  # xs[i] == xs[i + 1]
    if not tied.any():
        return order
    at = np.flatnonzero(np.append(tied, False) | np.append(False, tied))  # positions in a run of equal floats
    run = np.cumsum(np.diff(xs[at], prepend=xs[at[0]]) != 0)
    members = order[at]
    numeric = np.array([not isinstance(lengths[i], Exact) for i in members.tolist()])
    # a list column stays Python ints: numpy would round a mix of large ones to float
    cols = [k[members] if isinstance(k, np.ndarray) else np.array([k[i] for i in members.tolist()], dtype=object)
            for k in reversed(keys)]
    order[at] = members[np.lexsort((*cols, numeric, run))]

    def tiebreak(i: int) -> tuple:
        l = lengths[i]
        return ((0, l.base, l.mult) if isinstance(l, Exact) else (1, 0, 0), *(k[i] for k in keys))

    first, mixed = {}, set()  # each run's first Exact value; the runs holding another
    for r, l in zip(run[~numeric].tolist(), (lengths[i] for i in members[~numeric].tolist())):
        if first.setdefault(r, l) is not l and first[r] != l:
            mixed.add(r)
    for r in mixed:
        lo, hi = at[np.searchsorted(run, r)], at[np.searchsorted(run, r, "right") - 1] + 1
        order[lo:hi] = sorted(order[lo:hi].tolist(), key=tiebreak)
    return order


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """The positions where a run of equal keys begins, over columns of one
    length: each group of columns sorted on the keys starts at one of them."""
    cut = np.zeros(len(keys[0]), dtype=bool)
    cut[:1] = True
    for k in keys:
        cut[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(cut)


def cluster_ids(x: np.ndarray, tol: float) -> np.ndarray:
    """The length cluster of each value of an ascending float column: a new
    cluster starts wherever the gap to the previous value exceeds tol
    (union-find with links between tol-close neighbours, as a sorted sweep)."""
    ids = np.zeros(len(x), dtype=np.int64)
    np.cumsum(np.diff(x) > tol, out=ids[1:])
    return ids


class Clusters:
    """Length clusters over sorted float columns, each given with its Exact
    lengths (None for a numeric one; the float of an Exact length is its
    approx()): the columns are merged by a stable argsort and split by
    :func:`cluster_ids`.  ``ids[k]`` holds the cluster of each value of
    column k; ``starts``, ``lo`` and ``hi`` the first merged position and the
    least and greatest value of each cluster, and ``rep_floats`` the float of
    each cluster's representative (see :meth:`reps`), as an array."""

    def __init__(self, columns: Sequence[Tuple[np.ndarray, Sequence[Exact | None]]], tol: float):
        x = np.concatenate([c[0] for c in columns])
        order = np.argsort(x, kind="stable")
        merged = cluster_ids(x[order], tol)
        ids = np.empty_like(merged)
        ids[order] = merged
        bounds = np.cumsum([0] + [len(c[0]) for c in columns]).tolist()
        self.ids = [ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        self.size = int(merged[-1]) + 1 if len(merged) else 0
        starts = run_starts(merged)
        self.starts = starts.tolist()
        last = np.append(starts, len(merged))[1:] - 1  # last merged position of each
        self.rep_floats = x[order[starts]]
        self.lo, self.hi = self.rep_floats.tolist(), x[order[last]].tolist()
        self._exact: dict = {}  # each cluster's least Exact length
        exact = [l for c in columns for l in c[1]]
        # merged positions of the Exact lengths; the first of each cluster has its least float
        pos = order[np.array([l is not None for l in exact], dtype=bool)[order]]
        c = ids[pos]
        runs = run_starts(c, x[pos])  # runs of one (cluster, float)
        first = run_starts(c[runs])  # each cluster's first run
        self.rep_floats[c[runs[first]]] = x[pos[runs[first]]]
        for j, k in zip(runs[first].tolist(), np.append(runs, len(pos))[first + 1].tolist()):
            tied = [exact[i] for i in pos[j:k].tolist()]  # at the cluster's least float; often one object
            self._exact[int(c[j])] = (tied[0] if tied.count(tied[0]) == len(tied)
                                      else tied[sorted_order(x[pos[j:k]], tied)[0]])

    def reps(self, at: Sequence[int]) -> List[LengthValue]:
        """The representative of each cluster of at: its least Exact length, else
        its least length (lo holds checked column floats, so none is checked again)."""
        out = list(map(self._exact.get, at))
        numeric = [i for i, l in enumerate(out) if l is None]
        for i, l in zip(numeric, numerics([self.lo[at[i]] for i in numeric])):
            out[i] = l
        return out

    def rep(self, c: int) -> LengthValue:
        return self.reps([c])[0]


def cluster_lengths(
    values: Iterable[LengthValue], tol: float = DEFAULT_TOLERANCE
) -> List[List[LengthValue]]:
    """Group length values whose chained gaps are within tol.

    Values are ordered by magnitude (exact before numeric on a tie) and
    split by :func:`cluster_ids`.  Returns the clusters in ascending order.
    """
    values = list(values)
    x = np.array([v.approx() for v in values], dtype=float)
    order = sorted_order(x, values)
    ordered = [values[i] for i in order.tolist()]
    starts = run_starts(cluster_ids(x[order], tol)).tolist()
    return [ordered[lo:hi] for lo, hi in zip(starts, starts[1:] + [len(values)])]
