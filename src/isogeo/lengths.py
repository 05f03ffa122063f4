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
from dataclasses import dataclass, field, fields
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from numbers import Integral
from typing import Iterable, List, NamedTuple, Sequence, Tuple, Union

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
    """Length ``mult * log(base)``, held in exact rational arithmetic; its float
    (:func:`exact_float`) is computed once, so a length past the float range
    raises ValueError at construction."""

    base: int
    mult: Fraction
    _x: float = field(init=False, repr=False, compare=False)

    def __init__(self, base: int, mult: RationalLike):
        if isinstance(mult, float):
            # Fraction(0.1) is the exact binary expansion, never what was meant
            raise TypeError("exact multiplier must be int, str, or Fraction, not float")
        r = mult if type(mult) is Fraction else Fraction(mult)
        if r <= 0:
            raise ValueError(f"length multiplier must be positive, got {r}")
        g, e = _canonical_root(as_integer(base, "base"))
        _set_exact(self, g, r if e == 1 else r * e)

    def __hash__(self) -> int:
        return hash(self._x)  # equal lengths have equal floats, and a float hashes in C

    def approx(self) -> float:
        return self._x

    def integer_mult(self) -> int | None:
        """The integer n with self = n*log(base), or None if fractional."""
        n, d = self.mult.as_integer_ratio()
        return n if d == 1 else None

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


def unchecked(cls, *columns: Sequence) -> list:
    """Instances of the frozen slots dataclass cls from columns already checked,
    one per fields(cls) in order, each field set on a bare instance: nothing is
    checked or converted again."""
    out = [object.__new__(cls) for _ in columns[0]]
    for f, column in zip(fields(cls), columns):
        deque(map(getattr(cls, f.name).__set__, out, column), 0)
    return out


LengthValue = Union[Exact, Numeric]
_SET_BASE, _SET_MULT, _SET_X = (getattr(Exact, f).__set__ for f in ("base", "mult", "_x"))


def exact_float(base: int, num: int, den: int = 1) -> float:
    """The float of the exact length num/den * log(base), num/den in lowest terms:
    num / den rounds the quotient once, as float(Fraction(num, den)) does.
    ValueError, naming the length, where that float is not finite."""
    try:
        x = num / den * math.log(base)
        if x < math.inf:
            return x
    except OverflowError:  # a multiplier past the float range
        pass
    # Decimal prints an int past the interpreter's bound on int-to-string digits, str() raises
    mult = f"{Decimal(num)}" + (f"/{Decimal(den)}" if den != 1 else "")
    raise ValueError(f"exact length {mult}*log({base}) is past the float range")


def _set_exact(l: Exact, base: int, mult: Fraction) -> Exact:
    _SET_BASE(l, base), _SET_MULT(l, mult), _SET_X(l, exact_float(base, *mult.as_integer_ratio()))
    return l


def keyed_exact(base: int, num: int, den: int) -> Exact:
    """The Exact of a canonical key row, set field by field: base is a canonical
    root and num/den in lowest terms, so nothing is canonicalised or checked again."""
    return _set_exact(object.__new__(Exact), base, Fraction(num) if den == 1 else Fraction(num, den))


def int_column(values) -> np.ndarray:
    """values as an int64 array, or as Python ints (object) where one is past int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def summable(column: np.ndarray) -> np.ndarray:
    """An integer column as int64 while no sum of its values can pass it (max|v| * len < 2**63), else Python ints."""
    if column.dtype == np.int64 and int(np.abs(column).max(initial=0)) * len(column) < 2**63:
        return column
    return column.astype(object)


class ExactKeys(NamedTuple):
    """Canonical keys of lengths as columns, each as :func:`int_column` holds it.
    The exact length mult*log(base) is the row (base, num, den), base its canonical
    root and mult = num/den in lowest terms, so exact lengths are equal exactly when
    their rows are; a numeric length is the row (0, 0, 1)."""

    base: np.ndarray
    num: np.ndarray
    den: np.ndarray

    @classmethod
    def numeric(cls, n: int) -> "ExactKeys":
        """The key rows of n numeric lengths."""
        return cls(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64))

    def take(self, at) -> "ExactKeys":
        return ExactKeys(*(k[at] for k in self))

    def lengths(self, at: Sequence[int]) -> List[Exact | None]:
        """The lengths of the rows at: None for a numeric row, else an Exact made
        by :func:`keyed_exact` once per run of equal keys in at, so once per
        distinct key where equal keys are adjacent (a spectrum's canonical order)."""
        at = np.asarray(at, dtype=np.intp)
        keys = self.take(at)
        if not keys.base.any():  # no exact row
            return [None] * len(at)
        starts = run_starts(*keys)
        made = [keyed_exact(*key) if key[0] else None for key in zip(*(k[starts].tolist() for k in keys))]
        return np.repeat(np.array(made, dtype=object), np.diff(starts, append=len(at))).tolist()


def exact_keys(lengths: Iterable[LengthValue | None]) -> ExactKeys:
    """The key rows of lengths held as objects: an Exact's (base, num, den), and
    (0, 0, 1) for a Numeric length or None."""
    rows = [(l.base, *l.mult.as_integer_ratio()) if isinstance(l, Exact) else None for l in lengths]
    if rows.count(None) == len(rows):
        return ExactKeys.numeric(len(rows))
    return ExactKeys(*map(int_column, zip(*(r or (0, 0, 1) for r in rows))))


def lengths_equal(a: LengthValue, b: LengthValue, tol: float = DEFAULT_TOLERANCE) -> bool:
    r = exact_ratio(a, b)
    return abs(a.approx() - b.approx()) <= tol if r is None else r == 1


def length_le(a: LengthValue, b: LengthValue, tol: float = DEFAULT_TOLERANCE) -> bool:
    """a <= b, exact on a common grid, within tol otherwise."""
    r = exact_ratio(a, b)
    return a.approx() <= b.approx() + tol if r is None else r <= 1


def exact_ratio(a: LengthValue, b: LengthValue) -> Fraction | None:
    """a/b as an exact rational, or None when not decidable exactly."""
    if isinstance(a, Exact) and isinstance(b, Exact) and a.base == b.base:
        return a.mult / b.mult
    return None


def tanh_half(l: LengthValue | float) -> Fraction | float:
    """tanh(l/2); exact (q**n - 1)/(q**n + 1) when l = n*log(q), n integer."""
    if isinstance(l, Exact):
        n = l.integer_mult()
        if n is not None:
            qn = l.base**n
            return Fraction(qn - 1, qn + 1)
    return math.tanh((l if isinstance(l, float) else l.approx()) / 2.0)


def sorted_order(x: np.ndarray, keys: ExactKeys, *more: Sequence) -> np.ndarray:
    """Stable argsort of the float column x of lengths with the given key rows.
    Equal floats put exact lengths first, by base and then multiplier, then the
    further columns decide: where floats tie and a key row is exact or a further
    column is given, one lexsort over the key columns, multipliers by (den, num).
    That is their order by value unless two of one base differ in den, and only
    a run of equal floats holding such a pair is sorted again, in Python."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    if not (more or keys.base.any()) or not (xs[1:] == xs[:-1]).any():  # nothing breaks a tie
        return order
    # a list column stays Python ints: numpy would round a mix of large ones to float
    cols = [k if isinstance(k, np.ndarray) else np.array(k, dtype=object) for k in reversed(more)]
    order = np.lexsort((*cols, keys.num, keys.den, keys.base, keys.base == 0, x))
    xs, base, den = x[order], keys.base[order], keys.den[order]
    mixed = (xs[1:] == xs[:-1]) & (base[1:] == base[:-1]) & (base[1:] != 0) & (den[1:] != den[:-1])
    for v in sorted(set(xs[1:][mixed].tolist())):  # the float of a run holding such a pair
        lo, hi = np.searchsorted(xs, v), np.searchsorted(xs, v, "right")
        order[lo:hi] = sorted(order[lo:hi].tolist(), key=lambda i: (
            keys.base[i] == 0, keys.base[i], Fraction(int(keys.num[i]), int(keys.den[i])), *(k[i] for k in more)))
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
    """Length clusters over float columns, each given with its key rows (the
    float of an exact length is its approx()): the columns are merged by
    :func:`sorted_order` and split by :func:`cluster_ids`.  ``ids[k]`` holds the
    cluster of each value of column k, and ``rep_floats`` the float of each
    cluster's representative row (see :meth:`reps`), as an array."""

    def __init__(self, columns: Sequence[Tuple[np.ndarray, ExactKeys]], tol: float):
        x = np.concatenate([c[0] for c in columns])
        self._keys = ExactKeys(*map(np.concatenate, zip(*(c[1] for c in columns))))
        order = sorted_order(x, self._keys)
        merged = cluster_ids(x[order], tol)
        ids = np.empty_like(merged)
        ids[order] = merged
        bounds = np.cumsum([0] + [len(c[0]) for c in columns]).tolist()
        self.ids = [ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        self.size = int(merged[-1]) + 1 if len(merged) else 0
        self._rows = order[run_starts(merged)]  # each cluster's least row, then its least exact row
        exact = order[self._keys.base[order] != 0]  # the exact rows in merged order
        least = exact[run_starts(ids[exact])]  # the first, so the least, of each cluster holding one
        self._rows[ids[least]] = least
        self.rep_floats = x[self._rows]

    def reps(self, at: Sequence[int]) -> List[LengthValue]:
        """The representative of each cluster of at: its least exact length, else
        its least length (rep_floats holds checked column floats, so none is checked again)."""
        at = np.asarray(at, dtype=np.intp)
        rows, out = self._rows[at], np.empty(len(at), dtype=object)
        exact = self._keys.base[rows] != 0
        out[exact] = self._keys.lengths(rows[exact])
        out[~exact] = unchecked(Numeric, self.rep_floats[at[~exact]].tolist())
        return out.tolist()


def cluster_lengths(
    values: Iterable[LengthValue], tol: float = DEFAULT_TOLERANCE
) -> List[List[LengthValue]]:
    """Group length values whose chained gaps are within tol.

    Values are ordered by magnitude (exact before numeric on a tie) and
    split by :func:`cluster_ids`.  Returns the clusters in ascending order.
    """
    values = list(values)
    x = np.array([v.approx() for v in values], dtype=float)
    order = sorted_order(x, exact_keys(values))
    ordered = [values[i] for i in order.tolist()]
    starts = run_starts(cluster_ids(x[order], tol)).tolist()
    return [ordered[lo:hi] for lo, hi in zip(starts, starts[1:] + [len(values)])]
