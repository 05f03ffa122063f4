"""Length-twist spectra and the discrepancy machinery built on them.

A spectrum is a finite multiset of oriented closed geodesic types, each
carrying a length, an orientation type (does holonomy preserve or reverse
local orientation), an imprimitivity index nu (how many times it wraps a
primitive ancestor) and a multiplicity.  Spectra are truncations: lengths
above the horizon are unknown, not absent, so every comparison is
qualified "up to the horizon".

The weight of a geodesic is 1/nu when orientation-preserving and
(1/nu)*tanh(l/2) when orientation-reversing; the total weight function
W(l) sums multiplicity*weight over the types in the length cluster of l
(lengths chained within the tolerance, see lengths.Clusters).  Two
spectra with equal W everywhere need not have matching geodesic counts,
and the discrepancy functions a(l), b(l) quantify how primitive counts
can trade off against each other under W-equality.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import methodcaller
from types import MappingProxyType
from typing import Iterable, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import (
    HorizonMismatch,
    InexactLength,
    InvariantViolation,
    MixedBases,
    NotMinimal,
    PrimeCollision,
    QueryBeyondHorizon,
    RatioIsInteger,
)
from .lengths import (
    DEFAULT_TOLERANCE,
    Clusters,
    Exact,
    ExactKeys,
    LengthValue,
    Numeric,
    as_integer,
    exact_keys,
    exact_ratio,
    int_column,
    length_le,
    lengths_equal,
    positive_length,
    run_starts,
    sorted_order,
    summable,
    tanh_half,
    unchecked,
)


class Orientation(str, Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


ORIENTATIONS = (Orientation.PRESERVING, Orientation.REVERSING)  # by reversing flag
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def entry_counts(nu, multiplicity) -> Tuple[int, int]:
    """(nu, multiplicity) as ints >= 1 (integral floats convert); ValueError otherwise."""
    if type(nu) is not int or type(multiplicity) is not int:
        nu, multiplicity = as_integer(nu, "nu"), as_integer(multiplicity, "multiplicity")
    if nu < 1:
        raise ValueError(f"imprimitivity index must be >= 1, got {nu}")
    if multiplicity < 1:
        raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
    return nu, multiplicity


@dataclass(frozen=True, slots=True)
class GeodesicEntry:
    """One oriented closed geodesic type."""

    length: LengthValue
    orientation: Orientation
    nu: int = 1
    multiplicity: int = 1

    def __post_init__(self):
        nu, multiplicity = entry_counts(self.nu, self.multiplicity)
        if nu is not self.nu or multiplicity is not self.multiplicity:
            object.__setattr__(self, "nu", nu)
            object.__setattr__(self, "multiplicity", multiplicity)


class LengthTwistSpectrum:
    """Finite multiset of geodesic types truncated at a horizon.

    Entries sharing identical (length, orientation, nu) are aggregated at
    construction and held as columns in canonical order (ascending length,
    exact first on a tie, preserving before reversing, ascending nu):
    ``approx`` (float64), ``keys`` (the canonical key rows of the lengths,
    :class:`~isogeo.lengths.ExactKeys`), ``reversing`` (int8), and the count
    columns ``nu`` and ``multiplicity`` (int64 unless a value is past it, then
    Python ints); ``exact`` (Exact or None) and ``entries`` are views of them, built on first use.
    """

    def __init__(self, entries: Iterable[GeodesicEntry], horizon: LengthValue,
                 tolerance: float = DEFAULT_TOLERANCE):
        entries = list(entries)
        lengths = [e.length for e in entries]
        self._build([l.approx() for l in lengths], exact_keys(lengths),
                    [e.orientation is Orientation.REVERSING for e in entries], [e.nu for e in entries],
                    [e.multiplicity for e in entries], horizon, tolerance)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], horizon: LengthValue,
                     tolerance: float = DEFAULT_TOLERANCE) -> "LengthTwistSpectrum":
        """From columns (approx, keys, reversing, nu, multiplicity) in any order,
        checked as entries are: counts ints >= 1, lengths positive and finite.  The
        keys are the ExactKeys of the lengths, or the Exact-or-None column they
        are read from (by :func:`~isogeo.lengths.exact_keys`)."""
        spec = cls.__new__(cls)
        spec._build(*columns, horizon, tolerance)
        return spec

    def _build(self, approx, keys, reversing, nu, mult, horizon, tolerance):
        if not 0 < tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
        counts = [*nu, *mult]
        if set(map(type, counts)) - {int} or min(counts, default=1) < 1:  # 2.0 converts, the rest raises
            nu, mult = map(list, zip(*map(entry_counts, nu, mult)))
        keys = keys if isinstance(keys, ExactKeys) else exact_keys(keys)
        x, rev, nu = np.asarray(approx, dtype=float), np.asarray(reversing, dtype=np.int8), int_column(nu)
        bad = ~((x > 0) & (x < np.inf))  # NaN fails both
        if bad.any():
            positive_length(x[bad][0])
        order = sorted_order(x, keys, rev, nu)
        x, keys, rev, nu = x[order], keys.take(order), rev[order], nu[order]
        # copies of one (length, orientation, nu) sort side by side: one run each, folded into one row
        keep = run_starts(x, *keys, rev, nu)
        mult = np.add.reduceat(summable(int_column(mult))[order], keep)
        self.approx, self.keys, self.reversing = x[keep], keys.take(keep), rev[keep]
        self.nu, self.multiplicity = nu[keep], int_column(mult)
        self.horizon, self.tolerance = horizon, tolerance
        # lengths below the horizon's float are within it; the top run needs length_le
        top = np.arange(int(np.searchsorted(self.approx, horizon.approx())), len(self))
        for l, v in zip(self.keys.lengths(top), self.approx[top].tolist()):
            l = l or Numeric(v)
            if not length_le(l, horizon, tolerance):
                raise ValueError(f"entry length {l} exceeds horizon {horizon}")

    @cached_property
    def exact(self) -> List[Exact | None]:
        """The length of each exact entry (one object per distinct key), None for a numeric one."""
        return self.keys.lengths(np.arange(len(self)))

    @cached_property
    def entries(self) -> Tuple[GeodesicEntry, ...]:
        """The columns as entries, built by :func:`~isogeo.lengths.unchecked`: nothing is checked again."""
        numeric = iter(unchecked(Numeric, self.approx[self.keys.base == 0].tolist()))
        return tuple(unchecked(GeodesicEntry, [l or next(numeric) for l in self.exact],
                               [ORIENTATIONS[r] for r in self.reversing.tolist()],
                               self.nu.tolist(), self.multiplicity.tolist()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, LengthTwistSpectrum)
                and all(map(np.array_equal, (self.approx, self.reversing, self.nu, self.multiplicity, *self.keys),
                            (other.approx, other.reversing, other.nu, other.multiplicity, *other.keys)))
                and self.horizon == other.horizon)

    def __len__(self) -> int:
        return len(self.approx)

    def __repr__(self) -> str:
        return f"LengthTwistSpectrum({len(self)} types, horizon={self.horizon})"

    def total_multiplicity(self) -> int:
        return sum(self.multiplicity.tolist())

    def primitives(self) -> Tuple[GeodesicEntry, ...]:
        return tuple(e for e in self.entries if e.nu == 1)

    def union(self, other: "LengthTwistSpectrum") -> "LengthTwistSpectrum":
        """Disjoint union (models a disconnected surface); horizons must agree."""
        tol = _require_common_horizon(self, other)
        return LengthTwistSpectrum(self.entries + other.entries, self.horizon, tol)

    @cached_property
    def _damping(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each entry's damping factor, tanh(l/2) for a reversing type and 1 for a
        preserving one, as columns (p, q, t, is_float): exact p/q in lowest terms,
        (b^n - 1)/(b^n + 1) at l = n*log(b), once per distinct key row (b, n, 1)
        and halved when b is odd, int64 unless a q is past it; elsewhere the float
        t = math.tanh(l/2) (is_float, p = q = 1).  W, :attr:`term_floats` and
        :meth:`exact_terms` evaluate the weight formula from this column and
        the count columns alone."""
        (base, num, den), rev = self.keys, self.reversing.astype(bool)
        at = np.flatnonzero(rev & (base != 0) & (den == 1))
        runs = run_starts(base[at], num[at])  # equal keys are adjacent; b^n +- 1 share only 2, if b is odd
        pq = int_column([((x - 1) // g, (x + 1) // g) for x, g in
                         ((b**n, 1 + b % 2) for b, n in zip(base[at][runs].tolist(), num[at][runs].tolist()))])
        is_float, t = rev.copy(), np.zeros(len(self))
        is_float[at] = False
        t[is_float] = np.fromiter(map(math.tanh, (self.approx[is_float] / 2.0).tolist()), float)
        p, q = np.ones(len(self), dtype=pq.dtype), np.ones(len(self), dtype=pq.dtype)
        p[at], q[at] = np.repeat(pq.reshape(-1, 2), np.diff(runs, append=len(at)), axis=0).T
        return p, q, t, is_float

    @cached_property
    def term_floats(self) -> np.ndarray:
        """float(m) * float(w) of every entry, m its multiplicity and w its :func:`weight`
        (w is never built): an exact damping factor p/q over nu correctly rounded, as
        float(Fraction) rounds it, and a float factor t as t / nu.  NaN where m is past
        the float range: that entry's term is read from :meth:`exact_terms` instead."""
        (p, q, t, is_float), nu, m = self._damping, self.nu, self.multiplicity
        if q.dtype == nu.dtype == np.int64 and (q * nu.astype(float) < 2**53).all():
            w = np.where(is_float, t / nu, p / (q * nu))  # ints below 2**53 convert exactly: one rounding
        else:
            w = np.array([_damped(x, n) if f else a / (b * n) for a, b, x, f, n in
                          zip(p.tolist(), q.tolist(), t.tolist(), is_float.tolist(), nu.tolist())], dtype=float)
        try:
            m = m.astype(float)
        except OverflowError:
            m = np.fromiter(map(_float_or_nan, self.multiplicity), float, len(self))
        return m * w

    def exact_terms(self, at: List[int]) -> List[Fraction]:
        """multiplicity * weight of the entries at, exact, from the damping and count
        columns: m*p / (nu*q) for an exact damping factor p/q, m*Fraction(t) / nu
        for a float factor t (the float tanh(l/2) taken exactly)."""
        p, q, t, is_float = self._damping
        nu, m, at = self.nu, self.multiplicity, np.asarray(at, dtype=np.intp)
        return [c * Fraction(x) / n if f else Fraction(c * a, b * n) for a, b, x, f, n, c in zip(
            p[at].tolist(), q[at].tolist(), t[at].tolist(), is_float[at].tolist(), nu[at].tolist(), m[at].tolist())]

    @cached_property
    def clusters(self) -> Clusters:
        return Clusters([(self.approx, self.keys)], self.tolerance)

    @cached_property
    def weight_columns(self) -> WeightColumns:
        """W of each of the spectrum's own length clusters, as columns."""
        return _cluster_weights(self, self.clusters.ids[0], self.clusters.size)


def _float_or_nan(num: int, den: int = 1) -> float:
    """num / den correctly rounded, or NaN where it is past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.nan


def _damped(t: float, nu: int) -> float:
    """t / nu; for a nu past the float range, where that raises, the correctly
    rounded quotient (0.0 or a subnormal)."""
    try:
        return t / nu
    except OverflowError:
        return float(Fraction(t) / nu)


def validate_surface(spec: LengthTwistSpectrum) -> List[str]:
    """Consistency checks that hold when a spectrum comes from a real surface.

    Synthetic tables are exempt, so this is opt-in: returns a list of
    violation descriptions (empty when clean).  Checks that oriented
    multiplicities are even (each unoriented geodesic appears once per
    orientation) and that no orientation-reversing type has even nu (even
    powers of a reversing primitive preserve orientation).
    """
    problems = []
    for e in spec.entries:
        if e.multiplicity % 2 != 0:
            problems.append(f"odd multiplicity {e.multiplicity} at {e.length} ({e.orientation.value}, nu={e.nu})")
        if e.orientation is Orientation.REVERSING and e.nu % 2 == 0:
            problems.append(f"reversing type with even nu={e.nu} at {e.length}")
    return problems


def weight(entry: GeodesicEntry) -> Fraction | float:
    """Per-geodesic weight: 1/nu, damped by tanh(l/2) for reversing types.

    Exact rational whenever the damping factor is exactly representable
    (length an integer multiple of log q); float otherwise.
    """
    if entry.orientation is Orientation.PRESERVING:
        return Fraction(1, entry.nu)
    t = tanh_half(entry.length)
    return t / entry.nu if type(t) is Fraction else _damped(t, entry.nu)


class WeightColumns(NamedTuple):
    """W of each cluster as columns: ``num``/``den`` in lowest terms where W is
    exact (for a float W, the exact sum before its first float term), ``flo``
    where W is a float (``is_float``); float(W) is read through :meth:`floats` alone."""

    num: np.ndarray
    den: np.ndarray
    flo: np.ndarray
    is_float: np.ndarray

    def values(self, at: np.ndarray | slice = slice(None)) -> List[Fraction | float]:
        """W of the clusters at (of every cluster by default), each a float or a Fraction, one per distinct W."""
        w = {}  # (num, den) -> its Fraction, for this call alone; an exact W may be 0, so no truth test
        return [f if x else w[p, q] if (p, q) in w else w.setdefault((p, q), Fraction(p, q)) for p, q, f, x in
                zip(self.num[at].tolist(), self.den[at].tolist(), self.flo[at].tolist(), self.is_float[at].tolist())]

    def floats(self, at: np.ndarray) -> np.ndarray:
        """float(W) of the clusters at: an exact W as num/den, correctly rounded,
        and NaN where it is past the float range."""
        out, exact = self.flo[at], ~self.is_float[at]
        num, den = self.num[at[exact]], self.den[at[exact]]
        try:
            out[exact] = num / den  # ints below 2**53, or Python ints
        except OverflowError:
            out[exact] = list(map(_float_or_nan, num.tolist(), den.tolist()))
        return out


def _run_sums(p: np.ndarray, d: np.ndarray, starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sum p/d over each run of terms that begins at starts: a numerator over the
    lcm of the run's denominators."""
    den = np.lcm.reduceat(d, starts)
    return np.add.reduceat(p * (np.repeat(den, np.append(starts[1:], len(d)) - starts) // d), starts), den


def _cluster_weights(spec: LengthTwistSpectrum, ids: np.ndarray, size: int) -> WeightColumns:
    """W of each of size clusters from the spectrum's columns (ids: the cluster of
    each entry, never decreasing, so a cluster is a run of entries).

    The terms add as Fraction/float promotion adds multiplicity * weight in entry
    order: exact terms sum as an integer rational up to the cluster's first float
    term, and each later term adds as its rounded value.  With the damping factor
    p/q or t of the spectrum's damping column, a term is m*p / (nu*q), so a
    cluster's exact prefix is one run sum, or m * (t/nu) in floats, the entry's
    :attr:`~LengthTwistSpectrum.term_floats` (for an m past the float range, the
    exact m*Fraction(t) / nu rounded once).  The count columns ``spec.nu`` and
    ``spec.multiplicity`` are int64 where, in every cluster, the product over its
    entries of nu*q + m*p stays below 2**52: that bounds every sum and product
    below, so each converts to a float exactly.  Python ints hold them otherwise."""
    n, (p, q, _, is_float), nu, m = len(spec), spec._damping, spec.nu, spec.multiplicity
    small = (nu.dtype == m.dtype == q.dtype == np.int64
             and np.bincount(ids, np.log2(nu * q.astype(float) + m * p.astype(float)), size).max(initial=0) < 52)
    if not small:
        nu, m, p, q = (c.astype(object) for c in (nu, m, p, q))
    mp, nq = m * p, nu * q

    f = np.flatnonzero(is_float)
    first = np.full(size, n)  # each cluster's first float term
    np.minimum.at(first, ids[f], f)
    later = np.arange(n) >= first[ids]
    num, den = np.zeros(size, dtype=nu.dtype), np.ones(size, dtype=nu.dtype)
    if n:  # the exact prefixes: sum m*p/(nu*q) per cluster
        starts = run_starts(ids)
        s, d = _run_sums(np.where(later, 0, mp), nq, starts)
        g = np.gcd(s, d)
        num[ids[starts]], den[ids[starts]] = s // g, d // g

    flo = np.zeros(size)
    if len(f):
        seg = np.flatnonzero(later)
        fl, ex = is_float[seg], seg[~is_float[seg]]
        terms = np.empty(len(seg))
        terms[fl] = spec.term_floats[seg[fl]]
        floating = np.flatnonzero(first < n)
        try:
            terms[~fl] = mp[ex] / nq[ex]  # rounded once
            huge = np.isnan(terms)  # a multiplicity past the float range: its exact term, rounded once
            terms[huge] = list(map(float, spec.exact_terms(seg[huge])))
            prefix = (num[floating] / den[floating]).astype(float)  # each float cluster starts from it, rounded
        except OverflowError:  # an exact term, or the exact prefix, of a float W
            raise OverflowError("a length cluster's total weight W is past the float range") from None
        flo = np.bincount(np.concatenate((floating, ids[seg])), np.concatenate((prefix, terms)), size)  # adds in order
    return WeightColumns(num, den, flo, first < n)


def _query_float(l: LengthValue, horizon: LengthValue, tol: float) -> float:
    if not length_le(l, horizon, tol):  # past the horizon the spectrum is unknown
        raise QueryBeyondHorizon(f"query {l} exceeds horizon {horizon}")
    return l.approx()


def total_weight(spec: LengthTwistSpectrum, l: LengthValue) -> Fraction | float:
    """W(l) as in :func:`weight_function`: the W of the first length cluster
    whose span, widened by the tolerance on each side, contains l; 0 if none.
    That is the cluster of the first entry with approx + tol >= l, if its approx - tol <= l."""
    tol, x = spec.tolerance, _query_float(l, spec.horizon, spec.tolerance)
    i = bisect_left(spec.approx, x, key=lambda v: v + tol)
    if i == len(spec) or spec.approx[i] - tol > x:
        return Fraction(0)
    return spec.weight_columns.values(spec.clusters.ids[0][i:i + 1])[0]  # the W of entry i's cluster


def _require_common_horizon(a: LengthTwistSpectrum, b: LengthTwistSpectrum) -> float:
    tol = max(a.tolerance, b.tolerance)
    if not lengths_equal(a.horizon, b.horizon, tol):
        raise HorizonMismatch(f"{a.horizon} vs {b.horizon}")
    return tol


def weight_function(spec: LengthTwistSpectrum) -> List[Tuple[LengthValue, Fraction | float]]:
    """The total weight function: (representative, W) per length cluster.

    Clusters are the spectrum's lengths chained within its tolerance, in
    ascending order; W sums multiplicity*weight over every entry of the
    cluster, exactly when all of them are exact rationals.
    """
    return list(zip(spec.clusters.reps(range(spec.clusters.size)), spec.weight_columns.values()))


def compare_weights(
    a: LengthTwistSpectrum, b: LengthTwistSpectrum
) -> List[Tuple[LengthValue, Fraction | float, Fraction | float]]:
    """Lengths up to the common horizon where the W functions differ.

    Empty iff W agrees (exactly when both sides are exact rationals,
    within tolerance otherwise) at every length of either spectrum.
    An exact W past the float range differs from a float W; two inf agree.
    """
    tol = _require_common_horizon(a, b)
    clusters = Clusters([(a.approx, a.keys), (b.approx, b.keys)], tol)
    wa, wb = (_cluster_weights(s, ids, clusters.size) for s, ids in zip((a, b), clusters.ids))
    exact = ~(wa.is_float | wb.is_float)
    differ = exact & ((wa.num != wb.num) | (wa.den != wb.den))
    loose = np.flatnonzero(~exact)
    fa, fb = wa.floats(loose), wb.floats(loose)  # NaN for an exact W past the float range: a row
    with np.errstate(invalid="ignore"):  # inf - inf is NaN: two inf agree, as inf != inf is False
        differ[loose] = ~(np.abs(fa - fb) <= tol) & (fa != fb)
    at = np.flatnonzero(differ)
    return list(zip(clusters.reps(at.tolist()), wa.values(at), wb.values(at)))


@dataclass(frozen=True)
class ConjugacyWitness:
    """First (length, orientation, nu) where oriented multiplicities differ."""

    length: LengthValue
    orientation: Orientation
    nu: int
    multiplicity_a: int
    multiplicity_b: int


def almost_conjugate(
    a: LengthTwistSpectrum, b: LengthTwistSpectrum
) -> Tuple[bool, ConjugacyWitness | None]:
    """Do the spectra match type-by-type up to the common horizon?

    Matching is on triples (length, orientation, nu); note the length-twist
    data alone does not say how primitive ancestors of differing
    orientation should pair up, so triple comparison is the convention
    used throughout.
    """
    tol = _require_common_horizon(a, b)
    clusters = Clusters([(a.approx, a.keys), (b.approx, b.keys)], tol)
    keys = (np.concatenate((a.nu, b.nu)), np.concatenate((a.reversing, b.reversing)), np.concatenate(clusters.ids))
    order = np.lexsort(keys)  # one pass over both sides, in (cluster, orientation, nu) order
    starts = run_starts(*(k[order] for k in keys))  # where a (cluster, orientation, nu) group starts
    m, in_a = summable(np.concatenate((a.multiplicity, b.multiplicity))), np.arange(len(order)) < len(a)
    va, vb = (np.add.reduceat(np.where(side, m, 0)[order], starts) for side in (in_a, ~in_a))
    differ = np.flatnonzero(va != vb)
    if not len(differ):
        return True, None
    g, i = differ[0], order[starts[differ[0]]]
    length = clusters.rep(int(keys[2][i]))
    return False, ConjugacyWitness(length, ORIENTATIONS[keys[1][i]], int(keys[0][i]), int(va[g]), int(vb[g]))


@dataclass(frozen=True, repr=False)
class DiscrepancyTable:
    """Integer functions a(l), b(l) over lengths up to a horizon.

    a(l) is the primitive orientation-preserving count of the first
    spectrum minus the second's; b(l) is the primitive reversing count of
    the *second* minus the first's (the two spectra trade places between
    the definitions).  Zero values are omitted from storage but report
    as 0; a value converts as ``as_integer`` does (2.0 does, 1.5 and True raise).

    Immutable: a and b are read-only mappings once constructed, so the
    support order and the support analysis of support_sets are computed
    once per table and can never go stale.  Support lengths are checked
    against the horizon within the tolerance, which equality ignores.
    """

    a: Mapping[LengthValue, int]
    b: Mapping[LengthValue, int]
    horizon: LengthValue
    tolerance: float = field(default=DEFAULT_TOLERANCE, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", MappingProxyType({l: n for l, v in self.a.items() if (n := as_integer(v, "a"))}))
        object.__setattr__(self, "b", MappingProxyType({l: n for l, v in self.b.items() if (n := as_integer(v, "b"))}))
        support = self._support  # ascending: lengths below the horizon's float are within it
        for l in support[bisect_left(support, self.horizon.approx(), key=methodcaller("approx")):]:
            if not length_le(l, self.horizon, self.tolerance):
                raise ValueError(f"support length {l} exceeds horizon {self.horizon}")

    def a_at(self, l: LengthValue) -> int:
        return self.a.get(l, 0)

    def b_at(self, l: LengthValue) -> int:
        return self.b.get(l, 0)

    def support(self) -> List[LengthValue]:
        """The lengths where a or b is nonzero, in the order of lengths.sorted_order:
        ascending float, an Exact before a Numeric of the same float, exact
        lengths by (base, multiplier)."""
        return list(self._support)

    @cached_property
    def _support(self) -> Tuple[LengthValue, ...]:
        support = list(self.a.keys() | self.b.keys())
        order = sorted_order(np.array([l.approx() for l in support], dtype=float), exact_keys(support))
        return tuple(support[i] for i in order.tolist())

    @cached_property
    def _support_sets(self) -> Tuple[frozenset, frozenset]:
        """(L, L0) of support_sets; an analysis that raises stores nothing."""
        support = self._support
        if not all(isinstance(l, Exact) for l in support):
            raise MixedBases("support contains numeric lengths; divisibility undecidable")
        bases = {l.base for l in support}
        if len(bases) > 1:
            raise MixedBases(f"support spans incommensurable grids: bases {sorted(bases)}")

        L0 = []  # the support ascends by multiplier; a multiple of a smaller length is one of a minimal one
        for l in support:
            if not any(_is_multiple(l, m) for m in L0):
                L0.append(l)
        for l in support:
            if not any(_is_multiple(l, m) for m in L0):
                raise InvariantViolation(f"{l} not a multiple of any minimal length")
        return frozenset(support), frozenset(L0)

    def __repr__(self) -> str:
        return f"DiscrepancyTable({len(self.a)} a-values, {len(self.b)} b-values)"


def discrepancy(a: LengthTwistSpectrum, b: LengthTwistSpectrum) -> DiscrepancyTable:
    """Primitive-count discrepancies between two spectra.

    Only nu=1 entries contribute.  Antisymmetric in (a, b) componentwise:
    swapping the spectra negates both functions.
    """
    tol = _require_common_horizon(a, b)
    sides = [(s, np.flatnonzero(s.nu == 1)) for s in (a, b)]
    clusters = Clusters([(s.approx[t], s.keys.take(t)) for s, t in sides], tol)
    rev = np.concatenate([s.reversing[t] for s, t in sides])
    # a(l): a's preserving count minus b's; b(l): b's reversing count minus a's
    m = summable(np.concatenate([s.multiplicity[t] for s, t in sides]))
    signed = np.where(rev == (np.arange(len(m)) >= len(sides[0][1])), m, -m)
    group = np.concatenate(clusters.ids) * 2 + rev  # (cluster, orientation), cluster-major
    order = np.argsort(group, kind="stable")
    starts = run_starts(group[order])
    sums, group = np.add.reduceat(signed[order], starts), group[order[starts]]
    group, sums = group[sums != 0], sums[sums != 0].tolist()
    reps = dict(zip((group // 2).tolist(), clusters.reps(group // 2)))  # one per cluster, shared by a and b
    a_map, b_map = ({reps[g // 2]: v for g, v in zip(group.tolist(), sums) if g % 2 == o} for o in (0, 1))
    return DiscrepancyTable(a_map, b_map, a.horizon, tol)


def support_sets(table: DiscrepancyTable) -> Tuple[set, set]:
    """(L, L0): the support of the table and its divisibility-minimal part.

    l precedes m when m is a positive integer multiple of l; L0 collects
    the minimal elements, and every element of L is checked to be an
    integer multiple of something in L0.  The analysis runs on the
    table's first call; each call returns fresh sets.
    """
    L, L0 = table._support_sets
    return set(L), set(L0)


def _is_multiple(l: Exact, m: Exact) -> bool:
    """Is l a positive integer multiple of m?  Both on one grid."""
    return l.mult.numerator * m.mult.denominator % (l.mult.denominator * m.mult.numerator) == 0


def _minimal_grid_point(table: DiscrepancyTable, l: LengthValue) -> Tuple[int, frozenset]:
    """(n, L0) for l = n*log(q), n a positive integer, and L0 of support_sets.

    InexactLength unless l is such a grid point; NotMinimal if l is in the
    support above another support length.
    """
    if not isinstance(l, Exact):
        raise InexactLength(f"{l} is not an exact length")
    n = l.integer_mult()
    if n is None:
        raise InexactLength(f"{l} is not an integer multiple of log({l.base})")
    L, L0 = table._support_sets
    if l in L and l not in L0:
        raise NotMinimal(f"{l} is not minimal in the support")
    return n, L0


def lemma1_residual(table: DiscrepancyTable, l: LengthValue) -> Fraction:
    """a(l) - tanh(l/2)*b(l) at a minimal support length, exactly.

    At a minimal length every imprimitive contribution to W cancels
    between the two spectra, so W-equality forces the primitive
    contributions to match; a zero residual is that matching identity.
    Lengths carrying no discrepancy mass satisfy it vacuously (residual
    0); lengths in the support that sit above another support element
    are rejected, since cancellation of imprimitive mass is not given
    there.
    """
    _minimal_grid_point(table, l)
    return Fraction(table.a_at(l)) - tanh_half(l) * Fraction(table.b_at(l))


def odd_prime_multiples(l: LengthValue, l1: LengthValue, bound: int) -> set:
    """Odd primes p <= bound with p*l an integer multiple of l1.

    For exact lengths on a common grid the answer has at most one
    element: writing l/l1 = u/v in lowest terms, p*l lands on the
    l1-grid only when v divides p, so p must equal v.  Incommensurable
    grids give the empty set.  When l is already an integer multiple of
    l1 every prime works and the bound is meaningless: RatioIsInteger.
    """
    if not isinstance(l, Exact) or not isinstance(l1, Exact):
        raise InexactLength("odd prime multiple analysis requires exact lengths")
    if l == l1:
        raise ValueError("lengths must differ")
    r = exact_ratio(l, l1)
    if r is None:
        return set()
    if r.denominator == 1:
        raise RatioIsInteger(f"{l} = {r} * {l1}")
    return {r.denominator} if r.denominator <= bound and _is_odd_prime(r.denominator) else set()


def _is_odd_prime(n: int) -> bool:
    return n > 2 and n % 2 == 1 and all(n % f for f in range(3, math.isqrt(n) + 1, 2))


@dataclass(frozen=True)
class ForcedGrowth:
    """Forced b-value at an odd prime multiple, with its growth floor."""

    value: Fraction
    bound: Fraction


def forced_growth(table: DiscrepancyTable, l: LengthValue, p: int) -> ForcedGrowth:
    """The b-value at p*l forced by W-equality, computed exactly.

    Requires p an odd prime such that p*l is a multiple of no minimal
    support length other than l; then the only geodesics in play at
    length p*l are those of length l or p*l, and

        b(p*l) = [ (1/p)*(tanh(p*l/2)*b(l) - a(l)) + (b(p*l) - a(p*l)) ]
                 / (1 - tanh(p*l/2))

    with the difference b(p*l) - a(p*l) read from the table.  The
    companion bound q**(p*n) / (2p) (for l = n*log q) is the scale the
    denominator forces on any solution; it is the reason W-equality
    without full matching demands unboundedly many equal-length
    geodesics.  p*l must lie within the horizon, up to the table's tolerance.
    """
    if not _is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    n, l0_set = _minimal_grid_point(table, l)
    for other in l0_set - {l}:
        if odd_prime_multiples(l, other, p) == {p}:
            raise PrimeCollision(f"p={p}: p*l is also a multiple of {other}")
    pl = l.scaled(p)
    if not length_le(pl, table.horizon, table.tolerance):
        raise QueryBeyondHorizon(f"p*l = {pl} exceeds table horizon {table.horizon}")
    t = tanh_half(pl)
    residue = Fraction(table.b_at(pl) - table.a_at(pl))
    numerator = Fraction(1, p) * (t * table.b_at(l) - table.a_at(l)) + residue
    return ForcedGrowth(value=numerator / (1 - t), bound=Fraction(l.base ** (p * n), 2 * p))


class CountingFunction:
    """F(l) = oriented geodesics of length <= l, and its jumps f(l).

    Built over the spectrum's length clusters; F is a non-decreasing step
    function whose jumps sum to F(horizon).  A query past the horizon (within
    the tolerance) raises QueryBeyondHorizon: there F is unknown, not F(horizon).
    """

    __slots__ = ("_clusters", "_xs", "_jumps", "_cums", "horizon", "tolerance")

    def __init__(self, spec: LengthTwistSpectrum):
        self.horizon, self.tolerance = spec.horizon, spec.tolerance
        clusters = spec.clusters
        self._jumps = np.add.reduceat(summable(spec.multiplicity), run_starts(clusters.ids[0])).tolist()
        self._cums = list(accumulate(self._jumps))
        self._clusters = clusters  # its representatives are built by jumps() alone
        self._xs = clusters.rep_floats.tolist()  # strictly ascending: clusters are more than tol apart

    def jumps(self) -> List[Tuple[LengthValue, int]]:
        return list(zip(self._clusters.reps(range(self._clusters.size)), self._jumps))

    def jump(self, l: LengthValue) -> int:
        """f(l): the jump at the first representative within tol of l, else 0."""
        x = _query_float(l, self.horizon, self.tolerance)
        # rep - x is monotone in rep, so the reps within tol form one run
        i = bisect_left(self._xs, -self.tolerance, key=lambda r: r - x)
        if i < len(self._xs) and abs(self._xs[i] - x) <= self.tolerance:
            return self._jumps[i]
        return 0

    def count_up_to(self, l: LengthValue) -> int:
        """F(l): the oriented geodesics in clusters represented at or below l + tol."""
        i = bisect_right(self._xs, _query_float(l, self.horizon, self.tolerance) + self.tolerance)
        return self._cums[i - 1] if i else 0

    def total(self) -> int:
        return self._cums[-1] if self._cums else 0


@dataclass(frozen=True)
class JumpReport:
    """Comparison of per-length jumps against the envelope C*e^l/l."""

    violations: Tuple[Tuple[LengthValue, int, float], ...]
    max_normalized: float


def pgt_jump_report(spec: LengthTwistSpectrum, envelope_constant: float) -> JumpReport:
    """Flag lengths whose jump exceeds C*e^l/l; report max of f(l)*l*e^-l.

    On a genuine compact hyperbolic surface jumps are o(e^l/l), so any
    fixed positive envelope is eventually violated only by synthetic
    data.  Desk-scale sanity check, not an asymptotic test.  Both sides are
    compared as logs, so neither e^l past l ~ 709.78 nor a count past the float
    range overflows; an envelope or max_normalized past the float range is inf.
    """
    if not 0 < envelope_constant < math.inf:
        raise ValueError(f"envelope constant must be positive and finite, got {envelope_constant}")
    counting, log_c = CountingFunction(spec), math.log(envelope_constant)
    violations, max_norm = [], 0.0
    for rep, f in counting.jumps():
        x = rep.approx()
        log_f, log_envelope = math.log(f), log_c + x - math.log(x)
        log_norm = log_f + math.log(x) - x  # of f*l*e^-l
        max_norm = max(max_norm, math.exp(log_norm) if log_norm < _LOG_FLOAT_MAX else math.inf)
        if log_f > log_envelope:
            violations.append((rep, f, math.exp(log_envelope) if log_envelope < _LOG_FLOAT_MAX else math.inf))
    return JumpReport(tuple(violations), max_norm)
