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
(lengths chained within the tolerance, see lengths.cluster_index).  Two
spectra with equal W everywhere need not have matching geodesic counts,
and the discrepancy functions a(l), b(l) quantify how primitive counts
can trade off against each other under W-equality.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterable, List, Mapping, Tuple

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
    Exact,
    LengthValue,
    as_integer,
    cluster_index,
    exact_ratio,
    length_le,
    lengths_equal,
    representative,
    tanh_half,
)


class Orientation(str, Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class GeodesicEntry:
    """One oriented closed geodesic type."""

    length: LengthValue
    orientation: Orientation
    nu: int = 1
    multiplicity: int = 1

    def __post_init__(self):
        if type(self.nu) is not int or type(self.multiplicity) is not int:
            for name in ("nu", "multiplicity"):
                object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if self.nu < 1:
            raise ValueError(f"imprimitivity index must be >= 1, got {self.nu}")
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.multiplicity}")

    def is_primitive(self) -> bool:
        return self.nu == 1


def _entry_sort_key(e: GeodesicEntry) -> tuple:
    exact = isinstance(e.length, Exact)
    return (
        e.length.approx(),
        0 if exact else 1,
        (e.length.base, e.length.mult) if exact else (0, e.length.value),
        e.orientation.value,
        e.nu,
    )


class LengthTwistSpectrum:
    """Finite multiset of geodesic types truncated at a horizon.

    Entries sharing identical (length, orientation, nu) are aggregated at
    construction; entry order is canonical (ascending length, preserving
    before reversing, ascending nu), so equality is structural.
    """

    __slots__ = ("entries", "horizon", "tolerance")

    def __init__(
        self,
        entries: Iterable[GeodesicEntry],
        horizon: LengthValue,
        tolerance: float = DEFAULT_TOLERANCE,
    ):
        if not 0 < tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
        merged: Dict[tuple, GeodesicEntry] = {}
        for e in entries:
            key = (e.length, e.orientation, e.nu)
            prior = merged.get(key)
            if prior is None:
                merged[key] = e
            else:
                merged[key] = GeodesicEntry(
                    e.length, e.orientation, e.nu, prior.multiplicity + e.multiplicity
                )
        canonical = tuple(sorted(merged.values(), key=_entry_sort_key))
        for e in canonical:
            if not length_le(e.length, horizon, tolerance):
                raise ValueError(f"entry length {e.length} exceeds horizon {horizon}")
        self.entries = canonical
        self.horizon = horizon
        self.tolerance = tolerance

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LengthTwistSpectrum)
            and self.entries == other.entries
            and self.horizon == other.horizon
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"LengthTwistSpectrum({len(self.entries)} types, horizon={self.horizon})"

    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    def primitives(self) -> Tuple[GeodesicEntry, ...]:
        return tuple(e for e in self.entries if e.is_primitive())

    def union(self, other: "LengthTwistSpectrum") -> "LengthTwistSpectrum":
        """Disjoint union (models a disconnected surface); horizons must agree."""
        tol = _require_common_horizon(self, other)
        return LengthTwistSpectrum(self.entries + other.entries, self.horizon, tol)


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
    if isinstance(t, Fraction):
        return Fraction(1, entry.nu) * t
    return t / entry.nu


def total_weight(spec: LengthTwistSpectrum, l: LengthValue) -> Fraction | float:
    """W(l) as in :func:`weight_function`: the W of the first length cluster
    whose span, widened by the tolerance on each side, contains l; 0 if none.
    """
    if not length_le(l, spec.horizon, spec.tolerance):
        raise QueryBeyondHorizon(f"query {l} exceeds horizon {spec.horizon}")
    entries, tol, x = spec.entries, spec.tolerance, l.approx()

    def at(k: int) -> float:
        return entries[k].length.approx()

    # the first entry whose cluster's widened span reaches up to x
    j = bisect_left(range(len(entries)), x, key=lambda k: at(k) + tol)
    if j == len(entries):
        return Fraction(0)
    lo, hi = j, j + 1
    while lo > 0 and at(lo) - at(lo - 1) <= tol:
        lo -= 1
    while hi < len(entries) and at(hi) - at(hi - 1) <= tol:
        hi += 1
    if at(lo) - tol > x:
        return Fraction(0)
    return sum((e.multiplicity * weight(e) for e in entries[lo:hi]), Fraction(0))


def _require_common_horizon(a: LengthTwistSpectrum, b: LengthTwistSpectrum) -> float:
    tol = max(a.tolerance, b.tolerance)
    if not lengths_equal(a.horizon, b.horizon, tol):
        raise HorizonMismatch(f"{a.horizon} vs {b.horizon}")
    return tol


def _weight_sums(placed: Iterable[Tuple[GeodesicEntry, int]], size: int) -> List[Fraction | float]:
    """W at each of size clusters; entries add in the order given."""
    sums: List[Fraction | float] = [Fraction(0)] * size
    for e, i in placed:
        sums[i] = sums[i] + e.multiplicity * weight(e)
    return sums


def weight_function(spec: LengthTwistSpectrum) -> List[Tuple[LengthValue, Fraction | float]]:
    """The total weight function: (representative, W) per length cluster.

    Clusters are the spectrum's lengths chained within its tolerance, in
    ascending order; W sums multiplicity*weight over every entry of the
    cluster, exactly when all of them are exact rationals.
    """
    clusters, index = cluster_index([e.length for e in spec.entries], spec.tolerance)
    sums = _weight_sums(zip(spec.entries, index), len(clusters))
    return [(representative(c), w) for c, w in zip(clusters, sums)]


def compare_weights(
    a: LengthTwistSpectrum, b: LengthTwistSpectrum
) -> List[Tuple[LengthValue, Fraction | float, Fraction | float]]:
    """Lengths up to the common horizon where the W functions differ.

    Empty iff W agrees (exactly when both sides are exact rationals,
    within tolerance otherwise) at every length occurring in either
    spectrum.
    """
    tol = _require_common_horizon(a, b)
    clusters, index = cluster_index([e.length for e in a.entries + b.entries], tol)
    wa = _weight_sums(zip(a.entries, index), len(clusters))
    wb = _weight_sums(zip(b.entries, index[len(a.entries) :]), len(clusters))
    out = []
    for c, va, vb in zip(clusters, wa, wb):
        if isinstance(va, Fraction) and isinstance(vb, Fraction):
            differ = va != vb
        else:
            differ = abs(float(va) - float(vb)) > tol
        if differ:
            out.append((representative(c), va, vb))
    return out


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
    clusters, index = cluster_index([e.length for e in a.entries + b.entries], tol)
    ma, mb = Counter(), Counter()
    for k, (e, i) in enumerate(zip(a.entries + b.entries, index)):
        (ma if k < len(a.entries) else mb)[i, e.orientation.value, e.nu] += e.multiplicity
    for key in sorted(set(ma) | set(mb)):
        va, vb = ma.get(key, 0), mb.get(key, 0)
        if va != vb:
            i, orient, nu = key
            witness = ConjugacyWitness(
                representative(clusters[i]), Orientation(orient), nu, va, vb
            )
            return False, witness
    return True, None


class DiscrepancyTable:
    """Integer functions a(l), b(l) over lengths up to a horizon.

    a(l) is the primitive orientation-preserving count of the first
    spectrum minus the second's; b(l) is the primitive reversing count of
    the *second* minus the first's (the two spectra trade places between
    the definitions).  Zero values are omitted from storage but report
    as 0.
    """

    __slots__ = ("a", "b", "horizon")

    def __init__(
        self,
        a: Mapping[LengthValue, int],
        b: Mapping[LengthValue, int],
        horizon: LengthValue,
    ):
        self.a = {l: int(v) for l, v in a.items() if v != 0}
        self.b = {l: int(v) for l, v in b.items() if v != 0}
        self.horizon = horizon
        for l in self.support():
            if not length_le(l, horizon):
                raise ValueError(f"support length {l} exceeds horizon {horizon}")

    def a_at(self, l: LengthValue) -> int:
        return self.a.get(l, 0)

    def b_at(self, l: LengthValue) -> int:
        return self.b.get(l, 0)

    def support(self) -> List[LengthValue]:
        seen = set(self.a) | set(self.b)
        return sorted(seen, key=lambda v: (v.approx(), str(v)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiscrepancyTable)
            and self.a == other.a
            and self.b == other.b
            and self.horizon == other.horizon
        )

    def __repr__(self) -> str:
        return f"DiscrepancyTable({len(self.a)} a-values, {len(self.b)} b-values)"


def discrepancy(a: LengthTwistSpectrum, b: LengthTwistSpectrum) -> DiscrepancyTable:
    """Primitive-count discrepancies between two spectra.

    Only nu=1 entries contribute.  Antisymmetric in (a, b) componentwise:
    swapping the spectra negates both functions.
    """
    tol = _require_common_horizon(a, b)
    pa, pb = a.primitives(), b.primitives()
    clusters, index = cluster_index([e.length for e in pa + pb], tol)
    da, db = [0] * len(clusters), [0] * len(clusters)
    for k, (e, i) in enumerate(zip(pa + pb, index)):
        m = e.multiplicity if k < len(pa) else -e.multiplicity
        if e.orientation is Orientation.PRESERVING:
            da[i] += m
        else:
            db[i] -= m
    reps = [representative(c) for c in clusters]
    return DiscrepancyTable(dict(zip(reps, da)), dict(zip(reps, db)), a.horizon)


def _exact_support(table: DiscrepancyTable) -> List[Exact]:
    support = table.support()
    exact = [l for l in support if isinstance(l, Exact)]
    if len(exact) != len(support):
        raise MixedBases("support contains numeric lengths; divisibility undecidable")
    bases = {l.base for l in exact}
    if len(bases) > 1:
        raise MixedBases(f"support spans incommensurable grids: bases {sorted(bases)}")
    return exact


def support_sets(table: DiscrepancyTable) -> Tuple[set, set]:
    """(L, L0): the support of the table and its divisibility-minimal part.

    l precedes m when m is a positive integer multiple of l; L0 collects
    the minimal elements, and every element of L is checked to be an
    integer multiple of something in L0.
    """
    support = _exact_support(table)

    def multiple(l: Exact, m: Exact) -> bool:  # is l an integer multiple of m?
        r = exact_ratio(l, m)
        return r is not None and r.denominator == 1

    L0 = {l for l in support if not any(m != l and multiple(l, m) for m in support)}
    for l in support:
        if not any(multiple(l, m) for m in L0):
            raise InvariantViolation(f"{l} not a multiple of any minimal length")
    return set(support), L0


def _minimal_grid_point(table: DiscrepancyTable, l: LengthValue) -> Tuple[int, set]:
    """(n, L0) for l = n*log(q), n a positive integer, and L0 of support_sets.

    InexactLength unless l is such a grid point; NotMinimal if l is in the
    support above another support length.
    """
    if not isinstance(l, Exact):
        raise InexactLength(f"{l} is not an exact length")
    n = l.integer_mult()
    if n is None:
        raise InexactLength(f"{l} is not an integer multiple of log({l.base})")
    L, L0 = support_sets(table)
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
    t = tanh_half(l)
    return Fraction(table.a_at(l)) - t * Fraction(table.b_at(l))


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
    v = r.denominator
    if v <= bound and _is_odd_prime(v):
        return {v}
    return set()


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
    geodesics.
    """
    if not _is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    n, l0_set = _minimal_grid_point(table, l)
    for other in l0_set - {l}:
        if odd_prime_multiples(l, other, p) == {p}:
            raise PrimeCollision(f"p={p}: p*l is also a multiple of {other}")
    pl = l.scaled(p)
    if not length_le(pl, table.horizon):
        raise QueryBeyondHorizon(f"p*l = {pl} exceeds table horizon {table.horizon}")
    t = tanh_half(pl)
    residue = Fraction(table.b_at(pl) - table.a_at(pl))
    numerator = Fraction(1, p) * (t * table.b_at(l) - table.a_at(l)) + residue
    value = numerator / (1 - t)
    return ForcedGrowth(value=value, bound=Fraction(l.base ** (p * n), 2 * p))


class CountingFunction:
    """F(l) = oriented geodesics of length <= l, and its jumps f(l).

    Built over the spectrum's length clusters; F is a non-decreasing step
    function whose jumps sum to F(horizon).
    """

    __slots__ = ("_reps", "_xs", "_jumps", "_cums", "horizon", "tolerance")

    def __init__(self, spec: LengthTwistSpectrum):
        self.horizon = spec.horizon
        self.tolerance = spec.tolerance
        clusters, index = cluster_index([e.length for e in spec.entries], spec.tolerance)
        jumps = [0] * len(clusters)
        for e, i in zip(spec.entries, index):
            jumps[i] += e.multiplicity
        self._reps = [representative(c) for c in clusters]
        # strictly ascending: clusters are more than tol apart
        self._xs = [rep.approx() for rep in self._reps]
        self._jumps = jumps
        self._cums = list(accumulate(jumps))

    def jumps(self) -> List[Tuple[LengthValue, int]]:
        return list(zip(self._reps, self._jumps))

    def jump(self, l: LengthValue) -> int:
        """f(l): the jump at the first representative within tol of l, else 0."""
        x = l.approx()
        # rep - x is monotone in rep, so the reps within tol form one run
        i = bisect_left(self._xs, -self.tolerance, key=lambda r: r - x)
        if i < len(self._xs) and abs(self._xs[i] - x) <= self.tolerance:
            return self._jumps[i]
        return 0

    def count_up_to(self, l: LengthValue) -> int:
        """F(l): the oriented geodesics in clusters represented at or below l + tol."""
        i = bisect_right(self._xs, l.approx() + self.tolerance)
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
    data.  Desk-scale sanity check, not an asymptotic test.
    """
    counting = CountingFunction(spec)
    violations = []
    max_norm = 0.0
    for rep, f in counting.jumps():
        x = rep.approx()
        envelope = envelope_constant * math.exp(x) / x
        normalized = f * x * math.exp(-x)
        max_norm = max(max_norm, normalized)
        if f > envelope:
            violations.append((rep, f, envelope))
    return JumpReport(tuple(violations), max_norm)
