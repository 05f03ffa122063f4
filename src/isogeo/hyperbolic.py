"""Hyperbolic-plane isometries and geodesic enumeration from generators.

Isometries are 2x2 real matrices with determinant +-1, identified up to
global sign: det +1 acts on the upper half-plane directly, det -1 with a
conjugation, so the determinant sign is exactly the orientation type of
the corresponding closed geodesic.  Word enumeration over a generator set
produces desk-scale length-twist spectra for feeding the comparison
machinery; it is test-data tooling, not a rigorous conjugacy decision
procedure (see enumerate_geodesics for the precise caveats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .errors import EmptyGenerators, NotTranslating
from .lengths import Numeric, cluster_ids
from .spectrum import LengthTwistSpectrum

DET_TOLERANCE = 1e-12
CLASSIFY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Isometry:
    """2x2 real matrix with |det| = 1, up to global sign."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        # ad - bc cannot be resolved below ~eps * (sum of squares): at large
        # entry magnitude the 1e-12 check must widen to the cancellation floor
        scale = self.a**2 + self.b**2 + self.c**2 + self.d**2
        tol = max(DET_TOLERANCE, 16 * 2.220446049250313e-16 * scale)
        if abs(abs(det) - 1.0) > tol:
            raise ValueError(f"|det| must be 1 within {tol:g}, got det={det}")

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[float]]) -> "Isometry":
        (a, b), (c, d) = rows
        return cls(float(a), float(b), float(c), float(d))

    @classmethod
    def diag(cls, x: float, y: float) -> "Isometry":
        return cls(float(x), 0.0, 0.0, float(y))

    @classmethod
    def identity(cls) -> "Isometry":
        return cls(1.0, 0.0, 0.0, 1.0)

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def trace(self) -> float:
        return self.a + self.d

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Isometry":
        det = self.det()
        return Isometry(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def power(self, k: int) -> "Isometry":
        if k < 0:
            return self.inverse().power(-k)
        result = Isometry.identity()
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def rows(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        return ((self.a, self.b), (self.c, self.d))


class IsometryClass(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    REFLECTION = "reflection"
    GLIDE_REFLECTION = "glide_reflection"


def _classify(a: float, b: float, c: float, d: float, tol: float) -> IsometryClass:
    """Trace/determinant classification of the matrix (a, b; c, d)."""
    if a * d - b * c > 0:
        t = abs(a + d)
        if abs(t - 2.0) <= tol:
            off_identity = max(abs(abs(a) - 1.0), abs(abs(d) - 1.0), abs(b), abs(c))
            return IsometryClass.IDENTITY if off_identity <= tol else IsometryClass.PARABOLIC
        return IsometryClass.ELLIPTIC if t < 2.0 else IsometryClass.HYPERBOLIC
    return IsometryClass.REFLECTION if abs(a + d) <= tol else IsometryClass.GLIDE_REFLECTION


def _axis_length(kind: IsometryClass, trace: float) -> float:
    """Translation length of a matrix of the given class from its trace.

    Hyperbolic: 2*arccosh(|tr|/2).  Glide reflection: half the length of
    the square, where g^2 = tr(g)*g + I for det g = -1, so the square's
    trace is tr(g)^2 + 2 and the length arccosh(1 + tr^2/2), evaluated
    without cancellation as 2*arcsinh(|tr|/2).
    """
    if kind is IsometryClass.HYPERBOLIC:
        return 2.0 * math.acosh(abs(trace) / 2.0)
    if kind is IsometryClass.GLIDE_REFLECTION:
        return 2.0 * math.asinh(abs(trace) / 2.0)
    raise NotTranslating(f"{kind.value} isometry has no translation length")


def classify(g: Isometry, tol: float = CLASSIFY_TOLERANCE) -> IsometryClass:
    """Trace/determinant classification, with tolerance at the boundaries."""
    return _classify(g.a, g.b, g.c, g.d, tol)


def translation_length(g: Isometry, tol: float = CLASSIFY_TOLERANCE) -> float:
    """Translation length along the axis of a hyperbolic or glide isometry."""
    return _axis_length(classify(g, tol), g.trace())


@dataclass(frozen=True)
class EnumConfig:
    """Knobs for word enumeration."""

    max_word_length: int
    length_cutoff: float
    dedup_tolerance: float = 1e-9

    def __post_init__(self):
        if self.max_word_length < 1:
            raise ValueError("max_word_length must be >= 1")
        if self.length_cutoff <= 0:
            raise ValueError("length_cutoff must be positive")
        if not 0 < self.dedup_tolerance < math.inf:
            raise ValueError(f"dedup_tolerance must be positive and finite, got {self.dedup_tolerance}")


Mat4 = Tuple[float, float, float, float]
V = TypeVar("V")


@dataclass(frozen=True)
class EnumerationResult:
    """Spectrum plus the torsion side channel from one enumeration run."""

    spectrum: LengthTwistSpectrum
    elliptic: Tuple[Tuple[Tuple[int, ...], Mat4], ...]  # (word, sign-normalised matrix)
    dropped: int


def _mul4(m: Mat4, n: Mat4) -> Mat4:
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def necklace_walk(
    letter_values: Dict[int, V], max_len: int, step: Callable[[V, V], V]
) -> Iterator[Tuple[Tuple[int, ...], int, V]]:
    """Every prenecklace up to max_len, with its period and folded value.

    A letter never follows its negative: over letters +i/-i (generator i
    and its inverse) the words are freely reduced, over positive letters
    they are all words.  The depth-first walk is the necklace algorithm of
    Fredricksen, Kessler and Maiorana: a letter extends a prenecklace of
    length n when it is no less than the letter p places back, p being the
    period.  A word is a minimal rotation when p divides n and a Lyndon
    word (aperiodic necklace) when p == n.  The value is folded once per
    extension: value = step(value, letter_values[letter]).
    """
    letters = sorted(letter_values)
    stack = [((l,), 1, letter_values[l]) for l in letters]
    while stack:
        word, p, value = stack.pop()
        yield word, p, value
        n = len(word)
        if n < max_len:
            last, floor = word[-1], word[n - p]
            for nl in letters:
                if nl >= floor and nl != -last:
                    stack.append(
                        (word + (nl,), p if nl == floor else n + 1, step(value, letter_values[nl]))
                    )


def enumerate_geodesics(
    generators: Sequence[Isometry], config: EnumConfig
) -> EnumerationResult:
    """Length-twist spectrum of the group generated by the given matrices.

    Enumerates reduced words up to max_word_length, one representative
    per cyclic rotation class (exact conjugacy dedup for free groups),
    keeps translating elements with length <= length_cutoff, and emits
    oriented counts: a word and its inverse are distinct canonical words,
    so each unoriented geodesic contributes twice.

    Each word is classified once, from its product matrix: hyperbolic
    words preserve orientation and glide reflections reverse it.  A
    translating product is not re-checked for |det| = 1: that check is for
    input matrices, and the rounding drift of a product grows with its word.

    Deduplication beyond cyclic rotation is heuristic: identical matrices
    (up to sign, on a dedup_tolerance grid) collapse, and surviving words
    aggregate into entries keyed by (length cluster, orientation, nu), at
    the least length of the bucket, which may merge genuinely distinct
    geodesics of equal length.  Discreteness of the group is the caller's
    responsibility; elliptic and reflection words land in the side
    channel, identity and parabolic words are counted as dropped.

    The imprimitivity index nu is the word's number of periods, len/p
    for a minimal rotation of period p: a cyclically reduced word of a
    free group is a k-th power exactly when its minimal rotation is a
    Lyndon word repeated k times (Chen, Fox and Lyndon), so nu is exact
    for free groups.  Words that share a matrix are one element, which
    gets the largest nu among them.  In a group that is not free, a root
    that is not a syntactic power of the word is not detected.
    """
    if not generators:
        raise EmptyGenerators("need at least one generator")
    tol = config.dedup_tolerance

    letter_mats: Dict[int, Mat4] = {}
    for i, g in enumerate(generators, start=1):
        inv = g.inverse()
        letter_mats[i], letter_mats[-i] = (g.a, g.b, g.c, g.d), (inv.a, inv.b, inv.c, inv.d)

    seen_matrices: Dict[Tuple[int, int, int, int], Optional[int]] = {}  # key -> record index
    records: List[List] = []  # [length, reversing, nu]
    elliptic: List[Tuple[Tuple[int, ...], Mat4]] = []
    dropped = 0

    for word, p, mat in necklace_walk(letter_mats, config.max_word_length, _mul4):
        if len(word) % p or word[0] == -word[-1]:
            continue  # not a minimal rotation, or not cyclically reduced
        nu = len(word) // p
        a, b, c, d = mat
        for x in (a, b, c, d):
            if abs(x) > tol:
                if x < 0:
                    a, b, c, d = -a, -b, -c, -d
                break
        key = (round(a / tol), round(b / tol), round(c / tol), round(d / tol))
        if key in seen_matrices:
            i = seen_matrices[key]
            if i is not None:  # the same element: a power among its words makes it a power
                records[i][2] = max(records[i][2], nu)
            continue
        seen_matrices[key] = None

        kind = _classify(a, b, c, d, tol)
        if kind in (IsometryClass.ELLIPTIC, IsometryClass.REFLECTION):
            elliptic.append((word, (a, b, c, d)))
            continue
        if kind in (IsometryClass.IDENTITY, IsometryClass.PARABOLIC):
            dropped += 1
            continue
        length = _axis_length(kind, a + d)
        if length > config.length_cutoff + tol:
            continue
        seen_matrices[key] = len(records)
        records.append([length, kind is IsometryClass.GLIDE_REFLECTION, nu])

    records.sort()
    cluster = cluster_ids(np.array([r[0] for r in records], dtype=float), tol).tolist()
    # records ascend in length, so a bucket's first word has its least length
    least: Dict[Tuple[int, bool, int], float] = {}
    bucket_lengths = [least.setdefault((c, rev, nu), l) for (l, rev, nu), c in zip(records, cluster)]
    columns = (bucket_lengths, [None] * len(records), [r[1] for r in records],
               [r[2] for r in records], [1] * len(records))
    spectrum = LengthTwistSpectrum.from_columns(columns, Numeric(config.length_cutoff), tol)
    return EnumerationResult(spectrum, tuple(elliptic), dropped)
