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
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptyGenerators, NotTranslating
from .lengths import ExactKeys, Numeric, cluster_ids, run_starts
from .spectrum import LengthTwistSpectrum

DET_TOLERANCE = 1e-12
CLASSIFY_TOLERANCE = 1e-9
MAX_ENTRY = 2.0**510  # |ad| + |bc| of smaller entries is a finite float


@dataclass(frozen=True)
class Isometry:
    """2x2 real matrix with |det| = 1, up to global sign."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        self._check_range()
        ad, bc = self.a * self.d, self.b * self.c
        # ad - bc cannot be resolved below ~eps * (|ad| + |bc|): at large
        # products the 1e-12 check must widen to the cancellation floor
        tol = max(DET_TOLERANCE, 32 * 2.220446049250313e-16 * (abs(ad) + abs(bc)))
        if tol >= 0.5:  # a singular matrix's det could round to within tol of 1
            raise ValueError(f"|det| = 1 cannot be told from 0 within {tol:g} at entries {self.rows()}")
        if abs(abs(ad - bc) - 1.0) > tol:
            raise ValueError(f"|det| must be 1 within {tol:g}, got det={ad - bc}")
        object.__setattr__(self, "_det", ad - bc)

    def _check_range(self):
        if not all(abs(x) < MAX_ENTRY for x in (self.a, self.b, self.c, self.d)):
            raise ValueError(f"matrix entries must be finite and below {MAX_ENTRY:.4g}, got {self.rows()}")

    @classmethod
    def _derived(cls, det: float, *entries: float) -> "Isometry":
        """A product or inverse of checked isometries: |det| = 1 by construction
        (ad - bc of large entries is rounding noise), so only the range is
        checked and the det is carried from the factors' dets."""
        g = object.__new__(cls)
        g.__dict__.update(zip("abcd", entries), _det=det)
        g._check_range()
        return g

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
        """ad - bc of the stored entries.  For a long product that is rounding
        noise, not +-1; orientation is the sign of the det carried from the
        factors, which :func:`classify` reads."""
        return self.a * self.d - self.b * self.c

    def trace(self) -> float:
        return self.a + self.d

    def __matmul__(self, other: "Isometry") -> "Isometry":
        entries = _mul4((self.a, self.b, self.c, self.d), (other.a, other.b, other.c, other.d))
        return Isometry._derived(self._det * other._det, *entries)

    def inverse(self) -> "Isometry":
        """The adjugate over the det: ad - bc of a checked matrix, the product
        of its factors' dets for a product (never the product's rounding noise)."""
        det = self._det
        return Isometry._derived(1.0 / det, self.d / det, -self.b / det, -self.c / det, self.a / det)

    def power(self, k: int) -> "Isometry":
        if k < 0:
            return self.inverse().power(-k)
        result = Isometry.identity()
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = base @ base
        return result

    def rows(self) -> tuple[tuple[float, float], tuple[float, float]]:
        return ((self.a, self.b), (self.c, self.d))


class IsometryClass(Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    REFLECTION = "reflection"
    GLIDE_REFLECTION = "glide_reflection"


# each class as its position in IsometryClass, the form _classify returns
_CLASSES = tuple(IsometryClass)
_IDENTITY, _ELLIPTIC, _PARABOLIC, _HYPERBOLIC, _REFLECTION, _GLIDE = range(len(_CLASSES))


def _pick(cond, x, y):
    """x where cond holds, else y: for a bool or a boolean array."""
    return y + cond * (x - y)


def _classify(a, b, c, d, preserving, tol: float):
    """Trace/determinant classification of the matrix (a, b; c, d) as its
    class position, preserving saying whether its det is +1 (the carried
    sign: ad - bc of a long product is rounding noise).  Built from
    operators alone, so the arguments may be scalars (giving an int) or
    equally shaped arrays (an array of them)."""
    t = abs(a + d)
    near_identity = (abs(abs(a) - 1.0) <= tol) & (abs(abs(d) - 1.0) <= tol) & (abs(b) <= tol) & (abs(c) <= tol)
    kinds = _pick(abs(t - 2.0) <= tol, _pick(near_identity, _IDENTITY, _PARABOLIC),
                       _pick(t < 2.0, _ELLIPTIC, _HYPERBOLIC))
    return _pick(preserving, kinds, _pick(t <= tol, _REFLECTION, _GLIDE))


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
    """Trace/determinant classification, with tolerance at the boundaries;
    the orientation is the sign of g's carried det."""
    return _CLASSES[_classify(g.a, g.b, g.c, g.d, g._det > 0, tol)]


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
        if not 0 < self.length_cutoff < math.inf:
            raise ValueError(f"length_cutoff must be positive and finite, got {self.length_cutoff}")
        if not 0 < self.dedup_tolerance < math.inf:
            raise ValueError(f"dedup_tolerance must be positive and finite, got {self.dedup_tolerance}")


Mat4 = tuple[float, float, float, float]


@dataclass(frozen=True)
class EnumerationResult:
    """Spectrum plus the torsion side channel from one enumeration run."""

    spectrum: LengthTwistSpectrum
    elliptic: tuple[tuple[tuple[int, ...], Mat4], ...]  # (word, sign-normalised matrix)
    dropped: int


def _mul4(m, n):
    """The product of 2x2 matrices given by their entries (a, b, c, d):
    floats, or arrays that multiply elementwise."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def necklace_walk(
    letters: Iterable[int], max_len: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every prenecklace up to max_len over nonzero letters, a length at a time.

    For n = 1 .. max_len yields (words, periods, parents): the words of
    length n as the rows of an (m, n) integer array in ascending
    lexicographic order, the period of each, and the row of each word's
    length n - 1 prefix in the previous level (-1 at n = 1).  A letter
    never follows its negative: over letters +i/-i (generator i and its
    inverse) the words are freely reduced, over positive letters they are
    all words.  This is the necklace algorithm of Fredricksen, Kessler and
    Maiorana taken breadth first: a letter extends a prenecklace of length
    n when it is no less than the letter p places back, p being the
    period, which the extension keeps when the two letters are equal and
    sets to n + 1 otherwise.  A word is a minimal rotation when p divides
    n and a Lyndon word (aperiodic necklace) when p == n.  Each level is a
    handful of numpy operations over its rows, so the walk is O(prenecklaces)
    rows of array work (each row costing O(letters + length) elements), with
    no Python work per word.
    """
    alphabet = np.array(sorted(letters))
    alphabet = alphabet.astype(np.min_scalar_type(-int(np.abs(alphabet).max(initial=0)) - 1))
    words = alphabet[:, None]
    periods = np.ones(len(alphabet), dtype=np.intp)
    parents = np.full(len(alphabet), -1, dtype=np.intp)
    for n in range(1, max_len + 1):
        yield words, periods, parents
        if n == max_len:
            return
        floor, last = words[np.arange(len(words)), n - periods], words[:, -1]
        parents, pick = np.nonzero((alphabet >= floor[:, None]) & (alphabet != -last[:, None]))
        letter = alphabet[pick]
        periods = np.where(letter == floor[parents], periods[parents], n + 1)
        words = np.concatenate([words[parents], letter[:, None]], axis=1)


def _walk_products(generators: Sequence[Isometry], max_len: int, tol: float, bound: float):
    """The words of enumerate_geodesics: the minimal rotations up to max_len
    that are cyclically reduced, in the depth-first walk order (letters
    descending, a prefix before its extensions).  Returns the walk-order
    key of each (the letters negated, padded with -(k + 1) for k
    generators), its product matrix as a column of a (4, words) array, its
    number of periods and the sign of its det (the product of its letters'
    signs, int8), leaving out each word whose finite key has, for ka and kd
    the keys rint(x / tol) of a and d, |ka + kd| > bound / tol + 4 +
    2^-48 (|ka| + |kd|).  That tests the key alone, whose sign flips with the
    matrix's, so an element's words go or stay together.  For u = 2^-53, a
    word with |fl(a + d)| <= bound has |ka + kd| <= bound / tol + 1 +
    3u (bound / tol + |ka| + |kd|), and one left out has bound / tol <
    |ka + kd| <= |ka| + |kd|: the u terms and the test's own rounding stay
    below 2^-48 (|ka| + |kd|).  As bound >= 2, every |tr| <= 2 + tol stays."""
    k = len(generators)
    letter_mats = np.zeros((4, 2 * k + 1))  # column k + l holds letter l
    letter_signs = np.ones(2 * k + 1, dtype=np.int8)
    for i, g in enumerate(generators, start=1):
        inv = g.inverse()
        letter_mats[:, k + i], letter_mats[:, k - i] = (g.a, g.b, g.c, g.d), (inv.a, inv.b, inv.c, inv.d)
        letter_signs[k + i] = letter_signs[k - i] = 1 if g._det > 0 else -1

    rank_type = np.min_scalar_type(-(k + 1))
    ranks, mats, nus, signs = [], [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for words, periods, parents in necklace_walk((*range(-k, 0), *range(1, k + 1)), max_len):
            n = words.shape[1]
            letter = words[:, -1].astype(np.intp) + k
            last, last_sign = letter_mats[:, letter], letter_signs[letter]
            level = last if n == 1 else _mul4([x[parents] for x in level], last)
            sign = last_sign if n == 1 else sign[parents] * last_sign
            ka, kd = np.rint(level[0] / tol), np.rint(level[3] / tol)
            far = np.abs(ka + kd) > bound / tol + 4 + 2**-48 * (np.abs(ka) + np.abs(kd))  # False at an inf ka or kd
            far &= np.isfinite(level[1] / tol + level[2] / tol)  # finite as rint(b / tol) + rint(c / tol) is
            keep = (n % periods == 0) & (words[:, 0] != -words[:, -1]) & ~far
            rank = np.full((np.count_nonzero(keep), max_len), -(k + 1), dtype=rank_type)
            rank[:, :n] = -words[keep]
            ranks.append(rank)
            mats.append(np.array([x[keep] for x in level]))
            nus.append(n // periods[keep])
            signs.append(sign[keep])
    rank = np.concatenate(ranks)
    walk = np.lexsort(rank.T[::-1])
    return (rank[walk], np.concatenate(mats, axis=1)[:, walk], np.concatenate(nus)[walk],
            np.concatenate(signs)[walk])


def enumerate_geodesics(
    generators: Sequence[Isometry], config: EnumConfig
) -> EnumerationResult:
    """Length-twist spectrum of the group generated by the given matrices.

    Enumerates reduced words up to max_word_length, one representative
    per cyclic rotation class (exact conjugacy dedup for free groups),
    keeps translating elements with length <= length_cutoff, and emits
    oriented counts: a word and its inverse are distinct canonical words,
    so each unoriented geodesic contributes twice.

    Each word is classified once, from its product matrix and its det
    sign, the product of its letters' signs (ad - bc of a long product is
    rounding noise): hyperbolic words preserve orientation and glide
    reflections reverse it.  A
    translating product is not re-checked for |det| = 1: that check is for
    input matrices, and the rounding drift of a product grows with its word.
    A product too large for float64 on the dedup_tolerance grid raises
    OverflowError.

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

    The words come level by level from necklace_walk, and every step runs
    on arrays: each level's products are its prefixes' products times the
    last letter, less the words whose dedup keys put them past the cutoff
    (_walk_products); the rest are put in the depth-first walk order
    (letters descending, a prefix before its extensions) by one lexsort,
    and a stable lexsort on the matrix keys gives each element its first
    word, whose class and length decide it, and its largest nu.
    """
    if not generators:
        raise EmptyGenerators("need at least one generator")
    tol = config.dedup_tolerance

    # 2 cosh(l/2) bounds |tr| for both classes; the margin leaves the cut to the exact test
    with np.errstate(over="ignore"):
        bound = 2.0 * np.cosh((config.length_cutoff + tol) / 2.0) * (1.0 + 1e-9)
    rank, mat, nu, sign = _walk_products(generators, config.max_word_length, tol, bound)

    def word(i: int) -> tuple[int, ...]:
        return tuple((-rank[i][rank[i] > -len(generators) - 1]).tolist())

    # sign-normalise on the first entry beyond tol, then key on the tol grid
    big = np.abs(mat) > tol
    flip = big.any(axis=0) & (mat[big.argmax(axis=0), np.arange(mat.shape[1])] < 0)
    np.negative(mat, out=mat, where=flip)
    with np.errstate(over="ignore"):
        keys = mat / tol
    np.rint(keys, out=keys)
    finite = np.isfinite(keys).all(axis=0)
    if not finite.all():
        i = int(np.argmin(finite))
        raise OverflowError(f"the product of word {word(i)} overflows float64 at dedup_tolerance "
                            f"{tol:g}: {tuple(mat[:, i].tolist())}")

    # each key's first word in walk order stands for it, with the largest nu of its words
    by_key = np.lexsort(keys)
    starts = run_starts(*keys[:, by_key])
    first, nu = by_key[starts], np.maximum.reduceat(nu[by_key], starts)

    a, b, c, d = mat[:, first]
    kind = _classify(a, b, c, d, sign[first] > 0, tol)
    side = (kind == _ELLIPTIC) | (kind == _REFLECTION)
    elliptic = tuple((word(i), tuple(mat[:, i].tolist())) for i in np.sort(first[side]).tolist())
    dropped = int(np.count_nonzero((kind == _IDENTITY) | (kind == _PARABOLIC)))

    trace = a + d
    near = ((kind == _HYPERBOLIC) | (kind == _GLIDE)) & (np.abs(trace) <= bound)
    kind, nu = kind[near], nu[near]
    length = np.array([_axis_length(_CLASSES[kd], t) for kd, t in zip(kind.tolist(), trace[near].tolist())])
    within = length <= config.length_cutoff + tol
    length, reversing, nu = length[within], kind[within] == _GLIDE, nu[within]

    order = np.argsort(length, kind="stable")
    length, reversing, nu = length[order], reversing[order], nu[order]
    cluster = cluster_ids(length, tol)
    # a stable sort keeps the records ascending in length, so a bucket's first word has its least length
    bucket = np.lexsort((nu, reversing, cluster))
    starts = run_starts(cluster[bucket], reversing[bucket], nu[bucket])
    first = bucket[starts]
    columns = (length[first], ExactKeys.numeric(len(first)), reversing[first], nu[first].tolist(),
               np.diff(starts, append=len(bucket)).tolist())
    spectrum = LengthTwistSpectrum.from_columns(columns, Numeric(config.length_cutoff), tol)
    return EnumerationResult(spectrum, elliptic, dropped)
