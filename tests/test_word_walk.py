"""Property tests: the necklace walk and the enumerator against per-word oracles.

The walk oracle below is the depth-first word walk the enumerator used before
it carried the necklace period: it visits every freely reduced word and keeps
a word when it is cyclically reduced and no rotation of it is
lexicographically smaller.  Filtered the way enumerate_geodesics filters it,
the level-by-level necklace walk must give the same words with the same
matrices, and in the unpruned walk's order once sorted into it (letters
descending, each prefix before its extensions), since enumerate_geodesics
deduplicates by first occurrence in that order.  Over positive letters alone,
the alphabet necklace_count_oracle walks, its period-n words of length n are
the aperiodic minimal rotations, and there are necklace_count of them.

The enumerator oracle is the per-word loop enumerate_geodesics ran before it
moved onto the walk's arrays, kept here verbatim over the unpruned walk, with
the enumerator's OverflowError for a key that is not finite: the two must give
the same spectrum bytes, side channel and dropped count, or the same error.
"""

import io
import math
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isogeo.hyperbolic import (
    EnumConfig,
    EnumerationResult,
    Isometry,
    IsometryClass,
    Mat4,
    _axis_length,
    _mul4,
    _walk_products,
    enumerate_geodesics,
    necklace_walk,
)
from isogeo.interchange import dump_spectrum
from isogeo.lengths import Numeric, cluster_ids
from isogeo.scenario import necklace_count
from isogeo.spectrum import LengthTwistSpectrum


# --- oracle: the unpruned walk with a full rotation check -----------------------


def _rotations(word: Tuple[int, ...]):
    return [word[i:] + word[:i] for i in range(1, len(word))]


def _canonical_cyclic(word: Tuple[int, ...]) -> bool:
    first = word[0]
    if any(x < first for x in word):
        return False
    return all(word <= r for r in _rotations(word))


def _unpruned_walk(letter_mats: Dict[int, Mat4], max_len: int):
    letters = sorted(letter_mats)
    stack: List[Tuple[Tuple[int, ...], Mat4]] = [((l,), letter_mats[l]) for l in letters]
    while stack:
        word, mat = stack.pop()
        cyclically_reduced = len(word) == 1 or word[0] != -word[-1]
        if cyclically_reduced and _canonical_cyclic(word):
            yield word, mat
        if len(word) < max_len:
            last = word[-1]
            for nl in letters:
                if nl != -last:
                    stack.append((word + (nl,), _mul4(mat, letter_mats[nl])))


def _canonical_words(letter_mats: Dict[int, Mat4], max_len: int):
    """The necklace walk filtered as enumerate_geodesics filters it, each
    word's product folded along its parent rows, in the unpruned walk's order."""
    found, prev_words, prev_mats = [], None, None
    for words, periods, parents in necklace_walk(sorted(letter_mats), max_len):
        n = words.shape[1]
        rows = [tuple(w) for w in words.tolist()]
        assert rows == sorted(rows)
        if n == 1:
            assert parents.tolist() == [-1] * len(rows)
            mats = [letter_mats[w[0]] for w in rows]
        else:
            assert (words[:, :-1] == prev_words[parents]).all()
            mats = [_mul4(prev_mats[p], letter_mats[w[-1]]) for w, p in zip(rows, parents.tolist())]
        found += [(w, m) for w, m, p in zip(rows, mats, periods.tolist())
                  if n % p == 0 and (n == 1 or w[0] != -w[-1])]
        prev_words, prev_mats = words, mats
    return sorted(found, key=lambda wm: tuple(-l for l in wm[0]))


# --- oracle: the per-word enumeration loop ----------------------------------------


def _classify(a: float, b: float, c: float, d: float, tol: float) -> IsometryClass:
    """Trace/determinant classification of the matrix (a, b; c, d)."""
    if a * d - b * c > 0:
        t = abs(a + d)
        if abs(t - 2.0) <= tol:
            off_identity = max(abs(abs(a) - 1.0), abs(abs(d) - 1.0), abs(b), abs(c))
            return IsometryClass.IDENTITY if off_identity <= tol else IsometryClass.PARABOLIC
        return IsometryClass.ELLIPTIC if t < 2.0 else IsometryClass.HYPERBOLIC
    return IsometryClass.REFLECTION if abs(a + d) <= tol else IsometryClass.GLIDE_REFLECTION


def _period(word: Tuple[int, ...]) -> int:
    return next(p for p in range(1, len(word) + 1) if word == word[p:] + word[:p])


def _loop_enumerate(generators, config: EnumConfig) -> EnumerationResult:
    tol = config.dedup_tolerance

    letter_mats: Dict[int, Mat4] = {}
    for i, g in enumerate(generators, start=1):
        inv = g.inverse()
        letter_mats[i], letter_mats[-i] = (g.a, g.b, g.c, g.d), (inv.a, inv.b, inv.c, inv.d)

    seen_matrices = {}  # key -> record index
    records: List[List] = []  # [length, reversing, nu]
    elliptic = []
    dropped = 0

    for word, mat in _unpruned_walk(letter_mats, config.max_word_length):
        nu = len(word) // _period(word)
        a, b, c, d = mat
        for x in (a, b, c, d):
            if abs(x) > tol:
                if x < 0:
                    a, b, c, d = -a, -b, -c, -d
                break
        if not all(math.isfinite(x / tol) for x in (a, b, c, d)):
            raise OverflowError(f"the product of word {word} overflows float64 at dedup_tolerance {tol:g}: "
                                f"{(a, b, c, d)}")
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
    least = {}
    bucket_lengths = [least.setdefault((c, rev, nu), l) for (l, rev, nu), c in zip(records, cluster)]
    columns = (bucket_lengths, [None] * len(records), [r[1] for r in records],
               [r[2] for r in records], [1] * len(records))
    spectrum = LengthTwistSpectrum.from_columns(columns, Numeric(config.length_cutoff), tol)
    return EnumerationResult(spectrum, tuple(elliptic), dropped)


# --- properties ---------------------------------------------------------------

entry = st.integers(-3, 3)
matrix = st.tuples(entry, entry, entry, entry)


@st.composite
def alphabets(draw):
    """Letters +-1..+-k for k = 1..3, or 1..k for k = 1..4 (positive letters
    only), each with an arbitrary integer matrix."""
    signed = draw(st.booleans())
    k = draw(st.integers(1, 3 if signed else 4))
    letters = [s * i for i in range(1, k + 1) for s in ((1, -1) if signed else (1,))]
    return {l: draw(matrix) for l in letters}


@settings(max_examples=60, deadline=None)
@given(alphabets(), st.integers(1, 7))
@example({1: (2, 1, 1, 1), -1: (1, -1, -1, 2), 2: (1, 2, 0, 1), -2: (1, -2, 0, 1),
          3: (0, -1, 1, 3), -3: (3, 1, -1, 0)}, 7)
@example({1: (1, 1, 0, 1), 2: (1, 0, 1, 1), 3: (2, 1, 1, 1)}, 7)
def test_pruned_walk_matches_unpruned_walk(letter_mats, max_len):
    got = _canonical_words(letter_mats, max_len)
    assert got == list(_unpruned_walk(letter_mats, max_len))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 7))
def test_positive_walk_period_marks_lyndon_words(q, max_len):
    lyndon = {n: 0 for n in range(1, max_len + 1)}
    for words, periods, _ in necklace_walk(range(1, q + 1), max_len):
        n = words.shape[1]
        for word, p in zip(map(tuple, words.tolist()), periods.tolist()):
            aperiodic_minimal = all(word < r for r in _rotations(word))
            assert (p == n) == aperiodic_minimal, (word, p)
            lyndon[n] += p == n
    assert lyndon == {n: necklace_count(q, n) for n in lyndon}


def _rotation(theta: float) -> Isometry:
    c, s = math.cos(theta), math.sin(theta)
    return Isometry(c, -s, s, c)


def _conjugate(g: Isometry, h: Isometry) -> Isometry:
    return h @ g @ h.inverse()


@st.composite
def generator_sets(draw):
    """One to three generators from hyperbolic, glide, elliptic, parabolic and
    reflection matrices in a well-conditioned basis, where a later generator
    may repeat an earlier one or be its square."""
    gens: List[Isometry] = []
    for _ in range(draw(st.sampled_from([2, 3, 1]))):
        kind = draw(st.sampled_from(
            ["hyperbolic", "glide", "elliptic", "parabolic", "reflection", "repeat", "square"]))
        lam = draw(st.floats(1.2, 4.0))
        if kind == "hyperbolic":
            g = Isometry.diag(lam, 1 / lam)
        elif kind == "glide":
            g = Isometry.diag(lam, -1 / lam)
        elif kind == "elliptic":
            g = _rotation(math.pi / draw(st.integers(2, 7)))
        elif kind == "parabolic":
            g = Isometry(1.0, lam, 0.0, 1.0)
        elif kind == "reflection":
            g = Isometry.diag(1.0, -1.0)
        else:
            g = gens[-1] if gens else Isometry.diag(lam, 1 / lam)
            gens.append(g if kind == "repeat" else g.power(2))
            continue
        s = draw(st.floats(1.0, 2.0))
        h = _rotation(draw(st.floats(0.0, math.pi))) @ Isometry.diag(s, 1 / s)
        gens.append(_conjugate(g, h))
    return gens


def _same_result(got: EnumerationResult, want: EnumerationResult):
    dumps = []
    for res in (got, want):
        buf = io.StringIO()
        dump_spectrum(res.spectrum, buf)
        dumps.append(buf.getvalue())
    assert dumps[0] == dumps[1]
    assert repr(got.elliptic) == repr(want.elliptic)
    assert got.dropped == want.dropped


_P = Isometry.diag(3.0, 1 / 3.0)
# P and its conjugate by a quarter turn have disjoint ping-pong intervals: a free pair
_FREE_PAIR = [_P, _conjugate(_P, _rotation(math.pi / 4))]


def _conditioned(gens: List[Isometry], k: float) -> List[Isometry]:
    """gens conjugated by a change of basis of condition number k**2: the
    entries of long products, and so their dedup keys, grow with it."""
    h = _rotation(0.3) @ Isometry.diag(k, 1 / k) @ _rotation(1.1)
    return [_conjugate(g, h) for g in gens]


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.integers(2, 6), st.floats(0.5, 12.0),
       st.sampled_from([1e-9, 1e-6, 1e-3]))
@example([Isometry.diag(2.0, 0.5)], 3, 2 * math.acosh(4.25 / 2), 1e-9)  # P^2 right at the cutoff
@example(_FREE_PAIR, 7, 12.0, 1e-9)
@example([_P, _P.power(2)], 5, 10.0, 1e-9)
@example([_P, _P], 5, 10.0, 1e-9)
@example([_P, _rotation(math.pi / 5)], 5, 12.0, 1e-9)
@example([_P, Isometry(1.0, 2.0, 0.0, 1.0)], 5, 12.0, 1e-9)
@example([_P, Isometry(0.0, 1.0, 1.0, 0.0), Isometry.diag(2.0, -0.5)], 4, 12.0, 1e-9)
@example(_conditioned(_FREE_PAIR, 30.0), 7, 12.0, 1e-9)
@example(_conditioned(_FREE_PAIR, 100.0), 7, 12.0, 1e-9)
@example(_conditioned([_P, _rotation(math.pi / 3)], 10.0), 6, 8.0, 1e-9)  # r^3 = -1: words share a matrix
@example([_P, Isometry(1.0, 2.0, 0.0, 1.0)], 5, 0.5, 0.5)  # parabolic traces 2 near the bound 2 cosh(1/2)
@example([Isometry(1.0, 1.0, 0.0, 1.0), _rotation(math.pi / 5)], 5, 0.3, 0.1)
# trace 2.6 below the bound 2 cosh(0.85) = 2.77, keys rint(2.6) + rint(2.6) = 6 above bound / tol
@example([Isometry(1.3, 0.69, 1.0, 1.3)], 3, 1.2, 0.5)
@example(_FREE_PAIR, 6, 4 * math.log(3.0) - 9e-10, 1e-9)  # P^2 just past the cutoff, within tol
@example([Isometry(1e50, 1e149, 0.0, 1e-50), _P], 6, 10.0, 1e-9)  # (1 1 1 1 1): a, d far past the cutoff, b inf
def test_enumerate_matches_per_word_loop(gens, max_len, cutoff, tol):
    config = EnumConfig(max_len, cutoff, tol)
    try:
        want = _loop_enumerate(gens, config)
    except OverflowError as e:
        with pytest.raises(OverflowError) as got:
            enumerate_geodesics(gens, config)
        assert str(got.value) == str(e)
        return
    _same_result(enumerate_geodesics(gens, config), want)


def test_walk_leaves_out_words_past_the_cutoff():
    # of the 3582 minimal rotations up to length 9 that are cyclically reduced, a
    # free pair of translation length 2 log 4 has 174 within the trace bound of cutoff 14
    q = Isometry.diag(4.0, 0.25)
    pair = [q, _conjugate(q, _rotation(math.pi / 4))]
    bound = 2.0 * math.cosh((14.0 + 1e-9) / 2.0) * (1.0 + 1e-9)
    assert len(_walk_products(pair, 9, 1e-9, math.inf)[0]) == 3582
    assert len(_walk_products(pair, 9, 1e-9, bound)[0]) <= 300
