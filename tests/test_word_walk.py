"""Property tests: the necklace walk against the unpruned walk and a rotation check.

The oracle below is the depth-first word walk the enumerator used before it
carried the necklace period: it visits every freely reduced word and keeps a
word when it is cyclically reduced and no rotation of it is lexicographically
smaller.  Filtered the way enumerate_geodesics filters it, the necklace walk
must yield the same words with the same matrices in the same order, since
enumerate_geodesics deduplicates by first occurrence.  Over positive letters
alone, the alphabet necklace_count_oracle walks, its period-n words of length
n are the aperiodic minimal rotations, and there are necklace_count of them.
"""

from typing import Dict, List, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from isogeo.hyperbolic import Mat4, _mul4, necklace_walk
from isogeo.scenario import necklace_count


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
    """The necklace walk filtered as enumerate_geodesics filters it."""
    for word, p, mat in necklace_walk(letter_mats, max_len, _mul4):
        n = len(word)
        if n % p == 0 and (n == 1 or word[0] != -word[-1]):
            yield word, mat


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
    got = list(_canonical_words(letter_mats, max_len))
    assert got == list(_unpruned_walk(letter_mats, max_len))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 7))
def test_positive_walk_period_marks_lyndon_words(q, max_len):
    lyndon = {n: 0 for n in range(1, max_len + 1)}
    for word, p, _ in necklace_walk(dict.fromkeys(range(1, q + 1)), max_len, lambda v, _: v):
        n = len(word)
        aperiodic_minimal = all(word < r for r in _rotations(word))
        assert (p == n) == aperiodic_minimal, (word, p)
        lyndon[n] += p == n
    assert lyndon == {n: necklace_count(q, n) for n in lyndon}
