"""Property test: the pruned necklace walk against the unpruned walk it replaced.

The oracle below is the depth-first word walk the enumerator used before it
carried the necklace period: it visits every freely reduced word and keeps a
word when it is cyclically reduced and no rotation of it is lexicographically
smaller.  The pruned walk must yield the same words with the same matrices in
the same order, since enumerate_geodesics deduplicates by first occurrence.
"""

from typing import Dict, List, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from isogeo.hyperbolic import Mat4, _iterate_canonical_words, _mul4


# --- oracle: the unpruned walk with a full rotation check -----------------------


def _canonical_cyclic(word: Tuple[int, ...]) -> bool:
    first = word[0]
    if any(x < first for x in word):
        return False
    return all(word <= word[i:] + word[:i] for i in range(1, len(word)))


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


# --- property -----------------------------------------------------------------

entry = st.integers(-3, 3)
matrix = st.tuples(entry, entry, entry, entry)


@st.composite
def alphabets(draw):
    """Letters +-1..+-k for k = 1..3, each with an arbitrary integer matrix."""
    k = draw(st.integers(1, 3))
    mats = {}
    for i in range(1, k + 1):
        mats[i] = draw(matrix)
        mats[-i] = draw(matrix)
    return mats


@settings(max_examples=40, deadline=None)
@given(alphabets(), st.integers(1, 7))
@example({1: (2, 1, 1, 1), -1: (1, -1, -1, 2), 2: (1, 2, 0, 1), -2: (1, -2, 0, 1),
          3: (0, -1, 1, 3), -3: (3, 1, -1, 0)}, 7)
def test_pruned_walk_matches_unpruned_walk(letter_mats, max_len):
    got = list(_iterate_canonical_words(letter_mats, max_len))
    assert got == list(_unpruned_walk(letter_mats, max_len))
