import math
import random
import re
from collections import Counter

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isogeo.errors import EmptyGenerators, NotTranslating
from isogeo.hyperbolic import (
    EnumConfig,
    Isometry,
    IsometryClass,
    classify,
    enumerate_geodesics,
    translation_length,
)
from isogeo.spectrum import CountingFunction, Orientation, almost_conjugate, pgt_jump_report


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return Isometry(c, -s, s, c)


def random_hyperbolic(rng):
    lam = rng.uniform(1.2, 4.0)
    g = Isometry.diag(lam, 1 / lam)
    return conjugate(g, random_conjugator(rng))


def random_glide(rng):
    lam = rng.uniform(1.2, 4.0)
    g = Isometry.diag(lam, -1 / lam)
    return conjugate(g, random_conjugator(rng))


def random_conjugator(rng):
    while True:
        a, b, c, d = (rng.uniform(-2, 2) for _ in range(4))
        det = a * d - b * c
        if abs(det) > 0.1:
            s = 1 / math.sqrt(abs(det))
            return Isometry(a * s, b * s, c * s, d * s)


def conjugate(g, h):
    return h @ g @ h.inverse()


def test_isometry_validation():
    with pytest.raises(ValueError):
        Isometry(2.0, 0.0, 0.0, 2.0)
    Isometry.diag(2.0, 0.5)
    Isometry.diag(2.0, -0.5)


@pytest.mark.parametrize("x", [2.0**510, 1e200, math.inf, math.nan])
def test_isometry_rejects_entries_out_of_range(x):
    # the squares of entries this large overflow the determinant's scale
    with pytest.raises(ValueError, match="matrix entries must be finite and below"):
        Isometry.diag(x, 1 / x)


def test_isometry_rejects_entries_too_large_to_resolve_the_determinant():
    # |ad| + |bc| near 1e14 rounds a singular matrix's det to within the tolerance of 1
    with pytest.raises(ValueError, match=r"\|det\| = 1 cannot be told from 0"):
        Isometry(1e7, 1e7, 1e7, 1e7)
    with pytest.raises(ValueError, match=r"\|det\| = 1 cannot be told from 0"):
        Isometry(5.000000000000001e149, 5e149, 5e149, 4.999999999999999e149)  # rot diag(1e150, 1e-150) rot^-1
    with pytest.raises(ValueError, match=r"\|det\| must be 1"):
        Isometry(1e8, 1e8, 1.0, 1.0)  # det 0 at small |ad| + |bc|
    # large entries with small products are resolved exactly
    assert Isometry.diag(1e120, 1e-120).det() == 1.0
    # a product of checked isometries is one by construction, though its ad - bc cancels
    g = rotation(0.3) @ Isometry.diag(1e4, 1e-4) @ rotation(0.7)
    big = g.power(4)
    assert max(abs(big.a), abs(big.d)) > 1e15
    assert translation_length(big) == pytest.approx(4 * translation_length(g), rel=1e-12)


def test_inverse_and_power():
    g = Isometry(2.0, 1.0, 1.0, 1.0)
    gi = g.inverse()
    prod = g @ gi
    assert prod.a == pytest.approx(1.0) and prod.d == pytest.approx(1.0)
    assert abs(prod.b) < 1e-12 and abs(prod.c) < 1e-12
    g3 = g.power(3)
    assert g3.a == pytest.approx((g @ g @ g).a, abs=1e-12)


def test_power_stops_squaring_after_the_last_factor():
    # one more squaring would reach 1e160, past the entry range
    cube = Isometry.diag(1e40, 1e-40).power(3)
    assert (cube.b, cube.c) == (0.0, 0.0)
    assert (cube.a, cube.d) == pytest.approx((1e120, 1e-120), rel=1e-15)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_inverse_of_a_product_whose_det_is_rounding_noise(sign):
    # the factors' dets are exactly sign, 1 and 1, so the inverse is the signed adjugate
    g = (rotation(0.3) @ Isometry.diag(1e4, sign * 1e-4) @ rotation(0.7)).power(3 + (sign > 0))
    assert abs(abs(g.det()) - 1.0) > 0.5  # ad - bc of entries this large is noise
    assert g.inverse().rows() == ((sign * g.d, -sign * g.b), (-sign * g.c, sign * g.a))
    assert g.inverse().inverse() == g


def test_orientation_is_the_carried_det_sign():
    # ad - bc of g^4 computes to 0.0 although every factor has det +1
    g = rotation(0.3) @ Isometry.diag(1e4, 1e-4) @ rotation(0.7)
    assert abs(g.power(4).det()) < 0.5
    assert classify(g.power(4)) is IsometryClass.HYPERBOLIC
    assert classify(g.power(-4)) is IsometryClass.HYPERBOLIC
    glide = rotation(0.3) @ Isometry.diag(1e4, -1e-4) @ rotation(0.7)
    assert classify(glide.power(3)) is IsometryClass.GLIDE_REFLECTION
    spec = enumerate_geodesics([g], EnumConfig(4, 80.0)).spectrum
    assert [(e.orientation, e.nu, e.multiplicity) for e in spec.entries] == [
        (Orientation.PRESERVING, k, 2) for k in range(1, 5)]


def test_classify_examples():
    assert classify(Isometry.identity()) is IsometryClass.IDENTITY
    assert classify(Isometry(-1.0, 0.0, 0.0, -1.0)) is IsometryClass.IDENTITY
    assert classify(Isometry.diag(2.0, 0.5)) is IsometryClass.HYPERBOLIC
    assert classify(Isometry.diag(2.0, -0.5)) is IsometryClass.GLIDE_REFLECTION
    assert classify(Isometry(1.0, 1.0, 0.0, 1.0)) is IsometryClass.PARABOLIC
    assert classify(rotation(0.3)) is IsometryClass.ELLIPTIC
    assert classify(Isometry(0.0, 1.0, 1.0, 0.0)) is IsometryClass.REFLECTION


def test_translation_length_examples():
    assert translation_length(Isometry.diag(2.0, 0.5)) == pytest.approx(
        2 * math.log(2), abs=1e-12
    )
    # glide: half the square's length
    assert translation_length(Isometry.diag(2.0, -0.5)) == pytest.approx(
        2 * math.log(2), abs=1e-12
    )
    for bad in (Isometry.identity(), rotation(0.5), Isometry(1.0, 1.0, 0.0, 1.0)):
        with pytest.raises(NotTranslating):
            translation_length(bad)


def test_translation_length_conjugation_invariant():
    rng = random.Random(11)
    g = Isometry.diag(2.0, 0.5)
    base = translation_length(g)
    for _ in range(50):
        h = random_conjugator(rng)
        assert translation_length(conjugate(g, h)) == pytest.approx(base, abs=1e-9)


def test_power_length_scaling():
    rng = random.Random(23)
    for _ in range(20):
        g = random_hyperbolic(rng)
        l = translation_length(g)
        for k in range(2, 11):
            assert translation_length(g.power(k)) == pytest.approx(k * l, abs=1e-9)


def test_glide_square_law_and_parity():
    rng = random.Random(31)
    for _ in range(20):
        g = random_glide(rng)
        l = translation_length(g)
        assert translation_length(g.power(2)) / 2 == pytest.approx(l, abs=1e-9)
        for k in range(1, 7):
            gk = g.power(k)
            det = gk.det()
            assert (det < 0) == (k % 2 == 1)
            expected = (
                IsometryClass.GLIDE_REFLECTION if k % 2 == 1 else IsometryClass.HYPERBOLIC
            )
            assert classify(gk) is expected


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-12, 1e3), st.sampled_from([1.0, -1.0]))
@example(1e-8, 1.0)
@example(1e-7, -1.0)
def test_glide_length_against_mpmath(t, sign):
    # (t, 1; 1, 0) has det -1 exactly; its length is arccosh(1 + t^2/2)
    tr = sign * t
    got = translation_length(Isometry(tr, 1.0, 1.0, 0.0), tol=0.0)
    with mpmath.workdps(30 + max(0, math.ceil(-2 * math.log10(t)))):
        want = mpmath.acosh(1 + mpmath.mpf(tr) ** 2 / 2)
        assert abs(got - want) <= 1e-15 * want


@pytest.mark.parametrize("trace", [1e-8, 1e-7])
def test_enumerate_glide_with_small_trace(trace):
    x = (trace + math.sqrt(trace**2 + 4)) / 2  # x - 1/x = trace
    g = Isometry.diag(x, -1 / x)
    res = enumerate_geodesics([g], EnumConfig(3, 4.0))
    primitive = [e.length.approx() for e in res.spectrum.entries if e.nu == 1]
    assert primitive and all(l == pytest.approx(abs(g.trace()), rel=1e-12) for l in primitive)


def test_enumerate_short_glide_is_no_root_of_other_axes():
    # a glide of length 1e-8 divides every length to within the tolerance,
    # but no word off its axis is a power of it
    t = 1e-8
    x = (t + math.sqrt(t**2 + 4)) / 2
    gens = [Isometry.diag(x, -1 / x), Isometry(2.0, 1.0, 1.0, 1.0)]
    res = enumerate_geodesics(gens, EnumConfig(3, 4.0))
    imprimitive = [(e.length.approx(), e.nu) for e in res.spectrum.entries if e.nu > 1]
    m = translation_length(gens[1])
    assert imprimitive == [(pytest.approx(3 * t, rel=1e-6), 3), (pytest.approx(2 * m), 2)]


def test_enumerate_conjugate_of_a_square_is_primitive():
    # h P^2 h^-1 has the length of P^2 on another axis: P^+-2 have nu 2, h P^+-2 h^-1 nu 1
    p = Isometry.diag(3.0, 1 / 3.0)
    h = Isometry(2.0, 1.0, 1.0, 1.0)
    res = enumerate_geodesics([p, conjugate(p.power(2), h)], EnumConfig(3, 5.0))
    at = [(e.nu, e.multiplicity) for e in res.spectrum.entries if e.length.approx() > 4.0]
    assert at == [(1, 2), (2, 2)]


@settings(max_examples=60, deadline=None)
@given(st.floats(1.2, 4.0), st.sampled_from([1.0, -1.0]), st.integers(2, 6), st.integers(0, 2**32))
def test_enumerate_root_shares_the_axis(lam, sign, k, seed):
    # P^k is a k-th power; the generator h P^k h^-1 has its length but not its axis
    rng = random.Random(seed)

    def h():  # conditioned well enough that the products keep |det| = 1
        s = rng.uniform(1.0, 2.0)
        return rotation(rng.uniform(0, math.pi)) @ Isometry.diag(s, 1 / s) @ rotation(rng.uniform(0, math.pi))

    p = conjugate(Isometry.diag(lam, sign / lam), h())
    w = conjugate(p.power(k), h())
    l = translation_length(p)
    res = enumerate_geodesics([p, w], EnumConfig(k, k * l + 0.5))
    at = Counter()
    for e in res.spectrum.entries:
        if abs(e.length.approx() - k * l) <= 1e-6:
            at[e.nu] += e.multiplicity
    assert at[k] == 2 and at[1] >= 2


def test_enumerate_single_generator():
    g = Isometry.diag(2.0, 0.5)
    res = enumerate_geodesics([g], EnumConfig(max_word_length=3, length_cutoff=10.0))
    entries = res.spectrum.entries
    assert len(entries) == 3
    l = 2 * math.log(2)
    for e, (k, expected_len) in zip(entries, [(1, l), (2, 2 * l), (3, 3 * l)]):
        assert e.nu == k
        assert e.length.approx() == pytest.approx(expected_len, abs=1e-9)
        assert e.orientation is Orientation.PRESERVING
        assert e.multiplicity == 2


def test_enumerate_reversing_filter():
    gens = [Isometry.diag(2.0, 0.5), Isometry.diag(3.0, -1 / 3.0)]
    with_rev = enumerate_geodesics(gens, EnumConfig(2, 12.0))
    assert any(e.orientation is Orientation.REVERSING for e in with_rev.spectrum.entries)


def test_enumerate_glide_powers_alternate():
    g = Isometry.diag(2.0, -0.5)
    res = enumerate_geodesics([g], EnumConfig(4, 12.0))
    by_nu = {e.nu: e for e in res.spectrum.entries}
    assert by_nu[1].orientation is Orientation.REVERSING
    assert by_nu[2].orientation is Orientation.PRESERVING
    assert by_nu[3].orientation is Orientation.REVERSING
    assert by_nu[4].orientation is Orientation.PRESERVING


def test_enumerate_elliptic_side_channel():
    res = enumerate_geodesics(
        [Isometry.diag(2.0, 0.5), rotation(math.pi / 5)], EnumConfig(2, 8.0)
    )
    assert res.elliptic
    words = {w for w, _ in res.elliptic}
    assert (2,) in words


def test_enumerate_empty_generators():
    with pytest.raises(EmptyGenerators):
        enumerate_geodesics([], EnumConfig(3, 5.0))


@pytest.mark.parametrize("cutoff", [0.0, -1.0, math.nan, math.inf])
def test_length_cutoff_must_be_positive_and_finite(cutoff):
    # NaN passes a "<= 0" check, and a walk to an infinite cutoff visits every word
    with pytest.raises(ValueError, match=re.escape(f"length_cutoff must be positive and finite, got {cutoff}")):
        EnumConfig(3, cutoff)


def test_max_word_length_must_be_positive():
    with pytest.raises(ValueError) as exc:
        EnumConfig(0, 4.0)
    assert (exc.type, str(exc.value)) == (ValueError, "max_word_length must be >= 1")


def schottky_pair():
    a = Isometry.diag(3.0, 1 / 3.0)
    t = Isometry(1.0, 2.0, 0.0, 1.0)
    return [a, conjugate(a, t)]


def test_enumerate_schottky_structural():
    res = enumerate_geodesics(schottky_pair(), EnumConfig(4, 4.0))
    spec = res.spectrum
    assert len(spec) > 0
    counting = CountingFunction(spec)
    total = counting.total()
    assert total == spec.total_multiplicity()
    assert sum(f for _, f in counting.jumps()) == total
    assert all(f <= total for _, f in counting.jumps())
    # oriented pairs: every jump even
    assert all(f % 2 == 0 for _, f in counting.jumps())


def test_enumerate_passes_generous_envelope():
    res = enumerate_geodesics(schottky_pair(), EnumConfig(5, 5.0))
    report = pgt_jump_report(res.spectrum, 50.0)
    assert report.violations == ()


def free_schottky_pair():
    # a and b = R a R^-1 have disjoint ping-pong intervals, so the pair is free
    a = Isometry.diag(3.0, 1 / 3.0)
    r = Isometry(*(x / math.sqrt(2) for x in (1.0, -1.0, 1.0, 1.0)))
    return [a, conjugate(a, r)]


FREE_CONFIG = EnumConfig(9, 14.0)


@pytest.fixture(scope="module")
def free_spectrum():
    return enumerate_geodesics(free_schottky_pair(), FREE_CONFIG).spectrum


@pytest.mark.parametrize("k", [3.0, 4.0, 6.0])
@pytest.mark.parametrize("theta", [0.3, 0.7, 1.1])
def test_enumerate_badly_conditioned_conjugate(free_spectrum, k, theta):
    # long words of a badly conditioned conjugate drift off |det| = 1 by far
    # more than an input matrix may; the enumeration must still be invariant
    h = rotation(theta) @ Isometry.diag(k, 1 / k) @ rotation(2 * theta)
    moved = enumerate_geodesics([conjugate(g, h) for g in free_schottky_pair()], FREE_CONFIG)
    assert almost_conjugate(free_spectrum, moved.spectrum) == (True, None)
    assert moved.elliptic == () and moved.dropped == 0


def affine_conjugate(alpha, k, beta):
    h = rotation(alpha) @ Isometry.diag(k, 1 / k) @ rotation(beta)
    return [conjugate(g, h) for g in schottky_pair()]


def long_types(result):
    return {(round(e.length.approx(), 6), e.orientation, e.nu)
            for e in result.spectrum.entries if e.length.approx() > 1e-3}


@pytest.mark.parametrize("alpha, max_len", [(0.2, 9), (0.9, 8)])
def test_enumerate_near_parabolic_words_return(alpha, max_len):
    # rounding makes near-parabolic words of this conjugate hyperbolic, of
    # length ~7e-5; the root search must not try every k up to 14 / 7e-5
    config = EnumConfig(max_len, 14.0)
    moved = enumerate_geodesics(affine_conjugate(alpha, 8.0, 2 * alpha), config)
    assert min(e.length.approx() for e in moved.spectrum.entries) < 1e-3
    assert long_types(moved) == long_types(enumerate_geodesics(schottky_pair(), config))


def test_enumerate_side_channel_keeps_drifted_matrices():
    # words of this conjugate drift off |det| = 1 and land in the side channel
    res = enumerate_geodesics(affine_conjugate(1.1, 6.0, 2.2), EnumConfig(9, 14.0))
    assert res.elliptic
    for word, mat in res.elliptic:
        assert all(type(x) is int for x in word)
        assert len(mat) == 4 and all(type(x) is float for x in mat)
        assert next(x for x in mat if abs(x) > 1e-9) > 0  # sign-normalised


def powers_by_type(result):
    at = Counter()
    for e in result.spectrum.entries:
        if e.nu > 1:
            at[e.orientation, e.nu] += e.multiplicity
    return at


def test_enumerate_nu_is_conjugation_invariant():
    # the affine pair is not free; nu counts the periods of a word, which
    # no change of basis can move
    config = EnumConfig(9, 14.0)
    moved = enumerate_geodesics(affine_conjugate(0.2, 8.0, 0.4), config)
    assert powers_by_type(moved) == powers_by_type(enumerate_geodesics(schottky_pair(), config))


def test_enumerate_words_sharing_a_matrix_keep_the_largest_nu():
    # in <P, P^2> the words 2 and 1 1 are one element, P^2; so are 1 2 and 1 1 1
    p = Isometry.diag(3.0, 1 / 3.0)
    res = enumerate_geodesics([p, p.power(2)], EnumConfig(4, 10.0))
    assert [(e.nu, e.multiplicity) for e in res.spectrum.entries] == [(k, 2) for k in range(1, 5)]


@pytest.mark.parametrize(
    "gens, max_len, word",
    [
        ([Isometry.diag(1e120, 1e-120), Isometry.diag(2.0, 0.5)], 3, "(1, 1, 1)"),
        # the prenecklace 1 2 1 is not kept; its product diag(inf, 1e-310) times letter 2 has a nan
        ([Isometry.diag(1e150, 1e-150), Isometry.diag(1e10, 1e-10)], 4, "(1, 2, 1, 2)"),
    ],
    ids=["inf", "nan"],
)
def test_enumerate_overflowing_product_names_the_word(gens, max_len, word):
    with pytest.raises(OverflowError, match=re.escape(f"the product of word {word} overflows float64")):
        enumerate_geodesics(gens, EnumConfig(max_len, 10.0))
