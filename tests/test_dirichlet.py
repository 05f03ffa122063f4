import cmath
import math
import random
import sys
import warnings
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isogeo.dirichlet import (
    ConvergenceWarning,
    TwistData,
    _series_term,
    dirichlet_partial_sum,
    dirichlet_partial_sum_grouped,
    q_factor,
)
from isogeo.lengths import Clusters, Exact, Numeric, tanh_half
from isogeo.scenario import build_scenario, to_spectra
from isogeo.spectrum import GeodesicEntry, LengthTwistSpectrum, Orientation, weight, weight_function

P = Orientation.PRESERVING
R = Orientation.REVERSING


def test_twist_validation():
    with pytest.raises(ValueError):
        TwistData(dimension=2, matrix=((0.5,),))
    with pytest.raises(ValueError):
        TwistData.from_matrix([[1.0, 0.1], [0.0, 1.0]])
    with pytest.raises(ValueError):
        TwistData(dimension=3, matrix=((1.0,),))
    TwistData.from_matrix([[0.0, -1.0], [1.0, 0.0]])
    # the second is orthogonal within 1e-12, yet a surface twist must be exactly [1] or [-1]
    for dimension, matrix, message in [(1, (), "dimension must be >= 2, got 1"),
                                       (2, ((1.0 + 2e-13,),), "surface twist must be exactly [1] or [-1]")]:
        with pytest.raises(ValueError) as exc:
            TwistData(dimension, matrix)
        assert (exc.type, str(exc.value)) == (ValueError, message)


def test_q_factor_surface_cases():
    l = math.acosh(2.0)
    assert q_factor(l, TwistData.preserving()) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert q_factor(l, TwistData.reversing()) == pytest.approx(
        math.sqrt(2.0 / 3.0), abs=1e-12
    )
    with pytest.raises(ValueError):
        q_factor(0.0, TwistData.preserving())


def test_q_factor_quarter_turn_is_unit():
    rot = TwistData.from_matrix([[0.0, -1.0], [1.0, 0.0]])
    for l in (0.5, 1.0, 3.0):
        assert q_factor(l, rot) == pytest.approx(1.0, abs=1e-15)


def test_q_factor_ratio_is_tanh():
    for l in (0.5, 1.0, 5.0):
        ratio = q_factor(l, TwistData.reversing()) / q_factor(l, TwistData.preserving())
        assert ratio == pytest.approx(math.tanh(l / 2.0), abs=1e-12)


# lengths spread evenly in magnitude over [1e-300, 1e4]
LENGTHS = st.floats(-300.0, 4.0).map(lambda x: 10.0**x)


@settings(max_examples=300, deadline=None)
@given(LENGTHS)
@example(1e-300)
@example(1e-170)
@example(1e-160)
@example(1e-12)
@example(1.5e-8)
@example(710.0)
@example(1e4)
def test_q_factor_ratio_is_tanh_over_the_length_range(l):
    ratio = q_factor(l, TwistData.reversing()) / q_factor(l, TwistData.preserving())
    assert ratio == pytest.approx(math.tanh(l / 2.0), rel=1e-12, abs=0)


def _reference_term(l, s):
    # the defining formula at 30 significant digits; cosh(l) - 1 loses about
    # 2*log10(1/l) digits to cancellation, so the working precision adds them
    with mpmath.workdps(30 + max(0, math.ceil(-2 * math.log10(l)))):
        x = mpmath.mpf(l)
        c = mpmath.cosh(x)
        return complex(x * mpmath.sqrt(c / (c - 1)) * mpmath.power(c, -mpmath.mpc(s.real, s.imag)))


@settings(max_examples=300, deadline=None)
@given(LENGTHS, st.floats(1.5, 3.0), st.floats(-8.0, 8.0))
@example(1e-300, 2.0, 1.0)
@example(1e-170, 1.5, 0.0)
@example(1e-160, 2.0, 0.0)
@example(1e-12, 2.0, 0.0)
@example(1.5e-8, 2.0, 5.0)
@example(400.0, 1.5, 8.0)
def test_series_term_matches_mpmath(l, sigma, t):
    s = complex(sigma, t)
    ref = _reference_term(l, s)
    got = _series_term(l, s)
    if abs(ref) >= sys.float_info.min:  # where the value is a normal float
        assert abs(got - ref) <= 1e-12 * abs(ref)
    else:
        assert abs(got) < 2 * sys.float_info.min


@pytest.mark.parametrize("orientation", [P, R])
def test_partial_sums_with_multiplicity_past_float_range(orientation):
    # c_n for q = 10 near n = 312 exceeds the float range; the term does not
    spec = LengthTwistSpectrum(
        [GeodesicEntry(Exact(10, 312), orientation, multiplicity=10**330)], Exact(10, 320)
    )
    s = complex(1.5, 2.0)
    with mpmath.workdps(30):
        l = 312 * mpmath.log(10)
        c = mpmath.cosh(l)
        wt = 1 if orientation is P else mpmath.tanh(l / 2)
        ref = complex(10**330 * wt * l * mpmath.sqrt(c / (c - 1)) * mpmath.power(c, -s))
    assert abs(ref) > 1e-140
    for form in (dirichlet_partial_sum, dirichlet_partial_sum_grouped):
        assert abs(form(spec, s) - ref) <= 1e-12 * abs(ref)


# counts to 10**400 on either side of m / nu: float(m) or t / nu alone would leave the float range
huge_counts = st.one_of(st.integers(1, 7), st.integers(1, 10**400))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(GeodesicEntry, st.one_of(st.builds(Exact, st.sampled_from([2, 3]), st.integers(1, 20)),
                                                   st.floats(0.5, 20.0).map(Numeric)),
                          st.sampled_from([P, R]), huge_counts, huge_counts), min_size=1, max_size=4))
@example([GeodesicEntry(Numeric(1.5), R, 10**400, 10**400)])
def test_w_and_both_sums_of_huge_counts_against_mpmath(entries):
    spec = LengthTwistSpectrum(entries, Numeric(30.0))
    with mpmath.workdps(50):
        def weighted(e):
            wt = mpmath.tanh(mpmath.mpf(e.length.approx()) / 2) if e.orientation is R else 1
            return mpmath.mpf(e.multiplicity) * wt / e.nu

        def term(e, s):
            l = mpmath.mpf(e.length.approx())
            c = mpmath.cosh(l)
            return weighted(e) * l * mpmath.sqrt(c / (c - 1)) * c**-s

        w = [mpmath.mpf(0)] * spec.clusters.size
        for e, c in zip(spec.entries, spec.clusters.ids[0].tolist()):
            w[c] += weighted(e)
        if max(w) > 1e300:  # W past the float range raises: the CLI cases cover that
            return
        want = float(mpmath.fsum(term(e, 2) for e in spec.entries))
        got_w = [x for _, x in weight_function(spec)]
    assert all(abs(float(x) - float(y)) <= 1e-12 * float(y) + 1e-300 for x, y in zip(got_w, w))
    for form in (dirichlet_partial_sum, dirichlet_partial_sum_grouped):
        got = form(spec, 2.0)
        assert abs(got.real - want) <= 1e-12 * want + 1e-300 and got.imag == 0.0


def test_q_factor_ordering_and_limit():
    for l in (0.3, 1.0, 4.0):
        assert q_factor(l, TwistData.preserving()) > q_factor(l, TwistData.reversing())
    assert q_factor(40.0, TwistData.preserving()) == pytest.approx(1.0, abs=1e-12)
    assert q_factor(40.0, TwistData.reversing()) == pytest.approx(1.0, abs=1e-12)


def test_q_factor_refuses_nan_and_keeps_its_limit_at_inf():
    for l in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="length must be positive"):
            q_factor(l, TwistData.preserving())
    assert q_factor(math.inf, TwistData.preserving()) == q_factor(math.inf, TwistData.reversing()) == 1.0


def test_partial_sum_empty():
    spec = LengthTwistSpectrum([], Numeric(5.0))
    assert dirichlet_partial_sum(spec, 2.0) == 0


def test_partial_sum_single_entry_closed_form():
    l = math.acosh(2.0)
    spec = LengthTwistSpectrum([GeodesicEntry(Numeric(l), P)], Numeric(5.0))
    expected = l * math.sqrt(2.0) / 4.0
    got = dirichlet_partial_sum(spec, 2.0)
    assert got.real == pytest.approx(expected, abs=1e-14)
    assert got.imag == 0.0


@pytest.mark.parametrize("s", [math.nan, complex(2.0, math.inf), complex(-math.inf)])
@pytest.mark.parametrize("partial_sum", [dirichlet_partial_sum, dirichlet_partial_sum_grouped])
def test_partial_sum_refuses_a_non_finite_point(s, partial_sum):
    spec = LengthTwistSpectrum([GeodesicEntry(Numeric(1.0), P)], Numeric(2.0))
    with pytest.raises(ValueError, match="s must be finite, got"):
        partial_sum(spec, s)


def test_partial_sum_warns_outside_half_plane():
    spec = LengthTwistSpectrum([GeodesicEntry(Numeric(1.0), P)], Numeric(5.0))
    with pytest.warns(ConvergenceWarning):
        dirichlet_partial_sum(spec, 0.5)
    with pytest.warns(ConvergenceWarning):
        dirichlet_partial_sum_grouped(spec, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dirichlet_partial_sum(spec, 1.0 + 1e-9)


def _random_spectrum(rng):
    entries = [
        GeodesicEntry(
            Numeric(rng.uniform(0.3, 8.0)),
            rng.choice([P, R]),
            nu=rng.randint(1, 4),
            multiplicity=rng.randint(1, 5),
        )
        for _ in range(rng.randint(1, 15))
    ]
    return LengthTwistSpectrum(entries, Numeric(10.0))


def test_two_forms_agree_on_random_spectra():
    rng = random.Random(2024)
    for _ in range(30):
        spec = _random_spectrum(rng)
        for s in (2.0, complex(2.0, 5.0)):
            a = dirichlet_partial_sum(spec, s)
            b = dirichlet_partial_sum_grouped(spec, s)
            assert abs(a - b) <= 1e-12, (spec, s)


def test_equal_weight_profiles_give_equal_sums():
    a, b = to_spectra(build_scenario(2, 10))
    for s in (2.0, complex(3.0, 1.0)):
        da = dirichlet_partial_sum(a, s)
        db = dirichlet_partial_sum(b, s)
        assert abs(da - db) <= 1e-12


def test_partial_sum_deterministic_order():
    rng = random.Random(7)
    spec = _random_spectrum(rng)
    v1 = dirichlet_partial_sum(spec, complex(2.5, -1.0))
    v2 = dirichlet_partial_sum(spec, complex(2.5, -1.0))
    assert v1 == v2


def test_term_decay_in_sigma():
    # larger sigma shrinks the tail: |D(3)| <= |D(2)| for positive spectra
    spec = LengthTwistSpectrum(
        [GeodesicEntry(Numeric(1.0), P), GeodesicEntry(Numeric(2.0), P)], Numeric(5.0)
    )
    assert abs(dirichlet_partial_sum(spec, 3.0)) < abs(dirichlet_partial_sum(spec, 2.0))


# --- the column kernel of both sums against the scalar loops it replaced --------------


def _outcome(form, spec, s):
    """The sum's bits (float.hex of each part, so a zero's sign counts), or the
    exception it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        try:
            v = form(spec, s)
        except Exception as exc:
            return type(exc), str(exc)
    return v.real.hex(), v.imag.hex()


def _weighted_term(m, w, exact, l, s):
    """m * w times the series term at l.  Where that product cannot be formed (m *
    float(w) past the float range, or the term or the product past it), the series
    term with the log of the coefficient in its exponent: log(m * float(w)), or
    log(exact) where m * float(w) is past the float range or rounded to 0; a term
    still past it raises."""
    try:
        mw = m * float(w)
    except OverflowError:
        mw = math.nan
    try:
        v = mw * _series_term(l, s)
    except OverflowError:
        v = complex(math.inf)
    if cmath.isfinite(v):
        return v
    v = _series_term(l, s, math.log(mw) if mw > 0 else math.log(exact.numerator) - math.log(exact.denominator))
    if not cmath.isfinite(v):
        raise OverflowError("term past the float range")
    return v


def _finite(acc):
    if not cmath.isfinite(acc):
        raise OverflowError("sum past the float range")
    return acc


def _scalar_sum(spec, s):
    # the exact term is m * t / nu, with a float damping factor t = tanh(l/2) taken exactly
    acc = 0j
    for e in spec.entries:
        t = tanh_half(e.length) if e.orientation is R else 1
        acc += _weighted_term(e.multiplicity, weight(e), e.multiplicity * Fraction(t) / e.nu, e.length.approx(), s)
    return _finite(acc)


def _scalar_sum_grouped(spec, s):
    acc = 0j
    for rep, w in weight_function(spec):
        acc += _weighted_term(1, w, Fraction(w), rep.approx(), s)
    return _finite(acc)


# exact grid points past int64 (2**63, 3**40, 10**19) and past log DBL_MAX (10**309),
# fractional exact multiples (a float damping factor), numeric lengths from 1e-300 to 800
series_lengths = st.one_of(
    st.builds(Exact, st.sampled_from([2, 3, 10]), st.integers(1, 320)),
    st.builds(Exact, st.just(10), st.integers(300, 320)),
    st.builds(Exact, st.sampled_from([2, 3, 10]),
              st.builds(Fraction, st.integers(1, 1280), st.sampled_from([2, 3, 4]))
              .filter(lambda r: r.denominator > 1 and r <= 320)),
    st.floats(-300.0, math.log10(800.0)).map(lambda e: Numeric(10.0**e)),
    st.floats(0.01, 40.0).map(Numeric),  # where tanh(l) and tanh(l/2) round differently in numpy
)


def _with_neighbours(lengths, offsets):
    """The lengths and a numeric one at each offset from the first, for clusters of
    several lengths at a wide tolerance."""
    x = lengths[0].approx()
    return lengths + [Numeric(x + d) for d in offsets if x + d > 0]


series_spectra = st.builds(
    lambda entries, tol: LengthTwistSpectrum(entries, Numeric(1000.0), tol),
    st.builds(_with_neighbours, st.lists(series_lengths, min_size=1, max_size=5),
              st.lists(st.floats(-0.5, 0.5), max_size=3)).flatmap(lambda ls: st.lists(st.builds(
                  GeodesicEntry, st.sampled_from(ls), st.sampled_from([P, R]), st.integers(1, 7),
                  st.one_of(st.integers(1, 4), st.integers(0, 329).flatmap(lambda e: st.integers(1, 10 * 10**e)))),
                  max_size=16)),
    st.one_of(st.just(1e-9), st.floats(1e-9, 0.5)),  # up to 0.5: clusters of several lengths
)
series_points = st.builds(complex, st.one_of(st.floats(1.5, 4.0), st.floats(-2.0, 1.0)),
                          st.one_of(st.just(0.0), st.floats(-50.0, 50.0)))


@settings(max_examples=300, deadline=None)
@given(series_spectra, series_points)
@example(LengthTwistSpectrum([GeodesicEntry(Exact(10, 312), R, 1, 10**330)], Exact(10, 320)), complex(1.5, 2.0))
@example(LengthTwistSpectrum([GeodesicEntry(Numeric(800.0), P), GeodesicEntry(Numeric(1.0), P)], Numeric(1000.0)),
         complex(-1.0, 0.0))
@example(LengthTwistSpectrum([GeodesicEntry(Numeric(5e-324), R, 1, 10**330), GeodesicEntry(Numeric(1.0), P)],
                             Numeric(1000.0)), complex(2.0, 0.0))
# two faults: the log-path term at 0.5 overflows, and cexp at 700 meets an infinite phase
@example(LengthTwistSpectrum([GeodesicEntry(Numeric(0.5), P, 1, 10**330), GeodesicEntry(Numeric(700.0), P)],
                             Numeric(1000.0)), complex(2.0, 1e306))
# cosh(750) overflows, but 750 carries only m / nu = 1e-50: the per-entry sum takes the log of its
# exact term, the grouped one log(float(W)), and both are finite
@example(LengthTwistSpectrum([GeodesicEntry(Numeric(750.0), P, 10**450, 10**400)], Numeric(1000.0)),
         complex(-1.0, 0.0))
def test_both_sums_have_the_bits_of_the_scalar_loops(spec, s):
    for form, scalar in ((dirichlet_partial_sum, _scalar_sum), (dirichlet_partial_sum_grouped, _scalar_sum_grouped)):
        # a copy with nothing cached: the scalar loops fill the caches they read
        columns = LengthTwistSpectrum.from_columns(
            (spec.approx, spec.exact, spec.reversing, spec.nu, spec.multiplicity), spec.horizon, spec.tolerance)
        got, want = _outcome(form, columns, s), _outcome(scalar, spec, s)
        if isinstance(want[0], type):  # a fault raises as the series term raises it, not in entry order
            assert got[0] in (OverflowError, ValueError, ZeroDivisionError), got
        else:
            assert got == want


def test_terms_past_the_float_range_take_the_log_path_or_raise():
    # cosh(750) is past the float range, but m / nu = 1e-50: both sums take the log of their
    # coefficient into the exponent (the grouped one of float(W)) and agree
    spec = LengthTwistSpectrum([GeodesicEntry(Numeric(750.0), P, 10**450, 10**400)], Numeric(1000.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        per_entry, grouped = dirichlet_partial_sum(spec, -1.0), dirichlet_partial_sum_grouped(spec, -1.0)
        assert per_entry.real == 1.971935453045705e+278 and per_entry.imag == 0.0
        assert abs(grouped - per_entry) <= 1e-12 * abs(per_entry)
        # cosh(800) is past the float range and 1 / nu = 2**-1100 rounds to 0.0: both sums take
        # the log of the exact coefficient
        spec = LengthTwistSpectrum([GeodesicEntry(Numeric(800.0), P, 2**1100, 1)], Numeric(1000.0))
        with mpmath.workdps(40):
            c = mpmath.cosh(mpmath.mpf(800))
            ref = float(800 * mpmath.sqrt(c / (c - 1)) * c / mpmath.mpf(2) ** 1100)
        for form in (dirichlet_partial_sum, dirichlet_partial_sum_grouped):
            got = form(spec, -1.0)
            assert abs(got.real - ref) <= 1e-12 * ref and got.imag == 0.0
        # 1e308 times the finite term at 5.0, and three finite terms of 8.8e307 at 1.0 to 1.2
        # whose total is past the float range, raise
        huge = [LengthTwistSpectrum([GeodesicEntry(Numeric(5.0), P, 1, 10**308)], Numeric(1000.0)),
                LengthTwistSpectrum([GeodesicEntry(Numeric(l), P, 1, 6 * 10**307) for l in (1.0, 1.1, 1.2)],
                                    Numeric(1000.0))]
        for spec, s in zip(huge, (-1.0, 0.0)):
            for form in (dirichlet_partial_sum, dirichlet_partial_sum_grouped):
                with pytest.raises(OverflowError):
                    form(spec, s)


@pytest.mark.parametrize("length, orientation, m, s", [
    (1.0, P, 10**400, 2.0),  # the exact coefficient's log, 921, leaves the log-path term past the float range
    (5.0, P, 10**400, -1.0),
    (800.0, R, 1, -1.0),  # cosh(800) is past the float range, and its coefficient tanh(400) is 1.0
], ids=["huge-m-at-1", "huge-m-at-5", "cosh-800"])
@pytest.mark.parametrize("form", [dirichlet_partial_sum, dirichlet_partial_sum_grouped])
def test_a_log_path_term_past_the_float_range_is_named(form, length, orientation, m, s):
    spec = LengthTwistSpectrum([GeodesicEntry(Numeric(length), orientation, 1, m)], Numeric(1000.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        with pytest.raises(OverflowError, match="^the partial sum is past the float range$"):
            form(spec, s)


@pytest.mark.parametrize("form", [dirichlet_partial_sum, dirichlet_partial_sum_grouped])
def test_a_phase_past_the_float_range_is_named(form):
    # t * log cosh 5 is past the float range at t = 1.7e308, where cmath.exp raises ValueError
    spec = LengthTwistSpectrum([GeodesicEntry(Numeric(5.0), P)], Numeric(10.0))
    with pytest.raises(OverflowError, match="^the partial sum is past the float range$"):
        form(spec, complex(2.0, 1.7e308))
    assert form(spec, complex(2.0, 1e307)) == _series_term(5.0, complex(2.0, 1e307))


def test_the_sums_build_neither_weights_nor_representatives(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sums read the columns only")

    monkeypatch.setattr(Clusters, "reps", refuse)
    monkeypatch.setattr(LengthTwistSpectrum, "entries", property(refuse))
    entries = [GeodesicEntry(Exact(2, 1), P, 1, 3), GeodesicEntry(Exact(2, 1), R, 3, 2),
               GeodesicEntry(Numeric(0.7), R, 2, 1), GeodesicEntry(Exact(10, 312), P, 1, 10**330),
               GeodesicEntry(Exact(3, Fraction(5, 2)), R, 1, 4), GeodesicEntry(Numeric(1.5), R, 10**400, 10**400)]
    for form in (dirichlet_partial_sum, dirichlet_partial_sum_grouped):
        spec = LengthTwistSpectrum(entries, Exact(10, 320))
        form(spec, complex(2.0, 1.0))
