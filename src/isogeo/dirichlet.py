"""Spectral Dirichlet series partial sums and their normal-bundle Q-factors.

The series attaches to each geodesic the term

    wt * l * (cosh l / (cosh l - 1))**(1/2) * cosh(l)**(-s),

where the square-root factor is the d=2 orientation-preserving Q-factor;
the reversing case differs by exactly the tanh(l/2) already inside the
weight.  The general Q-factor for twist data A in O(d-1) is

    Q(l, A) = |det(I - (1/cosh l) * (A + A^T)/2)| ** (-(d-1)/2).

Only truncated evaluation in (or out of) the convergence half-plane
sigma > d-1 is provided; partial sums over finite spectra are finite
everywhere, so leaving the half-plane is a warning, not an error.
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import repeat
from typing import Callable, Iterable, List, Sequence, Tuple, Union

import numpy as np

from .lengths import run_starts
from .spectrum import LengthTwistSpectrum, weight_function

ORTHOGONALITY_TOLERANCE = 1e-12


class ConvergenceWarning(UserWarning):
    """Evaluation point is outside the series' convergence half-plane."""


@dataclass(frozen=True)
class SeriesPoint:
    """Evaluation point s = sigma + i*t."""

    sigma: float
    t: float = 0.0

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class TwistData:
    """Holonomy twist: an orthogonal (d-1)x(d-1) matrix, d >= 2.

    For surfaces (d=2) the matrix is the 1x1 [1] or [-1]; higher d takes
    any orthogonal matrix representing the action on the normal bundle.
    """

    dimension: int
    matrix: Tuple[Tuple[float, ...], ...]

    def __post_init__(self):
        d = self.dimension
        if d < 2:
            raise ValueError(f"dimension must be >= 2, got {d}")
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (d - 1, d - 1):
            raise ValueError(f"twist matrix must be {(d-1, d-1)}, got {m.shape}")
        if not np.allclose(m.T @ m, np.eye(d - 1), rtol=0.0, atol=ORTHOGONALITY_TOLERANCE):
            raise ValueError("twist matrix is not orthogonal within 1e-12")
        if d == 2 and self.matrix[0][0] not in (1.0, -1.0):
            raise ValueError("surface twist must be exactly [1] or [-1]")

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[float]]) -> "TwistData":
        rows = tuple(tuple(float(x) for x in row) for row in matrix)
        return cls(dimension=len(rows) + 1, matrix=rows)

    @classmethod
    def preserving(cls) -> "TwistData":
        return cls(dimension=2, matrix=((1.0,),))

    @classmethod
    def reversing(cls) -> "TwistData":
        return cls(dimension=2, matrix=((-1.0,),))


def q_factor(l: float, twist: TwistData) -> float:
    """Q(l, A): determinant weight of the twist on the normal bundle.

    Specializes at d=2 to (cosh l/(cosh l - 1))**(1/2) for twist [1] and
    (cosh l/(cosh l + 1))**(1/2) for twist [-1]; their ratio is tanh(l/2).
    I - sym/cosh(l) is u*I + sech(l)*(I - sym) with u = 1 - sech l =
    tanh(l/2)*tanh(l) and sech l = 2e^-l/(1 + e^-2l).  u underflows below
    l ~ 1e-154, so the determinant is summed in log space over the
    eigenvalues beta >= 0 of I - sym, as log(u + sech*beta) with
    log u = log tanh(l/2) + log tanh(l); no length down to 1e-300 underflows.
    """
    if l <= 0:
        raise ValueError(f"length must be positive, got {l}")
    d = twist.dimension
    a = np.asarray(twist.matrix, dtype=float)
    e = math.exp(-l)
    x = 2.0 * e / (1.0 + e * e) * np.linalg.eigvalsh(np.eye(d - 1) - (a + a.T) / 2.0)
    log_x = np.log(x, out=np.full_like(x, -np.inf), where=x > 0)  # a beta rounded below 0 is 0
    log_u = math.log(math.tanh(l / 2.0)) + math.log(math.tanh(l))
    log_det = float(np.sum(np.logaddexp(log_u, log_x)))
    return math.exp(-(d - 1) / 2.0 * log_det)


def _as_complex(s: Union[SeriesPoint, complex, float]) -> complex:
    z = s.s if isinstance(s, SeriesPoint) else complex(s)
    if not cmath.isfinite(z):
        raise ValueError(f"s must be finite, got {z}")
    return z


def _warn_if_diverging(s: complex):
    """Warn outside a surface's convergence half-plane sigma > d - 1, d = 2."""
    if s.real <= 1:
        warnings.warn(
            f"partial sum evaluated at sigma={s.real}, outside the "
            "convergence half-plane sigma > 1",
            ConvergenceWarning,
            stacklevel=3,
        )


def _series_term(l: float, s: complex, log_weight: float = 0.0) -> complex:
    # cosh(l)**-s in log space: log cosh l = l + log1p(e^-2l) - log 2
    log_cosh = l + math.log1p(math.exp(-2.0 * l)) - math.log(2.0)
    # (cosh l - 1)/cosh l = tanh(l/2)*tanh(l), a product that underflows below l ~ 1e-154
    root = math.sqrt(math.tanh(l / 2.0)) * math.sqrt(math.tanh(l))
    return l / root * cmath.exp(-s * log_cosh + log_weight)


def _weighted_term(m: int, w: Fraction | float, l: float, s: complex) -> complex:
    """m * w times the series term at l.  An exact m * w past the float range
    (a necklace count near q**n) joins the exponent as its log instead."""
    try:
        mw = m * float(w)
    except OverflowError:
        big = m * Fraction(w)
        return _series_term(l, s, math.log(big.numerator) - math.log(big.denominator))
    return mw * _series_term(l, s)


def _floats(f, *columns) -> Tuple[np.ndarray, List[int]]:
    """f of each row of the columns as a float, and the rows where that is past
    the float range (0 there): their terms take the log path of _weighted_term."""
    out, big = np.zeros(len(columns[0])), []
    for i, row in enumerate(zip(*columns)):
        try:
            out[i] = f(*row)
        except OverflowError:
            big.append(i)
    return out, big


def _series_sum(x: np.ndarray, coef: np.ndarray, big: Iterable[Tuple[int, int, Fraction | float]],
                s: complex, reference: Callable[[], Iterable[Tuple[int, Fraction | float, float]]]) -> complex:
    """The sum over the ascending float column x of coef[i] * _series_term(x[i], s),
    with _weighted_term(m, w, x[i], s) as term i for each (i, m, w) of big.

    The scalar loop's bits, in fewer steps: each libm call of _series_term runs
    once per distinct float, mapped at C level; its +, -, *, / and sqrt run in
    numpy, which rounds them as Python does; every product with a complex is a
    Python one (numpy's complex loops may fuse); the terms are added one at a
    time from 0j, as the loop adds them.  Where a step raises (cmath.exp past the
    float range, a zero root), the scalar loop over the (m, w, l) of reference()
    runs instead, so the exception is the one of its first term that has one."""
    try:
        starts = run_starts(x)
        u, k = x[starts], len(starts)
        ul = u.tolist()
        log_cosh = u + np.fromiter(map(math.log1p, map(math.exp, map((-2.0).__mul__, ul))), float, k) - math.log(2.0)
        root = (np.sqrt(np.fromiter(map(math.tanh, (u / 2.0).tolist()), float, k))
                * np.sqrt(np.fromiter(map(math.tanh, ul), float, k)))
        if not root.all():
            raise ZeroDivisionError("float division by zero")
        powers = map(cmath.exp, map(operator.add, map(operator.mul, repeat(-s), log_cosh.tolist()), repeat(0.0)))
        terms = list(map(operator.mul, (u / root).tolist(), powers))
        at = u.searchsorted(x).tolist()  # each entry's distinct float
        out = list(map(operator.mul, coef.tolist(), map(terms.__getitem__, at)))
        for i, m, w in big:
            out[i] = _weighted_term(m, w, x.item(i), s)
        return reduce(operator.add, out, 0j)
    except (ArithmeticError, ValueError):
        acc = 0j
        for m, w, l in reference():
            acc += _weighted_term(m, w, l, s)
        return acc


def dirichlet_partial_sum(
    spec: LengthTwistSpectrum, s: Union[SeriesPoint, complex, float]
) -> complex:
    """Per-geodesic partial sum of the spectral Dirichlet series.

    Sums multiplicity * wt * l * (cosh l/(cosh l-1))**(1/2) * cosh(l)**-s
    over all entries, in canonical entry order (ascending length, then
    orientation, then nu) for run-to-run bit stability: each term is the
    float m * float(wt) times the series term, from the spectrum's count and
    weight-float columns (no weight list is built), and each series term is
    evaluated once per distinct length with the scalar code's libm calls.  A
    multiplicity past the float range joins the exponent as log(m * wt).
    """
    z = _as_complex(s)
    _warn_if_diverging(z)
    m = spec.counts[1]
    try:
        mf, big = m.astype(float), ()
    except OverflowError:  # a multiplicity past the float range
        mf, at = _floats(float, m.tolist())
        big = zip(at, m[at].tolist(), spec.weights_at(at))
    return _series_sum(spec.approx, mf * spec.weight_floats, big, z,
                       lambda: zip(spec.multiplicity, spec.weights, spec.approx.tolist()))


def dirichlet_partial_sum_grouped(
    spec: LengthTwistSpectrum, s: Union[SeriesPoint, complex, float]
) -> complex:
    """Partial sum computed through the total weight function.

    Groups entries by length cluster and sums W(l) * l * Q * cosh(l)**-s at
    each cluster's representative, in ascending order; agrees with the
    per-geodesic form to floating-point accuracy.  Each term is float(W) times
    the series term, from the spectrum's W columns and its clusters'
    representative floats (no representative is built, and a Fraction only for
    a W past the float range, which joins the exponent as log W), with the
    kernel of :func:`dirichlet_partial_sum`.
    """
    z = _as_complex(s)
    _warn_if_diverging(z)
    w = spec.weight_columns
    try:
        coef, big = w.floats(np.arange(len(w.flo))), ()
    except OverflowError:  # an exact W past the float range
        coef, at = _floats(operator.truediv, w.num.tolist(), w.den.tolist())
        coef[w.is_float] = w.flo[w.is_float]
        big = zip(at, repeat(1), w.values(at))
    return _series_sum(spec.clusters.rep_floats, coef, big, z,
                       lambda: ((1, W, rep.approx()) for rep, W in weight_function(spec)))
