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
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

import numpy as np

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


def dirichlet_partial_sum(
    spec: LengthTwistSpectrum, s: Union[SeriesPoint, complex, float]
) -> complex:
    """Per-geodesic partial sum of the spectral Dirichlet series.

    Sums multiplicity * wt * l * (cosh l/(cosh l-1))**(1/2) * cosh(l)**-s
    over all entries, in canonical entry order (ascending length, then
    orientation, then nu) for run-to-run bit stability.
    """
    z = _as_complex(s)
    _warn_if_diverging(z)
    acc = 0j
    for m, w, x in zip(spec.multiplicity, spec.weights, spec.approx.tolist()):
        acc += _weighted_term(m, w, x, z)
    return acc


def dirichlet_partial_sum_grouped(
    spec: LengthTwistSpectrum, s: Union[SeriesPoint, complex, float]
) -> complex:
    """Partial sum computed through the total weight function.

    Groups entries by length cluster and sums W(l) * l * Q * cosh(l)**-s;
    agrees with the per-geodesic form to floating-point accuracy.
    """
    z = _as_complex(s)
    _warn_if_diverging(z)
    acc = 0j
    for rep, w in weight_function(spec):
        acc += _weighted_term(1, w, rep.approx(), z)
    return acc
