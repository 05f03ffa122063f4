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
from typing import Callable, Sequence, Tuple

import numpy as np

from .lengths import run_starts
from .spectrum import LengthTwistSpectrum

ORTHOGONALITY_TOLERANCE = 1e-12


class ConvergenceWarning(UserWarning):
    """Evaluation point is outside the series' convergence half-plane."""


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
    if not l > 0:  # NaN fails too; the limit at l = inf is 1
        raise ValueError(f"length must be positive, got {l}")
    d = twist.dimension
    a = np.asarray(twist.matrix, dtype=float)
    e = math.exp(-l)
    x = 2.0 * e / (1.0 + e * e) * np.linalg.eigvalsh(np.eye(d - 1) - (a + a.T) / 2.0)
    log_x = np.log(x, out=np.full_like(x, -np.inf), where=x > 0)  # a beta rounded below 0 is 0
    log_u = math.log(math.tanh(l / 2.0)) + math.log(math.tanh(l))
    log_det = float(np.sum(np.logaddexp(log_u, log_x)))
    return math.exp(-(d - 1) / 2.0 * log_det)


def _as_complex(s: complex | float) -> complex:
    """The series point s as a finite complex number; warns outside a surface's
    convergence half-plane sigma > d - 1, d = 2."""
    z = complex(s)
    if not cmath.isfinite(z):
        raise ValueError(f"s must be finite, got {z}")
    if z.real <= 1:
        warnings.warn(
            f"partial sum evaluated at sigma={z.real}, outside the "
            "convergence half-plane sigma > 1",
            ConvergenceWarning,
            stacklevel=3,
        )
    return z


def _series_term(l: float, s: complex, log_weight: float = 0.0) -> complex:
    # cosh(l)**-s in log space: log cosh l = l + log1p(e^-2l) - log 2
    log_cosh = l + math.log1p(math.exp(-2.0 * l)) - math.log(2.0)
    # (cosh l - 1)/cosh l = tanh(l/2)*tanh(l), a product that underflows below l ~ 1e-154
    root = math.sqrt(math.tanh(l / 2.0)) * math.sqrt(math.tanh(l))
    return l / root * cmath.exp(-s * log_cosh + log_weight)


def _plain_term(l: float, s: complex, log_weight: float = 0.0) -> complex:
    """_series_term(l, s, log_weight), or NaN where the term or its phase is past the float range."""
    try:
        return _series_term(l, s, log_weight)
    except (OverflowError, ValueError):
        return complex(math.nan, math.nan)


def _series_sum(x: np.ndarray, coef: np.ndarray, exact: Callable[[list], list], s: complex) -> complex:
    """The sum over the ascending float column x of coef[i] * _series_term(x[i], s),
    with _plain_term called once per distinct float and
    the terms added one at a time from 0j in entry order, as the entry-by-entry
    loop adds them.  A row whose plain product cannot be formed (its coef NaN,
    past the float range, or the term or the product past it) takes the log of
    its coefficient into the exponent of a term of its own, of its exact
    coefficient from exact(rows) where coef is NaN or 0.0 (rounded from a
    positive value).  A term or a total still past the float range raises
    OverflowError("the partial sum is past the float range"), and another fault
    (a zero root) raises as _series_term does."""
    u = x[run_starts(x)]
    terms = list(map(_plain_term, u.tolist(), repeat(s)))  # NaN past the float range: the log path below
    out = list(map(operator.mul, coef.tolist(), map(terms.__getitem__, u.searchsorted(x).tolist())))
    total = reduce(operator.add, out, 0j)
    if not cmath.isfinite(total):  # a plain product could not be formed: a finite total has none
        rows = [i for i, v in enumerate(out) if not cmath.isfinite(v)]
        big = [i for i in rows if not coef[i] > 0]  # NaN, or a float rounded to 0: its exact value
        logs = {i: math.log(coef[i]) for i in rows if coef[i] > 0}
        for i, c in zip(big, map(Fraction, exact(big))):
            logs[i] = math.log(c.numerator) - math.log(c.denominator)
        for i in rows:  # ascending: each replaces its own place
            out[i] = _plain_term(x.item(i), s, logs[i])
        total = reduce(operator.add, out, 0j)
        if not cmath.isfinite(total):  # a term, or the sum of finite terms, past the float range
            raise OverflowError("the partial sum is past the float range")
    return total


def dirichlet_partial_sum(
    spec: LengthTwistSpectrum, s: complex | float
) -> complex:
    """Per-geodesic partial sum of the spectral Dirichlet series.

    Sums multiplicity * wt * l * (cosh l/(cosh l-1))**(1/2) * cosh(l)**-s
    over all entries, in canonical entry order (ascending length, then
    orientation, then nu) for run-to-run bit stability: each term is the
    float m * float(wt) of ``spec.term_floats`` times the series term (no
    weight list is built), and each series term is evaluated once per
    distinct length.  A multiplicity past the float range
    joins the exponent as the log of its exact m * wt (``spec.exact_terms``),
    and a term whose plain product leaves the float range the log of m * wt.
    """
    z = _as_complex(s)
    return _series_sum(spec.approx, spec.term_floats, spec.exact_terms, z)


def dirichlet_partial_sum_grouped(
    spec: LengthTwistSpectrum, s: complex | float
) -> complex:
    """Partial sum computed through the total weight function.

    Groups entries by length cluster and sums W(l) * l * Q * cosh(l)**-s at
    each cluster's representative, in ascending order; agrees with the
    per-geodesic form to floating-point accuracy.  Each term is float(W) times
    the series term, from the spectrum's W columns and its clusters'
    representative floats (no representative is built, and a Fraction only for
    a W past the float range, whose log joins the exponent), with the kernel
    of :func:`dirichlet_partial_sum`.
    """
    z = _as_complex(s)
    w = spec.weight_columns
    return _series_sum(spec.clusters.rep_floats, w.floats(np.arange(len(w.flo))), w.values, z)
