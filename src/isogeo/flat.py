"""Flat torus quotients: dual-lattice orbit counting and spectral relations.

A flat torus eigenbasis is indexed by dual-lattice vectors; the eigenvalue
of the mode at lambda is a lattice-dependent positive multiple of the
integer norm-form value of lambda, so spectra are reported against that
normalized integer (the physical scale factor cancels inside every
within-family relation and cross-family comparisons are rejected).

A rotation quotient's functions are the rotation-invariant functions on
the torus, and rotations about the origin permute the Fourier modes with
no phase factor, so the quotient's multiplicity at n is the number of
rotation orbits on the modes of norm n.  Only the origin is fixed by a
nontrivial lattice rotation, giving

    mult_k(n) = (census(n) + (k - 1) * [n == 0]) / k,

an exact integer because the order-k rotation acts freely off the origin.
Every orbifold of a relation shares its lattice, so a relation is checked
against a single census of that lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import IncompatibleRotation, MalformedRelation


class LatticeKind(Enum):
    """The two planar lattices with extra rotational symmetry.

    Each is its norm form x^2 + cxy + y^2 in lattice coordinates, with cross
    coefficient c = 0 (square) or 1 (hexagonal); the rotations fixing the
    form are the powers of (0, -1; 1, c), a turn by 2pi/(4 + 2c).
    """

    SQUARE = ("square", 0)
    HEXAGONAL = ("hexagonal", 1)

    def __new__(cls, value: str, cross: int):
        member = object.__new__(cls)
        member._value_ = value
        member.cross = cross
        turn = 4 + 2 * cross
        member.rotation_orders = tuple(k for k in range(1, turn + 1) if turn % k == 0)
        return member

    def norm(self, x: int, y: int) -> int:
        return x * x + self.cross * x * y + y * y

    def rotation(self, order: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Integer matrix of the minimal rotation of the given order.

        Rows act on column vectors of lattice coordinates; each matrix
        preserves the lattice's norm form.
        """
        _require_order(self, order)
        c, (top, bottom) = self.cross, ((1, 0), (0, 1))
        for _ in range(self.rotation_orders[-1] // order):  # left-multiply by (0, -1; 1, c)
            top, bottom = (-bottom[0], -bottom[1]), (top[0] + c * bottom[0], top[1] + c * bottom[1])
        return (top, bottom)


def _coordinate_bound(lattice: LatticeKind, n: int) -> int:
    """Bounds |x| and |y| over norm <= n: the form is (x + cy/2)^2 + (4 - c)y^2/4."""
    return math.isqrt(4 * n // (4 - lattice.cross))


def _require_order(lattice: LatticeKind, order: int):
    if order not in lattice.rotation_orders:
        raise IncompatibleRotation(f"order {order} does not act on {lattice.value} lattice")


def _apply(m: Tuple[Tuple[int, int], Tuple[int, int]], v: Tuple[int, int]) -> Tuple[int, int]:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _census(lattice: LatticeKind, max_norm: int) -> np.ndarray:
    """census[n] = number of lattice vectors with norm-form value n, as int64.

    Exhaustive integer-pair enumeration over a bounding box, 128 rows at a
    time into one accumulator, so memory stays O(max_norm); exact.
    """
    if max_norm < 0:
        raise ValueError(f"max_norm must be >= 0, got {max_norm}")
    m = _coordinate_bound(lattice, max_norm)
    r = np.arange(-m, m + 1, dtype=np.int64)
    census = np.zeros(max_norm + 1, dtype=np.int64)
    for lo in range(0, len(r), 128):
        v = lattice.norm(r[lo:lo + 128, None], r[None, :])
        band = np.bincount(v[v <= max_norm])
        census[:len(band)] += band
    return census


def norm_census(lattice: LatticeKind, max_norm: int) -> List[int]:
    """census[n] = number of lattice vectors with norm-form value n; exact."""
    return _census(lattice, max_norm).tolist()


def vectors_with_norm(lattice: LatticeKind, n: int) -> List[Tuple[int, int]]:
    """All lattice vectors of norm exactly n, by per-coordinate solving."""
    if n < 0:
        raise ValueError(f"norm must be >= 0, got {n}")
    c, m, out = lattice.cross, _coordinate_bound(lattice, n), []
    # solve y^2 + cxy + (x^2 - n) = 0: y = (-cx +- sqrt(4n - (4 - c)x^2)) / 2
    for x in range(-m, m + 1):
        disc = 4 * n - (4 - c) * x * x
        s = math.isqrt(disc)
        if s * s == disc and (s - c * x) % 2 == 0:
            out.append((x, (s - c * x) // 2))
            if s != 0:
                out.append((x, (-s - c * x) // 2))
    return sorted(out)


def orbit_multiplicity(lattice: LatticeKind, order: int, n: int) -> int:
    """Orbits of the order-k rotation group on the modes of norm n.

    Equals the normalized-eigenvalue-n multiplicity of the quotient
    orbifold.  Off the origin the rotation acts freely, so the count is
    census(n)/k, exactly divisible.
    """
    _require_order(lattice, order)
    count = len(vectors_with_norm(lattice, n))
    census = np.array([count] if n == 0 else [1, count])  # at the origin, then at n
    return int(_quotient_mult(census, order)[-1])


def _quotient_mult(census: np.ndarray, order: int) -> np.ndarray:
    """mult_k(n) for every n of an int64 census: 1 at the origin, census(n)/k elsewhere."""
    bad = np.flatnonzero(census[1:] % order)
    if len(bad):
        n = int(bad[0]) + 1
        raise ArithmeticError(f"census {census[n]} at n={n} not divisible by {order}")
    mult = census // order
    mult[0] = 1
    return mult


def orbit_multiplicity_oracle(lattice: LatticeKind, order: int, n: int) -> int:
    """Independent orbit count: explicit partition under repeated rotation."""
    rot = lattice.rotation(order)
    remaining = set(vectors_with_norm(lattice, n))
    orbits = 0
    while remaining:
        v = remaining.pop()
        orbits += 1
        w = _apply(rot, v)
        while w != v:
            remaining.discard(w)
            w = _apply(rot, w)
    return orbits


class OrbifoldId(Enum):
    """Square-family (S*) and hexagonal-family (H*) tori and quotients.

    The integer suffix is the rotation order of the quotient: S1/H1 are
    the tori themselves; S2/H2 are 2222 orbifolds, S4 a 244, H3 a 333,
    and H6 a 236.
    """

    S1 = ("S1", LatticeKind.SQUARE, 1)
    S2 = ("S2", LatticeKind.SQUARE, 2)
    S4 = ("S4", LatticeKind.SQUARE, 4)
    H1 = ("H1", LatticeKind.HEXAGONAL, 1)
    H2 = ("H2", LatticeKind.HEXAGONAL, 2)
    H3 = ("H3", LatticeKind.HEXAGONAL, 3)
    H6 = ("H6", LatticeKind.HEXAGONAL, 6)

    def __init__(self, label: str, lattice: LatticeKind, order: int):
        self.label = label
        self.lattice = lattice
        self.order = order

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


@dataclass(frozen=True)
class OrbifoldSpectrum:
    """Normalized eigenvalue -> multiplicity, up to a cutoff."""

    orbifold: OrbifoldId
    max_norm: int
    multiplicities: Dict[int, int]


def orbifold_spectrum(orbifold: OrbifoldId, max_norm: int) -> OrbifoldSpectrum:
    """Quotient spectrum via one census pass; zero multiplicities omitted."""
    census = _census(orbifold.lattice, max_norm)
    mult, norms = _quotient_mult(census, orbifold.order), np.flatnonzero(census)
    return OrbifoldSpectrum(orbifold, max_norm, dict(zip(norms.tolist(), mult[norms].tolist())))


@dataclass(frozen=True)
class SpectralRelation:
    """left = right as formal positive-integer sums of orbifolds."""

    left: Tuple[Tuple[int, OrbifoldId], ...]
    right: Tuple[Tuple[int, OrbifoldId], ...]

    def __post_init__(self):
        if not self.left or not self.right:
            raise MalformedRelation("both sides must be nonempty")
        for coeff, _ in self.left + self.right:
            if coeff < 1:
                raise MalformedRelation(f"coefficients must be positive, got {coeff}")
        families = {oid.lattice for _, oid in self.left + self.right}
        if len(families) > 1:
            raise MalformedRelation("relation mixes lattice families")

    @property
    def lattice(self) -> LatticeKind:
        return self.left[0][1].lattice

    def __str__(self) -> str:
        def side(terms):
            return "+".join(
                (f"{c}{oid.label}" if c != 1 else oid.label) for c, oid in terms
            )

        return f"{side(self.left)}={side(self.right)}"


def parse_relation(text: str) -> SpectralRelation:
    """Parse e.g. "S1+2S4=3S2" into a SpectralRelation."""
    ids = {oid.label: oid for oid in OrbifoldId}

    def parse_side(side: str) -> Tuple[Tuple[int, OrbifoldId], ...]:
        terms = []
        for raw in side.split("+"):
            token = raw.strip().replace(" ", "").replace("*", "")
            if not token:
                raise MalformedRelation(f"empty term in {text!r}")
            i = 0
            while i < len(token) and token[i].isdecimal():
                i += 1
            coeff = int(token[:i]) if i else 1
            name = token[i:].upper()
            if name not in ids:
                raise MalformedRelation(f"unknown orbifold {token[i:]!r} in {text!r}")
            terms.append((coeff, ids[name]))
        return tuple(terms)

    parts = text.split("=")
    if len(parts) != 2:
        raise MalformedRelation(f"relation needs exactly one '=': {text!r}")
    return SpectralRelation(left=parse_side(parts[0]), right=parse_side(parts[1]))


@dataclass(frozen=True)
class RelationWitness:
    """First normalized eigenvalue where the two sides disagree."""

    n: int
    left_total: int
    right_total: int


def verify_relations(
    relations: Sequence[SpectralRelation], max_norm: int
) -> List[Tuple[bool, RelationWitness | None]]:
    """verify_relation of each relation, in order, counting one census per lattice."""
    censuses = {kind: _census(kind, max_norm) for kind in dict.fromkeys(rel.lattice for rel in relations)}
    return [_verdict(rel, censuses[rel.lattice]) for rel in relations]


def _verdict(rel: SpectralRelation, census: np.ndarray) -> Tuple[bool, RelationWitness | None]:
    if sum(c for c, _ in rel.left + rel.right) * int(census.max()) >= 2**63:  # int64 sums could wrap
        census = census.astype(object)
    lhs, rhs = (sum(c * _quotient_mult(census, oid.order) for c, oid in side) for side in (rel.left, rel.right))
    differ = np.flatnonzero(lhs != rhs)
    if not len(differ):
        return True, None
    n = int(differ[0])
    return False, RelationWitness(n=n, left_total=int(lhs[n]), right_total=int(rhs[n]))


def verify_relation(
    rel: SpectralRelation, max_norm: int
) -> Tuple[bool, RelationWitness | None]:
    """Check coefficient-weighted multiplicity equality for every n <= cutoff."""
    return verify_relations([rel], max_norm)[0]


ISOSPECTRAL_RELATIONS: Tuple[SpectralRelation, ...] = tuple(
    parse_relation(s)
    for s in (
        "S1+2S4=3S2",
        "H2+H6=2H3",
        "H1+H3+H6=3H2",
        "H1+3H3=4H2",
        "H1+4H6=5H3",
        "2H1+3H6=5H2",
    )
)


def relations_for_family(lattice: LatticeKind) -> Tuple[SpectralRelation, ...]:
    return tuple(r for r in ISOSPECTRAL_RELATIONS if r.lattice is lattice)
