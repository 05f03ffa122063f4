import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isogeo import flat
from isogeo.errors import IncompatibleRotation, MalformedRelation
from isogeo.flat import (
    ISOSPECTRAL_RELATIONS,
    LatticeKind,
    OrbifoldId,
    RelationWitness,
    SpectralRelation,
    _quotient_mult,
    norm_census,
    orbifold_spectrum,
    orbit_multiplicity,
    orbit_multiplicity_oracle,
    parse_relation,
    relations_for_family,
    vectors_with_norm,
    verify_relation,
    verify_relations,
)

SQ = LatticeKind.SQUARE
HEX = LatticeKind.HEXAGONAL

# frozen by independent box enumeration
SQUARE_CENSUS_12 = [1, 4, 4, 0, 4, 8, 0, 0, 4, 4, 8, 0, 0]
HEX_CENSUS_12 = [1, 6, 0, 6, 6, 0, 0, 12, 0, 6, 0, 0, 6]


def test_norm_census_values():
    assert norm_census(SQ, 12) == SQUARE_CENSUS_12
    assert norm_census(HEX, 12) == HEX_CENSUS_12
    assert norm_census(SQ, 25)[25] == 12
    # the smallest boxes, where an off-by-one in the box bound would show
    for m in (0, 1, 2, 3):
        assert norm_census(SQ, m) == SQUARE_CENSUS_12[: m + 1]
        assert norm_census(HEX, m) == HEX_CENSUS_12[: m + 1]


def test_census_matches_vector_solver():
    # two independent routes: box scan vs per-coordinate quadratic solving
    for lattice in (SQ, HEX):
        census = norm_census(lattice, 200)
        for n in range(201):
            vecs = vectors_with_norm(lattice, n)
            assert len(vecs) == census[n], (lattice, n)
            assert len(set(vecs)) == len(vecs)
            assert all(lattice.norm(x, y) == n for x, y in vecs)


def test_census_divisibility():
    sq = norm_census(SQ, 2000)
    hx = norm_census(HEX, 2000)
    assert all(sq[n] % 4 == 0 for n in range(1, 2001))
    assert all(hx[n] % 6 == 0 for n in range(1, 2001))


def test_census_against_character_sums():
    # classical representation counts: r(n) = 4*sum chi_{-4}(d) over d|n for
    # the square form, 6*sum chi_{-3}(d) for the hexagonal one
    def chi4(d):
        return {1: 1, 3: -1}.get(d % 4, 0)

    def chi3(d):
        return {1: 1, 2: -1}.get(d % 3, 0)

    sq = norm_census(SQ, 500)
    hx = norm_census(HEX, 500)
    for n in range(1, 501):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert sq[n] == 4 * sum(chi4(d) for d in divisors), n
        assert hx[n] == 6 * sum(chi3(d) for d in divisors), n


def test_rotations_preserve_norm():
    for lattice in (SQ, HEX):
        for order in lattice.rotation_orders:
            m = lattice.rotation(order)
            for v in vectors_with_norm(lattice, 7) + vectors_with_norm(lattice, 12):
                w = (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])
                assert lattice.norm(*w) == lattice.norm(*v)


def test_orbit_multiplicity_examples():
    assert orbit_multiplicity(SQ, 2, 1) == 2
    assert orbit_multiplicity(SQ, 4, 1) == 1
    assert orbit_multiplicity(HEX, 6, 1) == 1
    for lattice in (SQ, HEX):
        for order in lattice.rotation_orders:
            assert orbit_multiplicity(lattice, order, 0) == 1


def test_orbit_multiplicity_oracle_examples():
    assert orbit_multiplicity_oracle(SQ, 4, 2) == 1
    assert orbit_multiplicity_oracle(SQ, 2, 25) == 6
    assert orbit_multiplicity_oracle(HEX, 3, 3) == 2


def test_orbit_oracle_agreement_small():
    for lattice in (SQ, HEX):
        for order in lattice.rotation_orders:
            for n in range(0, 300):
                assert orbit_multiplicity(lattice, order, n) == orbit_multiplicity_oracle(
                    lattice, order, n
                ), (lattice, order, n)


def test_incompatible_rotation():
    with pytest.raises(IncompatibleRotation):
        orbit_multiplicity(SQ, 3, 1)
    with pytest.raises(IncompatibleRotation):
        orbit_multiplicity(HEX, 4, 1)
    with pytest.raises(IncompatibleRotation):
        SQ.rotation(6)


def test_orbifold_spectrum_values():
    s1 = orbifold_spectrum(OrbifoldId.S1, 10)
    assert s1.multiplicities.get(1, 0) == 4
    s4 = orbifold_spectrum(OrbifoldId.S4, 10)
    assert s4.multiplicities.get(0, 0) == 1 and s4.multiplicities.get(1, 0) == 1
    h3 = orbifold_spectrum(OrbifoldId.H3, 10)
    assert h3.multiplicities.get(1, 0) == 2
    # zero multiplicities are omitted but report as 0
    assert s1.multiplicities.get(3, 0) == 0
    assert 3 not in s1.multiplicities


def test_quotient_monotonicity():
    cutoff = 200
    sq = {oid: orbifold_spectrum(oid, cutoff) for oid in (OrbifoldId.S1, OrbifoldId.S2, OrbifoldId.S4)}
    hx = {
        oid: orbifold_spectrum(oid, cutoff)
        for oid in (OrbifoldId.H1, OrbifoldId.H2, OrbifoldId.H3, OrbifoldId.H6)
    }
    for n in range(cutoff + 1):
        assert (
            sq[OrbifoldId.S1].multiplicities.get(n, 0)
            >= sq[OrbifoldId.S2].multiplicities.get(n, 0)
            >= sq[OrbifoldId.S4].multiplicities.get(n, 0)
        )
        assert (
            hx[OrbifoldId.H1].multiplicities.get(n, 0)
            >= hx[OrbifoldId.H2].multiplicities.get(n, 0)
            >= hx[OrbifoldId.H3].multiplicities.get(n, 0)
            >= hx[OrbifoldId.H6].multiplicities.get(n, 0)
        )


def test_paper_relations_hold_small():
    for rel in ISOSPECTRAL_RELATIONS:
        ok, witness = verify_relation(rel, 500)
        assert ok, (str(rel), witness)


def test_relation_spot_values():
    # S1+2S4 = 3S2 at n=0: 1+2 = 3; at n=1: 4+2*1 = 3*2
    s1 = orbifold_spectrum(OrbifoldId.S1, 1)
    s2 = orbifold_spectrum(OrbifoldId.S2, 1)
    s4 = orbifold_spectrum(OrbifoldId.S4, 1)
    assert s1.multiplicities.get(0, 0) + 2 * s4.multiplicities.get(0, 0) == 3 * s2.multiplicities.get(0, 0) == 3
    assert s1.multiplicities.get(1, 0) + 2 * s4.multiplicities.get(1, 0) == 3 * s2.multiplicities.get(1, 0) == 6
    # H1+3H3 = 4H2 at n=1: 6+3*2 = 4*3
    h1 = orbifold_spectrum(OrbifoldId.H1, 1)
    h2 = orbifold_spectrum(OrbifoldId.H2, 1)
    h3 = orbifold_spectrum(OrbifoldId.H3, 1)
    assert h1.multiplicities.get(1, 0) + 3 * h3.multiplicities.get(1, 0) == 4 * h2.multiplicities.get(1, 0) == 12


def test_false_relation_witness():
    ok, witness = verify_relation(parse_relation("S1=S2"), 100)
    assert not ok
    assert witness.n == 1
    assert (witness.left_total, witness.right_total) == (4, 2)
    ok, witness = verify_relation(parse_relation("S1=S2+S4"), 100)
    assert not ok
    assert (witness.n, witness.left_total, witness.right_total) == (0, 1, 2)


def test_parse_relation_roundtrip():
    for text in ("S1+2S4=3S2", "H2+H6=2H3", "2H1+3H6=5H2"):
        rel = parse_relation(text)
        assert str(rel) == text
    rel = parse_relation(" s1 + 2*s4 = 3 s2 ".replace(" ", ""))
    assert str(rel) == "S1+2S4=3S2"


def test_malformed_relations():
    with pytest.raises(MalformedRelation):
        parse_relation("S1+H2=S2")
    with pytest.raises(MalformedRelation):
        parse_relation("S1")
    with pytest.raises(MalformedRelation):
        parse_relation("0S1=S2")
    with pytest.raises(MalformedRelation):
        parse_relation("S1=X9")
    with pytest.raises(MalformedRelation):
        SpectralRelation(left=(), right=((1, OrbifoldId.S1),))
    with pytest.raises(MalformedRelation) as exc:
        parse_relation("S1+=S2")
    assert (exc.type, str(exc.value)) == (MalformedRelation, "empty term in 'S1+=S2'")


def test_a_coefficient_is_read_from_decimal_digits():
    # "²" is a digit to str.isdigit but no int() literal: it starts the orbifold name
    with pytest.raises(MalformedRelation) as exc:
        parse_relation("²S1=S1")
    assert (exc.type, str(exc.value)) == (MalformedRelation, "unknown orbifold '²S1' in '²S1=S1'")
    assert str(parse_relation("٣S1=S1")) == "3S1=S1"  # a decimal digit of another script


@pytest.mark.parametrize("call, message", [
    (lambda: norm_census(SQ, -1), "max_norm must be >= 0, got -1"),
    (lambda: vectors_with_norm(SQ, -1), "norm must be >= 0, got -1"),
], ids=["norm_census", "vectors_with_norm"])
def test_negative_norms_are_refused(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert (exc.type, str(exc.value)) == (ValueError, message)


def test_relations_for_family():
    assert len(relations_for_family(SQ)) == 1
    assert len(relations_for_family(HEX)) == 5


# --- the relation check as array identities, against the per-n loop -------------


def oracle_verify_relation(rel, max_norm):
    """The relation check as a loop over every n, with the quotient rule per n."""
    def mult(count, order, n):
        if n == 0:
            return 1
        assert count % order == 0, (count, order, n)
        return count // order

    for n, count in enumerate(norm_census(rel.lattice, max_norm)):
        lhs = sum(c * mult(count, oid.order, n) for c, oid in rel.left)
        rhs = sum(c * mult(count, oid.order, n) for c, oid in rel.right)
        if lhs != rhs:
            return False, RelationWitness(n=n, left_total=lhs, right_total=rhs)
    return True, None


FAMILIES = {lattice: [oid for oid in OrbifoldId if oid.lattice is lattice] for lattice in (SQ, HEX)}


@st.composite
def relations(draw):
    """A random relation of one family, or a known one scaled and padded alike on
    both sides, so that true and false relations are both drawn."""
    if draw(st.booleans()):
        rel = draw(st.sampled_from(ISOSPECTRAL_RELATIONS))
        k = draw(st.integers(1, 5))
        pad = draw(st.lists(st.tuples(st.integers(1, 5), st.sampled_from(FAMILIES[rel.lattice])), max_size=1))
        return SpectralRelation(tuple((k * c, o) for c, o in rel.left) + tuple(pad),
                                tuple((k * c, o) for c, o in rel.right) + tuple(pad))
    family = FAMILIES[draw(st.sampled_from([SQ, HEX]))]
    side = st.lists(st.tuples(st.integers(1, 5), st.sampled_from(family)), min_size=1, max_size=3)
    return SpectralRelation(tuple(draw(side)), tuple(draw(side)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(relations(), st.integers(0, 2000))
@example(parse_relation("2S1+4S4+S2=6S2+S2"), 2000)  # true
@example(parse_relation("4H1+6H6+H3=10H2+H3"), 2000)  # true
@example(parse_relation("2S1+4S4=6S2+S4"), 300)  # false at n = 0
@example(parse_relation("H1+H6=H2+H3"), 0)  # true up to n = 0, false at n = 1
@example(parse_relation("99999999999999999999S1=S2"), 10)  # past int64
@example(SpectralRelation(((2**62, OrbifoldId.S1),) * 4, ((2**62, OrbifoldId.S1),) * 8), 10)  # equal mod 2^64
def test_verify_relation_matches_the_per_n_loop(rel, max_norm):
    assert verify_relation(rel, max_norm) == oracle_verify_relation(rel, max_norm)


@settings(max_examples=50, deadline=None)
@given(st.lists(relations(), max_size=5), st.integers(0, 500))
def test_verify_relations_matches_each_relation(rels, max_norm):
    rels += [parse_relation("99999999999999999999S1=S2")]  # its census turns to Python ints
    assert verify_relations(rels, max_norm) == [oracle_verify_relation(r, max_norm) for r in rels]


def test_verify_relations_counts_one_census_per_lattice(monkeypatch):
    counted = []

    def census(lattice, max_norm):
        counted.append(lattice)
        return norm_census_array(lattice, max_norm)

    norm_census_array = flat._census
    monkeypatch.setattr(flat, "_census", census)
    rels = list(ISOSPECTRAL_RELATIONS) + [parse_relation("S1=S2"), parse_relation("H1+H6=H2+H3")]
    verdicts = verify_relations(rels, 300)
    assert sorted(counted, key=str) == [HEX, SQ]
    assert [ok for ok, _ in verdicts] == [True] * 6 + [False, False]
    assert verdicts == [verify_relation(r, 300) for r in rels]


def test_quotient_mult_checks_divisibility():
    assert _quotient_mult(np.array([1, 4, 0, 8]), 4).tolist() == [1, 1, 0, 2]
    with pytest.raises(ArithmeticError, match="census 6 at n=2 not divisible by 4"):
        _quotient_mult(np.array([1, 4, 6]), 4)


def jacobi_census(lattice, max_norm):
    """r(n) = 4 * sum of chi_{-4}(d) (square) or 6 * sum of chi_{-3}(d) (hexagonal)
    over the divisors d of n.  Divisors up to sqrt(N) add to all their multiples;
    a larger divisor d has a cofactor m below sqrt(N), added for each m at once."""
    mod, w = (4, 4) if lattice is SQ else (3, 6)
    chi = np.zeros(max_norm + 1, dtype=np.int64)
    chi[1::mod], chi[mod - 1::mod] = 1, -1
    sums, root = np.zeros(max_norm + 1, dtype=np.int64), math.isqrt(max_norm)
    for d in range(1, root + 1):
        sums[d::d] += chi[d]
    for m in range(1, max_norm // (root + 1) + 1):
        d = np.arange(root + 1, max_norm // m + 1)
        sums[m * d] += chi[d]
    census = w * sums
    census[0] = 1
    return census.tolist()


def test_census_against_jacobi_divisor_sums():
    for lattice in (SQ, HEX):
        assert norm_census(lattice, 10**5) == jacobi_census(lattice, 10**5)


@pytest.mark.parametrize("lattice, max_norm", [
    (SQ, 63**2), (SQ, 64**2), (SQ, 127**2), (SQ, 128**2),  # 127, 129, 255 and 257 box rows
    (HEX, 3071), (HEX, 3072),  # 127 and 129 box rows
])
def test_census_across_a_band_edge(lattice, max_norm):
    assert norm_census(lattice, max_norm) == jacobi_census(lattice, max_norm)
    assert norm_census(lattice, max_norm - 1) == jacobi_census(lattice, max_norm - 1)
