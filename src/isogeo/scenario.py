"""The explicit counterexample-scenario family and its exact verification.

Fix an integer q >= 2 and put all discrepancy mass on the grid of
multiples of l0 = log q, where tanh(n*l0/2) = (q**n - 1)/(q**n + 1) is an
exact rational.  The assignments

    a(l0) = q - 1,   b(l0) = q + 1,   a(2*l0) = 1,   b(2*l0) = 0,
    a(n*l0) = b(n*l0) = c_n   for odd n >= 3,
    a(n*l0) = b(n*l0) = 0     for even n >= 4,

with c_n the necklace count (1/n) * sum_{j|n} mu(n/j) q**j, satisfy the
weight-equality constraint system at every grid length.  The catch is the
growth: for odd n the values are asymptotic to q**n / n, which is what
rules the family out as an actual pair of surfaces.

Everything here is exact integer/rational arithmetic on the grid multiplier
n: a residual is one integer expression over n*(q**n + 1), and a spectrum
pair holds its grid lengths as integer key columns, with no Exact per
entry.  The necklace oracle, which enumerates the Lyndon words of length n
on the necklace walk of the word enumerator, is the independent
cross-check for c_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import Dict, List, NamedTuple, Tuple

from .errors import BeyondHorizon, TooLarge
from .hyperbolic import necklace_walk
from .lengths import ExactKeys, canonical_power_root, exact_float, int_column, keyed_exact
from .spectrum import DiscrepancyTable, LengthTwistSpectrum

ORACLE_CAP = 10**7


def mobius(n: int) -> int:
    """(-1)**k when n is a product of k distinct primes, 0 otherwise."""
    if n < 1:
        raise ValueError(f"mobius is defined on positive integers, got {n}")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def _divisors(n: int) -> List[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def necklace_count(q: int, n: int) -> int:
    """Number of aperiodic length-n cyclic strings over q symbols.

    Exact arbitrary-precision evaluation of (1/n) sum_{j|n} mu(n/j) q**j,
    with the integrality of the divisor sum enforced.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    if n < 1:
        raise ValueError(f"string length must be >= 1, got {n}")
    total = sum(mobius(n // j) * q**j for j in _divisors(n))
    if total % n != 0:
        raise ArithmeticError(f"divisor sum {total} not divisible by {n}")
    return total // n


def _grid_tables(q: int, h: int) -> Tuple[List[List[int]], List[int], List[int]]:
    """For every n <= h, indexed by n: the divisors of n (by _divisors), q**n
    and the necklace count c_n, with Mobius by mobius per n."""
    if q < 2:
        raise ValueError(f"alphabet size must be >= 2, got {q}")
    divisors = [[]] + [_divisors(n) for n in range(1, h + 1)]
    mu = [0] + [mobius(n) for n in range(1, h + 1)]
    powers = list(accumulate(repeat(q, h), mul, initial=1))
    counts = [0] * (h + 1)
    for n in range(1, h + 1):
        total = sum(mu[n // j] * powers[j] for j in divisors[n] if mu[n // j])
        if total % n != 0:
            raise ArithmeticError(f"divisor sum {total} not divisible by {n}")
        counts[n] = total // n
    return divisors, powers, counts


def necklace_count_oracle(q: int, n: int) -> int:
    """Necklace count by enumeration, refused above ORACLE_CAP = q**n strings.

    Walks the prenecklaces over the letters 1..q and counts the Lyndon
    words of length n (period n): exactly one aperiodic string per cyclic
    class.  Letter 0 is left out because the walk never puts a letter
    after its negative.
    """
    if n < 1:
        raise ValueError(f"string length must be >= 1, got {n}")
    if q**n > ORACLE_CAP:
        raise TooLarge(f"q**n = {q**n} exceeds enumeration cap {ORACLE_CAP}")
    for _, periods, _ in necklace_walk(range(1, q + 1), n):
        pass
    return int((periods == n).sum())


@dataclass(frozen=True)
class ScenarioSolution:
    """Discrepancy assignments on the log-q grid, up to n = horizon."""

    q: int
    horizon: int
    a: Dict[int, int]
    b: Dict[int, int]

    def a_at(self, n: int) -> int:
        return self.a.get(n, 0)

    def b_at(self, n: int) -> int:
        return self.b.get(n, 0)


def build_scenario(q: int, horizon: int) -> ScenarioSolution:
    """The explicit solution family, truncated at n = horizon."""
    if q < 2:
        raise ValueError(f"q must be >= 2, got {q}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    a: Dict[int, int] = {1: q - 1}
    b: Dict[int, int] = {1: q + 1}
    if horizon >= 2:
        a[2] = 1
    for n in range(3, horizon + 1, 2):
        c = necklace_count(q, n)
        a[n] = c
        b[n] = c
    return ScenarioSolution(q=q, horizon=horizon, a=a, b=b)


def verify_constraint(sol: ScenarioSolution, n: int) -> Fraction:
    """Exact residual of the weight-equality constraint at grid length n*l0.

    A geodesic of length n*l0 with imprimitivity k comes from a primitive
    of length (n/k)*l0, and its weight carries tanh of *its own* length,
    so the reversing side is damped by tanh(n*l0/2) for every odd k while
    even powers of reversing primitives count as preserving:

        sum_{k|n} (1/k) a(n/k)
          = tanh(n*l0/2) * sum_{k|n, k odd} (1/k) b(n/k)
            + sum_{k|n, k even} (1/k) b(n/k)

    Returns LHS - RHS as one integer expression over n*(q**n + 1), in
    lowest terms; 0 for every n <= horizon when sol came from
    build_scenario.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > sol.horizon:
        raise BeyondHorizon(f"n={n} exceeds scenario horizon {sol.horizon}")
    return Fraction(*_residual(sol.a, sol.b, n, _divisors(n), sol.q**n))


def _residual(a: Dict[int, int], b: Dict[int, int], n: int, divisors: List[int], Q: int) -> Tuple[int, int]:
    """verify_constraint's residual at n, given the divisors of n and Q = q**n, as
    (num, den) in lowest terms.  n times each side is an integer: A sums m*a(m)
    over the divisors m = n/k, O and E sum m*b(m) over odd and even k, and
    tanh(n*l0/2) = (Q-1)/(Q+1)."""
    A = O = E = 0
    for m in divisors:
        A += m * a.get(m, 0)
        if (n // m) % 2 == 1:
            O += m * b.get(m, 0)
        else:
            E += m * b.get(m, 0)
    num, den = (A - E) * (Q + 1) - (Q - 1) * O, n * (Q + 1)
    g = math.gcd(num, den)  # den > 0, so these are a Fraction's lowest terms
    return num // g, den // g


def asymptotic_ratio(q: int, n: int) -> Fraction:
    """c_n * n / q**n for odd n >= 3; tends to 1 as n grows."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"need odd n >= 3, got {n}")
    return Fraction(necklace_count(q, n) * n, q**n)


def to_discrepancy(sol: ScenarioSolution) -> DiscrepancyTable:
    """The scenario as a DiscrepancyTable keyed by exact grid lengths."""
    g, e = canonical_power_root(sol.q)  # one Exact per n, made from its key row (g, n*e, 1)
    grid = {n: keyed_exact(g, n * e, 1) for n in sol.a.keys() | sol.b.keys() | {sol.horizon}}
    a = {grid[n]: v for n, v in sol.a.items()}
    b = {grid[n]: v for n, v in sol.b.items()}
    return DiscrepancyTable(a, b, grid[sol.horizon])


def to_spectra(sol: ScenarioSolution) -> Tuple[LengthTwistSpectrum, LengthTwistSpectrum]:
    """Synthetic spectrum pair realizing the scenario's discrepancies.

    Positive a(n) becomes extra preserving primitives in the first
    spectrum, negative in the second; b(n) the same with the spectra
    swapped (matching the sign convention under which the second spectrum
    holds the extra reversing mass).  Powers of every added primitive are
    materialized up to the horizon, with even powers of reversing
    primitives flipped to preserving, so the pair's total weight
    functions agree at every grid length.  These spectra are synthetic:
    oriented multiplicities need not be even, so surface validation
    does not apply.  With q = g**e, g its canonical root, the grid length
    n*log(q) is the key row (g, n*e, 1) with its float from
    :func:`~isogeo.lengths.exact_float`, as Exact(q, n) holds it: the
    columns are built from ints, and no Exact is made.
    """
    h, (g, e) = sol.horizon, canonical_power_root(sol.q)
    approx = [exact_float(g, n * e) for n in range(1, h + 1)]
    # columns (approx, multiplier of log g, reversing, nu, multiplicity) of each spectrum
    sides = tuple(tuple([] for _ in range(5)) for _ in range(2))
    for reversing, values in ((False, sol.a), (True, sol.b)):
        for n, v in sorted(values.items()):
            powers = range(1, h // n + 1)  # empty for an n past the horizon
            if not powers:
                continue
            x, num, rev, nu, mult = sides[(v > 0) == reversing]
            x += approx[n - 1::n]
            num += range(n * e, h * e + 1, n * e)
            rev += [k % 2 for k in powers] if reversing else [0] * len(powers)
            nu += powers
            mult += [abs(v)] * len(powers)
    horizon = keyed_exact(g, h * e, 1)
    return tuple(LengthTwistSpectrum.from_columns(
        (x, ExactKeys(*map(int_column, ([g] * len(num), num, [1] * len(num)))), rev, nu, mult), horizon)
        for x, num, rev, nu, mult in sides)


class ScenarioRow(NamedTuple):
    """One grid length of the scenario report."""

    n: int
    c_n: int
    a: int
    b: int
    residual_num: int
    residual_den: int


def scenario_rows(sol: ScenarioSolution) -> List[ScenarioRow]:
    """Per-n table: necklace count, assignments, and constraint residual.

    Each row is necklace_count(q, n) and verify_constraint(sol, n), read
    from one divisor, Mobius and power table built for the whole horizon.
    """
    divisors, powers, counts = _grid_tables(sol.q, sol.horizon)
    a, b = sol.a, sol.b
    return [ScenarioRow(n, counts[n], a.get(n, 0), b.get(n, 0), *_residual(a, b, n, divisors[n], powers[n]))
            for n in range(1, sol.horizon + 1)]
