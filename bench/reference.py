"""Independent answers for every verdict the workloads check.

Nothing here imports isogeo: necklace counts come from a separate Moebius
sum and a brute-force Lyndon-word count, the flat censuses from Jacobi's
divisor sums, Dirichlet sums and Q-factors from mpmath at 30 digits, the
numeric comparisons from the clusters the generator planted, and the
enumerated spectrum from an FKM necklace walk over the free group.  The
result is plain JSON data, computed once per run before any timed work.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

from inputs import EXACT_QS, LOG_DBL_MAX, ODD_PRIMES, TOLERANCE, length_2x2

mpmath.mp.dps = 30
# lengths of distinct clusters are at least 1e-4 apart and chains span
# below 2e-9, so splitting sorted lengths at 1e-6 recovers the clusters
CLUSTER_GAP = 1e-6


# --- necklaces and the scenario -------------------------------------------

def mobius_table(n: int) -> list:
    mu = [1] * (n + 1)
    is_prime = [True] * (n + 1)
    for p in range(2, n + 1):
        if is_prime[p]:
            for m in range(p, n + 1, p):
                if m > p:
                    is_prime[m] = False
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    return mu


def necklace_counts(q: int, horizon: int) -> list:
    """c_1..c_horizon, the aperiodic necklace counts, as a list indexed n-1."""
    mu = mobius_table(horizon)
    out = []
    for n in range(1, horizon + 1):
        total = sum(mu[n // d] * q**d for d in range(1, n + 1) if n % d == 0)
        out.append(total // n)
    return out


def lyndon_brute_force(q: int, n: int) -> int:
    """Strings over q symbols strictly smaller than each proper rotation."""
    count = 0
    for s in itertools.product(range(q), repeat=n):
        if all(s < s[i:] + s[:i] for i in range(1, n)):
            count += 1
    return count


def scenario_assignments(q: int, horizon: int, c: list) -> tuple[dict, dict]:
    a = {1: q - 1}
    b = {1: q + 1}
    if horizon >= 2:
        a[2] = 1
    for n in range(3, horizon + 1, 2):
        a[n] = b[n] = c[n - 1]
    return a, b


def scenario_spectra(horizon: int, a: dict, b: dict) -> tuple[list, list]:
    """The spectrum pair realising the discrepancies: each primitive with all
    its powers up to the horizon, even powers of reversing ones preserving.
    Entries are [n, orientation, nu, multiplicity], sorted."""
    first: dict = {}
    second: dict = {}

    def add(target, n, orientation, count):
        for k in range(1, horizon // n + 1):
            o = "preserving" if orientation == "reversing" and k % 2 == 0 else orientation
            key = (n * k, o, k)
            target[key] = target.get(key, 0) + count

    for n, v in a.items():
        add(first if v > 0 else second, n, "preserving", abs(v))
    for n, v in b.items():
        add(second if v > 0 else first, n, "reversing", abs(v))
    return ([[*k, m] for k, m in sorted(first.items())],
            [[*k, m] for k, m in sorted(second.items())])


# --- Dirichlet series and Q-factors ------------------------------------------

def _term(l, s):
    c = mpmath.cosh(l)
    return l * mpmath.sqrt(c / (c - 1)) * mpmath.power(c, -s)


def dirichlet_reference(terms: list, s: list) -> list:
    """[re, im, scale] of sum(w * term(l, s)) over (l, w) pairs; scale is the
    sum of |terms|, against which a float evaluation's error is measured."""
    z = mpmath.mpc(s[0], s[1])
    total = mpmath.mpc(0)
    scale = mpmath.mpf(0)
    for l, w in terms:
        t = w * _term(l, z)
        total += t
        scale += abs(t)
    return [float(total.real), float(total.imag), float(scale)]


def exact_weight(q: int, n: int, orientation: str, nu: int):
    """The weight of a geodesic of length n*log(q), exactly, as an mpf."""
    if orientation == "preserving":
        w = Fraction(1, nu)
    else:
        w = Fraction(q**n - 1, (q**n + 1) * nu)
    return mpmath.mpf(w.numerator) / w.denominator


def q_factor_reference(l: float, twist: list) -> float:
    """|det(I - (A + A^T)/(2 cosh l))|^(-(d-1)/2) at 30 digits."""
    a = mpmath.matrix(twist)
    k = a.rows
    sym = (a + a.T) / 2
    det = mpmath.det(mpmath.eye(k) - sym / mpmath.cosh(mpmath.mpf(l)))
    return float(abs(det) ** (-mpmath.mpf(k) / 2))


def rotation(theta: float) -> list:
    return [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]


# --- flat lattices --------------------------------------------------------------

def divisor_census(family: str, max_norm: int) -> list:
    """Number of lattice vectors of each norm: 4*sum chi_-4(d) for the square
    lattice (Jacobi), 6*sum chi_-3(d) for the hexagonal one, over d | n."""
    d = np.arange(max_norm + 1)
    chi = np.zeros(max_norm + 1, dtype=np.int64)
    if family == "square":
        chi[d % 4 == 1], chi[d % 4 == 3], factor = 1, -1, 4
    else:
        chi[d % 3 == 1], chi[d % 3 == 2], factor = 1, -1, 6
    r = np.zeros(max_norm + 1, dtype=np.int64)
    for k in range(1, max_norm + 1):
        if chi[k]:
            r[k::k] += chi[k]
    r *= factor
    r[0] = 1
    return [int(x) for x in r]


ROTATION_ORDERS = {"square": (1, 2, 4), "hex": (1, 2, 3, 6)}


# --- numeric spectra -------------------------------------------------------------

def numeric_weight(length: float, orientation: str, nu: int) -> float:
    return (1.0 if orientation == "preserving" else math.tanh(length / 2.0)) / nu


def clusters_of(items: list, gap: float = CLUSTER_GAP, length=lambda e: e[0]) -> list:
    """Items grouped by length, a new group wherever the sorted lengths jump
    by more than ``gap``; each group in ascending length order."""
    out: list = []
    prev = None
    for item in sorted(items, key=length):
        if prev is None or length(item) - prev > gap:
            out.append([])
        out[-1].append(item)
        prev = length(item)
    return out


def _numeric_pair(a: list, b: list) -> dict:
    groups = clusters_of([(e, 0) for e in a] + [(e, 1) for e in b], length=lambda t: t[0][0])
    weight_diffs, witness = [], None
    for g in groups:
        rep = g[0][0][0]
        w = [0.0, 0.0]
        buckets: dict = {}
        for e, side in g:
            w[side] += e[3] * numeric_weight(e[0], e[1], e[2])
            buckets.setdefault((e[1], e[2]), [0, 0])[side] += e[3]
        if abs(w[0] - w[1]) > 1e-6:
            weight_diffs.append([rep, w[0], w[1]])
        if witness is None:
            for (o, nu), (ma, mb) in sorted(buckets.items()):
                if ma != mb:
                    witness = [rep, o, nu, ma, mb]
                    break
    # discrepancy counts primitives only, chained at the tolerance among
    # themselves: a chain whose middle length has no primitive splits in two
    disc = []
    primitives = [(e, side) for e, side in sum(groups, []) if e[2] == 1]
    for g in clusters_of(primitives, TOLERANCE, length=lambda t: t[0][0]):
        count = {("preserving", 0): 0, ("preserving", 1): 0, ("reversing", 0): 0, ("reversing", 1): 0}
        for e, side in g:
            count[e[1], side] += e[3]
        da = count["preserving", 0] - count["preserving", 1]
        db = count["reversing", 1] - count["reversing", 0]
        if da or db:
            disc.append([g[0][0][0], da, db])
    return {"clusters": len(groups), "weight_diffs": weight_diffs, "witness": witness,
            "discrepancy": disc}


def numeric_single(entries: list, inp: dict) -> dict:
    """Counting-function, total-weight, Dirichlet and weights answers for one spectrum."""
    groups = clusters_of(entries)
    reps = [g[0][0] for g in groups]
    jumps = {g[0][0]: sum(e[3] for e in g) for g in groups}

    def weight_sum(es):
        return math.fsum(e[3] * numeric_weight(*e[:3]) for e in es)

    weight_q = []
    for x in inp["weight_at"]:
        g = next(g for g in groups if g[0][0] == x)
        weight_q.append([x, weight_sum(g), weight_sum(e for e in g if abs(e[0] - x) <= TOLERANCE)])
    cluster_w = [weight_sum(g) for g in groups]
    return {
        "total": sum(jumps.values()),
        "jump": [[x, jumps[x]] for x in inp["jump_at"]],
        "count_up_to": [[x, sum(j for r, j in jumps.items() if r <= x + TOLERANCE)]
                        for x in inp["count_at"]],
        "total_weight": weight_q,
        "weights": [[r, w] for r, w in zip(reps, cluster_w)],
        "dirichlet": dirichlet_reference(
            [(mpmath.mpf(e[0]), e[3] * mpmath.mpf(numeric_weight(*e[:3]))) for e in entries],
            inp["s"]),
        "dirichlet_grouped": dirichlet_reference(
            [(mpmath.mpf(r), mpmath.mpf(w)) for r, w in zip(reps, cluster_w)], inp["s"]),
    }


# --- the free group ----------------------------------------------------------------

def _necklaces(k: int, n: int):
    """FKM: necklaces of length n over range(k), each with its period."""
    a = [0] * (n + 1)

    def gen(t, p):
        if t > n:
            if n % p == 0:
                yield tuple(a[1:]), p
        else:
            a[t] = a[t - p]
            yield from gen(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                yield from gen(t + 1, t)

    yield from gen(1, 1)


def _inverse(m: list) -> list:
    (a, b), (c, d) = m
    det = a * d - b * c
    return [[d / det, -b / det], [-c / det, a / det]]


def enumeration_reference(generators: list, max_word_length: int, cutoff: float,
                          tol: float = TOLERANCE) -> list:
    """Spectrum of a Schottky group: one word per cyclic class (necklaces of
    reduced, cyclically reduced words), length 2 log of the larger
    eigenvalue modulus, nu the word's number of periods, entries grouped by
    (chained length cluster, orientation, nu) at the cluster's least length."""
    letters = []
    for i, g in enumerate(generators, start=1):
        letters += [(i, g), (-i, _inverse(g))]
    letters.sort()
    names = [x for x, _ in letters]
    mats = [np.array(m, dtype=float) for _, m in letters]
    records = []
    for n in range(1, max_word_length + 1):
        for word, period in _necklaces(len(names), n):
            w = [names[i] for i in word]
            if any(w[i] == -w[i + 1] for i in range(n - 1)) or (n > 1 and w[0] == -w[-1]):
                continue
            m = mats[word[0]]
            for i in word[1:]:
                m = m @ mats[i]
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            length = length_2x2(m.tolist())
            if length <= cutoff + tol:
                records.append((length, "preserving" if det > 0 else "reversing", n // period))
    records.sort()
    buckets: dict = {}
    cluster, prev = -1, None
    for length, orientation, nu in records:
        if prev is None or length - prev > tol:
            cluster += 1
        prev = length
        buckets.setdefault((cluster, orientation, nu), []).append(length)
    entries = [[min(ls), o, nu, len(ls)] for (_, o, nu), ls in buckets.items()]
    return sorted(entries, key=lambda e: (e[0], e[1], e[2]))


# --- per workload ------------------------------------------------------------------

def exact_suite(inp: dict) -> dict:
    qs = {}
    for q in EXACT_QS:
        d = inp["qs"][q]
        h = d["horizon"]
        c = necklace_counts(q, h)
        for n in d["oracle_n"]:
            if lyndon_brute_force(q, n) != c[n - 1]:
                raise ArithmeticError(f"brute force and Moebius sum disagree at q={q}, n={n}")
        a, b = scenario_assignments(q, h, c)
        first, second = scenario_spectra(h, a, b)
        jumps: dict = {}
        for n, _, _, m in first:
            jumps[n] = jumps.get(n, 0) + m
        cum = list(itertools.accumulate(jumps.get(n, 0) for n in range(h + 1)))
        dirichlet = {}
        for name, spec in (("first", first), ("second", second)):
            terms = [(n * mpmath.log(q), m * exact_weight(q, n, o, nu))
                     for n, o, nu, m in spec]
            dirichlet[name] = dirichlet_reference(terms, inp["s"])
        qs[q] = {
            "c": c,
            "a": sorted(a.items()),
            "b": sorted(b.items()),
            "first": first,
            "second": second,
            "total_first": cum[-1],
            "jump": [[n, jumps.get(n, 0)] for n in d["query_n"]],
            "count_up_to": [[n, cum[n]] for n in d["query_n"]],
            "forced": [[p, c[p - 1]] for p in ODD_PRIMES],
            "clusters": len({n for n, *_ in first + second}),
            "dirichlet": dirichlet,
            "overflow": max(n for n, *_ in first + second) * math.log(q) > LOG_DBL_MAX,
            "q_factor": [[n * math.log(q), q_factor_reference(n * math.log(q), [[1.0]])]
                         for n in d["q_factor_n"]],
        }
    m = inp["max_norm"]
    census = {f: divisor_census(f, m) for f in ("square", "hex")}
    orbits = []
    for f, orders in ROTATION_ORDERS.items():
        for k in orders:
            for n in inp["orbit_norms"]:
                orbits.append([f, k, n, 1 if n == 0 else census[f][n] // k])
    cq, cn = inp["cli_q"], inp["cli_n"]
    c = necklace_counts(cq, cn)
    a, b = scenario_assignments(cq, cn, c)
    rows = ["n,c_n,a,b,residual_num,residual_den"]
    rows += [f"{n},{c[n - 1]},{a.get(n, 0)},{b.get(n, 0)},0,1" for n in range(1, cn + 1)]
    return {"qs": {str(q): v for q, v in qs.items()}, "census": census, "orbits": orbits,
            "cli_scenario_csv": "\n".join(rows) + "\n"}


def numeric_compare(inp: dict) -> dict:
    pairs = {name: _numeric_pair(a, b) for name, (a, b) in inp["pairs"].items()}
    q_factors = []
    for l in inp["q_factor_at"]:
        for twist in ([[1.0]], [[-1.0]], rotation(inp["rotation"])):
            q_factors.append([l, twist, q_factor_reference(l, twist)])
    return {"pairs": pairs, "single": numeric_single(inp["pairs"]["conj"][0], inp),
            "q_factor": q_factors}


def enumerate_workload(inp: dict) -> dict:
    spectrum = enumeration_reference(inp["generators"], inp["max_word_length"], inp["cutoff"])
    weight_q = []
    for x in inp["weight_at"]:
        near = [e for e in spectrum if abs(e[0] - x) <= CLUSTER_GAP]
        weight_q.append([x, math.fsum(e[3] * numeric_weight(*e[:3]) for e in near)])
    terms = [(mpmath.mpf(e[0]), e[3] * mpmath.mpf(numeric_weight(*e[:3]))) for e in spectrum]
    laws = []
    for law in inp["laws"]:
        l = length_2x2(law["matrix"])
        laws.append({"length": l, "power_length": law["k"] * l,
                     "power_reversing": law["glide"] and law["k"] % 2 == 1})
    return {"spectrum": spectrum, "total_weight": weight_q,
            "dirichlet": dirichlet_reference(terms, inp["s"]), "laws": laws,
            "q_factor": [[x, q_factor_reference(x, [[1.0]])] for x in inp["weight_at"]]}


REFERENCES = {
    "exact-suite": exact_suite,
    "numeric-compare": numeric_compare,
    "enumerate": enumerate_workload,
}
