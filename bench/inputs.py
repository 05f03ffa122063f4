"""Seeded inputs for the three workloads.

Everything here is plain Python data made from the workload seed: the
program under test receives only these inputs, and the independent
references in ``reference.py`` are computed from the same data.  Nothing
here imports isogeo.
"""

from __future__ import annotations

import math
import random
import sys

EXACT_QS = (2, 3, 5, 7, 10)
ODD_PRIMES = (3, 5, 7, 11, 13)
# math.cosh overflows above log(DBL_MAX); spectra reaching past it hit the
# documented OverflowError of the numeric Dirichlet tier.
LOG_DBL_MAX = math.log(sys.float_info.max)
TOLERANCE = 1e-9

# Benchmark sizes: each pass takes well under a second on a 2-core x86 VM,
# so that one run of a few tens of seconds holds enough passes for a tail.
SIZES = {
    "exact-suite": {
        # horizon per q (in multiples of log q) and its seeded extra;
        # q=10 reaches past n=308, where lengths exceed LOG_DBL_MAX
        "horizon": {2: 64, 3: 64, 5: 64, 7: 64, 10: 312},
        "horizon_jitter": 2,
        "oracle_n": {2: 11, 3: 7, 5: 5, 7: 4, 10: 3},
        "queries": 12,
        "max_norm": 3000,
        "max_norm_jitter": 20,
        "orbit_norms": 6,
        "cli_n": 64,
        "cli_max_norm": 1500,
        "cli_compare_n": 40,
    },
    "numeric-compare": {"clusters": 480, "queries": 12, "weight_queries": 16, "q_lengths": 6},
    "enumerate": {"max_word_length": 9, "cutoff": 14.0, "laws": 48, "queries": 12},
}

# Tiny sizes for the harness smoke test.  q=10 keeps a horizon past n=308
# so the documented overflow path still runs.
TINY = {
    "exact-suite": dict(
        SIZES["exact-suite"],
        horizon={2: 16, 3: 16, 5: 13, 7: 13, 10: 310},
        horizon_jitter=1,
        oracle_n={2: 6, 3: 4, 5: 3, 7: 2, 10: 2},
        queries=4,
        max_norm=300,
        max_norm_jitter=10,
        orbit_norms=2,
        cli_n=12,
        cli_max_norm=200,
        cli_compare_n=10,
    ),
    "numeric-compare": {"clusters": 30, "queries": 4, "weight_queries": 6, "q_lengths": 3},
    "enumerate": {"max_word_length": 5, "cutoff": 8.0, "laws": 6, "queries": 4},
}

# flat-verify families and the quotients whose spectra the CLI emits; the
# seed picks one, and digests.json holds the output digest of each
CLI_ORBIFOLDS = {"square": ("S1", "S2", "S4"), "hex": ("H1", "H2", "H3", "H6")}


def generate(workload: str, seed: int, sizes: dict | None = None) -> dict:
    """The inputs of one workload at one seed."""
    sizes = sizes or SIZES[workload]
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, sizes)


def _exact_suite(rng: random.Random, sz: dict) -> dict:
    qs = {}
    for q in EXACT_QS:
        h = sz["horizon"][q] + rng.randint(0, sz["horizon_jitter"])
        qs[q] = {
            "horizon": h,
            "oracle_n": list(range(1, sz["oracle_n"][q] + 1)),
            "query_n": sorted(rng.sample(range(1, h + 1), sz["queries"])),
            # the horizon itself is always sampled: past LOG_DBL_MAX for q=10
            "q_factor_n": sorted(rng.sample(range(1, h), 3)) + [h],
        }
    m = sz["max_norm"] + rng.randint(0, sz["max_norm_jitter"])
    family = rng.choice(sorted(CLI_ORBIFOLDS))
    return {
        "qs": qs,
        "s": [rng.uniform(1.5, 3.0), rng.uniform(0.0, 10.0)],
        "max_norm": m,
        "orbit_norms": sorted(rng.sample(range(0, m + 1), sz["orbit_norms"])),
        "cli_q": rng.choice(EXACT_QS),
        "cli_n": sz["cli_n"],
        "cli_family": family,
        "cli_orbifold": rng.choice(CLI_ORBIFOLDS[family]),
        "cli_max_norm": sz["cli_max_norm"],
        "cli_compare_n": sz["cli_compare_n"],
    }


def _numeric_entries(rng: random.Random, clusters: int) -> tuple[list, list]:
    """Entries [length, orientation, nu, multiplicity] over well separated
    clusters, and each cluster's [least length, number of links].  One
    cluster in twelve is a chain of three lengths 0.75*tol apart, whose ends
    are not within tol of each other, and one in twelve a chain of two; one
    length in three carries two geodesic types.  The counts are fixed, so
    every seed gives the same amount of work."""
    centres = sorted(rng.uniform(0.5, 12.0) for _ in range(clusters))
    for i in range(1, len(centres)):
        centres[i] = max(centres[i], centres[i - 1] + 1e-4)
    links = [3] * (clusters // 12) + [2] * (clusters // 12)
    links += [1] * (clusters - len(links))
    rng.shuffle(links)
    types = [2 if i % 3 == 0 else 1 for i in range(sum(links))]
    rng.shuffle(types)
    keys = [(o, nu) for o in ("preserving", "reversing") for nu in (1, 2, 3)]
    entries, layout, k = [], [], 0
    for c, n in zip(centres, links):
        layout.append([c, n])
        for j in range(n):
            for orientation, nu in rng.sample(keys, types[k]):
                entries.append([c + j * 0.75 * TOLERANCE, orientation, nu, rng.randint(1, 6)])
            k += 1
    return entries, layout


def _jittered(rng: random.Random, entries: list) -> list:
    """The same geodesic types with lengths moved by far less than tol, shuffled."""
    out = [[e[0] + rng.uniform(-1e-11, 1e-11), e[1], e[2], e[3]] for e in entries]
    rng.shuffle(out)
    return out


def _numeric_compare(rng: random.Random, sz: dict) -> dict:
    conj_a, layout = _numeric_entries(rng, sz["clusters"])
    pairs = {"conj": [conj_a, _jittered(rng, conj_a)]}
    # two pairs with one planted difference each: extra multiplicity on one
    # entry, or one entry's orientation flipped where that key is free
    for kind in ("multiplicity", "orientation"):
        a, _ = _numeric_entries(rng, sz["clusters"])
        b = _jittered(rng, a)
        while True:
            e = b[rng.randrange(len(b))]
            if kind == "multiplicity":
                e[3] += rng.randint(1, 3)
                break
            flipped = "reversing" if e[1] == "preserving" else "preserving"
            if not any(x[0] == e[0] and x[1] == flipped and x[2] == e[2] for x in b):
                e[1] = flipped
                break
        pairs[kind] = [a, b]

    n = sz["queries"]
    centres = [c for c, _ in layout]
    mids = [(centres[i] + centres[i + 1]) / 2 for i in range(len(centres) - 1)]
    long_chains = [c for c, links in layout if links == 3]
    plain = [c for c, links in layout if links < 3]
    k = min(len(long_chains), sz["weight_queries"] // 2)
    return {
        "horizon": 12.5,
        "pairs": pairs,
        "s": [rng.uniform(1.5, 3.0), rng.uniform(0.0, 8.0)],
        "jump_at": rng.sample(centres, n),
        "count_at": rng.sample(mids, n),
        "weight_at": sorted(rng.sample(long_chains, k) + rng.sample(plain, sz["weight_queries"] - k)),
        "q_factor_at": rng.sample(centres, sz["q_lengths"]),
        "rotation": rng.uniform(0.5, 2.5),
    }


def _sl2(rng: random.Random) -> list:
    """A seeded conjugator R(a) diag(k, 1/k) R(b) with k <= 1.5.  It is well
    conditioned on purpose: enumerate_geodesics raises ValueError from the
    Isometry determinant check when long words of badly conditioned
    generators are multiplied (a defect recorded for a later change)."""
    def rot(t):
        return [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
    k = rng.uniform(1.0, 1.5)
    return _mul(_mul(rot(rng.uniform(0, math.pi)), [[k, 0.0], [0.0, 1.0 / k]]),
                rot(rng.uniform(0, math.pi)))


def _mul(m: list, n: list) -> list:
    return [
        [m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]],
        [m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]],
    ]


def _inv(m: list) -> list:
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return [[m[1][1] / det, -m[0][1] / det], [-m[1][0] / det, m[0][0] / det]]


def _conjugate(m: list, gens: list) -> list:
    mi = _inv(m)
    return [_mul(_mul(m, g), mi) for g in gens]


def schottky_pair(rng: random.Random) -> list:
    """A hyperbolic A and a glide reflection B generating a Schottky group
    with disjoint axes.

    Ping-pong on the boundary line: A = diag(sqrt(rho), 1/sqrt(rho)) maps
    |x| > 1 into |x| > rho.  B = C G C^-1, where G = diag(mu, -1/mu) maps
    |x| > s into |x| > mu^2 s, and C sends
    0 and infinity to 1 < p_minus < p_plus < rho and maps |x| <= s and
    |x| >= mu^2 s into the intervals of radii r1 and r2 around them.  So
    B's two intervals lie side by side in the gap (1, rho) between A's: the
    group is free and discrete, the axes do not cross, and every
    non-trivial element is hyperbolic or a glide reflection.  B's length is
    about 2 log(gap / r).
    """
    r1, r2 = rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)
    p_minus = 1.0 + r1 + rng.uniform(0.2, 0.8)
    gap = rng.uniform(4.5, 6.0)
    p_plus = p_minus + gap
    rho = p_plus + r2 + rng.uniform(0.2, 0.8)
    d = 1.0 / gap
    conj = [[p_plus, p_minus * d], [1.0, d]]  # det = d*gap = 1
    s = d * r1 / (gap + r1)  # |C(x) - p_minus| <= r1 for |x| <= s
    sigma = (d + 1.0 / r2) / s  # |C(x) - p_plus| <= r2 for |x| >= sigma*s
    lam = math.sqrt(rho)
    mu = math.sqrt(sigma)
    a = [[lam, 0.0], [0.0, 1.0 / lam]]
    b = _conjugate(conj, [[[mu, 0.0], [0.0, -1.0 / mu]]])[0]
    # x -> x / sqrt(p_minus * p_plus) brings B's axis near i and keeps A's
    scale = (p_minus * p_plus) ** 0.25
    centred = _conjugate([[1.0 / scale, 0.0], [0.0, scale]], [a, b])
    return _conjugate(_sl2(rng), centred)


def _law_matrix(rng: random.Random, glide: bool) -> list:
    lam = rng.uniform(1.1, 3.5)
    g0 = [[lam, 0.0], [0.0, (-1 if glide else 1) / lam]]
    return _conjugate(_sl2(rng), [g0])[0]


def length_2x2(m: list) -> float:
    """Translation length as 2 log of the larger eigenvalue modulus."""
    (a, b), (c, d) = m
    det = a * d - b * c
    t = abs(a + d)
    disc = t * t - 4.0 if det > 0 else t * t + 4.0
    return 2.0 * math.log((t + math.sqrt(disc)) / 2.0)


def _short_word_lengths(rng: random.Random, gens: list, count: int, below: float) -> list:
    """A seeded sample of the distinct lengths below ``below`` of reduced
    words of one to three letters, for W(l) queries."""
    letters = {i: g for i, g in enumerate(gens, start=1)}
    letters.update({-i: _inv(g) for i, g in enumerate(gens, start=1)})
    lengths: list = []
    words = [[x] for x in letters]
    for _ in range(3):
        for word in words:
            m = letters[word[0]]
            for x in word[1:]:
                m = _mul(m, letters[x])
            l = length_2x2(m)
            if l < below and all(abs(l - y) > 1e-6 for y in lengths):
                lengths.append(l)
        words = [w + [x] for w in words for x in letters if x != -w[-1]]
    return sorted(rng.sample(lengths, min(count, len(lengths))))


def _enumerate(rng: random.Random, sz: dict) -> dict:
    gens = schottky_pair(rng)
    conjugated = _conjugate(_sl2(rng), gens)
    laws = [{"matrix": _law_matrix(rng, i % 2 == 1), "glide": i % 2 == 1,
             "k": rng.randint(2, 6)} for i in range(sz["laws"])]
    return {
        "generators": gens,
        "conjugated": conjugated,
        "max_word_length": sz["max_word_length"],
        "cutoff": sz["cutoff"],
        "laws": laws,
        "s": [rng.uniform(1.5, 3.0), rng.uniform(0.0, 8.0)],
        "weight_at": _short_word_lengths(rng, gens, sz["queries"], sz["cutoff"] - 0.5),
    }


GENERATORS = {
    "exact-suite": _exact_suite,
    "numeric-compare": _numeric_compare,
    "enumerate": _enumerate,
}
