"""Seeded input generators and the three workload definitions.

Every input is a JSON document in the format the ``ainfkit`` CLI reads, built
here from plain Python (this module never imports ``ainfkit``), together with
the closed-form facts the benchmark checks the pipeline's output against.

Each workload runs its pipeline over a ladder of size classes.  A *round* is
``weight`` jobs of every class.  The weights put the overall median inside
one class, away from its edges.  They also give the largest class about
15-35 jobs in a 30-second run on the seed commit, so the tail percentile
(ten jobs beyond it) lands near the middle of that class, where an order
statistic moves least from seed to seed.
Instance ``i`` of a class is drawn from ``random.Random("<workload>:<seed>:
<class>:<i>")``, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

COEFFS = (1, -1, 2, -2, 3)


@dataclass(frozen=True)
class SizeClass:
    name: str
    size: int    # the ladder coordinate that scaling_exp regresses against
    weight: int  # jobs of this class per round
    params: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    ladder: tuple
    rounds: int  # pool size in rounds; a run longer than the pool starts over
    make: Callable  # (rng, params, index, seed) -> (document, oracle)

    def instances(self, seed: int):
        """Yield (job id, class name, document, oracle) for the whole pool,
        in run order: round by round, each round in ladder order."""
        for r in range(self.rounds):
            for cls in self.ladder:
                for j in range(cls.weight):
                    index = r * cls.weight + j
                    rng = random.Random(f"{self.name}:{seed}:{cls.name}:{index}")
                    doc, oracle = self.make(rng, cls.params, index, seed)
                    yield f"{cls.name}#{index}", cls.name, doc, oracle


def _term(coeff, lam, mu=0) -> str:
    return f"{coeff}*T^({lam})*e^({mu})"


def _entries(table):
    """{(inputs, output): coeff} -> the document's entry list, sorted."""
    return [{"inputs": list(i), "output": o, "coeff": str(c)}
            for (i, o), c in sorted(table.items()) if c]


# ---------------------------------------------------------------------------
# dense-basis: truncated free dgas T(a0..a_{r-1}) / (length > L)

def _word_label(word) -> str:
    return "u" if not word else "a" + ".".join(map(str, word))


def make_dense(rng, params, index, seed):
    """All letters sit in shifted degree 0 (degree 1 unshifted), the empty
    word is the unit, d a_{r-1} = a0 a1 extended as a derivation, and m2 is
    concatenation with the shifted sign (-1)^{deg' w1}.  r >= 3 keeps
    a_{r-1} out of {a0, a1}, so d(a0 a1) = 0 and d^2 = 0; r = 2 breaks it."""
    r, L = params
    if r < 3:
        raise ValueError("r >= 3 is needed for d^2 = 0")
    words = [w for n in range(L + 1) for w in itertools.product(range(r), repeat=n)]
    m1 = {}
    for w in words:
        sign = 1
        for pos, letter in enumerate(w):
            if letter == r - 1 and len(w) + 1 <= L:
                image = w[:pos] + (0, 1) + w[pos + 1:]
                key = ((_word_label(w),), _word_label(image))
                m1[key] = m1.get(key, 0) + sign
            sign = -sign
    m2 = {}
    for w1 in words:
        for w2 in words:
            if len(w1) + len(w2) <= L:
                sign = -1 if (len(w1) - 1) % 2 else 1
                m2[((_word_label(w1), _word_label(w2)), _word_label(w1 + w2))] = sign
    b0 = {_word_label((i,)): [_term(rng.choice(COEFFS), e) for e in (1, 2, 3)]
          for i in range(r)}
    doc = {
        "kind": "system", "flavor": "nov0", "cutoff": "3", "monoid": [["1", 0]],
        "basis": [[_word_label(w), len(w) - 1] for w in words], "role": "algebra",
        "tables": [{"k": 1, "lam": "0", "mu": 0, "entries": _entries(m1)},
                   {"k": 2, "lam": "0", "mu": 0, "entries": _entries(m2)}],
        "elements": {"b0": b0},
    }
    return doc, {}


# ---------------------------------------------------------------------------
# wide-monoid: 8-label square-zero complexes over {(1,0), (1/2,1)}

WIDE_DEGREES = (-4, -3, -2, -2, -1, 0, 0, 1)


def _wide_keys(cutoff):
    """Monoid elements (lam, mu), mu in {0, 1, 2}, 1 <= lam <= cutoff, other
    than the two generators."""
    keys = []
    for mu in (0, 1, 2):
        lam = F(mu, 2)
        while lam <= cutoff:
            if lam >= 1 and (lam, mu) not in ((1, 0), (F(1, 2), 1)):
                keys.append((lam, mu))
            lam += 1
    return keys


@functools.lru_cache(maxsize=None)
def _wide_key_triples(seed, cutoff, low):
    """Every 3-key set with at least one key above ``low`` (the previous
    class's cutoff), in a seeded order.  Twisting adds b0's keys as
    generators, so distinct sets give every job of the run its own monoid and
    cold ``gapped`` caches; the key above ``low`` keeps sets of different
    classes apart."""
    keys = _wide_keys(cutoff)
    triples = [t for t in itertools.combinations(keys, 3) if max(k[0] for k in t) > low]
    random.Random(f"wide-monoid-keys:{seed}:{cutoff}").shuffle(triples)
    return triples


def make_wide(rng, params, index, seed):
    """One pair d: -4 -> -3, one -2 -> -1 and one 0 -> 1 (random labels and
    coefficients); one label of degree -2 and one of degree 0 stay closed,
    so the cohomology has rank 2.  b0 has one term on each of three distinct
    non-generator keys, placed on a label of degree -2 mu."""
    cutoff, low = params
    labels = [f"x{i}" for i in range(len(WIDE_DEGREES))]
    degrees = list(WIDE_DEGREES)
    rng.shuffle(degrees)
    deg = dict(zip(labels, degrees))
    d = {}
    for src_deg in (-4, -2, 0):
        src = rng.choice([l for l in labels if deg[l] == src_deg])
        tgt = rng.choice([l for l in labels if deg[l] == src_deg + 1])
        d[((src,), tgt)] = rng.choice(COEFFS)
    triples = _wide_key_triples(seed, cutoff, low)
    b0 = {}
    for lam, mu in triples[index % len(triples)]:
        label = rng.choice([l for l in labels if deg[l] == -2 * mu])
        b0.setdefault(label, []).append(_term(rng.choice(COEFFS), lam, mu))
    doc = {
        "kind": "system", "flavor": "nov0", "cutoff": str(cutoff),
        "monoid": [["1", 0], ["1/2", 1]],
        "basis": [[l, deg[l]] for l in labels], "role": "algebra",
        "tables": [{"k": 1, "lam": "0", "mu": 0, "entries": _entries(d)}],
        "elements": {"b0": b0},
    }
    return doc, {}


# ---------------------------------------------------------------------------
# mc-hf: cy0 presentations, n = 3, sphere homology, P + P double-point pairs

MC_CUTOFF = F(3)
MC_SHIFTS = (F(1, 3), F(1, 2), F(2, 3))           # energies of phi0's superdiagonal
MC_TORSION = (F(1, 3), F(1, 2), F(2, 3), F(5, 6), F(1), F(7, 6), F(4, 3), F(3, 2))
MC_B0 = (F(1, 3), F(1, 2), F(2, 3), F(5, 6), F(1))


def _mc_block(rng, lams):
    """phi1^{-1} D phi0 with D = diag(c_i T^lam_i), phi0 = 1 + N0 and
    phi1 = 1 + N1 unipotent, N0 and N1 on the superdiagonal.  N1 is rational,
    so phi1^{-1}[i][j] is the product of -n_k for i <= k < j: a full upper
    triangle, and the block has P(P+1)/2 entries whatever the draw.  N0
    carries positive energies, which makes the change of basis genuinely
    Lambda_0-valued.  Rows are degree-1 positions, columns degree-0
    positions; the Smith valuations are the lam_i.  Returns {(row, col):
    {energy: coeff}}."""
    n = len(lams)
    diag = [F(rng.choice(COEFFS)) for _ in range(n)]
    n0 = [(rng.choice(MC_SHIFTS), F(rng.choice(COEFFS))) for _ in range(n - 1)]
    n1 = [F(rng.choice(COEFFS)) for _ in range(n - 1)]
    block = {}
    for c in range(n):
        inv = F(1)  # phi1^{-1}[r][c], walking r down from c
        for r in range(c, -1, -1):
            if r < c:
                inv *= -n1[r]
            poly = {lams[c]: inv * diag[c]}
            if c > 0 and r <= c - 1:
                # phi1^{-1}[r][c-1] = phi1^{-1}[r][c] / (-n1[c-1])
                shift, q = n0[c - 1]
                lam = lams[c - 1] + shift
                coeff = inv / -n1[c - 1] * diag[c - 1] * q
                poly[lam] = poly.get(lam, 0) + coeff
            block[(r, c)] = {l: q for l, q in poly.items() if q}
    return block


def make_mchf(rng, params, index, seed):
    """Block A (energy-0 matching, so H(m1^{0,0}) vanishes on it and the
    greedy solver always certifies) and block B (torsion T^lam_i, lam_i <=
    cutoff/2 so the half-cutoff stability recheck agrees), each conjugated by
    its own unipotent change of basis.  b0 sits on P/2 degree-0 generators
    of block A.  HF^2 torsion is block B's lam_i; HF^0 and HF^3 are the
    sphere's two free classes."""
    (P,) = params
    lams_b = [rng.choice(MC_TORSION) for _ in range(P)]
    points, tables = [], {}
    for tag, lams in (("A", [F(0)] * P), ("B", lams_b)):
        block = _mc_block(rng, lams)
        cols = rng.sample(range(P), P)  # position -> pair index, degree 0
        rows = rng.sample(range(P), P)  # position -> pair index, degree 1
        for i in range(P):
            points.append({"p_minus": f"{tag}{i}-", "p_plus": f"{tag}{i}+", "eta": 1})
            points.append({"p_minus": f"{tag}{i}+", "p_plus": f"{tag}{i}-", "eta": 2})
        for r in range(P):
            for c in range(P):
                for lam, q in block.get((r, c), {}).items():
                    src = f"{tag}{cols[c]}-:{tag}{cols[c]}+"
                    tgt = f"{tag}{rows[r]}+:{tag}{rows[r]}-"
                    tables.setdefault(lam, {})[((src,), tgt)] = q
    b0 = {f"A{i}-:A{i}+": [_term(rng.choice(COEFFS), rng.choice(MC_B0))]
          for i in sorted(rng.sample(range(P), P // 2))}
    doc = {
        "kind": "presentation", "flavor": "cy0", "cutoff": str(MC_CUTOFF),
        "monoid": [["1/2", 0], ["1/3", 0]], "ambient_dim": 3,
        "homology_ranks": {"0": 1, "3": 1}, "double_points": points,
        "tables": [{"k": 1, "lam": str(lam), "mu": 0, "entries": _entries(t)}
                   for lam, t in sorted(tables.items())],
        "elements": {"b0": b0},
    }
    oracle = {"torsion": sorted(str(l) for l in lams_b),
              "free": {"0": 1, "1": 0, "2": 0, "3": 1}}
    return doc, oracle


# ---------------------------------------------------------------------------

WORKLOADS = {
    "dense-basis": Workload(
        name="dense-basis",
        ladder=(SizeClass("r3L2", 13, 4, (3, 2)), SizeClass("r4L2", 21, 4, (4, 2)),
                SizeClass("r3L3", 40, 16, (3, 3)), SizeClass("r4L3", 85, 3, (4, 3))),
        rounds=2,
        make=make_dense,
    ),
    "wide-monoid": Workload(
        name="wide-monoid",
        ladder=(SizeClass("E4", 4, 1, (4, 0)), SizeClass("E6", 6, 1, (6, 4)),
                SizeClass("E8", 8, 2, (8, 6)), SizeClass("E10", 10, 2, (10, 8))),
        rounds=48,
        make=make_wide,
    ),
    "mc-hf": Workload(
        name="mc-hf",
        ladder=(SizeClass("P4", 4, 8, (4,)), SizeClass("P8", 8, 12, (8,)),
                SizeClass("P12", 12, 3, (12,))),
        rounds=10,
        make=make_mchf,
    ),
}
