"""The discrete energy monoid, its norm, gapped validation and truncation.

The monoid G lives in [0, infinity) x Z, is given by finitely many generators
with positive energy, and automatically contains (0, 0).  The norm of a
nonzero element is

    max{ d : (lam, mu) = sum of d nonzero G-elements }  +  floor(lam),

with norm((0,0)) = 0.  It governs the A_{N,0} budget: a table at key
(k, lam, mu) is admitted at level N iff norm((lam, mu)) + k - 1 <= N.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import GappedViolationError, MonoidTooLargeError, NotInMonoidError
from .novikov import as_fraction

# Enumerating past this many elements of one monoid is refused.  The largest
# enumeration in the tests, demos and benchmark inputs has 2,001 elements
# (generator 1/1000 up to energy 2); the benchmark's largest has 121.
MAX_ELEMENTS = 100_000
# Norm-and-membership tables kept alive at once, one per distinct monoid.
CACHED_MONOIDS = 16
# (monoid, bound) element lists kept by monoid_elements.
CACHED_BOUNDS = 64
ZERO_KEY = (Fraction(0), 0)


@dataclass(frozen=True)
class EnergyMonoid:
    generators: tuple  # of (lam, mu), lam > 0 strictly, deduplicated, sorted

    @staticmethod
    def make(generators) -> "EnergyMonoid":
        gens = []
        for lam, mu in generators:
            lam, mu = as_fraction(lam), int(mu)
            if lam == 0:
                if mu != 0:
                    raise GappedViolationError(
                        f"generator (0, {mu}) breaks G ∩ ({{0}}×Z) = {{(0,0)}}"
                    )
                continue  # (0,0) is always present
            if lam < 0:
                raise GappedViolationError(f"generator energy {lam} < 0")
            gens.append((lam, mu))
        return EnergyMonoid(tuple(sorted(set(gens))))

    @property
    def lambda0(self):
        """Minimal positive generator energy; +inf for the trivial monoid."""
        return min((l for l, _ in self.generators), default=math.inf)

    def contains(self, key) -> bool:
        lam, mu = as_fraction(key[0]), int(key[1])
        if lam <= 0:
            return lam == 0 and mu == 0
        table = _table(self)
        table.grow(lam)
        return (lam, mu) in table.length

    def positive_energies(self, bound):
        """Distinct positive energies of monoid elements with lam <= bound."""
        return sorted({l for l, _ in monoid_elements(self, bound) if l > 0})


class _MonoidTable:
    """One monoid's elements with energy <= ``bound``, in ascending order.

    ``length`` maps each element to the maximal number of nonzero monoid
    elements summing to it, which is the norm without floor(lam); its keys
    are the membership set.  A sum of d nonzero elements refines to at least
    d generators, so the maximum over generator decompositions is the same
    number, and one ascending pass over the generators finds every length:

        length(x) = 1 + max{ length(x - g) : g a generator, x - g in G }.

    Growing to a larger bound appends the new elements; nothing already in
    the table is enumerated again.  The search runs on the integer lattice
    of energies scaled by the common denominator of the generators, so that
    an oversized request is refused quickly.
    """

    def __init__(self, generators):
        self.scale = math.lcm(*(l.denominator for l, _ in generators))
        self.steps = [(int(l * self.scale), m) for l, m in generators]
        self.reach = max((n for n, _ in self.steps), default=0)
        self.bound = Fraction(0)
        self.top = 0  # floor(bound * scale)
        self.elements = [ZERO_KEY]
        self.energies = [Fraction(0)]
        self.length = {ZERO_KEY: 0}

    def grow(self, bound):
        if bound <= self.bound:
            return
        top = math.floor(bound * self.scale)
        room = MAX_ELEMENTS - len(self.elements)
        # a new element x + g has x above self.top - reach, and so has every
        # predecessor x - g of a new element
        start = bisect_right(self.energies, Fraction(self.top - self.reach, self.scale))
        lengths = {(int(lam * self.scale), mu): self.length[lam, mu]
                   for lam, mu in self.elements[start:]}
        frontier = list(lengths)
        new = set()
        while frontier:
            found = []
            for n, mu in frontier:
                for gn, gm in self.steps:
                    cand = (n + gn, mu + gm)
                    if self.top < cand[0] <= top and cand not in new:
                        if len(new) == room:
                            raise MonoidTooLargeError(
                                f"the monoid has more than {MAX_ELEMENTS} elements "
                                f"with energy <= {bound}; refusing to enumerate them")
                        new.add(cand)
                        found.append(cand)
            frontier = found
        for n, mu in sorted(new):
            d = 1 + max(lengths.get((n - gn, mu - gm), -1) for gn, gm in self.steps)
            lengths[n, mu] = d
            lam = Fraction(n, self.scale)
            self.length[lam, mu] = d
            self.elements.append((lam, mu))
            self.energies.append(lam)
        self.bound, self.top = bound, top


@lru_cache(maxsize=CACHED_MONOIDS)
def _table(G: EnergyMonoid) -> _MonoidTable:
    """The shared table of every monoid equal to G."""
    return _MonoidTable(G.generators)


@lru_cache(maxsize=CACHED_BOUNDS)
def monoid_elements(G: EnergyMonoid, bound) -> tuple:
    """All monoid elements with energy <= bound, sorted; includes (0, 0).

    A prefix of G's table, which grows when a larger bound is asked for.
    """
    bound = as_fraction(bound)
    if bound < 0:
        raise ValueError("bound must be >= 0")
    table = _table(G)
    table.grow(bound)
    return tuple(table.elements[:bisect_right(table.energies, bound)])


def monoid_norm(G: EnergyMonoid, key) -> int:
    lam, mu = as_fraction(key[0]), int(key[1])
    table = _table(G)
    if lam >= 0:
        table.grow(lam)
    d = table.length.get((lam, mu))
    if d is None:
        raise NotInMonoidError(f"({lam}, {mu}) is not in the monoid")
    return d + math.floor(lam)


def budget_admits(G: EnergyMonoid, key, k: int, level: int) -> bool:
    return monoid_norm(G, key) + k - 1 <= level


@dataclass
class GappedReport:
    ok: bool
    failures: list

    def __str__(self):
        if self.ok:
            return "gapped: pass"
        return "gapped: FAIL\n" + "\n".join(f"  - {f}" for f in self.failures)


def validate_gapped(alg) -> GappedReport:
    """Check (i) keys lie in G, (ii) m_0^{0,0} = 0, (iii) degree shifts hold.

    (iii) is enforced at construction; re-checked here so that a report on
    hand-assembled data is complete.
    """
    from .gradedcore import _check_table_degrees  # cycle-free at call time

    failures = []
    for (k, lam, mu), table in alg.tables.items():
        if not alg.monoid.contains((lam, mu)):
            failures.append(f"(i) key (k={k}, lam={lam}, mu={mu}) is not in G")
        if (k, lam, mu) == (0, Fraction(0), 0) and table.entries:
            failures.append("(ii) m_0^{0,0} != 0")
        try:
            _check_table_degrees(table, alg.source, alg.target)
        except Exception as exc:  # DegreeError
            failures.append(f"(iii) {exc}")
    return GappedReport(not failures, failures)


def truncate_level(alg, level: int):
    """Keep exactly the tables with norm((lam, mu)) + k - 1 <= level."""
    kept = [
        t for (k, lam, mu), t in alg.tables.items()
        if budget_admits(alg.monoid, (lam, mu), k, level)
    ]
    return alg.with_tables(kept)
