import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit import (
    EnergyMonoid,
    NovikovElement,
    monoid_elements,
    monoid_norm,
    truncate_level,
    twist,
    validate_gapped,
)
from ainfkit import gapped
from ainfkit.errors import (
    AinfError,
    GappedViolationError,
    MonoidTooLargeError,
    NotInMonoidError,
)
from ainfkit.gapped import budget_admits
from conftest import two_generator_algebra


def test_monoid_elements_single_generator():
    G = EnergyMonoid.make([(1, 0)])
    assert monoid_elements(G, 3) == ((F(0), 0), (F(1), 0), (F(2), 0), (F(3), 0))


def test_monoid_elements_with_power():
    G = EnergyMonoid.make([(F(1, 2), 1)])
    assert monoid_elements(G, 1) == ((F(0), 0), (F(1, 2), 1), (F(1), 2))


def brute_force_elements(generators, bound):
    """Independent enumeration: sums of generator multiples up to the bound."""
    out = {(F(0), 0)}
    gens = [(F(l), m) for l, m in generators]
    max_counts = [int(bound / l) + 1 for l, _ in gens] or []
    for counts in itertools.product(*[range(c + 1) for c in max_counts]):
        lam = sum((c * g[0] for c, g in zip(counts, gens)), F(0))
        mu = sum(c * g[1] for c, g in zip(counts, gens))
        if lam <= bound:
            out.add((lam, mu))
    return tuple(sorted(out))


def test_monoid_elements_two_generators_vs_brute_force():
    gens = [(1, 0), (1, 1)]
    G = EnergyMonoid.make(gens)
    assert monoid_elements(G, 2) == brute_force_elements(gens, 2)
    assert monoid_elements(G, 2) == (
        (F(0), 0), (F(1), 0), (F(1), 1), (F(2), 0), (F(2), 1), (F(2), 2))


def test_gapped_violation_on_zero_energy_generator():
    with pytest.raises(GappedViolationError):
        EnergyMonoid.make([(0, 1)])
    # (0, 0) in the generator list is simply dropped
    assert EnergyMonoid.make([(0, 0), (1, 0)]).generators == ((F(1), 0),)


def brute_force_norm(generators, key):
    """Exhaustive decomposition search over all nonzero monoid elements.

    Memoized on subproblems but still independent of the library's DP: it
    enumerates every way of splitting off one nonzero element.
    """
    elems = set(brute_force_elements(generators, key[0])) - {(F(0), 0)}
    cache = {}

    def longest(x):
        if x in cache:
            return cache[x]
        best = 1
        for g in elems:
            rest = (x[0] - g[0], x[1] - g[1])
            if rest[0] > 0 and rest in elems:
                best = max(best, 1 + longest(rest))
        cache[x] = best
        return best

    import math
    return longest((F(key[0]), key[1])) + math.floor(key[0])


def test_norm_paper_values():
    G = EnergyMonoid.make([(1, 0)])
    assert monoid_norm(G, (0, 0)) == 0
    assert monoid_norm(G, (2, 0)) == 4  # max d = 2, floor = 2
    G2 = EnergyMonoid.make([(F(1, 2), 0)])
    assert monoid_norm(G2, (F(1, 2), 0)) == 1
    assert monoid_norm(G2, (1, 0)) == 3


def test_norm_membership_error():
    G = EnergyMonoid.make([(F(1, 2), 0)])
    with pytest.raises(NotInMonoidError):
        monoid_norm(G, (F(1, 3), 0))


def test_norm_against_exhaustive_oracle():
    rng = random.Random(7)
    pool = [F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2)]
    for _ in range(25):
        gens = [(rng.choice(pool), rng.randint(-1, 1))
                for _ in range(rng.randint(1, 3))]
        G = EnergyMonoid.make(gens)
        for key in monoid_elements(G, 4):
            if key == (F(0), 0):
                continue
            assert monoid_norm(G, key) == brute_force_norm(gens, key), (gens, key)


def test_norm_superadditive():
    rng = random.Random(13)
    pool = [F(1, 3), F(1, 2), F(1), F(2)]
    for _ in range(20):
        gens = [(rng.choice(pool), rng.randint(0, 1)) for _ in range(2)]
        G = EnergyMonoid.make(gens)
        elems = [e for e in monoid_elements(G, 2) if e != (F(0), 0)]
        for x in elems:
            for y in elems:
                s = (x[0] + y[0], x[1] + y[1])
                assert monoid_norm(G, s) >= monoid_norm(G, x) + monoid_norm(G, y)


def test_budget_coherence():
    G = EnergyMonoid.make([(F(1, 2), 0), (1, 1)])
    for key in monoid_elements(G, 3):
        for k in range(4):
            for level in range(8):
                if budget_admits(G, key, k, level):
                    assert budget_admits(G, key, k, level + 1)


def test_validate_gapped_passes_fixture():
    assert validate_gapped(two_generator_algebra()).ok


def test_validate_gapped_fails_off_monoid_key():
    from ainfkit import GradedSpace, OperationSystem, OperationTable
    G = EnergyMonoid.make([(F(1, 2), 0)])
    space = GradedSpace.make([("x", 0), ("y", 1)])
    t = OperationTable(1, F(1, 3), 0, "algebra", {("x",): {"y": F(1)}})
    with pytest.raises(NotInMonoidError):
        OperationSystem.algebra(space, G, "nov0", F(2), [t])


def test_validate_gapped_fails_nonzero_m0_00():
    from ainfkit import GradedSpace, OperationSystem, OperationTable
    G = EnergyMonoid.make([(1, 0)])
    space = GradedSpace.make([("y", 1)])
    t = OperationTable(0, F(0), 0, "algebra", {(): {"y": F(1)}})
    alg = OperationSystem.algebra(space, G, "nov0", F(2), [t])
    report = validate_gapped(alg)
    assert not report.ok and any("(ii)" in f for f in report.failures)


def test_truncate_level():
    alg = two_generator_algebra()
    # norms: (0,0) -> 0, (1,0) -> 2; so m_0^{1,0} needs level >= 1
    assert set(truncate_level(alg, 1).tables) == set(alg.tables)
    t0 = truncate_level(alg, 0)
    assert set(t0.tables) == {(1, F(0), 0)}
    # idempotence: truncating twice equals one-step truncation
    assert set(truncate_level(truncate_level(alg, 1), 0).tables) == set(t0.tables)


def test_norm_monotone_in_energy_for_mu_free_monoids():
    for gens in ([(F(1, 2), 0)], [(F(1, 3), 0), (F(1, 2), 0)], [(1, 0), (F(3, 2), 0)]):
        G = EnergyMonoid.make(gens)
        elems = [e for e in monoid_elements(G, 4) if e != (F(0), 0)]
        norms = [(lam, monoid_norm(G, (lam, mu))) for lam, mu in elems]
        norms.sort()
        for (l1, n1), (l2, n2) in zip(norms, norms[1:]):
            if l1 < l2:
                assert n1 <= n2, (gens, l1, l2)


# ---------------------------------------------------------------------------
# the norm-and-membership table against the paper's definitions

def bfs_elements(generators, bound):
    """Plain breadth-first closure of {(0, 0)} under adding generators."""
    seen = {(F(0), 0)}
    frontier = list(seen)
    while frontier:
        frontier = [(lam + gl, mu + gm) for lam, mu in frontier for gl, gm in generators
                    if lam + gl <= bound and (lam + gl, mu + gm) not in seen]
        seen.update(frontier)
    return seen


def definition_norms(elements):
    """norm(x) = max #nonzero monoid elements summing to x, plus floor(lam),
    by splitting off every nonzero element in turn (shared memo)."""
    nonzero = sorted(elements - {(F(0), 0)})
    longest = {}
    for x in nonzero:
        longest[x] = max([1] + [1 + longest[(x[0] - e[0], x[1] - e[1])] for e in nonzero
                                if e[0] < x[0] and (x[0] - e[0], x[1] - e[1]) in longest])
    norms = {x: d + math.floor(x[0]) for x, d in longest.items()}
    norms[(F(0), 0)] = 0
    return norms


small_generators = st.lists(
    st.tuples(st.builds(F, st.integers(1, 4), st.integers(1, 2)), st.integers(-2, 2)),
    min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(small_generators, st.integers(0, 8), st.integers(0, 8),
       st.tuples(st.builds(F, st.integers(0, 12), st.integers(1, 3)), st.integers(-3, 3)))
def test_norm_and_membership_match_definition(gens, half_cutoff, half_first, probe):
    G = EnergyMonoid.make(gens)
    cutoff = F(half_cutoff, 2)
    first = min(F(half_first, 2), cutoff)
    generators = [(F(l), m) for l, m in gens]
    # ask a smaller bound first, so the larger one grows the table
    assert monoid_elements(G, first) == tuple(sorted(bfs_elements(generators, first)))
    elements = bfs_elements(generators, cutoff)
    assert monoid_elements(G, cutoff) == tuple(sorted(elements))
    norms = definition_norms(elements)
    for key in elements:
        assert G.contains(key)
        assert monoid_norm(G, key) == norms[key], (gens, key)
    outsiders = {(lam, mu + 1) for lam, mu in elements} | {probe}
    for key in outsiders - elements:
        if key[0] > cutoff:
            continue
        assert not G.contains(key)
        with pytest.raises(NotInMonoidError):
            monoid_norm(G, key)


def test_oversized_monoid_is_refused_quickly():
    # about 5 * 10^7 elements below energy 10
    G = EnergyMonoid.make([(F(1, 1000), 0), (F(1, 997), 1)])
    assert issubclass(MonoidTooLargeError, AinfError)
    start = time.perf_counter()
    with pytest.raises(MonoidTooLargeError):
        monoid_elements(G, 10)
    with pytest.raises(MonoidTooLargeError):
        monoid_norm(G, (10, 0))
    assert time.perf_counter() - start < 1
    # a refused request leaves smaller bounds usable
    assert monoid_elements(G, F(1, 500)) == (
        (F(0), 0), (F(1, 1000), 0), (F(1, 997), 1), (F(1, 500), 0))


def test_gapped_caches_stay_bounded():
    base = two_generator_algebra()
    for i in range(200):
        lam = 1 + F(i + 1, 401)
        b = {"x": NovikovElement.make([(F(1), lam, 0)], base.flavor, base.cutoff)}
        twisted = twist(base, b)
        assert monoid_norm(twisted.monoid, (lam, 0)) == 2
        assert len(monoid_elements(twisted.monoid, twisted.cutoff)) > 4
    assert gapped._table.cache_info().currsize == gapped.CACHED_MONOIDS
    info = monoid_elements.cache_info()
    assert info.currsize <= info.maxsize
    # equal monoids share one table
    assert gapped._table(EnergyMonoid.make([(1, 0), (F(1, 2), 1)])) is \
        gapped._table(EnergyMonoid.make([(F(1, 2), 1), (1, 0)]))
