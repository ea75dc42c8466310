from collections import Counter
from fractions import Fraction as F

import pytest

from ainfkit import (
    BarWord,
    EnergyMonoid,
    GradedSpace,
    NovikovElement,
    OperationSystem,
    OperationTable,
    bar_differential,
    bar_transport,
    check_homotopy,
    check_morphism,
    check_relations,
    compose_morphisms,
    identity_morphism,
    is_weak_homotopy_equiv,
    whisker_strict,
)
from ainfkit.errors import MalformedMorphismError
from conftest import (
    checked,
    heisenberg_algebra,
    random_curved_algebra,
    random_element,
    three_generator_algebra,
    two_generator_algebra,
)

E = F(3)
G = EnergyMonoid.make([(1, 0)])


def unit(flavor="nov0", cutoff=E):
    return NovikovElement.unit(flavor, cutoff)


# ---------------------------------------------------------------------------
# relations

def test_two_generator_fixture_passes():
    assert check_relations(two_generator_algebra(), 3).ok


def test_degree_violating_m0_rejected_upstream():
    space = GradedSpace.make([("x", 0), ("y", 1)])
    from ainfkit.errors import DegreeError
    bad = OperationTable(0, F(1), 0, "algebra", {(): {"x": F(1)}})
    with pytest.raises(DegreeError):
        OperationSystem.algebra(space, G, "nov0", E, [bad])


def brute_force_defect(alg, k, lam, mu):
    """Independent evaluator: iterate every basis tuple and every insertion."""
    from ainfkit.gapped import monoid_elements
    space = alg.source
    labels = list(space.labels)
    import itertools
    out = {}
    for tup in itertools.product(labels, repeat=k):
        acc = {}
        for lam2, mu2 in monoid_elements(alg.monoid, lam):
            lam1, mu1 = lam - lam2, mu - mu2
            if not alg.monoid.contains((lam1, mu1)):
                continue
            for k2 in range(0, k + 1):
                k1 = k - k2 + 1
                for i in range(1, k1 + 1):
                    block = tup[i - 1: i - 1 + k2]
                    inner = alg.q_apply(k2, lam2, mu2, block)
                    if not inner:
                        continue
                    sign = (-1) ** (sum(space.degree(l) for l in tup[: i - 1]) % 2)
                    for mid, c1 in inner.items():
                        outer_in = tup[: i - 1] + (mid,) + tup[i - 1 + k2:]
                        for out_label, c2 in alg.q_apply(k1, lam1, mu1, outer_in).items():
                            acc[out_label] = acc.get(out_label, F(0)) + sign * c1 * c2
        for out_label, c in acc.items():
            if c:
                out[(tup, out_label)] = c
    return out


def test_perturbed_structure_constant_fails_with_witness():
    # curvature u with d(u) = v breaks the k=0 relation: m_1(m_0) = v != 0
    space = GradedSpace.make([("u", 1), ("v", 2)])
    broken_tables = [
        OperationTable(1, F(0), 0, "algebra", {("u",): {"v": F(1)}}),
        OperationTable(0, F(1), 0, "algebra", {(): {"u": F(1)}}),
    ]
    broken = OperationSystem.algebra(space, G, "nov0", E, broken_tables)
    report = check_relations(broken, 3)
    assert not report.ok
    assert any(key == (0, F(1), 0) for _, key, _ in report.failures)
    # the independent brute-force evaluator agrees on every failing key
    for kind, (k, lam, mu), witness in report.failures:
        defect = brute_force_defect(broken, k, lam, mu)
        assert defect, (k, lam, mu)
        assert witness == min(defect.keys())


def test_random_defects_match_brute_force(rng):
    from ainfkit.gradedcore import relation_defect
    for _ in range(5):
        alg = random_curved_algebra(rng)
        from ainfkit.gapped import monoid_elements
        for lam, mu in monoid_elements(alg.monoid, alg.cutoff):
            for k in range(0, 3):
                assert relation_defect(alg, k, lam, mu) == \
                    brute_force_defect(alg, k, lam, mu)


# ---------------------------------------------------------------------------
# bar complex

def test_bar_differential_two_letters():
    alg = two_generator_algebra()
    w = BarWord(unit(), ("x", "x"))
    out = bar_differential(alg, w)
    # m_1(x) (x) x + (-1)^{deg x} x (x) m_1(x) + three m_0 insertions
    got = {bw.letters: bw.coeff for bw in out}
    assert got[("y", "x")] == unit()
    assert got[("x", "y")] == unit()  # deg x = 0, sign +
    t = NovikovElement.monomial(1, 1, 0, "nov0", E)
    assert got[("y", "x", "x")] == t
    assert got[("x", "y", "x")] == t
    assert got[("x", "x", "y")] == t


def test_bar_differential_empty_word():
    alg = two_generator_algebra()
    out = bar_differential(alg, BarWord(unit(), ()))
    assert len(out) == 1 and out[0].letters == ("y",)
    assert out[0].coeff == NovikovElement.monomial(1, 1, 0, "nov0", E)


def test_bar_differential_internal_sign():
    # with deg a odd the second insertion flips sign
    space = GradedSpace.make([("a", 1), ("b", 2)])
    d = OperationTable(1, F(0), 0, "algebra", {("a",): {"b": F(1)}})
    alg = OperationSystem.algebra(space, G, "nov0", E, [d])
    out = bar_differential(alg, BarWord(unit(), ("a", "a")))
    got = {bw.letters: bw.coeff for bw in out}
    assert got[("b", "a")] == unit()
    assert got[("a", "b")] == unit().scale(-1)


def _dbar_squared(alg, word):
    acc = {}
    for w1 in bar_differential(alg, word):
        for w2 in bar_differential(alg, w1):
            if w2.letters in acc:
                from ainfkit.novikov import nov_add
                acc[w2.letters] = nov_add(acc[w2.letters], w2.coeff)
            else:
                acc[w2.letters] = w2.coeff
    return {k: v for k, v in acc.items() if not v.is_zero()}


def test_dbar_squares_to_zero_on_checked_algebra(rng):
    for alg in (two_generator_algebra(), heisenberg_algebra(),
                random_curved_algebra(rng)):
        checked(alg)
        labels = list(alg.source.labels)
        for _ in range(6):
            word = tuple(rng.choice(labels) for _ in range(rng.randint(0, 3)))
            assert _dbar_squared(alg, BarWord(unit(alg.flavor, alg.cutoff), word)) == {}


def test_dbar_squared_detects_broken_relations():
    space = GradedSpace.make([("a", 0), ("b", 1), ("c", 2)])
    d = OperationTable(1, F(0), 0, "algebra", {("a",): {"b": F(1)}, ("b",): {"c": F(1)}})
    alg = OperationSystem.algebra(space, G, "nov0", E, [d])
    assert not check_relations(alg, 1).ok
    assert _dbar_squared(alg, BarWord(unit(), ("a",))) != {}


# ---------------------------------------------------------------------------
# morphisms

def test_identity_morphism_checks():
    alg = checked(two_generator_algebra())
    assert check_morphism(identity_morphism(alg), alg, alg, 3).ok


def test_f0_00_rejected():
    alg = two_generator_algebra()
    t = OperationTable(0, F(0), 0, "morphism", {(): {"x": F(1)}})
    f = OperationSystem.morphism(alg.source, alg.source, G, "nov0", E, [t])
    # the (0,0,0) table is nonzero: malformed
    with pytest.raises(MalformedMorphismError):
        check_morphism(f, alg, alg, 2)


def test_identity_between_different_products_fails_at_k2():
    space = GradedSpace.make([("p", -1)])
    t = OperationTable(2, F(0), 0, "algebra", {("p", "p"): {"p": F(1)}})
    a_with = OperationSystem.algebra(space, G, "nov0", E, [t])
    a_without = OperationSystem.algebra(space, G, "nov0", E, [])
    checked(a_with)
    f = identity_morphism(a_with)
    report = check_morphism(f, a_with, a_without, 3)
    assert not report.ok
    assert any(key[0] == 2 for _, key, _ in report.failures)


def test_compose_identity_and_strict():
    alg = checked(two_generator_algebra())
    ident = identity_morphism(alg)
    f = OperationSystem.morphism(
        alg.source, alg.source, G, "nov0", E,
        [OperationTable(1, F(0), 0, "morphism",
                        {("x",): {"x": F(2)}, ("y",): {"y": F(2)}}),
         OperationTable(2, F(1), 0, "morphism", {("x", "x"): {"x": F(1)}})])
    assert compose_morphisms(ident, f).tables.keys() == f.tables.keys()
    for key, t in compose_morphisms(ident, f).tables.items():
        assert t.entries == f.tables[key].entries
    g_strict = OperationSystem.morphism(
        alg.source, alg.source, G, "nov0", E,
        [OperationTable(1, F(0), 0, "morphism",
                        {("x",): {"x": F(3)}, ("y",): {"y": F(3)}})])
    gf = compose_morphisms(g_strict, g_strict)
    assert gf.table(1, F(0), 0).entries[("x",)] == {"x": F(9)}


def _random_morphism(rng, alg):
    """A random filtered morphism from alg to itself: the twist morphism of a
    random element composed with a strict scaling (valid by construction)."""
    from ainfkit import twist
    b = random_element(rng, alg)
    twisted = twist(alg, b)
    tables = [OperationTable(1, F(0), 0, "morphism",
                             {(l,): {l: F(1)} for l, _ in alg.source.basis})]
    if b:
        tables.append(OperationTable(
            0, min(v.terms[0][1] for v in b.values()), 0, "morphism", {}))
        # f_0 = b split into its keys
        by_key = {}
        for label, val in b.items():
            for c, lam, mu in val.terms:
                by_key.setdefault((lam, mu), {})[label] = c
        tables = [t for t in tables if t.k != 0]
        for (lam, mu), vec in by_key.items():
            tables.append(OperationTable(0, lam, mu, "morphism", {(): vec}))
    f = OperationSystem.morphism(alg.source, alg.source, twisted.monoid,
                                 alg.flavor, alg.cutoff, tables)
    return twisted, f


def test_twist_morphism_random(rng):
    for _ in range(4):
        alg = random_curved_algebra(rng)
        twisted, f = _random_morphism(rng, alg)
        src = OperationSystem.algebra(alg.source, twisted.monoid, alg.flavor,
                                      alg.cutoff, twisted.tables.values())
        tgt = OperationSystem.algebra(alg.source, twisted.monoid, alg.flavor,
                                      alg.cutoff, alg.tables.values())
        assert check_morphism(f, src, tgt, 3).ok


def test_compose_associative_mod_cutoff(rng):
    alg = checked(two_generator_algebra())
    twisted1, f = _random_morphism(rng, alg)
    twisted2, g = _random_morphism(rng, alg)
    twisted3, h = _random_morphism(rng, alg)
    # retag everything over a common monoid so compositions are defined
    monoid = EnergyMonoid.make(
        list(twisted1.monoid.generators) + list(twisted2.monoid.generators)
        + list(twisted3.monoid.generators))

    def retag(m):
        return OperationSystem.morphism(m.source, m.target, monoid, m.flavor,
                                        m.cutoff, m.tables.values())

    f, g, h = retag(f), retag(g), retag(h)
    left = compose_morphisms(compose_morphisms(h, g), f)
    right = compose_morphisms(h, compose_morphisms(g, f))
    keys = set(left.tables) | set(right.tables)
    for key in keys:
        ta, tb = left.tables.get(key), right.tables.get(key)
        assert (ta.entries if ta else {}) == (tb.entries if tb else {}), key


def test_bar_transport_intertwines_differentials(rng):
    alg = checked(two_generator_algebra())
    twisted, f = _random_morphism(rng, alg)
    src = OperationSystem.algebra(alg.source, f.monoid, alg.flavor, alg.cutoff,
                                  twisted.tables.values())
    tgt = OperationSystem.algebra(alg.source, f.monoid, alg.flavor, alg.cutoff,
                                  alg.tables.values())
    labels = list(alg.source.labels)
    for _ in range(5):
        word = BarWord(unit(), tuple(rng.choice(labels) for _ in range(rng.randint(1, 3))))
        lhs = {}
        for w in bar_transport(f, word):
            for w2 in bar_differential(tgt, w):
                _acc(lhs, w2)
        rhs = {}
        for w in bar_differential(src, word):
            for w2 in bar_transport(f, w):
                _acc(rhs, w2)
        assert {k: v for k, v in lhs.items() if not v.is_zero()} == \
            {k: v for k, v in rhs.items() if not v.is_zero()}


def _acc(store, word):
    from ainfkit.novikov import nov_add
    if word.letters in store:
        store[word.letters] = nov_add(store[word.letters], word.coeff)
    else:
        store[word.letters] = word.coeff


# ---------------------------------------------------------------------------
# homotopies

def test_zero_homotopy_verifies_f_to_itself(rng):
    alg = checked(two_generator_algebra())
    twisted, f = _random_morphism(rng, alg)
    src = OperationSystem.algebra(alg.source, f.monoid, alg.flavor, alg.cutoff,
                                  twisted.tables.values())
    tgt = OperationSystem.algebra(alg.source, f.monoid, alg.flavor, alg.cutoff,
                                  alg.tables.values())
    H = OperationSystem.homotopy(alg.source, alg.source, f.monoid, "nov0", E, [])
    assert check_homotopy(H, f, f, src, tgt, 3).ok


def test_classical_chain_homotopy():
    # complexes only: f_1 - g_1 = m_1 H_1 + H_1 m_1
    space = GradedSpace.make([("x", 0), ("y", 1)])
    d = OperationTable(1, F(0), 0, "algebra", {("x",): {"y": F(1)}})
    alg = OperationSystem.algebra(space, G, "nov0", E, [d])
    f = identity_morphism(alg)
    g = OperationSystem.morphism(space, space, G, "nov0", E, [])  # zero map
    # H(y) = x gives id - 0 = dH + Hd
    H = OperationSystem.homotopy(space, space, G, "nov0", E, [
        OperationTable(1, F(0), 0, "homotopy", {("y",): {"x": F(1)}})])
    assert check_homotopy(H, f, g, alg, alg, 3).ok
    # and the wrong sign fails
    H_bad = OperationSystem.homotopy(space, space, G, "nov0", E, [
        OperationTable(1, F(0), 0, "homotopy", {("y",): {"x": F(-1)}})])
    assert not check_homotopy(H_bad, f, g, alg, alg, 3).ok


def test_checks_index_producers_once_per_check(monkeypatch):
    """check_morphism and check_homotopy index each family's producers once,
    and still evaluate the public defect once per budgeted key."""
    from ainfkit import ainfty
    from ainfkit.gapped import _budgeted_keys
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_producers_of", "morphism_defect", "homotopy_defect"):
        monkeypatch.setattr(ainfty, name, counted(name, getattr(ainfty, name)))
    alg = heisenberg_algebra()
    f = identity_morphism(alg)
    keys = len(list(_budgeted_keys(alg.monoid, alg.cutoff, 3)))
    assert check_morphism(f, alg, alg, 3).ok
    assert calls == {"_producers_of": 1, "morphism_defect": keys}
    calls.clear()
    H = OperationSystem.homotopy(alg.source, alg.source, alg.monoid, alg.flavor,
                                 alg.cutoff, [])
    assert check_homotopy(H, f, f, alg, alg, 3).ok
    assert calls == {"_producers_of": 3, "homotopy_defect": keys}


def test_whiskering_strict():
    space = GradedSpace.make([("x", 0), ("y", 1)])
    d = OperationTable(1, F(0), 0, "algebra", {("x",): {"y": F(1)}})
    alg = OperationSystem.algebra(space, G, "nov0", E, [d])
    f = identity_morphism(alg)
    g = OperationSystem.morphism(space, space, G, "nov0", E, [])
    H = OperationSystem.homotopy(space, space, G, "nov0", E, [
        OperationTable(1, F(0), 0, "homotopy", {("y",): {"x": F(1)}})])
    h = OperationSystem.morphism(space, space, G, "nov0", E, [
        OperationTable(1, F(0), 0, "morphism",
                       {("x",): {"x": F(5)}, ("y",): {"y": F(5)}})])
    hf = compose_morphisms(h, f)
    hg = compose_morphisms(h, g)
    hH = whisker_strict(h, H)
    assert check_homotopy(hH, hf, hg, alg, alg, 3).ok


# ---------------------------------------------------------------------------
# weak homotopy equivalence

def test_wqe_identity_and_zero():
    alg = heisenberg_algebra()
    ok, cert = is_weak_homotopy_equiv(identity_morphism(alg), alg, alg)
    assert ok
    zero = OperationSystem.morphism(alg.source, alg.source, alg.monoid,
                                    alg.flavor, alg.cutoff, [])
    ok, cert = is_weak_homotopy_equiv(zero, alg, alg)
    assert not ok


def test_wqe_inclusion_of_representatives():
    from ainfkit import minimal_model
    alg = heisenberg_algebra()
    model, incl = minimal_model(alg, kmax=2)
    ok, cert = is_weak_homotopy_equiv(incl, model, alg)
    assert ok
    # rank certificate: per degree dim H agrees on both sides
    for _, h_a, h_b, rank in cert:
        assert h_a == h_b == rank


def test_key_00_restriction_is_the_unfiltered_relation(rng):
    # the (k, 0, 0) defect of a gapped algebra equals the defect of the
    # algebra keeping only the energy-zero tables
    from ainfkit.gradedcore import relation_defect
    for _ in range(4):
        alg = random_curved_algebra(rng, n_labels=4)
        zero_tables = [t for (k, lam, mu), t in alg.tables.items()
                       if (lam, mu) == (F(0), 0)]
        unfiltered = OperationSystem.algebra(alg.source, alg.monoid, alg.flavor,
                                             alg.cutoff, zero_tables)
        for k in range(0, 4):
            assert relation_defect(alg, k, F(0), 0) == \
                relation_defect(unfiltered, k, F(0), 0)


def test_transfer_generated_homotopy_verifies(rng):
    # H from a splitting is a homotopy id => i Pi on the bare complex level,
    # i.e. a generated instance accepted by the homotopy verifier
    from ainfkit import splitting
    from ainfkit.gradedcore import OperationTable as OT
    for _ in range(5):
        from conftest import random_complex
        alg = random_complex(rng, n_labels=6)
        split = splitting(alg)
        space = alg.source
        ipi = {}
        for a_label, _ in space.basis:
            acc = {}
            for b_label, q in split.project.get(a_label, {}).items():
                for t, q2 in split.include[b_label].items():
                    acc[t] = acc.get(t, F(0)) + q * q2
            acc = {t: c for t, c in acc.items() if c}
            if acc:
                ipi[(a_label,)] = acc
        f = identity_morphism(alg)
        g = OperationSystem.morphism(space, space, alg.monoid, alg.flavor,
                                     alg.cutoff,
                                     [OT(1, F(0), 0, "morphism", ipi)] if ipi else [])
        h_entries = {(l,): dict(v) for l, v in split.h.items()}
        H = OperationSystem.homotopy(space, space, alg.monoid, alg.flavor,
                                     alg.cutoff,
                                     [OT(1, F(0), 0, "homotopy", h_entries)]
                                     if h_entries else [])
        assert check_morphism(g, alg, alg, 2).ok
        assert check_homotopy(H, f, g, alg, alg, 2).ok


def test_filtered_homotopy_with_constant_block():
    # H_0 = T u connects the identity to g = (g_0 = -T v, id) on the complex
    # d(u) = v: the k=0 homotopy relation is f_0 - g_0 = n_1(H_0)
    space = GradedSpace.make([("u", -1), ("v", 0)])
    d = OperationTable(1, F(0), 0, "algebra", {("u",): {"v": F(1)}})
    alg = OperationSystem.algebra(space, G, "nov0", E, [d])
    f = identity_morphism(alg)
    g = OperationSystem.morphism(space, space, G, "nov0", E, [
        OperationTable(1, F(0), 0, "morphism",
                       {("u",): {"u": F(1)}, ("v",): {"v": F(1)}}),
        OperationTable(0, F(1), 0, "morphism", {(): {"v": F(-1)}})])
    assert check_morphism(g, alg, alg, 3).ok
    H = OperationSystem.homotopy(space, space, G, "nov0", E, [
        OperationTable(0, F(1), 0, "homotopy", {(): {"u": F(1)}})])
    assert check_homotopy(H, f, g, alg, alg, 3).ok
    # flipping the constant breaks it
    H_bad = OperationSystem.homotopy(space, space, G, "nov0", E, [
        OperationTable(0, F(1), 0, "homotopy", {(): {"u": F(-1)}})])
    assert not check_homotopy(H_bad, f, g, alg, alg, 3).ok
