import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit import (
    EnergyMonoid,
    GradedSpace,
    NovikovElement,
    OperationSystem,
    OperationTable,
    check_homotopy,
    check_morphism,
    check_relations,
    compose_morphisms,
    identity_morphism,
    is_weak_homotopy_equiv,
    minimal_model,
    splitting,
    twist,
    whisker_strict,
)
from ainfkit.errors import AinfError, DegreeError, MalformedMorphismError, NotInMonoidError
from ainfkit.ainfty import CheckReport, homotopy_defect, morphism_defect
from ainfkit.gapped import _budgeted_keys, monoid_elements
from ainfkit.gradedcore import (
    _add_scaled,
    _fill_slots,
    _nonzero,
    _producers_of,
    apply_operation,
    relation_defect,
    vec_add,
)
from ainfkit.novikov import nov_add
from conftest import (
    checked,
    heisenberg_algebra,
    random_complex,
    random_curved_algebra,
    random_element,
    random_operations,
    random_rich_algebra,
    three_generator_algebra,
    two_generator_algebra,
)

# every system the library builds unchecked is rebuilt through the public
# constructor (conftest.revalidate_built)
pytestmark = pytest.mark.usefixtures("revalidate_built")

E = F(3)
G = EnergyMonoid.make([(1, 0)])
MIXED = GradedSpace.make([("a", -1), ("b", 0), ("c", 0), ("d", 1), ("e", 2)])


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


def prefix_degree_sign(space: GradedSpace, labels) -> int:
    """(-1)^(sum of degrees of ``labels``)."""
    return -1 if sum(space.degree(l) for l in labels) % 2 else 1


def q_apply(sys, k, lam, mu, labels) -> dict:
    """One stored table applied to a basis tuple; {} if the table is absent."""
    t = sys.tables.get((k, lam, mu))
    return dict(t.entries.get(tuple(labels), {})) if t else {}


def nested(pair_keyed: dict) -> dict:
    """{(inputs, out): q} as the library's table form {inputs: {out: q}}."""
    out = {}
    for (inputs, out_label), q in pair_keyed.items():
        out.setdefault(inputs, {})[out_label] = q
    return out


def flipped(sys, key, inputs):
    """A copy of ``sys`` with one structure constant negated: the first
    output of entry ``inputs`` of the table at ``key``."""
    tables = {k: OperationTable(*k, t.role, {i: dict(o) for i, o in t.entries.items()})
              for k, t in sys.tables.items()}
    outs = tables[key].entries[inputs]
    out = min(outs)
    outs[out] = -outs[out]
    return sys.with_tables(tables.values())


def every_flip(sys):
    """``flipped`` at every stored entry of ``sys``."""
    return [flipped(sys, key, inputs)
            for key, t in sorted(sys.tables.items()) for inputs in sorted(t.entries)]


def brute_force_defect(alg, k, lam, mu):
    """Independent evaluator: iterate every basis tuple and every insertion."""
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
                    inner = q_apply(alg, k2, lam2, mu2, block)
                    if not inner:
                        continue
                    sign = (-1) ** (sum(space.degree(l) for l in tup[: i - 1]) % 2)
                    for mid, c1 in inner.items():
                        outer_in = tup[: i - 1] + (mid,) + tup[i - 1 + k2:]
                        for out_label, c2 in q_apply(alg, k1, lam1, mu1, outer_in).items():
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
    # valid algebras give empty defects; negating one structure constant of
    # the Heisenberg dga gives nonzero ones, which must agree entry by entry,
    # and so must those of random operations up to arity 3 (no relations)
    algebras = [random_curved_algebra(rng) for _ in range(5)]
    algebras += every_flip(heisenberg_algebra())
    algebras += [random_operations(rng, MIXED, G, "algebra") for _ in range(2)]
    nonzero = 0
    for alg in algebras:
        for lam, mu in monoid_elements(alg.monoid, alg.cutoff):
            for k in range(0, 4):
                defect = relation_defect(alg, k, lam, mu)
                assert defect == nested(brute_force_defect(alg, k, lam, mu))
                nonzero += bool(defect)
    assert nonzero >= 10


# ---------------------------------------------------------------------------
# bar complex: an oracle that enumerates insertions word by word, apart from
# the library's stitching (``gradedcore._fill_slots``)

@dataclass(frozen=True)
class BarWord:
    """Tensor word of basis labels with a Novikov coefficient."""

    coeff: NovikovElement
    letters: tuple

    def degree(self, space: GradedSpace) -> int:
        return sum(space.degree(l) for l in self.letters)


def _merge_words(words):
    acc = {}
    for w in words:
        if w.letters in acc:
            acc[w.letters] = nov_add(acc[w.letters], w.coeff)
        else:
            acc[w.letters] = w.coeff
    return [BarWord(c, ls) for ls, c in sorted(acc.items()) if not c.is_zero()]


def bar_differential(alg: OperationSystem, word: BarWord):
    """The coderivation d-bar on one word, as a merged list of words.

    Insertion of m_k at position l carries (-1)^(deg a_1 + ... + deg a_{l-1});
    on the empty word, d-bar gives the length-one word m_0.
    """
    out = []
    n = len(word.letters)
    for (k, lam, mu), table in alg.tables.items():
        for l in range(1, n - k + 2):
            block = word.letters[l - 1: l - 1 + k]
            outs = table.entries.get(block)
            if not outs:
                continue
            sign = prefix_degree_sign(alg.source, word.letters[: l - 1])
            scalar = word.coeff.shift(lam, mu).scale(sign)
            if scalar.is_zero():
                continue
            for out_label, q in outs.items():
                ww = word.letters[: l - 1] + (out_label,) + word.letters[l - 1 + k:]
                out.append(BarWord(scalar.scale(q), ww))
    return _merge_words(out)


def bar_transport(f: OperationSystem, word: BarWord):
    """The coalgebra morphism f-bar on one word: sum over block splittings
    (empty blocks insert f_0 letters), merged.  Truncation at the cutoff makes
    the f_0 insertions finite."""
    results = []

    def go(rest, letters_acc, coeff):
        if coeff.is_zero():
            return
        if not rest:
            results.append(BarWord(coeff, tuple(letters_acc)))
            # further trailing f_0 blocks
            _emit_empty(rest, letters_acc, coeff, trailing=True)
            return
        # empty block (f_0 insertion)
        _emit_empty(rest, letters_acc, coeff, trailing=False)
        # nonempty block
        for s in range(1, len(rest) + 1):
            block = tuple(rest[:s])
            for (kk, lam, mu), table in f.tables.items():
                if kk != s:
                    continue
                outs = table.entries.get(block)
                if not outs:
                    continue
                scalar = coeff.shift(lam, mu)
                for out_label, q in outs.items():
                    go(rest[s:], letters_acc + [out_label], scalar.scale(q))

    def _emit_empty(rest, letters_acc, coeff, trailing):
        for (kk, lam, mu), table in f.tables.items():
            if kk != 0:
                continue
            outs = table.entries.get(())
            if not outs:
                continue
            scalar = coeff.shift(lam, mu)
            if scalar.is_zero():
                continue
            for out_label, q in outs.items():
                if trailing:
                    results.append(BarWord(scalar.scale(q), tuple(letters_acc + [out_label])))
                    _emit_empty(rest, letters_acc + [out_label], scalar.scale(q), trailing=True)
                else:
                    go(rest, letters_acc + [out_label], scalar.scale(q))

    go(list(word.letters), [], word.coeff)
    return _merge_words(results)


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


def test_morphism_check_refuses_foreign_bases():
    # f runs from Heisenberg's basis to itself, not to B's basis
    heis, two = heisenberg_algebra(), two_generator_algebra()
    f = identity_morphism(heis)
    with pytest.raises(MalformedMorphismError):
        check_morphism(f, heis, two, 2)
    with pytest.raises(MalformedMorphismError):
        check_morphism(f, two, heis, 2)
    H = OperationSystem.homotopy(heis.source, heis.source, heis.monoid, heis.flavor,
                                 heis.cutoff, [])
    with pytest.raises(MalformedMorphismError):
        check_homotopy(H, f, f, heis, two, 2)
    g = identity_morphism(two)
    with pytest.raises(MalformedMorphismError):
        check_homotopy(H, f, g, heis, heis, 2)


def _f_words(f, tup, lam_left):
    """Every splitting of ``tup`` into blocks, empty ones included, with f
    applied to each block at a key of energy at most ``lam_left``: yields
    (output word, coefficient, energy, e-power)."""
    if not tup:
        yield (), 1, 0, 0
    for s in range(len(tup) + 1):
        for lam1, mu1 in monoid_elements(f.monoid, lam_left):
            if s == 0 and lam1 == 0:
                continue  # f_0 at energy zero: no such table in a morphism
            for label, c in q_apply(f, s, lam1, mu1, tup[:s]).items():
                for word, c2, lam2, mu2 in _f_words(f, tup[s:], lam_left - lam1):
                    yield (label,) + word, c * c2, lam1 + lam2, mu1 + mu2


def brute_force_morphism_defect(f, A, B, k, lam, mu):
    """Independent evaluator of the morphism relation: for every basis tuple,
    every insertion of m_A into f minus every block splitting through
    n_B(f(...), ..., f(...)), as {inputs: {out: q}}."""
    space = A.source
    out = {}
    for tup in itertools.product(space.labels, repeat=k):
        acc = {}
        for lam2, mu2 in monoid_elements(A.monoid, lam):
            for k2 in range(0, k + 1):
                k1 = k - k2 + 1
                for i in range(1, k1 + 1):
                    inner = q_apply(A, k2, lam2, mu2, tup[i - 1: i - 1 + k2])
                    sign = prefix_degree_sign(space, tup[: i - 1])
                    for mid, c1 in inner.items():
                        outer_in = tup[: i - 1] + (mid,) + tup[i - 1 + k2:]
                        for o, c2 in q_apply(f, k1, lam - lam2, mu - mu2, outer_in).items():
                            acc[o] = acc.get(o, 0) + sign * c1 * c2
        for word, c, lam1, mu1 in _f_words(f, tup, lam):
            for o, c2 in q_apply(B, len(word), lam - lam1, mu - mu1, word).items():
                acc[o] = acc.get(o, 0) - c * c2
        acc = {o: c for o, c in acc.items() if c}
        if acc:
            out[tup] = acc
    return out


def test_morphism_defects_match_brute_force(rng):
    # the inclusion of a minimal model, the identity and a twist morphism
    # (with f_0 = b) give empty defects; negating one of their structure
    # constants gives nonzero ones
    alg = heisenberg_algebra()
    model, incl = minimal_model(alg, kmax=3)
    base = checked(two_generator_algebra())
    twisted, f_b = _random_morphism(rng, base)
    src = OperationSystem.algebra(base.source, twisted.monoid, base.flavor, base.cutoff,
                                  twisted.tables.values())
    tgt = OperationSystem.algebra(base.source, twisted.monoid, base.flavor, base.cutoff,
                                  base.tables.values())
    cases = [(f, model, alg) for f in [incl] + every_flip(incl)]
    cases += [(f, alg, alg) for f in [identity_morphism(alg)] + every_flip(identity_morphism(alg))]
    cases += [(f, src, tgt) for f in [f_b] + every_flip(f_b)]
    A, B = (random_operations(rng, MIXED, G, "algebra", draws=12) for _ in range(2))
    cases += [(random_operations(rng, MIXED, G, "morphism", draws=12), A, B) for _ in range(2)]
    nonzero = 0
    for f, A, B in cases:
        for lam, mu in monoid_elements(f.monoid, f.cutoff):
            for k in range(0, 4):
                defect = morphism_defect(f, A, B, k, lam, mu)
                assert defect == brute_force_morphism_defect(f, A, B, k, lam, mu)
                nonzero += bool(defect)
    assert nonzero >= 10


def test_the_oracle_rejects_what_the_constructor_rejects(revalidate_built):
    alg = heisenberg_algebra()
    ring = (alg.source, alg.target, alg.monoid, alg.flavor, alg.cutoff, "algebra")
    with pytest.raises(NotInMonoidError):
        OperationSystem._built(*ring, {(2, F(1, 2), 0): {("e1", "e2"): {"e12": 1}}})
    with pytest.raises(DegreeError):
        OperationSystem._built(*ring, {(1, F(0), 0): {("e1",): {"e1": 1}}})
    # the identities and their composite are all rebuilt
    compose_morphisms(identity_morphism(alg), identity_morphism(alg))
    assert [f.role for f in revalidate_built] == ["morphism"] * 3


def test_unchecked_builders_refuse_the_wrong_role():
    # their output is valid by construction only from inputs of the right role
    alg = two_generator_algebra()
    f = identity_morphism(alg)
    for build in (lambda: twist(f, {}), lambda: minimal_model(f, kmax=2),
                  lambda: compose_morphisms(alg, f), lambda: compose_morphisms(f, alg)):
        with pytest.raises(AinfError, match="needs an algebra|only morphisms compose"):
            build()


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


def _splits(n, r):
    """Every cut of n inputs into r consecutive blocks, empty ones included,
    as the tuple of block lengths."""
    if r == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in _splits(n - first, r - 1):
            yield (first, *rest)


def brute_force_compose(g, f, labels):
    """(g o f) on the basis vectors ``labels`` by ``apply_operation``: the
    sum over g's arities r and the cuts of ``labels`` into r blocks, empty
    blocks (f_0) included, of g_r(f(block_1), ..., f(block_r))."""
    basis = [{l: unit(f.flavor, f.cutoff)} for l in labels]
    total = {}
    for r in sorted({k for k, _, _ in g.tables}):
        for lengths in _splits(len(labels), r):
            slots, start = [], 0
            for length in lengths:
                slots.append(apply_operation(f, length, basis[start:start + length]))
                start += length
            total = vec_add(total, apply_operation(g, r, slots))
    return total


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([((1, 0),), ((1, 0), (F(1, 2), 1)), ((F(1, 2), 0),)]))
def test_compose_matches_block_splittings(seed, generators):
    # random morphisms with f_0 and arity-2 components, composed on every
    # input tuple of basis vectors up to the largest arity of g o f
    rng = random.Random(seed)
    monoid = EnergyMonoid.make(generators)
    f, g = (random_operations(rng, MIXED, monoid, "morphism", cutoff=F(2), draws=10,
                              kmax=2) for _ in range(2))
    gf = compose_morphisms(g, f)
    for k in range(5):
        for labels in itertools.product(MIXED.labels, repeat=k):
            basis = [{l: unit("nov0", F(2))} for l in labels]
            assert apply_operation(gf, k, basis) == brute_force_compose(g, f, labels)


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
    """Each check indexes each family's producers once and walks each stored
    entry of B once per H-slot position (once for a morphism), however many
    budgeted keys it checks."""
    from ainfkit import ainfty, gradedcore
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((ainfty, "_producers_of"), (gradedcore, "_fill_slots")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    alg = heisenberg_algebra()
    f = identity_morphism(alg)
    entries = sum(len(t.entries) for t in alg.tables.values())
    slots = sum(len(t.entries) * t.k for t in alg.tables.values())
    assert check_relations(alg, 3).ok
    assert calls == {"_producers_of": 1}
    calls.clear()
    assert check_morphism(f, alg, alg, 3).ok
    assert calls["_producers_of"] == 2 and 0 < calls["_fill_slots"] <= entries
    calls.clear()
    H = OperationSystem.homotopy(alg.source, alg.source, alg.monoid, alg.flavor,
                                 alg.cutoff, [OperationTable(1, 0, 0, "homotopy", {
                                     (l,): dict(v) for l, v in splitting(alg).h.items()})])
    check_homotopy(H, f, f, alg, alg, 3)
    assert calls["_producers_of"] == 4 and 0 < calls["_fill_slots"] <= slots


# ---------------------------------------------------------------------------
# the checks against the per-key loop: every budgeted key stitched on its own

def per_key_insertion_sum(out, outer, inner, producers, k, key, coeff=1):
    """out += coeff * the insertion sum at the one key (k, *key): each outer
    table fixes the one inner key that completes it."""
    lam, mu = key
    degree = inner.source.degree
    for (k1, lam1, mu1), outer_t in outer.tables.items():
        inner_key = (k - k1 + 1, lam - lam1, mu - mu1)
        if inner_key not in inner.tables:
            continue
        for in_outer, out_outer in outer_t.entries.items():
            sign = coeff
            for i, slot_label in enumerate(in_outer):
                groups = producers.get(slot_label)
                blocks = groups.get(inner_key) if groups else None
                if blocks:
                    prefix, suffix = in_outer[:i], in_outer[i + 1:]
                    for in_inner, q_in in blocks:
                        _add_scaled(out.setdefault(prefix + in_inner + suffix, {}),
                                    out_outer, sign * q_in)
                if degree(slot_label) % 2:
                    sign = -sign
    return out


def per_key_block_sum(out, n_alg, families_for_slot, k, key, coeff=1):
    """out += coeff * the block sum at the one key (k, *key), through the
    fillings that sum to exactly the rest of the key."""
    lam, mu = key
    for (r, lam0, mu0), table in n_alg.tables.items():
        rest = (k, lam - lam0, mu - mu0)
        if rest[1] < 0:
            continue
        for slot_indexes in families_for_slot(r):
            for in_labels, outs in table.entries.items():
                specs = [index.get(l) for index, l in zip(slot_indexes, in_labels)]
                if not all(specs):
                    continue
                for fill_key, inputs, c in _fill_slots(specs, k, rest[1]):
                    if fill_key == rest:
                        _add_scaled(out.setdefault(inputs, {}), outs, coeff * c)
    return out


def per_key_report(kind, fam, level, defect_at):
    """The report of evaluating ``defect_at(k, lam, mu)`` key by key."""
    failures = []
    for k, (lam, mu) in sorted(_budgeted_keys(fam.monoid, fam.cutoff, level)):
        defect = _nonzero(defect_at(k, lam, mu))
        if defect:
            inputs = min(defect)
            failures.append((kind, (k, lam, mu), (inputs, min(defect[inputs]))))
    return CheckReport(not failures, failures, note=f"level {level}")


def per_key_relation_defect(alg):
    prod = _producers_of(alg)
    return lambda k, lam, mu: per_key_insertion_sum({}, alg, alg, prod, k, (lam, mu))


def per_key_morphism_defect(f, A, B):
    f_prod, a_prod = _producers_of(f), _producers_of(A)

    def defect(k, lam, mu):
        out = per_key_insertion_sum({}, f, A, a_prod, k, (lam, mu))
        return per_key_block_sum(out, B, lambda r: [[f_prod] * r], k, (lam, mu), -1)

    return defect


def per_key_homotopy_defect(H, f, g, A, B):
    f_prod, g_prod, h_prod, a_prod = map(_producers_of, (f, g, H, A))

    def families(r):
        for t in range(r):
            yield [f_prod] * t + [h_prod] + [g_prod] * (r - 1 - t)

    def defect(k, lam, mu):
        out = {}
        for fam, sign in ((f, 1), (g, -1)):
            t = fam.table(k, lam, mu)
            if t is not None:
                for inputs, outs in t.entries.items():
                    _add_scaled(out.setdefault(inputs, {}), outs, sign)
        per_key_block_sum(out, B, families, k, (lam, mu), -1)
        return per_key_insertion_sum(out, H, A, a_prod, k, (lam, mu), -1)

    return defect


def random_flip(rng, sys):
    """``sys`` with one random structure constant negated (``sys`` if empty)."""
    entries = [(key, inputs) for key, t in sorted(sys.tables.items())
               for inputs in sorted(t.entries)]
    return flipped(sys, *rng.choice(entries)) if entries else sys


@st.composite
def check_cases(draw):
    """(kind, arguments) of one check: an algebra (random operations with
    curvature, a valid curved algebra, a twisted minimal model), the
    inclusion of a twisted model, a twist morphism or random operations
    between random algebras, or a homotopy built from a splitting or drawn
    at random; each perhaps with one constant negated."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["relation", "morphism", "homotopy"]))
    flip = draw(st.booleans())
    generators = draw(st.sampled_from([((1, 0),), ((1, 0), (F(1, 2), 1)), ((F(1, 2), 0),)]))
    monoid = EnergyMonoid.make(generators)
    if kind == "relation":
        alg = draw(st.sampled_from([
            lambda: random_operations(rng, MIXED, monoid, "algebra", draws=20),
            lambda: random_curved_algebra(rng, n_labels=5, degree_span=(-2, 2),
                                          generators=generators),
            lambda: random_rich_algebra(rng, kmax=3)]))()
        return kind, (random_flip(rng, alg) if flip else alg,)
    if kind == "morphism":
        source = draw(st.sampled_from(["model", "twist", "operations"]))
        if source == "model":
            B = random_curved_algebra(rng, n_labels=5, degree_span=(-2, 2),
                                      generators=generators)
            A, f = minimal_model(B, kmax=3)
        elif source == "twist":
            base = checked(two_generator_algebra())
            twisted, f = _random_morphism(rng, base)
            A, B = (OperationSystem.algebra(base.source, twisted.monoid, base.flavor,
                                            base.cutoff, t.tables.values())
                    for t in (twisted, base))
        else:
            A, B = (random_operations(rng, MIXED, monoid, "algebra", draws=12)
                    for _ in range(2))
            f = random_operations(rng, MIXED, monoid, "morphism", draws=12)
        return kind, (random_flip(rng, f) if flip else f, A, B)
    alg = random_complex(rng, n_labels=5, generators=generators)
    if draw(st.booleans()):
        split = splitting(alg)
        H = OperationSystem.homotopy(alg.source, alg.source, alg.monoid, alg.flavor,
                                     alg.cutoff, [OperationTable(1, 0, 0, "homotopy", {
                                         (l,): dict(v) for l, v in split.h.items()})])
    else:
        H = random_operations(rng, alg.source, alg.monoid, "homotopy", draws=10)
    f = identity_morphism(alg)
    g = random_operations(rng, alg.source, alg.monoid, "morphism", draws=6)
    return kind, (random_flip(rng, H) if flip else H, f, g, alg, alg)


@settings(max_examples=80, deadline=None)
@given(check_cases(), st.integers(0, 3))
def test_checks_match_the_per_key_loop(case, level):
    # the one-pass check gives the per-key loop's report, and the public
    # per-key defect (the same kernels at a one-key set) its defect tables
    kind, args = case
    check, defect, oracle = {
        "relation": (check_relations, relation_defect, per_key_relation_defect),
        "morphism": (check_morphism, morphism_defect, per_key_morphism_defect),
        "homotopy": (check_homotopy, homotopy_defect, per_key_homotopy_defect)}[kind]
    at_key = oracle(*args)
    got, want = check(*args, level), per_key_report(kind, args[0], level, at_key)
    assert (got.ok, got.failures, got.note) == (want.ok, want.failures, want.note)
    for k, (lam, mu) in _budgeted_keys(args[0].monoid, args[0].cutoff, level):
        assert defect(*args, k, lam, mu) == _nonzero(at_key(k, lam, mu))


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


def test_whiskering_refuses_what_it_cannot_whisker():
    space = GradedSpace.make([("x", 0), ("y", 1)])
    other = GradedSpace.make([("u", 0), ("v", 1)])
    h = OperationSystem.morphism(space, space, G, "nov0", E, [
        OperationTable(1, F(0), 0, "morphism", {("x",): {"x": F(1)}}),
        OperationTable(2, F(1), 0, "morphism", {("x", "x"): {"x": F(1)}})])
    H = OperationSystem.homotopy(space, space, G, "nov0", E, [
        OperationTable(1, F(0), 0, "homotopy", {("y",): {"x": F(1)}})])
    not_a_homotopy = OperationSystem.morphism(space, space, G, "nov0", E, [])
    elsewhere = OperationSystem.homotopy(other, other, G, "nov0", E, [
        OperationTable(1, F(0), 0, "homotopy", {("v",): {"u": F(1)}})])
    strict = h.with_tables([h.table(1, 0, 0)])
    for hh, HH, message in ((h, H, "not a strict morphism"),
                            (strict, not_a_homotopy, "not a homotopy"),
                            (strict, elsewhere, "target(H) != source(h)")):
        with pytest.raises(MalformedMorphismError, match=re.escape(message)):
            whisker_strict(hh, HH)


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
