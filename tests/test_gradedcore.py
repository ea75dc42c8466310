import gc
import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit import (
    EnergyMonoid,
    GradedSpace,
    NovikovElement,
    OperationSystem,
    OperationTable,
    apply_operation,
    cohomology_ranks,
    relation_defect,
)
from ainfkit.errors import (DegreeError, IncompatibleRingError, NotAComplexError,
                            UnknownBasisError)
from ainfkit.gradedcore import _apply, _fill_slots
from conftest import (
    random_complex,
    random_degree_preserving_iso,
    strict_conjugate,
    two_generator_algebra,
)

E = F(3)
G = EnergyMonoid.make([(1, 0)])


def vec(space, flavor="nov0", cutoff=E, **coeffs):
    return {l: NovikovElement.monomial(c, 0, 0, flavor, cutoff)
            for l, c in coeffs.items()}


def test_degree_shift_enforced():
    space = GradedSpace.make([("x", 0), ("y", 1)])
    ok = OperationTable(1, F(0), 0, "algebra", {("x",): {"y": F(1)}})
    OperationSystem.algebra(space, G, "nov0", E, [ok])
    bad = OperationTable(1, F(0), 0, "algebra", {("x",): {"x": F(1)}})
    with pytest.raises(DegreeError):
        OperationSystem.algebra(space, G, "nov0", E, [bad])
    # morphism and homotopy shifts differ from the algebra shift
    OperationSystem.morphism(space, space, G, "nov0", E,
                             [OperationTable(1, F(0), 0, "morphism", {("x",): {"x": F(1)}})])
    with pytest.raises(DegreeError):
        OperationSystem.homotopy(space, space, G, "nov0", E,
                                 [OperationTable(1, F(0), 0, "homotopy", {("x",): {"x": F(1)}})])


def test_degree_shift_fuzz(rng):
    space = GradedSpace.make([("u", -1), ("v", 0), ("w", 2)])
    labels = ["u", "v", "w"]
    shifts = {"algebra": 1, "morphism": 0, "homotopy": -1}
    for _ in range(200):
        role = rng.choice(list(shifts))
        k = rng.randint(0, 3)
        mu = rng.randint(-1, 1)
        inputs = tuple(rng.choice(labels) for _ in range(k))
        out = rng.choice(labels)
        t = OperationTable(k, F(1), mu, role, {inputs: {out: F(1)}})
        din = sum(space.degree(l) for l in inputs)
        legal = space.degree(out) == din + shifts[role] - 2 * mu
        try:
            OperationSystem(space, space, EnergyMonoid.make([(1, -1), (1, 0), (1, 1)]),
                            "nov0", E, role, {t.key: t})
            assert legal
        except DegreeError:
            assert not legal


def test_apply_operation_multilinearity():
    alg = two_generator_algebra()
    x = vec(alg.source, x=1)
    zero = {}
    assert apply_operation(alg, 1, [zero]) == {}
    three_t_x = {"x": NovikovElement.monomial(3, 1, 0, "nov0", E)}
    out = apply_operation(alg, 1, [three_t_x])
    assert out == {"y": NovikovElement.monomial(3, 1, 0, "nov0", E)}


def test_apply_operation_sums_over_keys():
    space = GradedSpace.make([("x", 0), ("z", 1), ("w", 1)])
    t1 = OperationTable(2, F(0), 0, "algebra", {("x", "x"): {"z": F(1)}})
    t2 = OperationTable(2, F(1), 0, "algebra", {("x", "x"): {"w": F(1)}})
    alg = OperationSystem.algebra(space, G, "nov0", E, [t1, t2])
    x = vec(space, x=1)
    out = apply_operation(alg, 2, [x, x])
    assert out == {"z": NovikovElement.monomial(1, 0, 0, "nov0", E),
                   "w": NovikovElement.monomial(1, 1, 0, "nov0", E)}


def test_apply_operation_refuses_inputs_over_another_ring():
    # the identity at cutoff 2 on x = 1 + T^4 over cutoff 5, or over cy0
    space = GradedSpace.make([("x", 0), ("y", 0)])
    ident = OperationSystem.morphism(space, space, G, "nov0", F(2), [
        OperationTable(1, F(0), 0, "morphism", {("x",): {"y": F(1)}})])
    for flavor, cutoff in (("nov0", F(5)), ("cy0", F(2))):
        x = NovikovElement.make([(1, 0, 0), (1, 4, 0)], flavor, cutoff)
        with pytest.raises(IncompatibleRingError):
            apply_operation(ident, 1, [{"x": x}])
    x = NovikovElement.make([(1, 0, 0), (1, 4, 0)], "nov0", F(2))
    assert apply_operation(ident, 1, [{"x": x}]) == {"y": x}


def test_apply_operation_unknown_label():
    alg = two_generator_algebra()
    with pytest.raises(UnknownBasisError):
        apply_operation(alg, 1, [vec(alg.source, q=1)])


def test_apply_operation_missing_arity_is_zero():
    alg = two_generator_algebra()
    assert apply_operation(alg, 4, [vec(alg.source, x=1)] * 4) == {}


def test_relation_defect_complex():
    alg = two_generator_algebra()
    assert relation_defect(alg, 1, F(0), 0) == {}


def test_relation_defect_curvature_key():
    # m_1^{0,0}(m_0^{1,0}) = m_1(y) = 0: zero defect at (0, 1, 0)
    alg = two_generator_algebra()
    assert relation_defect(alg, 0, F(1), 0) == {}


def test_relation_defect_nonzero_reported():
    space = GradedSpace.make([("x", 0)])
    # degree violation aside: force a d with d(x) = x via role morphism trick
    # is rejected; instead break d*d = 0 on a 3-chain
    space = GradedSpace.make([("a", 0), ("b", 1), ("c", 2)])
    d = OperationTable(1, F(0), 0, "algebra", {("a",): {"b": F(1)}, ("b",): {"c": F(1)}})
    alg = OperationSystem.algebra(space, G, "nov0", E, [d])
    defect = relation_defect(alg, 1, F(0), 0)
    assert defect == {("a",): {"c": 1}}


def test_cohomology_ranks():
    space = GradedSpace.make([("x", 0), ("y", 1)])
    zero_d = OperationTable(1, F(0), 0, "algebra", {})
    assert cohomology_ranks(space, zero_d) == {0: 1, 1: 1}
    d = OperationTable(1, F(0), 0, "algebra", {("x",): {"y": F(1)}})
    assert cohomology_ranks(space, d) == {}
    space3 = GradedSpace.make([("x", 0), ("y", 1), ("z", 0)])
    assert cohomology_ranks(space3, d) == {0: 1}


def test_cohomology_rejects_non_complex():
    space = GradedSpace.make([("a", 0), ("b", 1), ("c", 2)])
    d = OperationTable(1, F(0), 0, "algebra", {("a",): {"b": F(1)}, ("b",): {"c": F(1)}})
    with pytest.raises(NotAComplexError):
        cohomology_ranks(space, d)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_cohomology_ranks_match_sympy(seed, square_zero):
    """Betti numbers against sympy ranks of the degree blocks of d, on
    conjugated random complexes and on random maps that may not square to
    zero; degrees are drawn from a wider span than the labels fill."""
    rng = random.Random(seed)
    if square_zero:
        base = random_complex(rng, n_labels=rng.randint(0, 7), degree_span=(-3, 3))
        space = base.source
        phi = random_degree_preserving_iso(rng, space)
        alg = strict_conjugate(base, phi)
        entries = {key[0]: t.entries for key, t in alg.tables.items()}.get(1, {})
    else:
        space = GradedSpace.make([(f"a{i}", rng.randint(-3, 3))
                                  for i in range(rng.randint(0, 7))])
        entries = {}
        for l, dl in space.basis:
            for o, do in space.basis:
                if do == dl + 1 and rng.random() < 0.5:
                    entries.setdefault((l,), {})[o] = F(rng.choice([1, -1, 2])) / rng.randint(1, 2)
    d = OperationTable(1, F(0), 0, "algebra", entries)
    labels = space.labels
    D = sympy.Matrix(len(labels), len(labels), lambda i, j: sympy.Rational(
        str(entries.get((labels[j],), {}).get(labels[i], 0))))
    if any(x != 0 for x in D * D):
        with pytest.raises(NotAComplexError):
            cohomology_ranks(space, d)
        return

    def rank_from(degree):
        cols = [j for j, l in enumerate(labels) if space.degree(l) == degree]
        return D.extract(list(range(len(labels))), cols).rank() if cols else 0

    expected = {}
    for degree in space.degrees():
        betti = len(space.labels_of_degree(degree)) - rank_from(degree) - rank_from(degree - 1)
        if betti:
            expected[degree] = betti
    assert cohomology_ranks(space, d) == expected


_HALVES = st.integers(0, 4).map(lambda n: F(n, 2))
_GROUPS = st.dictionaries(
    st.tuples(st.integers(0, 2), _HALVES, st.integers(-1, 1)),
    st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from([1, -1, F(1, 2), 3])),
             min_size=1, max_size=2),
    max_size=3)


def _filling_oracle(groups):
    """Every choice of one producer per slot, by itertools.product."""
    flat = [[(key, (label,) * key[0], q) for key, group in spec.items()
             for label, q in group] for spec in groups]
    for choice in itertools.product(*flat):
        key = tuple(sum(c[0][i] for c in choice) for i in range(3))
        inputs = sum((c[1] for c in choice), ())
        coeff = F(1)
        for c in choice:
            coeff *= c[2]
        yield key, inputs, coeff


@settings(max_examples=300, deadline=None)
@given(st.lists(_GROUPS, max_size=4), st.integers(0, 5),
       st.integers(0, 8).map(lambda n: F(n, 2)))
def test_fill_slots_matches_product_oracle(groups, k_budget, lam_budget):
    """Slot fillings against brute force over every slot count from zero,
    empty slots (no producer) and budgets met exactly."""
    specs = [{key: [((label,) * key[0], q) for label, q in group]
              for key, group in spec.items()} for spec in groups]
    every = list(_filling_oracle(groups))
    within = [f for f in every if f[0][0] <= k_budget and f[0][1] <= lam_budget]
    assert Counter(_fill_slots(specs, k_budget, lam_budget)) == Counter(within)


def test_fill_slots_leaves_no_reference_cycle():
    # a cycle per walk is freed only by a GC pass, and one twist makes
    # hundreds of walks
    specs = [{(1, 0, 0): [(("a",), 1)], (0, 1, 0): [((), 2)]}] * 3
    gc.collect()
    gc.disable()
    try:
        assert len(list(_fill_slots(specs, 3, 3))) == 8
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_zero_space_is_legal():
    space = GradedSpace.make([])
    alg = OperationSystem.algebra(space, G, "nov0", E, [])
    assert alg.source.is_zero()


def test_apply_skips_nothing_but_zeros():
    matrix = {"a": {"u": F(1)}, "b": {"u": F(2), "v": F(-1)}, "c": {"v": F(3)}}
    assert _apply(matrix, {"b": F(1)}) == {"u": F(2), "v": F(-1)}
    assert _apply(matrix, {"a": F(1), "c": F(2)}) == {"u": F(1), "v": F(6)}
    assert _apply(matrix, {"a": F(2), "b": F(-1)}) == {"v": F(1)}
    assert _apply({}, {"a": F(1)}) == {}
