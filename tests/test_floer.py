import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ainfkit import (
    BoundingCochain,
    DoublePoint,
    EnergyMonoid,
    GradedSpace,
    NovikovElement,
    Obstruction,
    OperationSystem,
    OperationTable,
    acyclicity_feasible,
    apply_operation,
    bc_criteria,
    check_morphism,
    compose_morphisms,
    gauge_act,
    hf_compute,
    hf_product,
    homotopy_inverse_strict,
    identity_morphism,
    legendrian_validate,
    make_presentation,
    mc_residual,
    mc_solve,
    minimal_model,
    rescale_regrade,
    sector_project,
    twist,
    union_sectors,
    whitney_preset,
)
from ainfkit.errors import (
    AinfError,
    DivergentTwistError,
    IncompatibleRingError,
    NotAComplexError,
    NotInMonoidError,
    NotInvertibleError,
)
from ainfkit.gradedcore import vec_add
from ainfkit.novmat import NovMatrix, smith_valuations
from conftest import (
    checked,
    heisenberg_algebra,
    is_canonical_rational,
    random_curved_algebra,
    random_element,
    random_operations,
    three_generator_algebra,
    two_generator_algebra,
    unsorted_basis_algebra,
)

# every system the library builds unchecked is rebuilt through the public
# constructor (conftest.revalidate_built)
pytestmark = pytest.mark.usefixtures("revalidate_built")

E = F(3)
G = EnergyMonoid.make([(1, 0)])


def mono(c, lam, mu, flavor="nov0", cutoff=E):
    return NovikovElement.monomial(c, lam, mu, flavor, cutoff)


# ---------------------------------------------------------------------------
# twist / Maurer-Cartan

def test_twist_by_zero_is_identity():
    alg = two_generator_algebra()
    out = twist(alg, {})
    assert set(out.tables) == set(alg.tables)
    for key, t in out.tables.items():
        assert t.entries == alg.tables[key].entries


def test_twist_solvable_fixture():
    alg = two_generator_algebra()
    b = {"x": mono(-1, 1, 0)}
    res, ok = mc_residual(alg, b)
    assert ok and res == {}
    out = twist(alg, b)
    assert all(k != 0 for k, _, _ in out.tables)  # strict


def test_twist_divergence_guard():
    alg = two_generator_algebra()
    with pytest.raises(DivergentTwistError):
        twist(alg, {"x": mono(1, 0, 0)})


def test_twist_curvature_appears():
    alg = two_generator_algebra()
    b = {"x": mono(1, 1, 0)}  # wrong sign: residual T y + T y = 2 T y? no: d(b)+m_0
    res, ok = mc_residual(alg, b)
    assert not ok
    assert res == {"y": mono(2, 1, 0)}
    out = twist(alg, b)
    t0 = out.table(0, F(1), 0)
    assert t0.entries == {(): {"y": F(2)}}
    # a term of b off the monoid enlarges it: the curvature lands at T^(1/2)
    half = twist(alg, {"x": mono(1, F(1, 2), 0)})
    assert half.table(0, F(1, 2), 0).entries == {(): {"y": 1}}


def test_twist_matches_residual_randomized(rng):
    for _ in range(100):
        alg = random_curved_algebra(rng, n_labels=4)
        b = random_element(rng, alg)
        res, ok = mc_residual(alg, b)
        out = twist(alg, b)
        m0 = {}
        for (k, lam, mu), t in out.tables.items():
            if k == 0:
                for out_label, q in t.entries.get((), {}).items():
                    term = mono(q, lam, mu, alg.flavor, alg.cutoff)
                    from ainfkit.novikov import nov_add
                    m0[out_label] = nov_add(m0[out_label], term) if out_label in m0 else term
        m0 = {l: v for l, v in m0.items() if not v.is_zero()}
        assert m0 == res
        assert ok == (not m0)


def test_mc_residual_on_zero_cochain():
    alg = two_generator_algebra()
    res, ok = mc_residual(alg, {})
    assert not ok and res == {"y": mono(1, 1, 0)}
    silent = OperationSystem.algebra(alg.source, G, "nov0", E, [])
    res, ok = mc_residual(silent, {"x": mono(1, 1, 0)})
    assert ok


def test_mc_solve_solvable():
    sol = mc_solve(two_generator_algebra())
    assert isinstance(sol, BoundingCochain) and sol.certified
    assert sol.element == {"x": mono(-1, 1, 0)}


def test_mc_solve_obstructed_minimal():
    # minimal model with n_0 = T v, v surviving in degree-one cohomology
    space = GradedSpace.make([("v", 1)])
    t = OperationTable(0, F(1), 0, "algebra", {(): {"v": F(1)}})
    alg = OperationSystem.algebra(space, G, "nov0", E, [t])
    out = mc_solve(alg)
    assert isinstance(out, Obstruction)
    assert out.level == 1 and out.class_vector == {"v": F(1)}
    assert "does not prove nonexistence" in out.note


def test_mc_solve_zero_operations():
    space = GradedSpace.make([("x", 0)])
    alg = OperationSystem.algebra(space, G, "nov0", E, [])
    sol = mc_solve(alg)
    assert isinstance(sol, BoundingCochain) and sol.element == {}


def test_mc_solve_refuses_a_residual_off_the_flavor_lattice():
    # novZ energies are integers; a curvature at T^(1/2) is no element of it
    space = GradedSpace.make([("v", 1)])
    t = OperationTable(0, F(1, 2), 0, "algebra", {(): {"v": F(1)}})
    alg = OperationSystem.algebra(space, EnergyMonoid.make([(F(1, 2), 0)]), "novZ", E, [t])
    with pytest.raises(IncompatibleRingError, match="not in the novZ lattice"):
        mc_solve(alg)


def _mc_solve_oracle(alg):
    """The solver before the per-level enumeration, kept verbatim as an
    oracle: it recomputes the whole ``mc_residual`` at every level."""
    from ainfkit import linalg
    from ainfkit.floer import _cohomology_class
    from ainfkit.gradedcore import _linear

    space = alg.source
    d = _linear(alg.table(1, 0, 0))
    b = {}
    for level in alg.monoid.positive_energies(alg.cutoff):
        residual, _ = mc_residual(alg, b)
        by_mu = {}
        for label, val in residual.items():
            for coeff, lam, mu in val.terms:
                if lam == level and coeff:
                    by_mu.setdefault(mu, {})[label] = coeff
        for mu in sorted(by_mu):
            target = by_mu[mu]
            rhs = {out: -q for out, q in target.items()}
            sol = linalg.solver(d, space.labels_of_degree(-2 * mu))(rhs)
            if sol is None:
                cls = _cohomology_class(target, space, d, 1 - 2 * mu)
                return Obstruction(level, mu, cls)
            delta = {}
            for l, q in sol.items():
                delta[l] = NovikovElement.monomial(q, level, mu, alg.flavor, alg.cutoff)
            b = vec_add(b, delta)
    residual, ok = mc_residual(alg, b)
    if not ok:
        # leftover residual above every solvable level within the cutoff
        for label, val in sorted(residual.items()):
            coeff, lam, mu = val.terms[0]
            cls = _cohomology_class({label: coeff}, space, d, 1 - 2 * mu)
            return Obstruction(lam, mu, cls)
    return BoundingCochain(b, certified=True)


@st.composite
def curved_algebras(draw):
    """Random operations of arity <= 3 on top of a differential that hits
    some of the residual's degrees (x -> y in degrees -2mu -> 1-2mu), every
    flavor, e-powers where the flavor allows them; sometimes an m_0^{0,0},
    which only the final certification sees.  Solvable and obstructed."""
    flavor = draw(st.sampled_from(FLAVORS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    no_e = flavor in ("cy", "cy0")
    step = F(1) if flavor in ("novZ", "novN") else F(1, 2)
    monoid = EnergyMonoid.make([(step, 0), (2 * step, 0)] if no_e
                               else [(step, 0), (step, 1), (2 * step, -1)])
    basis, d = [], {}
    for mu in (0,) if no_e else (0, 1, -1):
        for i in range(rng.randint(0, 2)):
            basis += [(f"x{mu}_{i}", -2 * mu), (f"y{mu}_{i}", 1 - 2 * mu)]
            d[(f"x{mu}_{i}",)] = {f"y{mu}_{i}": F(rng.choice([1, -1, 2]))}
    degrees = [0, 1] if no_e else [-2, -1, 0, 1, 2, 3]
    basis += [(f"z{i}", rng.choice(degrees)) for i in range(rng.randint(0, 2))]
    space = GradedSpace.make(basis or [("z", 0)])
    ops = random_operations(rng, space, monoid, "algebra", flavor, E,
                            draws=rng.randint(3, 20), max_energy=2)
    tables = {key: dict(t.entries) for key, t in ops.tables.items()}
    tables.setdefault((1, F(0), 0), {}).update(d)
    ones = space.labels_of_degree(1)
    if ones and rng.random() < 0.1:
        tables[(0, F(0), 0)] = {(): {ones[0]: F(1)}}
    return OperationSystem.algebra(space, monoid, flavor, E, [
        OperationTable(k, lam, mu, "algebra", e) for (k, lam, mu), e in tables.items()])


@settings(max_examples=300, deadline=None)
@given(curved_algebras())
def test_mc_solve_matches_the_per_level_residual_oracle(alg):
    got, want = mc_solve(alg), _mc_solve_oracle(alg)
    assert type(got) is type(want)
    if isinstance(want, BoundingCochain):
        assert got.certified and got.element == want.element
    else:
        assert got == want


def _insertion_counts(alg):
    """(mc_solve's result, the b-insertions it enumerates before its
    certifying residual, the b-insertions of one mc_residual of a certified
    result).  An insertion fills at least one slot: an m_0 entry is counted
    by neither, since the solver reads it without filling slots."""
    from ainfkit import floer, gradedcore
    count, marks = [0], []
    fill, residual = floer._fill_slots, floer.mc_residual

    def counted_fill(specs, *args):
        for filling in fill(specs, *args):
            count[0] += bool(specs)
            yield filling

    def marked_residual(alg, b):
        marks.append(count[0])
        return residual(alg, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(floer, "_fill_slots", counted_fill)
        mp.setattr(gradedcore, "_fill_slots", counted_fill)
        mp.setattr(floer, "mc_residual", marked_residual)
        sol = mc_solve(alg)
        if not isinstance(sol, BoundingCochain):
            return sol, count[0], None
        floer.mc_residual(alg, sol.element)
    return sol, marks[0], count[0] - marks[1]


@settings(max_examples=150, deadline=None)
@given(curved_algebras())
def test_mc_solve_enumerates_each_b_insertion_once(alg):
    sol, in_solve, in_residual = _insertion_counts(alg)
    if isinstance(sol, BoundingCochain):
        assert in_solve == in_residual


def test_mc_solve_meets_old_and_new_terms_in_every_slot_order():
    """m_2 and m_3 over a step of 1/2 give x and z terms at six levels, so
    every insertion mixes terms solved at different levels, in every slot
    order; the result is the oracle's and each insertion is enumerated
    once."""
    half = EnergyMonoid.make([(F(1, 2), 0)])
    space = GradedSpace.make([("x", 0), ("z", 0), ("y", 1), ("w", 1)])
    alg = OperationSystem.algebra(space, half, "nov0", E, [
        OperationTable(0, F(1, 2), 0, "algebra", {(): {"y": F(1), "w": F(1)}}),
        OperationTable(1, F(0), 0, "algebra", {("x",): {"y": F(1)}, ("z",): {"w": F(2)}}),
        OperationTable(2, F(0), 0, "algebra", {("x", "z"): {"y": F(1)},
                                               ("z", "x"): {"w": F(-1)}}),
        OperationTable(3, F(0), 0, "algebra", {("x", "x", "x"): {"w": F(1)},
                                               ("x", "z", "x"): {"y": F(1, 3)}}),
        OperationTable(2, F(1, 2), 0, "algebra", {("z", "z"): {"y": F(2)}}),
    ])
    sol, in_solve, in_residual = _insertion_counts(alg)
    assert sol.certified and sol.element == _mc_solve_oracle(alg).element
    assert [len(sol.element[l].terms) for l in ("x", "z")] == [6, 6]
    assert in_solve == in_residual > 0


def test_tables_off_the_flavor_lattice_are_refused_when_folded():
    # the flavor check of mc_residual, NovMatrix.from_linear_tables and
    # hf_compute, as test_mc_solve_refuses_a_residual_off_the_flavor_lattice
    # pins it for mc_solve
    space = GradedSpace.make([("u", 0), ("v", 1)])
    half = EnergyMonoid.make([(F(1, 2), 0)])
    curved = OperationSystem.algebra(space, half, "novZ", E, [
        OperationTable(0, F(1, 2), 0, "algebra", {(): {"v": F(1)}})])
    linear = OperationSystem.algebra(space, half, "novZ", E, [
        OperationTable(1, F(1, 2), 0, "algebra", {("u",): {"v": F(1)}})])
    for refused in (lambda: mc_residual(curved, {}),
                    lambda: NovMatrix.from_linear_tables(linear),
                    lambda: hf_compute(_pres_from_system(linear), {})):
        with pytest.raises(IncompatibleRingError, match="not in the novZ lattice"):
            refused()


def _system_rationals(sys_):
    return [sys_.cutoff] + [x for (_, lam, _), t in sys_.tables.items()
                            for x in (lam, t.lam, *(q for outs in t.entries.values()
                                                    for q in outs.values()))]


def _vector_rationals(vec):
    return [x for v in vec.values() for c, lam, _ in v.terms for x in (c, lam, v.cutoff)]


@settings(max_examples=150, deadline=None)
@given(curved_algebras())
def test_every_rational_out_is_canonical(alg):
    """The solver's cochain or obstruction, the twist by it, the minimal
    model and inclusion of the twist and its HF torsion, over every flavor."""
    out = mc_solve(alg)
    if isinstance(out, Obstruction):
        found = [out.level, *out.class_vector.values()]
    else:
        twisted = twist(alg, out.element)
        found = _vector_rationals(out.element) + _system_rationals(twisted)
        try:
            model, incl = minimal_model(twisted, kmax=2)
            report = hf_compute(_pres_from_system(twisted), {})
        except NotAComplexError:  # the random operations need not square to zero
            pass
        else:
            found += _system_rationals(model) + _system_rationals(incl)
            found += [v for g in report.groups.values() for v in g["torsion"]]
    assert all(is_canonical_rational(x) for x in found), found


def test_mc_solve_computes_the_full_residual_once(monkeypatch):
    from ainfkit import floer
    calls, walks = [], []
    original, walk = floer.mc_residual, floer._insert_b
    monkeypatch.setattr(floer, "mc_residual",
                        lambda alg, b: calls.append(b) or original(alg, b))
    monkeypatch.setattr(floer, "_insert_b",
                        lambda *args: walks.append(args) or walk(*args))
    sol = mc_solve(two_generator_algebra())
    assert sol.certified and len(calls) == 1 and len(walks) == 1
    assert len(two_generator_algebra().monoid.positive_energies(E)) == 3


def test_twist_strict_iff_residual_vanishes(rng):
    hits = {True: 0, False: 0}
    for _ in range(100):
        alg = random_curved_algebra(rng, n_labels=4)
        b = random_element(rng, alg, density=0.5)
        _, ok = mc_residual(alg, b)
        strict = all(k != 0 for k, _, _ in twist(alg, b).tables)
        assert strict == ok
        hits[ok] += 1
    assert hits[True] and hits[False]  # both branches exercised


def _vector_sum(vectors):
    out = {}
    for v in vectors:
        out = vec_add(out, v)
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([((1, 0),), ((1, 0), (F(1, 2), 1))]))
def test_b_insertions_match_direct_evaluation(seed, generators):
    """mc_residual and gauge_act against apply_operation, called once for
    every placement of b and of the argument."""
    rng = random.Random(seed)
    curved = random_curved_algebra(rng, n_labels=4, degree_span=(-2, 2), cutoff=E,
                                   generators=generators)
    space, monoid = curved.source, curved.monoid
    b = random_element(rng, curved, density=0.5)
    for alg in (curved, random_operations(rng, space, monoid, "algebra", draws=12)):
        residual, ok = mc_residual(alg, b)
        assert residual == _vector_sum(apply_operation(alg, k, [b] * k) for k in range(4))
        assert ok == (not residual)
    j = random_operations(rng, space, monoid, "morphism", draws=12)
    jb, transport = gauge_act(j, b)
    assert jb.element == _vector_sum(apply_operation(j, k, [b] * k) for k in range(4))
    for a in space.labels:
        e_a = {a: NovikovElement.unit("nov0", E)}
        column = _vector_sum(apply_operation(j, k, [b] * i + [e_a] + [b] * (k - 1 - i))
                             for k in range(1, 4) for i in range(k))
        assert column == {r: v for (r, c), v in transport.data.items() if c == a}


# ---------------------------------------------------------------------------
# presentations and criteria

def test_whitney_preset_indices_and_degrees():
    pres = whitney_preset(3)
    etas = sorted(dp.eta for dp in pres.double_points)
    assert etas == [-1, 4]
    assert sorted(d for _, d in pres.space.basis) == [-2, -1, 2, 3]
    pres2 = whitney_preset(2)
    assert sorted(dp.eta for dp in pres2.double_points) == [-1, 3]
    assert sorted(d for _, d in pres2.space.basis) == [-2, -1, 1, 2]
    with pytest.raises(ValueError):
        whitney_preset(1)


def test_bc_criteria_whitney():
    for n in range(3, 7):
        report = bc_criteria(whitney_preset(n))
        assert report.every_degree0_is_bc
        assert report.zero_is_only_candidate
        assert report.unique_zero
    report2 = bc_criteria(whitney_preset(2), exact=True)
    assert not report2.every_degree0_is_bc  # b_0(S^2) = 1
    assert report2.zero_is_only_candidate and report2.zero_is_bc
    assert report2.unique_zero


def test_bc_criteria_eta_two_inconclusive():
    points = [DoublePoint("a", "b", 2), DoublePoint("b", "a", 1)]
    pres = make_presentation(3, {0: 1, 3: 1}, points, G, "cy0", F(2))
    report = bc_criteria(pres, exact=True)
    assert not report.zero_is_bc
    assert any("inconclusive" in note for note in report.notes)


def test_bc_criteria_requires_cy():
    pres = whitney_preset(3, flavor="nov0")
    with pytest.raises(AinfError):
        bc_criteria(pres)


def test_acyclicity_feasible():
    assert acyclicity_feasible({-2: 1, -1: 1, 2: 1, 3: 1}) == (True, None)
    assert acyclicity_feasible({0: 1}) == (False, 0)
    assert acyclicity_feasible({-1: 1, 0: 2, 1: 1}) == (True, None)
    # a negative dimension is refused even where an earlier degree fails
    with pytest.raises(ValueError, match="negative dimension -1 in degree 1"):
        acyclicity_feasible({0: 5, 1: -1})


def test_double_point_invariants():
    with pytest.raises(ValueError):
        make_presentation(3, {}, [DoublePoint("a", "b", 2)], G, "cy0", F(2))
    with pytest.raises(ValueError):
        make_presentation(3, {}, [DoublePoint("a", "b", 2),
                                  DoublePoint("b", "a", 2)], G, "cy0", F(2))
    with pytest.raises(ValueError):
        make_presentation(
            3, {}, [DoublePoint("a", "b", 2, a_value=F(1, 3)),
                    DoublePoint("b", "a", 1, a_value=F(1, 3))], G, "cy0", F(2))
    # eps pairing: eps+ eps- = (-1)^(eta(n-eta))
    make_presentation(
        2, {}, [DoublePoint("a", "b", 1, eps=1), DoublePoint("b", "a", 1, eps=-1)],
        G, "cy0", F(2))
    with pytest.raises(ValueError):
        make_presentation(
            2, {}, [DoublePoint("a", "b", 1, eps=1), DoublePoint("b", "a", 1, eps=1)],
            G, "cy0", F(2))


def test_eps_parity_odd_dimension(rng):
    # n odd forces eps product +1
    for _ in range(50):
        n = rng.choice([1, 3, 5])
        eta = rng.randint(-2, n + 2)
        assert (-1) ** (eta * (n - eta)) == 1


# ---------------------------------------------------------------------------
# gauge action

def test_gauge_identity():
    alg = checked(two_generator_algebra())
    b = {"x": mono(-1, 1, 0)}
    jb, transport = gauge_act(identity_morphism(alg), b, alg)
    assert jb.element == b
    for (r, c), v in transport.data.items():
        assert r == c and v == NovikovElement.unit("nov0", E)


def test_gauge_strict_invertible():
    alg = checked(two_generator_algebra())
    j = OperationSystem.morphism(alg.source, alg.source, G, "nov0", E, [
        OperationTable(1, F(0), 0, "morphism",
                       {("x",): {"x": F(2)}, ("y",): {"y": F(2)}})])
    b = {"x": mono(-1, 1, 0)}
    jb, transport = gauge_act(j, b)
    assert jb.element == {"x": mono(-2, 1, 0)}
    assert transport.get("x", "x") == mono(2, 0, 0)


def test_gauge_shift_on_abelian_fixture():
    space = GradedSpace.make([("x", 0), ("y", 1)])
    alg = OperationSystem.algebra(space, G, "nov0", E, [])
    j = OperationSystem.morphism(space, space, G, "nov0", E, [
        OperationTable(1, F(0), 0, "morphism",
                       {("x",): {"x": F(1)}, ("y",): {"y": F(1)}}),
        OperationTable(0, F(1), 0, "morphism", {(): {"x": F(1)}})])
    b = {"x": mono(1, 1, 0)}
    jb, _ = gauge_act(j, BoundingCochain(b, certified=True), alg)
    assert jb.element == {"x": mono(2, 1, 0)}  # b + c
    assert jb.certified


def _gauge_pair(rng, seed_alg):
    """A gauge element q p from a strict surjective wqe onto a retract."""
    from test_transfer import _direct_sum_with_acyclic
    D = seed_alg
    A, p = _direct_sum_with_acyclic(rng, D, pairs=1, prefix=f"g{rng.randint(0, 10**6)}")
    checked(A)
    q = homotopy_inverse_strict(p, A, D, kmax=3)
    j = compose_morphisms(q, p)  # A -> A, homotopic to the identity
    return A, j


def test_gauge_chain_map_identity_randomized(rng):
    count = 0
    for _ in range(12):
        D = checked(random_curved_algebra(rng, n_labels=3))
        A, j = _gauge_pair(rng, D)
        sol = mc_solve(A)
        if not isinstance(sol, BoundingCochain):
            continue
        b = sol
        jb, transport = gauge_act(j, b, A)
        assert jb.certified
        n1b = _diff_matrix(twist(A, b))
        n1jb = _diff_matrix(twist(A, jb))
        lhs = transport.matmul(n1b)
        rhs = n1jb.matmul(transport)
        assert _mat_eq(lhs, rhs)
        count += 1
    assert count >= 6


def _diff_matrix(alg):
    return NovMatrix.from_linear_tables(alg)


def _mat_eq(a, b):
    keys = set(a.data) | set(b.data)
    for key in keys:
        va = a.data.get(key)
        vb = b.data.get(key)
        if (va or vb) and (va is None or vb is None or va != vb):
            return False
    return True


# ---------------------------------------------------------------------------
# Floer cohomology

def test_hf_whitney_zero_operations():
    pres = whitney_preset(3)
    report = hf_compute(pres, {})
    assert report.stable
    assert {k: g["free"] for k, g in report.groups.items()} == \
        {-1: 1, 0: 1, 3: 1, 4: 1}
    assert all(not g["torsion"] for g in report.groups.values())


def test_hf_two_generator_torsion():
    lam = F(1)
    for d in (0, 2):
        points = [DoublePoint("a", "b", d + 1), DoublePoint("b", "a", 3 - d - 1 + 3 - 3)]
        # build directly on a plain system instead: u deg d, v deg d+1
        space = GradedSpace.make([("u", d), ("v", d + 1)])
        t = OperationTable(1, lam, 0, "algebra", {("u",): {"v": F(1)}})
        for flavor, free_expect, torsion_expect in (
                ("cy", {}, {}),
                ("cy0", {}, {d + 2: [lam]})):
            alg = OperationSystem.algebra(space, G, flavor, F(2), [t])
            pres = _pres_from_system(alg, n=3)
            report = hf_compute(pres, {})
            free = {k: g["free"] for k, g in report.groups.items() if g["free"]}
            torsion = {k: g["torsion"] for k, g in report.groups.items() if g["torsion"]}
            assert free == free_expect, flavor
            assert torsion == torsion_expect, flavor


def _pres_from_system(alg, n=3):
    from ainfkit.floer import LagrangianPresentation
    return LagrangianPresentation(n, {}, [], alg)


def test_hf_zero_differential_shifted_dims():
    space = GradedSpace.make([("a", 0), ("b", 0), ("c", 2)])
    alg = OperationSystem.algebra(space, G, "cy0", F(2), [])
    report = hf_compute(_pres_from_system(alg), {})
    assert {k: g["free"] for k, g in report.groups.items()} == {1: 2, 3: 1}


def test_hf_requires_certified_or_valid_cochain():
    pres = _pres_from_system(two_generator_algebra(), n=3)
    with pytest.raises(AinfError):
        hf_compute(pres, {"x": mono(1, 1, 0)})  # residual 2 T y != 0


def test_hf_reads_the_residual_off_its_twist(monkeypatch):
    # an uncertified b is inserted once, by the twist, whose m_0 is the residual
    from ainfkit import floer
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return insert_b(*args, **kwargs)

    insert_b = floer._insert_b
    monkeypatch.setattr(floer, "_insert_b", counted)
    pres = _pres_from_system(two_generator_algebra(), n=3)
    hf_compute(pres, {"x": mono(-1, 1, 0)})  # m_0 + m_1(b) = T y - T y = 0
    assert len(calls) == 1
    with pytest.raises(AinfError, match="fails the Maurer-Cartan equation"):
        hf_compute(pres, {"x": mono(1, 1, 0)})
    assert len(calls) == 2


def brute_force_rank(matrix, labels_r, labels_c):
    """Largest r with a nonzero r x r minor, exactly, mod the cutoff."""
    from ainfkit.novikov import nov_add, nov_mul
    n = len(labels_r)
    m = len(labels_c)
    best = 0
    for r in range(1, min(n, m) + 1):
        found = False
        for rows in itertools.combinations(range(n), r):
            for cols in itertools.combinations(range(m), r):
                det = None
                for perm in itertools.permutations(range(r)):
                    sign = 1
                    for i in range(r):
                        for j in range(i + 1, r):
                            if perm[i] > perm[j]:
                                sign = -sign
                    prod = None
                    for i in range(r):
                        entry = matrix.get(labels_r[rows[i]], labels_c[cols[perm[i]]])
                        prod = entry if prod is None else nov_mul(prod, entry)
                    prod = prod.scale(sign)
                    det = prod if det is None else nov_add(det, prod)
                if det is not None and not det.is_zero():
                    found = True
                    break
            if found:
                break
        if found:
            best = r
    return best


def test_smith_rank_matches_minor_oracle(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = tuple(f"r{i}" for i in range(n))
        cols = tuple(f"c{j}" for j in range(m))
        mat = NovMatrix(rows, cols, "cy0", F(6))
        for i in range(n):
            for j in range(m):
                if rng.random() < 0.6:
                    mat.set(rows[i], cols[j],
                            mono(rng.choice([1, -1, 2]), F(rng.randint(0, 1)), 0,
                                 "cy0", F(6)))
        divisors = smith_valuations(mat)
        assert len(divisors) == brute_force_rank(mat, rows, cols)
        # valuation sums of minors match partial divisor sums
        from ainfkit.novikov import nov_valuation
        if divisors:
            r = len(divisors)
            min_val = None
            for rows_sel in itertools.combinations(range(n), r):
                for cols_sel in itertools.combinations(range(m), r):
                    det = _minor_det(mat, [rows[i] for i in rows_sel],
                                     [cols[j] for j in cols_sel])
                    if det is not None and not det.is_zero():
                        v = nov_valuation(det)
                        min_val = v if min_val is None else min(min_val, v)
            assert min_val == sum(divisors)


def _minor_det(mat, rows, cols):
    from ainfkit.novikov import nov_add, nov_mul
    r = len(rows)
    det = None
    for perm in itertools.permutations(range(r)):
        sign = 1
        for i in range(r):
            for j in range(i + 1, r):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = None
        for i in range(r):
            prod = mat.get(rows[i], cols[perm[i]]) if prod is None else \
                nov_mul(prod, mat.get(rows[i], cols[perm[i]]))
        prod = prod.scale(sign)
        det = prod if det is None else nov_add(det, prod)
    return det


# ---------------------------------------------------------------------------
# products

def _massey_presentation():
    """Block sum: the Heisenberg minimal model (nonzero n_3) plus a truncated
    polynomial block in odd shifted degree (nonzero nested n_2 products)."""
    model, _ = minimal_model(heisenberg_algebra(flavor="cy0"), kmax=4)
    basis = list(model.source.basis) + [("t1", -1), ("t2", -1), ("t3", -1)]
    space = GradedSpace.make(basis)
    poly = {("t1", "t1"): {"t2": F(-1)}, ("t1", "t2"): {"t3": F(-1)},
            ("t2", "t1"): {"t3": F(-1)}}
    tables = []
    for (k, lam, mu), t in model.tables.items():
        entries = dict(t.entries)
        if (k, lam, mu) == (2, F(0), 0):
            entries.update(poly)
        tables.append(OperationTable(k, lam, mu, "algebra", entries))
    if model.table(2, F(0), 0) is None:
        tables.append(OperationTable(2, F(0), 0, "algebra", poly))
    alg = checked(OperationSystem.algebra(space, model.monoid, model.flavor,
                                          model.cutoff, tables), 4)
    return _pres_from_system(alg, n=3)


def test_hf_product_zero_when_no_n2():
    pres = whitney_preset(3)
    x = {pres.space.labels[0]: mono(1, 0, 0, "cy0", F(2))}
    prod, ok = hf_product(pres, {}, x, x)
    assert prod == {} and ok


def test_hf_product_refuses_what_is_not_a_bounding_cochain():
    # m_1(x) = y and m_0 = T y: b = -T x solves the Maurer-Cartan equation,
    # b = T x leaves m_0^b = 2T y
    pres = _pres_from_system(two_generator_algebra(), n=3)
    y = {"y": mono(1, 0, 0)}
    prod, ok = hf_product(pres, {"x": mono(-1, 1, 0)}, y, y)
    assert prod == {} and ok
    with pytest.raises(AinfError, match="fails the Maurer-Cartan equation"):
        hf_product(pres, {"x": mono(1, 1, 0)}, y, y)
    assert hf_product(pres, BoundingCochain({"x": mono(1, 1, 0)}, certified=True),
                      y, y) == ({}, True)


def test_hf_product_representative_independence():
    pres = _massey_presentation()
    alg = pres.algebra
    # with zero differential every element is a cycle and Im n_1^b = 0:
    # representative independence is exact equality of products
    labels = alg.source.labels
    x = {labels[0]: mono(1, 0, 0, "cy0", F(2))}
    y = {labels[2]: mono(1, 0, 0, "cy0", F(2))}
    prod, ok = hf_product(pres, {}, x, y)
    assert ok


def test_hf_product_associative_massey():
    # associativity modulo boundaries on a fixture with nonzero n_2 and n_3,
    # with the HF-degree sign (-1)^{k(l+1)}
    pres = _massey_presentation()
    assert pres.algebra.table(3, F(0), 0) is not None
    labels = list(pres.space.labels)
    cutoff = pres.algebra.cutoff
    import itertools as it
    nested_nonzero = 0
    for a, b, c in it.product(labels, repeat=3):
        x = {a: mono(1, 0, 0, "cy0", cutoff)}
        y = {b: mono(1, 0, 0, "cy0", cutoff)}
        z = {c: mono(1, 0, 0, "cy0", cutoff)}
        xy, _ = hf_product(pres, {}, x, y)
        yz, _ = hf_product(pres, {}, y, z)
        left, _ = hf_product(pres, {}, xy, z) if xy else ({}, True)
        right, _ = hf_product(pres, {}, x, yz) if yz else ({}, True)
        lhs = {l: v for l, v in left.items() if not v.is_zero()}
        rhs = {l: v for l, v in right.items() if not v.is_zero()}
        if lhs or rhs:
            nested_nonzero += 1
        assert _reduced_eq(pres, {}, lhs, rhs), (a, b, c, lhs, rhs)
    assert nested_nonzero > 0  # the fixture really exercises associativity


def _reduced_eq(pres, b, x, y):
    """Equality modulo the image of the twisted differential."""
    from ainfkit import linalg
    twisted = twist(pres.algebra, b)
    dmat = NovMatrix.from_linear_tables(twisted)
    diff = dict(x)
    from ainfkit.novikov import nov_sub, NovikovElement as NE
    for l, v in y.items():
        cur = diff.get(l, NE.zero(v.flavor, v.cutoff))
        d = nov_sub(cur, v)
        if d.is_zero():
            diff.pop(l, None)
        else:
            diff[l] = d
    if not diff:
        return True
    # is diff in the image of dmat over the ring? crude Q-level check per key:
    # on minimal models dmat = 0, so nonzero diff means failure
    if not dmat.data:
        return False
    # fall back: reduce diff against the image of the differential on the
    # Q-level per (lam, mu) key
    cols = []
    for c in dmat.cols:
        img = dmat.apply({c: NE.unit(pres.algebra.flavor, pres.algebra.cutoff)})
        if img:
            cols.append(img)
    # represent everything over Q by expanding Novikov terms into (label, lam, mu)
    def expand(vec):
        out = {}
        for l, v in vec.items():
            for q, lam, mu in v.terms:
                out[(l, lam, mu)] = out.get((l, lam, mu), F(0)) + q
        return out

    expanded_cols = [expand(c) for c in cols]
    target = expand(diff)
    return linalg.solver(dict(enumerate(expanded_cols)),
                         range(len(expanded_cols)))(target) is not None


def test_product_boundary_collapses():
    # y a boundary forces the product into the boundaries: the k=2 relation
    # ties m_2(w, du) to d(m_2(w, u)), so the fixture needs z = d(z')
    space = GradedSpace.make([("u", -1), ("v", 0), ("w", -1),
                              ("zp", -1), ("z", 0)])
    d = OperationTable(1, F(0), 0, "algebra",
                       {("u",): {"v": F(1)}, ("zp",): {"z": F(1)}})
    m2 = OperationTable(2, F(0), 0, "algebra",
                        {("w", "v"): {"z": F(1)}, ("w", "u"): {"zp": F(1)}})
    alg = checked(OperationSystem.algebra(space, G, "cy0", F(2), [d, m2]), 3)
    pres = _pres_from_system(alg)
    w = {"w": mono(1, 0, 0, "cy0", F(2))}
    dv = {"v": mono(1, 0, 0, "cy0", F(2))}  # v = d(u) is a boundary cycle
    prod, ok = hf_product(pres, {}, w, dv)
    assert ok
    assert prod  # the representative-level product is nonzero ...
    assert _reduced_eq(pres, {}, prod, {})  # ... but its class vanishes


# ---------------------------------------------------------------------------
# unions and sectors

def _simple_presentation(prefix, flavor="cy0", cutoff=F(2)):
    # point names are bare; the presentation prefixes every generator label
    points = [DoublePoint("p", "q", 2), DoublePoint("q", "p", 1)]
    return make_presentation(3, {0: 1}, points, G, flavor, cutoff, prefix=prefix)


def test_union_block_diagonal_hf_adds():
    presA = _simple_presentation("A.")
    presB = _simple_presentation("B.")
    union = union_sectors(presA, presB)
    hfA = hf_compute(presA, {})
    hfB = hf_compute(presB, {})
    hfU = hf_compute(union, {})
    for k in set(hfA.groups) | set(hfB.groups):
        assert hfU.groups.get(k, {"free": 0})["free"] == \
            hfA.groups.get(k, {"free": 0})["free"] + hfB.groups.get(k, {"free": 0})["free"]


def test_union_adds_curvatures_and_leaves_its_inputs_alone():
    # m_0 of A, of B and of a cross table at one key, all on A.p:q or B.p:q
    points = [DoublePoint("p", "q", 2), DoublePoint("q", "p", 1)]

    def curved(prefix):
        m0 = OperationTable(0, F(1), 0, "algebra", {(): {f"{prefix}p:q": F(1)}})
        return make_presentation(3, {0: 1}, points, G, "cy0", F(2), [m0], prefix=prefix)

    presA, presB = curved("A."), curved("B.")
    cross = OperationTable(0, F(1), 0, "algebra", {(): {"A.p:q": F(2)}})
    union = union_sectors(presA, presB, [], [cross])
    assert union.algebra.table(0, F(1), 0).entries == {(): {"A.p:q": F(3), "B.p:q": F(1)}}
    for pres, label in ((presA, "A.p:q"), (presB, "B.p:q")):
        assert pres.algebra.table(0, F(1), 0).entries == {(): {label: F(1)}}
    with pytest.raises(AinfError):  # a cross table must be an algebra table
        union_sectors(presA, presB, [], [OperationTable(
            0, F(1), 0, "morphism", {(): {"A.p:q": F(2)}})])


def test_union_label_collision():
    presA = _simple_presentation("A.")
    with pytest.raises(AinfError):
        union_sectors(presA, presA)


def test_union_cross_generators_and_sectors():
    presA = _simple_presentation("A.")
    presB = _simple_presentation("B.")
    cross = [DoublePoint("x", "y", 2), DoublePoint("y", "x", 1)]
    # one AB generator with differential into BA needs degrees d, d+1:
    # AB at eta-1 = 1, BA at eta-1 = 0: differential BA -> AB
    t = OperationTable(1, F(1), 0, "algebra", {("y:x",): {"x:y": F(1)}})
    union = union_sectors(presA, presB, cross, [t])
    assert union.sectors["x:y"] == "AB"
    assert union.sectors["y:x"] == "BA"
    assert union.sectors["A.h0_0"] == "AA"
    assert tuple(union.sectors) == union.space.labels
    hfU = hf_compute(union, {})
    # torsion appears (only) from the mixed-sector differential
    torsion = {k: g["torsion"] for k, g in hfU.groups.items() if g["torsion"]}
    assert torsion == {2: [F(1)]}
    # sector projections: AA block is the A-presentation complex
    aa = sector_project(union, "AA")
    assert set(aa.source.labels) == set(presA.space.labels)
    ab = sector_project(union, "AB")
    assert set(ab.source.labels) == {"x:y"}
    # the BA -> AB differential leaves the BA sector
    assert sector_project(union, "BA").tables == {}


def test_union_product_sector_pattern():
    # product of an AB class and a BA class lands in AA
    presA = _simple_presentation("A.")
    presB = _simple_presentation("B.")
    cross = [DoublePoint("x", "y", 2), DoublePoint("y", "x", 1)]
    # degrees: x:y at 1, y:x at 0; the AA output must sit at 1 + 0 + 1 = 2,
    # which is the A-side homology generator
    m2 = OperationTable(2, F(1), 0, "algebra",
                        {("x:y", "y:x"): {"A.h0_0": F(1)}})
    union = union_sectors(presA, presB, cross, [m2])
    x = {"x:y": mono(1, 0, 0, "cy0", F(2))}
    y = {"y:x": mono(1, 0, 0, "cy0", F(2))}
    prod, ok = hf_product(union, {}, x, y)
    assert ok
    assert set(prod) == {"A.h0_0"}
    assert union.sectors["A.h0_0"] == "AA"


# ---------------------------------------------------------------------------
# rescaling and regrading

def test_rescale_identity():
    pres = _simple_presentation("A.")
    report = rescale_regrade(pres, {("p", "q"): {"c": 0, "d": 0},
                                    ("q", "p"): {"c": 0, "d": 0}})
    assert not report.wall and not report.algebra_wall
    assert report.intertwining_checked
    assert set(report.presentation.algebra.tables) == set(pres.algebra.tables)


def test_rescale_transported_valuation_and_wall():
    points = [DoublePoint("p", "q", 2), DoublePoint("q", "p", 1)]
    pres = make_presentation(3, {}, points, G, "cy0", F(2))
    label = "p:q"
    b = {label: mono(1, F(1, 2), 0, "cy0", F(2))}
    ok_report = rescale_regrade(
        pres, {("p", "q"): {"c": F(1, 4)}, ("q", "p"): {"c": F(-1, 4)}}, b)
    assert ok_report.transported_valuation == F(1, 4)
    assert not ok_report.wall
    wall_report = rescale_regrade(
        pres, {("p", "q"): {"c": F(3, 4)}, ("q", "p"): {"c": F(-3, 4)}}, b)
    assert wall_report.transported_valuation == F(-1, 4)
    assert wall_report.wall


def test_rescale_antisymmetry_enforced():
    pres = _simple_presentation("A.")
    with pytest.raises(AinfError):
        rescale_regrade(pres, {("p", "q"): {"c": F(1, 4)},
                               ("q", "p"): {"c": F(1, 4)}})


def test_rescale_intertwines_structure_constants():
    points = [DoublePoint("p", "q", 2), DoublePoint("q", "p", 1)]
    t1 = OperationTable(1, F(1), 0, "algebra", {("q:p",): {"p:q": F(1)}})
    pres = make_presentation(3, {}, points, G, "cy0", F(2), [t1])
    report = rescale_regrade(pres, {("p", "q"): {"c": F(1, 4)},
                                    ("q", "p"): {"c": F(-1, 4)}})
    assert report.intertwining_checked
    # entry q:p -> p:q shifts by c(q:p) - c(p:q) = -1/4 - 1/4 = -1/2
    assert report.presentation.algebra.table(1, F(1, 2), 0) is not None


def test_rescale_algebra_wall():
    points = [DoublePoint("p", "q", 2), DoublePoint("q", "p", 1)]
    t1 = OperationTable(1, F(1, 4), 0, "algebra", {("q:p",): {"p:q": F(1)}})
    pres = make_presentation(3, {}, points, G.make([(F(1, 4), 0)]), "cy0", F(2), [t1])
    report = rescale_regrade(pres, {("p", "q"): {"c": F(1, 2)},
                                    ("q", "p"): {"c": F(-1, 2)}})
    assert report.algebra_wall


def test_regrade_shifts_degrees_and_e_power():
    points = [DoublePoint("p", "q", 2), DoublePoint("q", "p", 1)]
    t1 = OperationTable(1, F(1), 0, "algebra", {("q:p",): {"p:q": F(1)}})
    pres = make_presentation(3, {}, points, G, "nov0", F(2), [t1])
    report = rescale_regrade(pres, {("p", "q"): {"d": 1},
                                    ("q", "p"): {"d": -1}})
    space2 = report.presentation.space
    assert space2.degree("p:q") == 1 + 2
    assert space2.degree("q:p") == 0 - 2
    # e-power shift: mu' = mu + d(in) - d(out) = 0 - 1 - 1 = -2
    assert report.presentation.algebra.table(1, F(1), -2) is not None
    with pytest.raises(AinfError):
        rescale_regrade(make_presentation(3, {}, points, G, "cy0", F(2), [t1]),
                        {("p", "q"): {"d": 1}, ("q", "p"): {"d": -1}})


# ---------------------------------------------------------------------------
# Legendrian lattice

def _legendrian_pres(table_lam, a=F(1, 3), flavor="novN"):
    points = [DoublePoint("p", "q", 2, a_value=a),
              DoublePoint("q", "p", 1, a_value=1 - a)]
    t = OperationTable(1, table_lam, 0, "algebra", {("q:p",): {"p:q": F(1)}})
    monoid = EnergyMonoid.make([(table_lam, 0)]) if table_lam > 0 else G
    return make_presentation(3, {}, points, monoid, flavor, F(3), [t])


def test_legendrian_accepts_lattice_energy():
    report = legendrian_validate(_legendrian_pres(F(4, 3)))
    assert report.ok


def test_legendrian_pairing_failure():
    points = [DoublePoint("p", "q", 2, a_value=F(1, 3)),
              DoublePoint("q", "p", 1, a_value=F(1, 3))]
    with pytest.raises(ValueError):
        make_presentation(3, {}, points, G, "novN", F(3))


def test_legendrian_rejects_off_lattice_energy():
    report = legendrian_validate(_legendrian_pres(F(1, 2)))
    assert not report.ok
    assert any("misses the integer lattice" in v for v in report.violations)


def test_legendrian_requires_a_values():
    points = [DoublePoint("p", "q", 2), DoublePoint("q", "p", 1)]
    pres = make_presentation(3, {}, points, G, "novN", F(3))
    report = legendrian_validate(pres)
    assert not report.ok and "no a-value" in report.violations[0]


@settings(max_examples=200, deadline=None)
@given(st.fractions(-2, 3, max_denominator=6),
       st.lists(st.sampled_from([F(1, 3), F(2, 3), F(1, 2), F(1, 6), F(3, 4)]), max_size=7),
       st.booleans())
def test_lattice_member_matches_every_sign_choice(lam, offsets, unit_flavor):
    from ainfkit.floer import _lattice_member
    sums = (lam + sum(s * a for s, a in zip(signs, offsets))
            for signs in itertools.product((1, -1), repeat=len(offsets)))
    want = any(s.denominator == 1 and (unit_flavor or s >= 0) for s in sums)
    assert _lattice_member(lam, offsets, unit_flavor) == want


def test_hf_stabilization_flag_fires():
    # an entry deeper than half the cutoff truncates away at E/2: unstable
    space = GradedSpace.make([("u", 0), ("v", 1)])
    t = OperationTable(1, F(3, 2), 0, "algebra", {("u",): {"v": F(1)}})
    alg = OperationSystem.algebra(space, EnergyMonoid.make([(F(3, 2), 0)]),
                                  "cy", F(2), [t])
    report = hf_compute(_pres_from_system(alg), {})
    assert not report.stable
    deep = OperationSystem.algebra(space, EnergyMonoid.make([(F(3, 2), 0)]),
                                   "cy", F(4), [t])
    assert hf_compute(_pres_from_system(deep), {}).stable


def test_union_hf_equals_sector_sum_block_preserving():
    # two AB generators with a differential inside the AB sector: the union
    # computation agrees with the direct sum over the four sector projections
    presA = _simple_presentation("A.")
    presB = _simple_presentation("B.")
    cross = [DoublePoint("x", "y", 2), DoublePoint("y", "x", 1),
             DoublePoint("s", "t", 3), DoublePoint("t", "s", 0)]
    # x:y at degree 1, s:t at degree 2: differential x:y -> s:t stays in AB
    t = OperationTable(1, F(1), 0, "algebra", {("x:y",): {"s:t": F(1)}})
    union = union_sectors(presA, presB, cross, [t])
    hf_union = hf_compute(union, {})
    total = {}
    torsion_total = {}
    for sector in ("AA", "BB", "AB", "BA"):
        sub = sector_project(union, sector)
        rep = hf_compute(_pres_from_system(sub, n=3), {})
        for k, g in rep.groups.items():
            total[k] = total.get(k, 0) + g["free"]
            torsion_total.setdefault(k, []).extend(g["torsion"])
    for k in set(total) | set(hf_union.groups):
        assert hf_union.groups.get(k, {"free": 0})["free"] == total.get(k, 0)
        assert sorted(hf_union.groups.get(k, {"torsion": []})["torsion"]) == \
            sorted(torsion_total.get(k, []))
    # the AB projection carries the torsion
    ab = hf_compute(_pres_from_system(sector_project(union, "AB"), n=3), {})
    assert any(g["torsion"] for g in ab.groups.values())


def test_hf_parity_collapse_with_e_mixing():
    # a differential carrying e^1 jumps two degrees; the report collapses to
    # parity classes and says so
    space = GradedSpace.make([("x", 0), ("y", -1)])
    t = OperationTable(1, F(1), 1, "algebra", {("x",): {"y": F(1)}})
    alg = OperationSystem.algebra(space, EnergyMonoid.make([(1, 1)]),
                                  "nov0", F(2), [t])
    report = hf_compute(_pres_from_system(alg), {})
    assert report.parity_collapsed
    assert report.groups[2]["torsion"] == [F(1)]
    assert all(g["free"] == 0 for g in report.groups.values())


FLAVORS = ("nov", "nov0", "cy", "cy0", "novZ", "novN")


@st.composite
def two_term_complexes(draw):
    """(algebra at E, the same tables at E/2): a random differential from
    degree 0 into degree 1 and, with e^-1, into degree 3, so that the parity
    collapse can appear or truncate away; every flavor, energies >= 0."""
    flavor = draw(st.sampled_from(FLAVORS))
    step = F(1) if flavor in ("novZ", "novN") else F(1, 2)
    no_e = flavor in ("cy", "cy0")
    monoid = EnergyMonoid.make([(step, 0)] if no_e else [(step, 0), (step, -1)])
    energies = [lam for lam in (F(0), F(1, 2), F(1), F(3, 2), F(2), F(3))
                if lam % step == 0]
    cutoff = draw(st.sampled_from([F(1), F(3, 2), F(2), F(3)]))
    sources = [f"u{i}" for i in range(draw(st.integers(1, 4)))]
    targets = [(f"v{j}", 1) for j in range(draw(st.integers(1, 4)))]
    if not no_e:
        targets += [(f"w{j}", 3) for j in range(draw(st.integers(0, 2)))]
    entries = {}
    for u in sources:
        for v, degree in targets:
            mu = -1 if degree == 3 else 0
            for lam in draw(st.lists(st.sampled_from([l for l in energies if l or not mu]),
                                     max_size=2)):
                out = entries.setdefault((lam, mu), {}).setdefault((u,), {})
                out[v] = out.get(v, 0) + draw(st.sampled_from([1, -1, 2]))
    space = GradedSpace.make([(u, 0) for u in sources] + targets)
    tables = [OperationTable(1, lam, mu, "algebra", e) for (lam, mu), e in entries.items()]
    return tuple(OperationSystem.algebra(space, monoid, flavor, cut, tables)
                 for cut in (cutoff, cutoff / 2))


def _free_ranks(report, parity):
    """HF free ranks by group key; with ``parity``, degree groups are summed
    into the parity-class keys 1 (even slots) and 2 (odd slots)."""
    out = {}
    for k, g in report.groups.items():
        key = (k - 1) % 2 + 1 if parity else k
        out[key] = out.get(key, 0) + g["free"]
    return out


@settings(max_examples=200, deadline=None)
@given(two_term_complexes())
def test_stable_flag_matches_half_cutoff_recompute(algebras):
    """``stable`` means the free ranks at E/2 agree with those at E; here the
    E/2 ranks come from a second presentation at cutoff E/2, summed by
    parity when the groups at E are parity classes."""
    at_e, at_half = (_pres_from_system(alg) for alg in algebras)
    try:
        report = hf_compute(at_e, {})
    except NotInvertibleError:
        assume(False)
    half = hf_compute(at_half, {})
    collapsed = report.parity_collapsed
    assert report.stable == (_free_ranks(report, collapsed)
                             == _free_ranks(half, collapsed))


def test_stable_flag_sums_half_cutoff_ranks_by_parity():
    # d(u) = v + T^2 e^-1 w: at E = 2 the e-term collapses the degrees to
    # parity classes, at E/2 it truncates away.  The only Smith divisor is 0,
    # so none lies in (1, 2], and the E/2 degree ranks summed by parity
    # (even 0, odd 1) equal the parity-class ranks at E.
    space = GradedSpace.make([("u", 0), ("v", 1), ("w", 3)])
    tables = [OperationTable(1, F(0), 0, "algebra", {("u",): {"v": F(1)}}),
              OperationTable(1, F(2), -1, "algebra", {("u",): {"w": F(1)}})]
    monoid = EnergyMonoid.make([(1, 0), (1, -1)])
    alg = OperationSystem.algebra(space, monoid, "nov0", F(2), tables)
    report = hf_compute(_pres_from_system(alg), {})
    half = hf_compute(_pres_from_system(
        OperationSystem.algebra(space, monoid, "nov0", F(1), tables)), {})
    assert report.parity_collapsed and not half.parity_collapsed
    assert _free_ranks(half, True) == _free_ranks(report, True) == {1: 0, 2: 1}
    assert report.stable


def test_differential_energies_are_never_negative():
    # the stabilization rule needs them >= 0: a table key off the monoid is
    # refused, and so is a twist by an element of valuation <= 0
    space = GradedSpace.make([("u", 0), ("v", 1)])
    t = OperationTable(1, F(-1), 0, "algebra", {("u",): {"v": F(1)}})
    with pytest.raises(NotInMonoidError):
        OperationSystem.algebra(space, G, "nov", E, [t])
    alg = OperationSystem.algebra(space, G, "nov", E, [])
    with pytest.raises(DivergentTwistError):
        twist(alg, {"u": mono(1, -1, 0, "nov")})


def test_hf_reduces_each_degree_block_once(monkeypatch):
    # the mc-hf shape: sphere homology, an acyclic pair and a torsion pair
    from ainfkit import floer
    points = [DoublePoint("A0-", "A0+", 1), DoublePoint("A0+", "A0-", 2),
              DoublePoint("B0-", "B0+", 1), DoublePoint("B0+", "B0-", 2)]
    tables = [OperationTable(1, F(0), 0, "algebra", {("A0-:A0+",): {"A0+:A0-": F(1)}}),
              OperationTable(1, F(1, 2), 0, "algebra", {("B0-:B0+",): {"B0+:B0-": F(2)}})]
    pres = make_presentation(3, {0: 1, 3: 1}, points, EnergyMonoid.make([(F(1, 2), 0)]),
                             "cy0", F(3), tables)
    calls = []
    original = floer.smith_valuations
    monkeypatch.setattr(floer, "smith_valuations",
                        lambda block: calls.append(block) or original(block))
    report = hf_compute(pres, {})
    assert len(calls) == len(set(pres.space.degrees())) == 4
    assert report.stable and report.groups[2]["torsion"] == [F(1, 2)]


def test_double_point_fuzz(rng):
    # constructor-enforced pairing invariants under random data
    for _ in range(200):
        n = rng.randint(1, 5)
        eta = rng.randint(-2, n + 2)
        a = F(rng.randint(1, 5), 6)
        eps = rng.choice([1, -1])
        partner_eps_ok = eps * ((-1) ** (eta * (n - eta)))
        good = [
            DoublePoint("p", "q", eta, eps=eps, a_value=a),
            DoublePoint("q", "p", n - eta, eps=partner_eps_ok, a_value=1 - a),
        ]
        make_presentation(n, {}, good, G, "cy0", F(2))
        if (-1) ** (eta * (n - eta)) == -1:
            bad = [
                DoublePoint("p", "q", eta, eps=eps),
                DoublePoint("q", "p", n - eta, eps=eps),
            ]
            with pytest.raises(ValueError):
                make_presentation(n, {}, bad, G, "cy0", F(2))


def test_truncate_then_check(rng):
    from ainfkit import truncate_level, check_relations
    alg = checked(random_curved_algebra(rng), 4)
    for level in (0, 1, 2):
        cut = truncate_level(alg, level)
        assert check_relations(cut, level).ok


def test_mc_obstruction_class_follows_the_basis_order():
    # d(x) = y1 + y2 with y2 listed first: y2 is the pivot of the image, so a
    # curvature class is reduced onto y1 (a pivot on y1, the first label in
    # sort order, would give -y2 and -3*y2); values recorded with the
    # dense-matrix linear algebra this replaced
    for curvature, cls in (({"y1": F(1)}, {"y1": 1}),
                           ({"y1": F(1), "y2": F(-2)}, {"y1": 3})):
        sol = mc_solve(unsorted_basis_algebra(curvature))
        assert isinstance(sol, Obstruction)
        assert (sol.level, sol.mu, sol.class_vector) == (1, 0, cls)


def test_twist_refuses_curvature_at_zero_energy():
    # m_0^{0,0} != 0 survives every insertion of b, and the twist refuses it
    # with the gapped-validation message
    space = GradedSpace.make([("x", 0), ("y", 1)])
    alg = OperationSystem.algebra(space, G, "nov0", E, [
        OperationTable(0, F(0), 0, "algebra", {(): {"y": F(1)}})])
    b = {"x": NovikovElement.make([(F(1), F(1), 0)], "nov0", E)}
    for element in ({}, b):
        with pytest.raises(AinfError) as info:
            twist(alg, element)
        assert str(info.value) == ("twist output failed gapped validation: gapped: FAIL\n"
                                   "  - (ii) m_0^{0,0} != 0")


def test_mc_solve_row_reduces_m1_once_per_e_power(monkeypatch):
    """m_2(x, x) = y puts a residual at every level of the two-generator
    fixture, so three levels are solved against the one e^0 block of
    m_1^{0,0}, which is row-reduced once."""
    from ainfkit import linalg
    alg = two_generator_algebra()
    alg = alg.with_tables(list(alg.tables.values())
                          + [OperationTable(2, F(0), 0, "algebra", {("x", "x"): {"y": F(1)}})])
    calls = []
    original = linalg.row_reduce
    monkeypatch.setattr(linalg, "row_reduce",
                        lambda vectors, order: calls.append(vectors) or original(vectors, order))
    sol = mc_solve(alg)
    assert sol.certified
    assert sorted(t[1] for t in sol.element["x"].terms) == [1, 2, 3]
    assert len(calls) == 1
