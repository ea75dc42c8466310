"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
happen."""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from ainfkit import (
    BoundingCochain,
    DoublePoint,
    EnergyMonoid,
    GradedSpace,
    NovikovElement,
    Obstruction,
    OperationSystem,
    OperationTable,
    SignQuery,
    acyclicity_feasible,
    ank_from_geometric,
    bc_criteria,
    check_morphism,
    check_relations,
    compose_morphisms,
    enumerate_trees,
    eta_from_phases,
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
    monoid_elements,
    monoid_norm,
    rescale_regrade,
    sign_boundary_insertion,
    sign_fibre_product,
    sign_zeta,
    twist,
    union_sectors,
    whitney_preset,
)
from ainfkit.floer import LagrangianPresentation
from ainfkit.novmat import NovMatrix, smith_valuations
from ainfkit.transfer import GeometricData

from conftest import (
    checked,
    heisenberg_algebra,
    random_complex,
    random_curved_algebra,
    random_element,
    three_generator_algebra,
    two_generator_algebra,
)
from test_floer import (
    _massey_presentation,
    _pres_from_system,
    _reduced_eq,
    _simple_presentation,
    brute_force_rank,
)
from test_gapped import brute_force_elements, brute_force_norm
from test_transfer import _direct_sum_with_acyclic, brute_force_tree_count


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:02d} {name}: {status} "
              f"({elapsed:.2f}s, budget {budget_seconds}s)")
        if status == "PASS":
            assert elapsed < budget_seconds, (
                f"criterion {number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {budget_seconds}s")


def mono(c, lam, mu, flavor, cutoff):
    return NovikovElement.monomial(c, lam, mu, flavor, cutoff)


def test_criterion_01_whitney_indices():
    with criterion(1, "whitney-sphere indices", 1):
        for n in range(2, 9):
            r_minus = [F(-1, 4)] * n
            r_plus = [F(5, 4)] + [F(1, 4)] * (n - 1)
            eta = eta_from_phases(n, r_minus, r_plus)
            partner = eta_from_phases(n, r_plus, r_minus)
            assert eta == n + 1 and partner == -1
            assert eta + partner == n


def test_criterion_02_whitney_criteria():
    with criterion(2, "whitney-sphere criteria", 1):
        for n in range(3, 9):
            report = bc_criteria(whitney_preset(n))
            assert report.unique_zero, n
        report2 = bc_criteria(whitney_preset(2), exact=True)
        assert report2.unique_zero and report2.zero_is_bc
        for n in range(2, 9):
            pres = whitney_preset(n)
            dims = {}
            for _, d in pres.space.basis:
                dims[d] = dims.get(d, 0) + 1
            ok, _ = acyclicity_feasible(dims)
            assert ok, n


def test_criterion_03_tree_enumeration():
    with criterion(3, "tree enumeration", 5):
        expected = {2: 1, 3: 3, 4: 11, 5: 45, 6: 197}
        for k, count in expected.items():
            trees = enumerate_trees(k, "strict")
            assert len(trees) == count, k
            assert brute_force_tree_count(k, "strict") == count, k
            shapes = [t.shape() for t in trees]
            assert len(set(shapes)) == len(shapes)


def test_criterion_04_norm_oracle():
    with criterion(4, "monoid norm against the decomposition oracle", 30):
        rng = random.Random(41)
        pool = [F(1, 3), F(1, 2), F(2, 3), F(1), F(4, 3), F(3, 2), F(2)]
        for _ in range(50):
            gens = [(rng.choice(pool), rng.randint(-1, 1))
                    for _ in range(rng.randint(1, 3))]
            G = EnergyMonoid.make(gens)
            assert monoid_norm(G, (0, 0)) == 0
            for key in monoid_elements(G, 4):
                if key == (F(0), 0):
                    continue
                assert monoid_norm(G, key) == brute_force_norm(gens, key), (gens, key)


def _full_budget_level(*systems):
    """The smallest level admitting every stored key of the given systems."""
    level = 0
    for sys_ in systems:
        for (k, lam, mu) in sys_.tables:
            level = max(level, monoid_norm(sys_.monoid, (lam, mu)) + k - 1)
    return level


def test_criterion_05_minimal_model_soundness():
    with criterion(5, "minimal-model soundness on 20 random fixtures", 60):
        rng = random.Random(5)
        for i in range(20):
            base = random_complex(rng, n_labels=rng.randint(4, 6),
                                  cutoff=F(3), generators=((1, 0), (1, 1)))
            b = random_element(rng, base)
            alg = twist(base, b)  # curvature terms m_0^{lam>0}
            checked(alg, 3)       # verified by the checker first
            model, incl = minimal_model(alg, kmax=5)
            level = max(_full_budget_level(model, incl), 3)
            assert check_relations(model, level).ok, i
            assert check_morphism(incl, model, alg, level).ok, i
            assert model.table(1, F(0), 0) is None, i


def test_criterion_06_strict_homotopy_inverse():
    with criterion(6, "strict homotopy inverse", 30):
        rng = random.Random(6)
        for i in range(10):
            D = checked(random_curved_algebra(rng, n_labels=3))
            A, p = _direct_sum_with_acyclic(rng, D, pairs=rng.randint(1, 2))
            checked(A)
            q = homotopy_inverse_strict(p, A, D, kmax=3)
            assert check_morphism(q, D, A, 3).ok, i
            composed = compose_morphisms(p, q)
            ident = identity_morphism(D)
            keys = set(composed.tables) | set(ident.tables)
            for key in keys:
                ta = composed.tables.get(key)
                tb = ident.tables.get(key)
                assert (ta.entries if ta else {}) == (tb.entries if tb else {}), (i, key)


def test_criterion_07_geometric_pipeline_fidelity():
    with criterion(7, "geometric pipeline fidelity", 30):
        from ainfkit.gapped import budget_admits
        rng = random.Random(7)
        fixtures = [checked(heisenberg_algebra(), 4),
                    checked(random_curved_algebra(rng), 3),
                    checked(three_generator_algebra(), 3)]
        for level in (1, 2, 3):
            for alg in fixtures:
                n_prime = level * (level + 2)
                declared = set(alg.tables)
                for lam, mu in monoid_elements(alg.monoid, alg.cutoff):
                    n = monoid_norm(alg.monoid, (lam, mu))
                    for k in range(0, max(n_prime + 1 - n, 0) + 1):
                        if n + k - 1 <= n_prime:
                            declared.add((k, lam, mu))
                geo = GeometricData(alg.source,
                                    {l: 0 for l, _ in alg.source.basis},
                                    alg.monoid, alg.cutoff, alg.flavor, declared,
                                    {key: t.entries for key, t in alg.tables.items()})
                out = ank_from_geometric(geo, level, ambient_parity=3)
                assert check_relations(out, level).ok
                for (k, lam, mu), t in alg.tables.items():
                    if budget_admits(alg.monoid, (lam, mu), k, level):
                        got = out.table(k, lam, mu)
                        assert got is not None and got.entries == t.entries
                for key in out.tables:
                    assert alg.table(*key) is not None


def test_criterion_08_twist_and_mc_suite():
    with criterion(8, "twist and Maurer-Cartan suite", 30):
        rng = random.Random(8)
        strict_count = curved_count = 0
        for _ in range(100):
            alg = random_curved_algebra(rng, n_labels=4)
            b = random_element(rng, alg, density=0.5)
            _, residual_zero = mc_residual(alg, b)
            strict = all(k != 0 for k, _, _ in twist(alg, b).tables)
            assert strict == residual_zero
            strict_count += strict
            curved_count += not strict
        assert strict_count and curved_count
        sol = mc_solve(two_generator_algebra())
        assert isinstance(sol, BoundingCochain)
        assert sol.element == {"x": mono(-1, 1, 0, "nov0", F(3))}
        space = GradedSpace.make([("v", 1)])
        obstructed = OperationSystem.algebra(
            space, EnergyMonoid.make([(1, 0)]), "nov0", F(3),
            [OperationTable(0, F(1), 0, "algebra", {(): {"v": F(1)}})])
        out = mc_solve(obstructed)
        assert isinstance(out, Obstruction)
        assert out.level == 1 and out.class_vector == {"v": F(1)}


def test_criterion_09_hf_correctness():
    with criterion(9, "Floer cohomology correctness", 30):
        G = EnergyMonoid.make([(1, 0)])
        lam = F(1)
        space = GradedSpace.make([("u", 0), ("v", 1)])
        t = OperationTable(1, lam, 0, "algebra", {("u",): {"v": F(1)}})
        over_unit = hf_compute(_pres_from_system(
            OperationSystem.algebra(space, G, "cy", F(2), [t]), n=3), {})
        assert all(g["free"] == 0 for g in over_unit.groups.values())
        over_zero = hf_compute(_pres_from_system(
            OperationSystem.algebra(space, G, "cy0", F(2), [t]), n=3), {})
        assert over_zero.groups[2]["torsion"] == [lam]
        assert all(g["free"] == 0 for g in over_zero.groups.values())
        # zero differential: shifted dims, HF^k = H^{k-1}
        space2 = GradedSpace.make([("a", 0), ("b", 0), ("c", 2)])
        rep = hf_compute(_pres_from_system(
            OperationSystem.algebra(space2, G, "cy0", F(2), []), n=3), {})
        assert {k: g["free"] for k, g in rep.groups.items()} == {1: 2, 3: 1}
        # Smith reduction vs the brute-force minor-rank oracle
        rng = random.Random(9)
        for _ in range(30):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            rows = tuple(f"r{i}" for i in range(n))
            cols = tuple(f"c{j}" for j in range(m))
            mat = NovMatrix(rows, cols, "cy0", F(6))
            for i in range(n):
                for j in range(m):
                    if rng.random() < 0.6:
                        mat.set(rows[i], cols[j],
                                mono(rng.choice([1, -1, 2]), F(rng.randint(0, 1)),
                                     0, "cy0", F(6)))
            assert len(smith_valuations(mat)) == brute_force_rank(mat, rows, cols)


def test_criterion_10_product_laws():
    with criterion(10, "product laws", 10):
        pres = _massey_presentation()
        assert pres.algebra.table(2, F(0), 0) is not None
        assert pres.algebra.table(3, F(0), 0) is not None
        labels = list(pres.space.labels)
        cutoff = pres.algebra.cutoff
        nested = 0
        for a, b, c in itertools.product(labels, repeat=3):
            x = {a: mono(1, 0, 0, "cy0", cutoff)}
            y = {b: mono(1, 0, 0, "cy0", cutoff)}
            z = {c: mono(1, 0, 0, "cy0", cutoff)}
            xy, _ = hf_product(pres, {}, x, y)
            yz, _ = hf_product(pres, {}, y, z)
            left, _ = hf_product(pres, {}, xy, z) if xy else ({}, True)
            right, _ = hf_product(pres, {}, x, yz) if yz else ({}, True)
            nested += bool(left or right)
            assert _reduced_eq(pres, {}, left, right), (a, b, c)
        assert nested > 0
        # representative independence: shifting by a boundary keeps the class
        space = GradedSpace.make([("u", -1), ("v", 0), ("w", -1),
                                  ("zp", -1), ("z", 0)])
        d = OperationTable(1, F(0), 0, "algebra",
                           {("u",): {"v": F(1)}, ("zp",): {"z": F(1)}})
        m2 = OperationTable(2, F(0), 0, "algebra",
                            {("w", "v"): {"z": F(1)}, ("w", "u"): {"zp": F(1)}})
        G = EnergyMonoid.make([(1, 0)])
        alg = checked(OperationSystem.algebra(space, G, "cy0", F(2), [d, m2]), 3)
        bpres = _pres_from_system(alg)
        w = {"w": mono(1, 0, 0, "cy0", F(2))}
        boundary = {"v": mono(1, 0, 0, "cy0", F(2))}
        prod, ok = hf_product(bpres, {}, w, boundary)
        assert ok and prod
        assert _reduced_eq(bpres, {}, prod, {})


def test_criterion_11_sign_calculus():
    with criterion(11, "sign calculus", 5):
        rng = random.Random(11)
        for _ in range(2000):
            n, i, k1, k2 = (rng.randint(0, 5), rng.randint(1, 4),
                            rng.randint(1, 4), rng.randint(0, 4))
            q = SignQuery(n=n, i=i, k1=k1, k2=k2)
            assert sign_zeta("zeta2", q) == (-1) ** ((n + i + k2 * (k1 + i)) % 2)
        for _ in range(2000):
            n, k = rng.randint(0, 6), rng.randint(0, 5)
            members = sorted(rng.sample(range(1, k + 1), rng.randint(0, k)))
            etas = {pos: rng.randint(-2, 5) for pos in members}
            degs = [etas[j] - 1 if j in etas else -1 for j in range(1, k + 1)]
            q = SignQuery(n=n, k=k, degs=degs, eta_by_index=etas,
                          zero_in_I=rng.random() < 0.5, eta0=rng.randint(-2, 5))
            assert sign_zeta("zeta3", q) == 1
        for _ in range(10_000):
            n = rng.randint(0, 5)
            k = rng.randint(1, 5)
            k2 = rng.randint(0, k)
            i = rng.randint(1, k - k2 + 1)
            degs = [rng.randint(-2, 4) for _ in range(k)]
            maslov2 = 2 * rng.randint(-2, 2)
            g_deg = 1 - maslov2 + sum(degs[i - 1: i - 1 + k2])
            split = sign_boundary_insertion("split", SignQuery(n=n, i=i, k2=k2, degs=degs))
            insert = sign_boundary_insertion("insert", SignQuery(i=i, deg_f=g_deg, degs=degs))
            vc = sign_boundary_insertion("vcSplit", SignQuery(n=n, i=i, degs=degs))
            assert split * insert == vc
        for _ in range(2000):
            a, b, y = rng.randint(-3, 6), rng.randint(-3, 6), rng.randint(0, 5)
            assert sign_fibre_product("swap", a, b, y) * \
                sign_fibre_product("swap", b, a, y) == 1


def test_criterion_12_gauge_and_sectors():
    with criterion(12, "gauge transport and union sectors", 30):
        rng = random.Random(12)
        pairs_checked = 0
        # gauge elements of the form q p (retract onto a deformation)
        while pairs_checked < 30:
            D = checked(random_curved_algebra(rng, n_labels=3))
            A, p = _direct_sum_with_acyclic(
                rng, D, pairs=1, prefix=f"g{pairs_checked}")
            checked(A)
            q = homotopy_inverse_strict(p, A, D, kmax=3)
            j = compose_morphisms(q, p)
            sol = mc_solve(A)
            if not isinstance(sol, BoundingCochain):
                continue
            jb, transport = gauge_act(j, sol, A)
            assert jb.certified
            n1b = NovMatrix.from_linear_tables(twist(A, sol))
            n1jb = NovMatrix.from_linear_tables(twist(A, jb))
            lhs = transport.matmul(n1b)
            rhs = n1jb.matmul(transport)
            keys = set(lhs.data) | set(rhs.data)
            for key in keys:
                va, vb = lhs.data.get(key), rhs.data.get(key)
                assert (va is not None and vb is not None and va == vb) or \
                    ((va is None or va.is_zero()) and (vb is None or vb.is_zero()))
            pairs_checked += 1
        # arbitrary morphisms on abelian fixtures
        space = GradedSpace.make([("x", 0), ("y", 1)])
        G = EnergyMonoid.make([(1, 0)])
        abelian = OperationSystem.algebra(space, G, "nov0", F(3), [])
        for i in range(20):
            c = F(rng.randint(1, 3))
            j = OperationSystem.morphism(space, space, G, "nov0", F(3), [
                OperationTable(1, F(0), 0, "morphism",
                               {("x",): {"x": F(1)}, ("y",): {"y": F(1)}}),
                OperationTable(0, F(1), 0, "morphism", {(): {"x": c}})])
            b = {"x": mono(F(rng.randint(-2, 2)), 1, 0, "nov0", F(3))}
            b = {l: v for l, v in b.items() if not v.is_zero()}
            jb, transport = gauge_act(j, BoundingCochain(b, certified=True), abelian)
            assert jb.certified
            n1b = NovMatrix.from_linear_tables(twist(abelian, b))
            n1jb = NovMatrix.from_linear_tables(twist(abelian, jb.element))
            assert not n1b.data and not n1jb.data
            pairs_checked += 1
        assert pairs_checked >= 50
        # zero-cross unions: degreewise HF-rank additivity
        presA = _simple_presentation("A.")
        presB = _simple_presentation("B.")
        union = union_sectors(presA, presB)
        hfA, hfB, hfU = hf_compute(presA, {}), hf_compute(presB, {}), hf_compute(union, {})
        for k in set(hfA.groups) | set(hfB.groups) | set(hfU.groups):
            assert hfU.groups.get(k, {"free": 0})["free"] == \
                hfA.groups.get(k, {"free": 0})["free"] + \
                hfB.groups.get(k, {"free": 0})["free"]


def test_criterion_13_wall_crossing_and_legendrian():
    with criterion(13, "wall-crossing and Legendrian lattice", 5):
        G = EnergyMonoid.make([(1, 0)])
        points = [DoublePoint("p", "q", 2), DoublePoint("q", "p", 1)]
        t1 = OperationTable(1, F(1), 0, "algebra", {("q:p",): {"p:q": F(1)}})
        pres = make_presentation(3, {}, points, G, "cy0", F(2), [t1])
        label = "p:q"
        for c, wall in ((F(1, 4), False), (F(3, 4), True), (F(1, 2), True)):
            b = {label: mono(1, F(1, 2), 0, "cy0", F(2))}
            report = rescale_regrade(
                pres, {("p", "q"): {"c": c}, ("q", "p"): {"c": -c}}, b)
            assert report.intertwining_checked or report.algebra_wall
            assert report.wall == (F(1, 2) - c <= 0), c
            if not report.algebra_wall:
                # entry q:p -> p:q shifts energy by -2c
                assert report.presentation.algebra.table(1, 1 - 2 * c, 0) is not None
        # legendrian lattice: accept and reject
        def legendrian(table_lam):
            pts = [DoublePoint("p", "q", 2, a_value=F(1, 3)),
                   DoublePoint("q", "p", 1, a_value=F(2, 3))]
            t = OperationTable(1, table_lam, 0, "algebra", {("q:p",): {"p:q": F(1)}})
            monoid = EnergyMonoid.make([(table_lam, 0)])
            return make_presentation(3, {}, pts, monoid, "novN", F(3), [t])

        assert legendrian_validate(legendrian(F(4, 3))).ok
        report = legendrian_validate(legendrian(F(1, 2)))
        assert not report.ok
        assert any("misses the integer lattice" in v for v in report.violations)
