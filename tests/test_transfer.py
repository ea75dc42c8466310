import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit import (
    EnergyMonoid,
    GradedSpace,
    OperationSystem,
    OperationTable,
    ank_from_geometric,
    check_morphism,
    check_relations,
    compose_morphisms,
    enumerate_trees,
    filtration_splitting,
    homotopy_inverse_strict,
    identity_morphism,
    minimal_model,
    splitting,
    splitting_for_projection,
    transfer,
    twist,
)
from ainfkit.errors import AinfError, MalformedMorphismError, MissingDataError, NotAComplexError
from ainfkit.gapped import ZERO_KEY, _budgeted_keys, _element_norms, monoid_elements
from ainfkit.gradedcore import _add_scaled, _apply, _apply_each, _fill_slots, _linear, _producers
from ainfkit.novikov import as_fraction
from ainfkit.transfer import MAX_TREES, GeometricData, _count_trees
from conftest import (
    checked,
    heisenberg_algebra,
    random_complex,
    random_curved_algebra,
    random_element,
    random_operations,
    random_rich_algebra,
    three_generator_algebra,
    truncated_free_dga,
    twisted_free_dga,
    two_generator_algebra,
    unsorted_basis_algebra,
)

# every system the library builds unchecked is rebuilt through the public
# constructor (conftest.revalidate_built)
pytestmark = pytest.mark.usefixtures("revalidate_built")

E = F(3)
G = EnergyMonoid.make([(1, 0)])


# ---------------------------------------------------------------------------
# trees

def brute_force_tree_count(k, mode="strict", budget=0):
    """Independent recursive counter over child-leaf compositions."""

    def count_trees(leaves, lv):
        # trees with exactly `leaves` leaves and exactly `lv` low-valence nodes
        total = 0
        for m in range(0, leaves + lv + 1):
            if mode == "strict" and m < 2:
                continue
            own = 1 if m <= 1 else 0
            if lv - own < 0:
                continue
            total += sum(
                _prod(combo)
                for combo in compositions(leaves, lv - own, m)
            )
        return total

    def _prod(combo):
        out = 1
        for l, b in combo:
            out *= child_count(l, b)
        return out

    def compositions(leaves, lv, m):
        if m == 0:
            if leaves == 0 and lv == 0:
                yield []
            return
        for l1 in range(leaves + 1):
            for b1 in range(lv + 1):
                if l1 + b1 == 0:
                    continue
                for rest in compositions(leaves - l1, lv - b1, m - 1):
                    yield [(l1, b1)] + rest

    def child_count(leaves, lv):
        n = count_trees(leaves, lv)
        if leaves == 1 and lv == 0:
            n += 1  # the bare leaf
        return n

    return sum(count_trees(k, b) for b in range(budget + 1))


def test_strict_tree_counts_little_schroeder():
    assert [len(enumerate_trees(k, "strict")) for k in range(1, 7)] == \
        [0, 1, 3, 11, 45, 197]
    for k in range(2, 7):
        assert len(enumerate_trees(k, "strict")) == brute_force_tree_count(k)


def test_filtered_tree_counts_match_brute_force():
    for k in range(0, 5):
        for budget in range(0, 4):
            got = len(enumerate_trees(k, "filtered", budget))
            assert got == brute_force_tree_count(k, "filtered", budget), (k, budget)
            assert _count_trees(k, "filtered", budget) == got, (k, budget)


def _little_schroeder(n_max):
    """s(0..n_max): s(1) = s(2) = 1, (n + 1) s(n + 1) = 3 (2n - 1) s(n) - (n - 2) s(n - 1)."""
    s = [0, 1, 1]
    for n in range(2, n_max):
        s.append((3 * (2 * n - 1) * s[n] - (n - 2) * s[n - 1]) // (n + 1))
    return s


def test_strict_tree_count_is_little_schroeder_up_to_the_bound():
    # the bare leaf is not listed, so k = 1 counts no trees
    assert [_count_trees(k, "strict", 0) for k in range(11)] == \
        [0, 0] + _little_schroeder(10)[2:]
    # k = 11 has 518,859; no size past the first count over the bound is counted
    for k in (11, 12, 10**6):
        assert _count_trees(k, "strict", 0) > MAX_TREES
    assert _count_trees(10**6, "filtered", 10**6) > MAX_TREES
    with pytest.raises(ValueError, match="unknown mode"):
        enumerate_trees(3, "loose")


def test_tree_list_is_duplicate_free_and_ordered():
    trees = enumerate_trees(4, "strict")
    shapes = [t.shape() for t in trees]
    assert len(set(shapes)) == len(shapes)
    keyed = [(t.internal_vertices(), t.shape()) for t in trees]
    assert keyed == sorted(keyed)


def test_strict_trees_have_no_low_valence_vertices():
    for t in enumerate_trees(5, "strict"):
        assert t.low_valence_vertices() == 0
        assert t.leaves() == 5


# ---------------------------------------------------------------------------
# splittings

def _check_splitting_identities(alg, split):
    """A = B + C + dC side conditions: H(B)=H(i(b))=0, id - i Pi = dH + Hd."""
    d = alg.table(1, F(0), 0)
    d_e = d.entries if d else {}

    def apply(entries, vec):
        out = {}
        for l, c in vec.items():
            for t, q in entries.get((l,), {}).items():
                out[t] = out.get(t, F(0)) + c * q
        return {t: c for t, c in out.items() if c}

    def h(vec):
        out = {}
        for l, c in vec.items():
            for t, q in split.h.get(l, {}).items():
                out[t] = out.get(t, F(0)) + c * q
        return {t: c for t, c in out.items() if c}

    def ipi(vec):
        out = {}
        for l, c in vec.items():
            for bl, q in split.project.get(l, {}).items():
                for t, q2 in split.include[bl].items():
                    out[t] = out.get(t, F(0)) + c * q * q2
        return {t: c for t, c in out.items() if c}

    for a_label, _ in alg.source.basis:
        v = {a_label: F(1)}
        lhs = dict(v)
        for t, c in ipi(v).items():
            lhs[t] = lhs.get(t, F(0)) - c
        rhs = apply(d_e, h(v))
        for t, c in h(apply(d_e, v)).items():
            rhs[t] = rhs.get(t, F(0)) + c
        assert {t: c for t, c in lhs.items() if c} == \
            {t: c for t, c in rhs.items() if c}, a_label
    for b_label, vec in split.include.items():
        assert h(vec) == {}, f"H does not kill B at {b_label}"


def test_splitting_zero_differential():
    space = GradedSpace.make([("x", 0), ("y", 1)])
    alg = OperationSystem.algebra(space, G, "nov0", E, [])
    split = splitting(alg)
    assert split.b_space.dim() == 2
    assert split.h == {}
    _check_splitting_identities(alg, split)


def test_splitting_two_and_three_generators():
    alg = two_generator_algebra()
    split = splitting(alg)
    assert split.b_space.dim() == 0
    assert split.h == {"y": {"x": F(1)}}
    alg3 = three_generator_algebra()
    split3 = splitting(alg3)
    assert split3.b_space.dim() == 1
    assert split3.include[split3.b_space.labels[0]] == {"z": F(1)}
    assert split3.h == {"y": {"x": F(1)}}
    _check_splitting_identities(alg3, split3)


def test_splitting_random_complexes(rng):
    for _ in range(10):
        alg = random_complex(rng, n_labels=7)
        split = splitting(alg)
        _check_splitting_identities(alg, split)


def test_splitting_rejects_non_complex():
    space = GradedSpace.make([("a", 0), ("b", 1), ("c", 2)])
    d = OperationTable(1, F(0), 0, "algebra", {("a",): {"b": F(1)}, ("b",): {"c": F(1)}})
    alg = OperationSystem.algebra(space, G, "nov0", E, [d])
    with pytest.raises(NotAComplexError):
        splitting(alg)


# ---------------------------------------------------------------------------
# minimal models

def test_already_minimal_algebra_is_fixed():
    space = GradedSpace.make([("p", -1)])
    t = OperationTable(2, F(0), 0, "algebra", {("p", "p"): {"p": F(1)}})
    alg = checked(OperationSystem.algebra(space, G, "nov0", E, [t]))
    model, incl = minimal_model(alg, kmax=3)
    assert model.source.dim() == 1
    (b_label, b_deg), = model.source.basis
    assert b_deg == -1
    t2 = model.table(2, F(0), 0)
    assert t2 and t2.entries == {(b_label, b_label): {b_label: F(1)}}
    assert model.table(3, F(0), 0) is None
    i1 = incl.table(1, F(0), 0)
    assert i1.entries == {(b_label,): {"p": F(1)}}


def test_minimal_model_of_curvature_fixture():
    # {x -> y, m_0 = T y, closed z}: the model on span{z} has every
    # operation zero (the curved tree lands in directions H and Pi kill)
    alg = checked(three_generator_algebra())
    model, incl = minimal_model(alg, kmax=3)
    assert model.source.dim() == 1
    assert model.tables == {}
    assert check_morphism(incl, model, alg, 3).ok
    # i_0 is nonzero: the inclusion corrects the curvature
    assert incl.table(0, F(1), 0) is not None


def test_minimal_model_of_acyclic_algebra():
    alg = checked(two_generator_algebra())
    model, incl = minimal_model(alg, kmax=3)
    assert model.source.is_zero()
    assert model.tables == {}
    assert check_relations(model, 3).ok
    assert check_morphism(incl, model, alg, 3).ok


def test_minimal_model_heisenberg_massey():
    alg = checked(heisenberg_algebra(), level=4)
    model, incl = minimal_model(alg, kmax=4)
    assert check_relations(model, 4).ok
    assert check_morphism(incl, model, alg, 4).ok
    assert model.table(1, F(0), 0) is None  # minimal
    assert model.table(2, F(0), 0) is not None
    assert model.table(3, F(0), 0) is not None  # the Massey product


def test_minimal_model_randomized(rng):
    for _ in range(8):
        alg = checked(random_curved_algebra(rng), level=3)
        model, incl = minimal_model(alg, kmax=4)
        assert check_relations(model, 3).ok
        assert check_morphism(incl, model, alg, 3).ok
        assert model.table(1, F(0), 0) is None


def test_energy_pruning_lossless(rng):
    # computing at a larger cutoff and truncating changes nothing <= E
    alg = checked(random_curved_algebra(rng, cutoff=F(2)))
    big = OperationSystem.algebra(alg.source, alg.monoid, alg.flavor, F(4),
                                  [OperationTable(t.k, t.lam, t.mu, t.role, t.entries)
                                   for t in alg.tables.values()])
    model_small, _ = minimal_model(alg, kmax=3)
    model_big, _ = minimal_model(big, kmax=3)
    for (k, lam, mu), t in model_small.tables.items():
        big_t = model_big.table(k, lam, mu)
        assert big_t is not None and big_t.entries == t.entries
    for (k, lam, mu), t in model_big.tables.items():
        if lam <= F(2):
            small_t = model_small.table(k, lam, mu)
            assert small_t is not None and small_t.entries == t.entries


def test_minimal_model_budget_parameter():
    alg = checked(heisenberg_algebra(), level=4)
    by_level = minimal_model(alg, level=3)[0]
    from ainfkit.gapped import budget_admits
    for (k, lam, mu) in by_level.tables:
        assert budget_admits(alg.monoid, (lam, mu), k, 3)
    with pytest.raises(ValueError):
        minimal_model(alg)


# ---------------------------------------------------------------------------
# strict homotopy inverses

def _direct_sum_with_acyclic(rng, D, pairs=1, prefix="k"):
    """A = D + acyclic complex, operations pulled back through the projection.

    m_k = s(o_k(pi x)) for k >= 2 and m_1 = o_1 + d_K gives a valid algebra
    with p = pi a strict surjective quasi-isomorphism."""
    basis = list(D.source.basis)
    d_entries = {}
    dD = D.table(1, F(0), 0)
    if dD:
        d_entries.update({k: dict(v) for k, v in dD.entries.items()})
    for i in range(pairs):
        dd = rng.randint(-1, 2)
        basis += [(f"{prefix}c{i}", dd), (f"{prefix}dc{i}", dd + 1)]
        d_entries[(f"{prefix}c{i}",)] = {f"{prefix}dc{i}": F(rng.choice([1, -1, 2]))}
    space = GradedSpace.make(basis)
    tables = [OperationTable(1, F(0), 0, "algebra", d_entries)]
    for (k, lam, mu), t in D.tables.items():
        if (k, lam, mu) == (1, F(0), 0):
            continue  # the differential was merged with d_K above
        tables.append(OperationTable(k, lam, mu, "algebra", dict(t.entries)))
    A = OperationSystem.algebra(space, D.monoid, D.flavor, D.cutoff, tables)
    p_entries = {(l,): {l: F(1)} for l, _ in D.source.basis}
    p = OperationSystem.morphism(space, D.source, D.monoid, D.flavor, D.cutoff,
                                 [OperationTable(1, F(0), 0, "morphism", p_entries)])
    return A, p


def _assert_identity(morphism, target):
    ident = identity_morphism(target)
    keys = set(morphism.tables) | set(ident.tables)
    for key in keys:
        ta, tb = morphism.tables.get(key), ident.tables.get(key)
        assert (ta.entries if ta else {}) == (tb.entries if tb else {}), key


def test_inverse_of_identity():
    alg = checked(two_generator_algebra())
    p = identity_morphism(alg)
    q = homotopy_inverse_strict(p, alg, alg, kmax=3)
    _assert_identity(compose_morphisms(p, q), alg)


def test_inverse_of_projection_killing_acyclic():
    # projection of {x, y, z; d(x) = y} onto span{z}
    alg3 = checked(three_generator_algebra())
    target_space = GradedSpace.make([("z", 0)])
    D = OperationSystem.algebra(target_space, G, "nov0", E, [])
    p = OperationSystem.morphism(alg3.source, target_space, G, "nov0", E, [
        OperationTable(1, F(0), 0, "morphism", {("z",): {"z": F(1)}})])
    q = homotopy_inverse_strict(p, alg3, D, kmax=3)
    assert check_morphism(q, D, alg3, 3).ok
    _assert_identity(compose_morphisms(p, q), D)
    # q_0 corrects the curvature in the kernel direction
    assert q.table(0, F(1), 0) is not None


def test_inverse_random_strict_surjections(rng):
    for _ in range(6):
        D = checked(random_curved_algebra(rng, n_labels=3))
        A, p = _direct_sum_with_acyclic(rng, D, pairs=rng.randint(1, 2))
        checked(A)
        assert check_morphism(p, A, D, 3).ok
        q = homotopy_inverse_strict(p, A, D, kmax=3)
        assert check_morphism(q, D, A, 3).ok
        _assert_identity(compose_morphisms(p, q), D)


def test_inverse_of_a_surjection_with_an_e_power_component():
    # p_1^{1/2,1}(z) = 3w lowers the degree by 2: the inverse keeps the e-power
    monoid = EnergyMonoid.make([(1, 0), (F(1, 2), 1)])
    A = OperationSystem.algebra(
        GradedSpace.make([("z", 0), ("w", -2), ("c", 0), ("dc", 1)]), monoid, "nov0", E,
        [OperationTable(1, F(0), 0, "algebra", {("c",): {"dc": F(1)}})])
    D = OperationSystem.algebra(GradedSpace.make([("z", 0), ("w", -2)]), monoid, "nov0",
                                E, [])
    p = OperationSystem.morphism(A.source, D.source, monoid, "nov0", E, [
        OperationTable(1, F(0), 0, "morphism", {("z",): {"z": F(1)}, ("w",): {"w": F(1)}}),
        OperationTable(1, F(1, 2), 1, "morphism", {("z",): {"w": F(3)}})])
    assert check_morphism(p, A, D, 3).ok
    q = homotopy_inverse_strict(p, A, D, kmax=3)
    assert check_morphism(q, D, A, 3).ok
    _assert_identity(compose_morphisms(p, q), D)
    assert q.table(1, F(1, 2), 1).entries == {("z",): {"w": -3}}


def test_inverse_rejects_non_strict_and_non_surjective():
    alg = checked(two_generator_algebra())
    f2 = OperationSystem.morphism(alg.source, alg.source, G, "nov0", E, [
        OperationTable(1, F(0), 0, "morphism",
                       {("x",): {"x": F(1)}, ("y",): {"y": F(1)}}),
        OperationTable(2, F(1), 0, "morphism", {("x", "x"): {"x": F(1)}})])
    with pytest.raises(MalformedMorphismError):
        homotopy_inverse_strict(f2, alg, alg, kmax=2)
    target_space = GradedSpace.make([("z", 0)])
    D = OperationSystem.algebra(target_space, G, "nov0", E, [])
    not_surj = OperationSystem.morphism(alg.source, target_space, G, "nov0", E, [])
    with pytest.raises(MalformedMorphismError):
        homotopy_inverse_strict(not_surj, alg, D, kmax=2)


# ---------------------------------------------------------------------------
# the geometric pipeline

def _geo_from_algebra(alg, filtration, n_prime):
    declared = set(alg.tables)
    entries = {key: t.entries for key, t in alg.tables.items()}
    # declare every budget-admissible key so lookups never miss
    from ainfkit.gapped import monoid_norm
    for lam, mu in monoid_elements(alg.monoid, alg.cutoff):
        n = monoid_norm(alg.monoid, (lam, mu))
        for k in range(0, max(n_prime + 1 - n, 0) + 1):
            if n + k - 1 <= n_prime:
                declared.add((k, lam, mu))
    return GeometricData(alg.source, filtration, alg.monoid, alg.cutoff,
                         alg.flavor, declared, entries)


def test_ank_trivial_filtration_reproduces_tables(rng):
    # honest checked algebra, all filtration degrees zero: H = 0 and the
    # output equals the input at every admissible key
    level = 3
    for alg in (checked(heisenberg_algebra(), 4), checked(random_curved_algebra(rng), 3)):
        geo = _geo_from_algebra(alg, {l: 0 for l, _ in alg.source.basis},
                                level * (level + 2))
        out = ank_from_geometric(geo, level, ambient_parity=3)
        assert check_relations(out, level).ok
        from ainfkit.gapped import budget_admits
        for (k, lam, mu), t in alg.tables.items():
            if budget_admits(alg.monoid, (lam, mu), k, level):
                got = out.table(k, lam, mu)
                assert got is not None and got.entries == t.entries, (k, lam, mu)
        for (k, lam, mu) in out.tables:
            assert alg.table(k, lam, mu) is not None


def test_ank_with_contractible_extension(rng):
    # extend the Heisenberg space by an acyclic pair at high filtration;
    # the assembled algebra on the low part passes the relations
    base = heisenberg_algebra()
    basis = list(base.source.basis) + [("u", 0), ("du", 1)]
    space = GradedSpace.make(basis)
    d = dict(base.table(1, F(0), 0).entries)
    d[("u",)] = {"du": F(1)}
    tables = [OperationTable(1, F(0), 0, "algebra", d),
              base.table(2, F(0), 0)]
    big = checked(OperationSystem.algebra(space, G, "nov0", F(2), tables), 4)
    level = 2
    filtration = {l: 0 for l, _ in base.source.basis}
    filtration.update({"u": level + 1, "du": level + 1})
    geo = _geo_from_algebra(big, filtration, level * (level + 2))
    out = ank_from_geometric(geo, level, ambient_parity=3)
    assert set(out.source.labels) == set(base.source.labels)
    assert check_relations(out, level).ok


def test_ank_missing_data_error():
    alg = checked(heisenberg_algebra(), 3)
    geo = GeometricData(alg.source, {l: 0 for l, _ in alg.source.basis},
                        alg.monoid, alg.cutoff, alg.flavor,
                        declared={(1, F(0), 0)},
                        entries={(1, F(0), 0): alg.table(1, F(0), 0).entries})
    with pytest.raises(MissingDataError):
        ank_from_geometric(geo, 2, ambient_parity=3)


def tree_sums_by_pair(vertex_table, vertex_keys, split, edge_sign, pairs):
    """The tree sums the slow way, at each (k, (lam, mu)) of ``pairs`` in
    their order, which must put every child pair before its parents:
    {(k, lam, mu): (S, edge(S))} at every pair.  Each pair walks every
    vertex entry and keeps the fillings that land exactly on the pair;
    vertex_table(m, kv) is looked up at each pair of energy at least kv's,
    in sorted (m, kv) order."""
    probes = sorted((m, kv) for m, kv in vertex_keys if m > 1 or kv != ZERO_KEY)
    edge = {a: {t: edge_sign * c for t, c in vec.items()} for a, vec in split.h.items()}
    index = _producers({(1, *ZERO_KEY): {(b,): vec for b, vec in split.include.items()}})
    sums = {}
    for k, key in pairs:
        s = {}
        for m, kv in probes if key != ZERO_KEY or k > 1 else ():
            if kv[0] > key[0]:
                continue
            table = vertex_table(m, kv)
            if not table:
                continue
            rest = (k, key[0] - kv[0], key[1] - kv[1])
            for v_inputs, v_outs in table.items():
                specs = [index.get(l) for l in v_inputs]
                if all(specs):
                    for fill_key, inputs, coeff in _fill_slots(specs, k, rest[1]):
                        if fill_key == rest:
                            _add_scaled(s.setdefault(inputs, {}), v_outs, coeff)
        s = {i: v for i, v in s.items() if v}
        applied = _apply_each(edge, s)
        _producers({(k, *key): applied}, index)
        sums[(k, *key)] = s, applied
    return sums


def ank_by_pair_walk(geo, level, ambient_parity):
    """ank_from_geometric with the tree sums of ``tree_sums_by_pair`` at
    every budgeted (arity, key) pair, the vertex tables looked up at each
    pair: the declared ones with entries, and every undeclared key inside
    the N' budget, whose lookup raises MissingDataError."""
    n_prime = level * (level + 2)
    split = filtration_splitting(geo, level)
    max_arity = max((k for k, _, _ in geo.declared), default=0)
    norms = _element_norms(geo.monoid, geo.cutoff)
    members = {kv for kv, _ in norms}
    declared = {(k, (as_fraction(lam), int(mu))) for k, lam, mu in geo.declared}
    vertex_keys = {(m, kv) for m, kv in declared if kv in members and geo.table(m, kv)}
    vertex_keys.update(
        (m, kv) for kv, norm in norms for m in range(max_arity + 1)
        if norm + m - 1 <= n_prime and geo.table(m, kv) is None)

    def vertex(m, kv):
        t = geo.table(m, kv)
        if t is None:
            raise MissingDataError(f"(k={m}, lam={kv[0]}, mu={kv[1]})")
        return t

    sums = tree_sums_by_pair(vertex, vertex_keys, split, 1 if ambient_parity % 2 else -1,
                             [p for p in _budgeted_keys(geo.monoid, geo.cutoff, level)
                              if p != (1, ZERO_KEY)])
    b_labels = set(split.b_space.labels)
    d = {i: {ol: c for ol, c in o.items() if ol in b_labels}
         for i, o in geo.table(1, ZERO_KEY).items() if all(l in b_labels for l in i)}
    tables = [OperationTable(1, 0, 0, "algebra", d)] + [
        OperationTable(k, lam, mu, "algebra", _apply_each(split.project, s))
        for (k, lam, mu), (s, _) in sums.items()]
    return OperationSystem.algebra(split.b_space, geo.monoid, geo.flavor,
                                   geo.cutoff, tables)


@st.composite
def geometric_inputs(draw):
    """Geometric data with every key inside the N' budget declared, some of
    them then dropped, on the Heisenberg dga (cutoff 2 or 3), a random
    curved algebra, a twisted minimal model of the Heisenberg dga, or the
    Heisenberg dga plus an acyclic pair (u, du); some labels, u and du
    among them, at filtration level + 1; with a level and an ambient
    parity."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    level = draw(st.sampled_from([1, 2, 0]))
    kind = draw(st.sampled_from(["heisenberg", "curved", "rich", "extension"]))
    if kind == "heisenberg":
        alg = heisenberg_algebra(cutoff=F(draw(st.sampled_from([2, 3]))))
    elif kind == "curved":
        alg = random_curved_algebra(rng, n_labels=4, generators=draw(st.sampled_from(
            [((1, 0),), ((1, 0), (F(1, 2), 1)), ((F(1, 2), 0),)])))
    elif kind == "rich":
        alg = random_rich_algebra(rng)
    else:
        base = heisenberg_algebra()
        d = {**base.table(1, F(0), 0).entries, ("u",): {"du": F(1)}}
        alg = OperationSystem.algebra(
            GradedSpace.make([*base.source.basis, ("u", 0), ("du", 1)]), G, "nov0", F(2),
            [OperationTable(1, F(0), 0, "algebra", d), base.table(2, F(0), 0)])
    d = _linear(alg.table(1, 0, 0))
    for attempt in range(6):
        # the high labels hold every label d maps into them, so that the
        # low ones span a d-closed subspace, and must split as A + dA; the
        # last attempt makes only u and du high
        high = {l for l in alg.source.labels if attempt < 5 and rng.random() < 0.3}
        high |= {"u", "du"}
        while grown := {l for l, outs in d.items() if l not in high and high & outs.keys()}:
            high |= grown
        filtration = {l: level + 1 if l in high else 0 for l in alg.source.labels}
        geo = _geo_from_algebra(alg, filtration, level * (level + 2))
        try:
            filtration_splitting(geo, level)
            break
        except AinfError:
            pass
    dropped = draw(st.sets(st.sampled_from(sorted(geo.declared)), max_size=3))
    geo.declared -= dropped
    for key in dropped:
        geo.entries.pop(key, None)
    return geo, level, draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(geometric_inputs())
def test_ank_matches_the_per_pair_walk(inputs):
    # the same tables, or the same missing key named
    results = []
    for assemble in (ank_from_geometric, ank_by_pair_walk):
        try:
            out = assemble(*inputs)
        except MissingDataError as err:
            results.append(str(err))
        else:
            results.append({key: t.entries for key, t in out.tables.items()})
    assert results[0] == results[1]


def test_ank_output_degree_bookkeeping(rng):
    # deg of the output of a geometric operation is 1 - 2 mu + sum deg f_i;
    # table construction enforces it, so building the fixtures above is the
    # check; assert explicitly on one stored entry
    alg = checked(heisenberg_algebra(), 3)
    t = alg.table(2, F(0), 0)
    space = alg.source
    for inputs, outs in t.entries.items():
        for out_label in outs:
            assert space.degree(out_label) == \
                1 - 0 + sum(space.degree(l) for l in inputs)


def test_inverse_with_higher_energy_projection_component():
    # p_1 = (1 + T) on the retained generator still inverts: the linear part
    # is inverted by a geometric series mod the cutoff
    basis = [("z", 0), ("c", 0), ("dc", 1)]
    space = GradedSpace.make(basis)
    d = OperationTable(1, F(0), 0, "algebra", {("c",): {"dc": F(1)}})
    A = OperationSystem.algebra(space, G, "nov0", E, [d])
    D = OperationSystem.algebra(GradedSpace.make([("z", 0)]), G, "nov0", E, [])
    p = OperationSystem.morphism(space, D.source, G, "nov0", E, [
        OperationTable(1, F(0), 0, "morphism", {("z",): {"z": F(1)}}),
        OperationTable(1, F(1), 0, "morphism", {("z",): {"z": F(1)}}),
    ])
    assert check_morphism(p, A, D, 3).ok
    q = homotopy_inverse_strict(p, A, D, kmax=3)
    assert check_morphism(q, D, A, 3).ok
    composed = compose_morphisms(p, q)
    ident = identity_morphism(D)
    keys = set(composed.tables) | set(ident.tables)
    for key in keys:
        ta, tb = composed.tables.get(key), ident.tables.get(key)
        assert (ta.entries if ta else {}) == (tb.entries if tb else {}), key
    # and a p_1 with a higher component that does NOT kill the kernel is
    # rejected rather than silently producing a non-inverse
    p_bad = OperationSystem.morphism(space, D.source, G, "nov0", E, [
        OperationTable(1, F(0), 0, "morphism", {("z",): {"z": F(1)}}),
        OperationTable(1, F(1), 0, "morphism", {("c",): {"z": F(1)}}),
    ])
    if check_morphism(p_bad, A, D, 3).ok:
        with pytest.raises(MalformedMorphismError):
            homotopy_inverse_strict(p_bad, A, D, kmax=3)


def test_minimal_model_of_twisted_dga(rng):
    # the full-strength filtered tree sum: nonzero differential, products,
    # curvature and energy-decorated unary vertices all at once
    from ainfkit import twist
    from conftest import random_element
    base = heisenberg_algebra()
    for _ in range(3):
        b = random_element(rng, base, density=0.4)
        alg = checked(twist(base, b), 3)
        has_curvature = any(k == 0 for k, _, _ in alg.tables)
        has_energy_unary = any(
            k == 1 and (lam, mu) != (F(0), 0) for k, lam, mu in alg.tables)
        model, incl = minimal_model(alg, kmax=4)
        assert check_relations(model, 4).ok
        assert check_morphism(incl, model, alg, 4).ok
        assert model.table(1, F(0), 0) is None
        if has_curvature or has_energy_unary:
            # decorated low-valence vertices really contributed
            assert any((lam, mu) != (F(0), 0) for _, lam, mu in model.tables) or \
                any((lam, mu) != (F(0), 0) for _, lam, mu in incl.tables)


def test_minimal_model_of_already_minimal_filtered_algebra(rng):
    # an already-minimal algebra (m_1^{0,0} = 0) is reproduced on the nose:
    # H = 0 kills every multi-vertex tree
    from ainfkit import twist
    from conftest import random_element
    model0, _ = minimal_model(heisenberg_algebra(), kmax=4)
    b = random_element(rng, model0, density=0.5)
    alg = checked(twist(model0, b), 3)
    again, incl = minimal_model(alg, kmax=4)
    assert again.source.dim() == alg.source.dim()
    # identify tables through the identity-like inclusion
    i1 = incl.table(1, F(0), 0)
    relabel = {}
    for (b_label,), outs in i1.entries.items():
        (a_label, coeff), = outs.items()
        assert coeff == F(1)
        relabel[b_label] = a_label
    for (k, lam, mu), t in again.tables.items():
        orig = alg.table(k, lam, mu)
        assert orig is not None
        mapped = {
            tuple(relabel[l] for l in inputs):
            {relabel[o]: c for o, c in outs.items()}
            for inputs, outs in t.entries.items()
        }
        assert mapped == orig.entries, (k, lam, mu)
    assert set(again.tables) == set(alg.tables)


def recording_tree_sums(mp):
    """Patch ``transfer._tree_sums`` through ``mp`` so that each call's
    result is appended to the list returned."""
    calls, tree_sums = [], transfer._tree_sums
    mp.setattr(transfer, "_tree_sums", lambda *args: calls.append(tree_sums(*args)) or calls[-1])
    return calls


def test_tree_engine_work_follows_stored_tables(monkeypatch):
    # 8-label twisted complex over {(1,0), (1/2,1)} at cutoff 12: a grid
    # probe makes about 118k vertex lookups here, for three stored tables
    from ainfkit import NovikovElement
    rng = random.Random(1)
    base = random_complex(rng, n_labels=8, degree_span=(-2, 1), cutoff=F(12),
                          generators=((1, 0), (F(1, 2), 1)))
    degree0 = next(l for l, d in base.source.basis if d == 0)
    degree_minus2 = next(l for l, d in base.source.basis if d == -2)
    alg = twist(base, {
        degree0: NovikovElement.make([(F(1), F(1), 0)], "nov0", F(12)),
        degree_minus2: NovikovElement.make([(F(-1), F(3, 2), 1)], "nov0", F(12)),
    })
    lookups = []
    table = OperationSystem.table

    def counted(self, k, lam, mu):
        lookups.append((k, lam, mu))
        return table(self, k, lam, mu)

    calls = recording_tree_sums(monkeypatch)
    monkeypatch.setattr(OperationSystem, "table", counted)
    minimal_model(alg, kmax=3)
    sums, = calls
    assert len(lookups) <= len(alg.tables)
    # the tree sums are taken only where a tree lands, not at each of the
    # 4 * 169 (arity, key) pairs
    assert len(monoid_elements(alg.monoid, alg.cutoff)) == 169 and len(alg.tables) == 3
    assert len(sums) <= 3


def probe_every_pair(alg, level=None, kmax=None):
    """minimal_model's tables with a tree sum taken at every budgeted
    (arity, key) pair: (model entries, inclusion entries, the (k, lam, mu)
    whose sum is nonempty), the entries as {(k, lam, mu): {inputs: {out:
    q}}}."""
    split = splitting(alg)
    vertex_keys = [(k, (lam, mu)) for k, lam, mu in alg.tables]

    def vertex(m, kv):
        t = alg.table(m, kv[0], kv[1])
        return t.entries if t else None

    if level is not None:
        keys = _budgeted_keys(alg.monoid, alg.cutoff, level)
    else:
        keys = ((k, key) for key in monoid_elements(alg.monoid, alg.cutoff)
                for k in range(kmax + 1))
    keys = list(keys)
    sums = tree_sums_by_pair(vertex, vertex_keys, split, -1,
                             [p for p in keys if p != (1, ZERO_KEY)])
    n_tables, i_tables, nonempty = {}, {}, set()
    for k, key in keys:
        if (k, key) == (1, ZERO_KEY):
            d = _linear(alg.table(1, 0, 0))
            n_entries = {(b,): _apply(split.project, _apply(d, vec))
                         for b, vec in split.include.items()}
            i_entries = {(b,): vec for b, vec in split.include.items()}
        else:
            s, i_entries = sums[(k, *key)]
            if s:
                nonempty.add((k, *key))
            n_entries = _apply_each(split.project, s)
        for tables, entries in ((n_tables, n_entries), (i_tables, i_entries)):
            entries = {i: o for i, o in entries.items() if o}
            if entries:
                tables[(k, *key)] = entries
    return n_tables, i_tables, nonempty


@st.composite
def transfer_inputs(draw):
    """A system for minimal_model: random operations of arity <= 3 (curvature
    included) on a random complex, a twisted random complex, the Heisenberg
    dga or a truncated free dga twisted by a random element, or a twisted
    minimal model of the Heisenberg dga; and a level or an arity bound."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    generators = draw(st.sampled_from([((1, 0),), ((1, 0), (F(1, 2), 1)), ((F(1, 2), 0),)]))
    kind = draw(st.sampled_from(["operations", "twisted", "dga", "rich"]))
    if kind == "operations":
        # few labels in two degrees: curvature often lands in the image of
        # the differential, where the contraction is nonzero
        base = random_complex(rng, n_labels=3, degree_span=(0, 1), cutoff=E,
                              generators=generators)
        ops = random_operations(rng, base.source, base.monoid, "algebra", cutoff=E,
                                draws=rng.randint(10, 30))
        alg = base.with_tables([t for key, t in ops.tables.items() if key != (1, 0, 0)]
                               + list(base.tables.values()))
    elif kind == "twisted":
        alg = random_curved_algebra(rng, n_labels=5, degree_span=(-2, 2), cutoff=E,
                                    generators=generators)
    elif kind == "dga":
        base = rng.choice([heisenberg_algebra(), truncated_free_dga(3, 2, cutoff=F(2))])
        alg = twist(base, random_element(rng, base, density=0.3))
    else:
        alg = random_rich_algebra(rng)
    return alg, draw(st.sampled_from(["level", "kmax"])), draw(st.integers(0, 3))


@settings(max_examples=120, deadline=None)
@given(transfer_inputs())
def test_tree_sums_are_taken_only_where_a_tree_can_land(inputs):
    alg, path, bound = inputs
    kwargs = {path: bound}
    n_tables, i_tables, nonempty = probe_every_pair(alg, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        calls = recording_tree_sums(mp)
        model, incl = minimal_model(alg, **kwargs)
    sums, = calls
    assert set(sums) == nonempty
    assert {key: t.entries for key, t in model.tables.items()} == n_tables
    assert {key: t.entries for key, t in incl.tables.items()} == i_tables


def test_integral_constants_stay_python_ints():
    # the dense-basis shape: every structure constant and energy of the
    # twisted free dga, of its minimal model and of the inclusion is
    # integral, so none of them is carried as a Fraction
    alg = twisted_free_dga(3, 3, 1)
    model, incl = minimal_model(alg, level=3)
    for sys_ in (alg, model, incl):
        assert type(sys_.cutoff) is int
        for (_, lam, _), t in sys_.tables.items():
            assert type(lam) is int and type(t.lam) is int
            assert all(type(q) is int for outs in t.entries.values() for q in outs.values())
    assert check_relations(alg, 3).ok and check_relations(model, 3).ok
    assert check_morphism(incl, model, alg, 3).ok


def test_splitting_follows_the_basis_order():
    # y2 is listed before y1 and u2 before u1: the degree-1 representative is
    # y2 and the degree-3 one is u1 - u2, with u2 the pivot of d(u1) = d(u2)
    # = z (the sort order of the labels would give y1 and u2 - u1); values
    # recorded with the dense-matrix linear algebra this replaced
    split = splitting(unsorted_basis_algebra())
    assert split.b_space.basis == (("h0", 1), ("h1", 3))
    assert split.include == {"h0": {"y2": 1}, "h1": {"u1": 1, "u2": -1}}
    assert split.project == {"y2": {"h0": 1}, "y1": {"h0": -1}, "u1": {"h1": 1}}
    assert split.h == {"y1": {"x": 1}, "z": {"u2": 1}}


def test_splitting_eliminations_follow_degrees(monkeypatch):
    # 85-vector basis of T(a0..a3)/(length > 3) in four degrees; re-ranking
    # the whole matrix for every complement candidate makes 90 reductions
    from ainfkit import linalg
    alg = truncated_free_dga(4, 3)
    calls = []
    row_reduce = linalg.row_reduce

    def counted(vectors, order):
        calls.append(len(order))
        return row_reduce(vectors, order)

    monkeypatch.setattr(linalg, "row_reduce", counted)
    split = splitting(alg)
    assert alg.source.dim() == 85
    assert split.b_space.dim() == 69
    assert len(calls) <= 3 * len(alg.source.degrees())


@pytest.mark.parametrize("labels, c_vecs", [
    (["x"], []),                                    # no columns for x
    (["x"], [{"x": F(1)}, {"x": F(1)}]),            # two columns, one label
    (["x", "y"], []),                               # no columns, two labels
    (["x", "y"], [{"x": F(1)}]),                    # one column, two labels
    (["x", "y"], [{"x": F(1)}, {"y": F(1)}, {"x": F(1), "y": F(1)}]),
    (["x", "y"], [{"x": F(1), "y": F(1)}, {"x": F(2), "y": F(2)}]),  # singular
], ids=["too-few", "too-many", "2x0", "2x1", "2x3", "singular"])
def test_splitting_that_is_not_a_direct_sum_is_refused(labels, c_vecs):
    from ainfkit.transfer import _assemble_splitting
    space = GradedSpace.make([(l, 0) for l in labels])
    with pytest.raises(AinfError, match="not a direct sum"):
        _assemble_splitting(space, {}, {0: c_vecs}, {})
