"""Shared fixtures: hand-built algebras and randomized valid structures.

Random gapped algebras are built from ingredients that are valid by
construction: a square-zero differential, a twist by a positive-valuation
degree-0 element (adds curvature), a strict change of basis, and tree-sum
transfer (adds higher operations).  Every generated fixture is passed
through the relation checker before use.
"""

import random
from fractions import Fraction as F

import pytest

from ainfkit import (
    EnergyMonoid,
    GradedSpace,
    NovikovElement,
    OperationSystem,
    OperationTable,
    check_relations,
    minimal_model,
    twist,
)


def two_generator_algebra(flavor="nov0", cutoff=F(3)):
    """m_1^{0,0}(x) = y, m_0^{1,0} = y; the solvable curvature fixture."""
    G = EnergyMonoid.make([(1, 0)])
    space = GradedSpace.make([("x", 0), ("y", 1)])
    tables = [
        OperationTable(1, F(0), 0, "algebra", {("x",): {"y": F(1)}}),
        OperationTable(0, F(1), 0, "algebra", {(): {"y": F(1)}}),
    ]
    return OperationSystem.algebra(space, G, flavor, cutoff, tables)


def unsorted_basis_algebra(curvature=None):
    """d(x) = y1 + y2 and d(u1) = d(u2) = z on a basis that lists y2 before y1
    and u2 before u1, against the sort order of the labels, with
    ``curvature`` ({label: q} in degree 1) as m_0 at T^1."""
    space = GradedSpace.make([("x", 0), ("y2", 1), ("y1", 1), ("u2", 3), ("u1", 3), ("z", 4)])
    tables = [OperationTable(1, F(0), 0, "algebra", {("x",): {"y1": F(1), "y2": F(1)},
                                                     ("u2",): {"z": F(1)},
                                                     ("u1",): {"z": F(1)}})]
    if curvature:
        tables.append(OperationTable(0, F(1), 0, "algebra", {(): curvature}))
    return OperationSystem.algebra(space, EnergyMonoid.make([(1, 0)]), "nov0", F(3), tables)


def three_generator_algebra(flavor="nov0", cutoff=F(3)):
    """The same with an extra closed generator z in degree 0."""
    G = EnergyMonoid.make([(1, 0)])
    space = GradedSpace.make([("x", 0), ("y", 1), ("z", 0)])
    tables = [
        OperationTable(1, F(0), 0, "algebra", {("x",): {"y": F(1)}}),
        OperationTable(0, F(1), 0, "algebra", {(): {"y": F(1)}}),
    ]
    return OperationSystem.algebra(space, G, flavor, cutoff, tables)


HEISENBERG_DEGREES = {"e1": 1, "e2": 1, "f": 1,
                      "e12": 2, "e1f": 2, "e2f": 2, "e12f": 3}
HEISENBERG_PRODUCTS = {
    ("e1", "e2"): {"e12": 1}, ("e2", "e1"): {"e12": -1},
    ("e1", "f"): {"e1f": 1}, ("f", "e1"): {"e1f": -1},
    ("e2", "f"): {"e2f": 1}, ("f", "e2"): {"e2f": -1},
    ("e1", "e2f"): {"e12f": 1}, ("e2f", "e1"): {"e12f": 1},
    ("e2", "e1f"): {"e12f": -1}, ("e1f", "e2"): {"e12f": -1},
    ("f", "e12"): {"e12f": 1}, ("e12", "f"): {"e12f": 1},
}


def heisenberg_algebra(flavor="nov0", cutoff=F(2)):
    """Non-formal dga (df = e1 e2) in shifted degrees; its minimal model has
    nonzero n_2 and n_3 (a Massey product)."""
    space = GradedSpace.make([(l, d - 1) for l, d in HEISENBERG_DEGREES.items()])
    m2 = {}
    for (a, b), outs in HEISENBERG_PRODUCTS.items():
        sgn = -1 if (HEISENBERG_DEGREES[a] - 1) % 2 else 1
        m2[(a, b)] = {o: F(sgn * c) for o, c in outs.items()}
    tables = [
        OperationTable(1, F(0), 0, "algebra", {("f",): {"e12": F(1)}}),
        OperationTable(2, F(0), 0, "algebra", m2),
    ]
    G = EnergyMonoid.make([(1, 0)])
    return OperationSystem.algebra(space, G, flavor, cutoff, tables)


def truncated_free_dga(r, L, flavor="nov0", cutoff=F(3)):
    """T(a0..a_{r-1}) / (length > L): every letter in shifted degree 0, the
    empty word "u" is the unit, d a_{r-1} = a0 a1 extended as a derivation,
    and m_2 is concatenation with sign (-1)^{deg' w1}.  Needs r >= 3."""
    import itertools

    words = [w for n in range(L + 1) for w in itertools.product(range(r), repeat=n)]

    def label(w):
        return "u" if not w else "a" + ".".join(map(str, w))

    m1, m2 = {}, {}
    for w in words:
        sign = 1
        for pos, letter in enumerate(w):
            if letter == r - 1 and len(w) < L:
                out = m1.setdefault((label(w),), {})
                image = label(w[:pos] + (0, 1) + w[pos + 1:])
                out[image] = out.get(image, F(0)) + sign
            sign = -sign
        for w2 in words:
            if len(w) + len(w2) <= L:
                m2[(label(w), label(w2))] = {label(w + w2): F(1 if len(w) % 2 else -1)}
    space = GradedSpace.make([(label(w), len(w) - 1) for w in words])
    tables = [OperationTable(1, F(0), 0, "algebra", m1),
              OperationTable(2, F(0), 0, "algebra", m2)]
    return OperationSystem.algebra(space, EnergyMonoid.make([(1, 0)]), flavor,
                                   cutoff, tables)


def twisted_free_dga(r, L, seed):
    """``truncated_free_dga`` twisted by a degree-0 element with terms
    T^1, T^2, T^3 on every letter."""
    rng = random.Random(seed)
    alg = truncated_free_dga(r, L)
    b = {f"a{i}": NovikovElement.make(
        [(rng.choice([1, -1, 2, -2, 3]), e, 0) for e in (1, 2, 3)], "nov0", F(3))
        for i in range(r)}
    return twist(alg, b)


def random_complex(rng, n_labels=5, degree_span=(-1, 3), flavor="nov0",
                   cutoff=F(2), generators=((1, 0),)):
    """Random square-zero differential: d is built from a random strictly
    "later-label" matrix conjugated to guarantee d*d = 0: we pick a random
    partial matching of degree-(d, d+1) label pairs with random coefficients,
    then sum matched chains so that the image is killed."""
    degrees = {}
    labels = []
    for i in range(n_labels):
        lab = f"a{i}"
        degrees[lab] = rng.randint(*degree_span)
        labels.append(lab)
    space = GradedSpace.make([(l, degrees[l]) for l in labels])
    used = set()
    entries = {}
    for src in labels:
        if src in used:
            continue
        targets = [t for t in labels
                   if t not in used and t != src and degrees[t] == degrees[src] + 1]
        if targets and rng.random() < 0.6:
            tgt = rng.choice(targets)
            used.add(src)
            used.add(tgt)
            entries[(src,)] = {tgt: F(rng.choice([1, -1, 2]))}
    tables = [OperationTable(1, F(0), 0, "algebra", entries)] if entries else []
    G = EnergyMonoid.make(generators)
    return OperationSystem.algebra(space, G, flavor, cutoff, tables)


def random_element(rng, alg, degree=0, min_energy=1, density=0.7):
    """Random degree-``degree`` positive-valuation element, monoid-supported."""
    out = {}
    from ainfkit.gapped import monoid_elements
    keys = [kk for kk in monoid_elements(alg.monoid, alg.cutoff)
            if kk[0] >= min_energy]
    for label, d in alg.source.basis:
        terms = []
        for lam, mu in keys:
            if d + 2 * mu != degree:
                continue
            if rng.random() < density:
                terms.append((F(rng.choice([1, -1, 2, -3])), lam, mu))
        if terms:
            out[label] = NovikovElement.make(terms, alg.flavor, alg.cutoff)
    return {l: v for l, v in out.items() if not v.is_zero()}


def random_operations(rng, space, monoid, role, flavor="nov0", cutoff=F(3), draws=30,
                      kmax=3, max_energy=1):
    """Random degree-respecting ``role`` tables on ``space``: each of ``draws``
    picks an arity up to kmax, inputs, a monoid key of energy at most
    ``max_energy`` (positive at arity 0) and one output of the right degree.
    No relations are imposed."""
    from ainfkit.gapped import monoid_elements
    from ainfkit.gradedcore import ROLE_SHIFT
    keys = [key for key in monoid_elements(monoid, cutoff) if key[0] <= max_energy]
    tables = {}
    for _ in range(draws):
        k = rng.randint(0, kmax)
        inputs = tuple(rng.choice(space.labels) for _ in range(k))
        lam, mu = rng.choice([key for key in keys if k or key[0] > 0])
        degree = sum(space.degree(i) for i in inputs) + ROLE_SHIFT[role] - 2 * mu
        outs = [l for l, d in space.basis if d == degree]
        if outs:
            entry = tables.setdefault((k, lam, mu), {}).setdefault(inputs, {})
            entry[rng.choice(outs)] = F(rng.choice([1, -1, 2, -3]))
    return OperationSystem(space, space, monoid, flavor, cutoff, role, {
        (k, lam, mu): OperationTable(k, lam, mu, role, e)
        for (k, lam, mu), e in tables.items()})


def random_curved_algebra(rng, **kwargs):
    """Valid gapped algebra with curvature: twist a random complex."""
    base = random_complex(rng, **kwargs)
    b = random_element(rng, base)
    return twist(base, b)


def random_rich_algebra(rng, kmax=3):
    """Valid algebra with higher operations: minimal model of the Heisenberg
    dga, twisted by a random element."""
    model, _ = minimal_model(heisenberg_algebra(), kmax=kmax)
    b = random_element(rng, model)
    return twist(model, b)


def strict_conjugate(alg, phi):
    """Transport the operations along an invertible degree-0 Q-map phi:
    m'_k = phi^{-1} m_k phi^{x k}.  phi: {label: {label: coeff}} columns."""
    from ainfkit.linalg import solver

    labels = list(alg.source.labels)
    # inv[r] = phi^{-1}(r), the solution of phi(x) = r
    phi_solver = solver(phi, labels)
    inv = {r: phi_solver({r: F(1)}) for r in labels}
    assert None not in inv.values(), "phi must be invertible"
    tables = []
    for (k, lam, mu), t in alg.tables.items():
        entries = {}
        import itertools
        for inputs, outs in t.entries.items():
            # phi^{x k} on each input slot
            slot_options = [
                [(src, phi.get(src, {}).get(tgt, F(0))) for src in labels
                 if phi.get(src, {}).get(tgt, F(0))]
                for tgt in inputs
            ]
            for combo in itertools.product(*slot_options):
                coeff = F(1)
                new_inputs = []
                for src, c in combo:
                    coeff *= c
                    new_inputs.append(src)
                for out_label, q in outs.items():
                    for lab, c2 in inv[out_label].items():
                        tgt = entries.setdefault(tuple(new_inputs), {})
                        val = tgt.get(lab, F(0)) + coeff * q * c2
                        if val:
                            tgt[lab] = val
                        else:
                            tgt.pop(lab, None)
        entries = {i: o for i, o in entries.items() if o}
        if entries:
            tables.append(OperationTable(k, lam, mu, alg.role, entries))
    return alg.with_tables(tables)


def random_degree_preserving_iso(rng, space):
    """Random unipotent degree-0 map as columns: the identity plus entries
    above the diagonal in basis order, so it is always invertible."""
    labels = list(space.labels)
    position = {l: i for i, l in enumerate(labels)}
    phi = {l: {l: F(1)} for l in labels}
    for _ in range(len(labels)):
        a, b = rng.choice(labels), rng.choice(labels)
        if position[b] < position[a] and space.degree(a) == space.degree(b):
            phi[a][b] = phi[a].get(b, F(0)) + F(rng.choice([1, -1]))
    return phi


def is_canonical_rational(x):
    """An exact rational in canonical form: an int when it is integral,
    otherwise a Fraction; never a float, a bool or a Fraction over 1."""
    return type(x) is int or (type(x) is F and x.denominator != 1)


def checked(alg, level=3):
    report = check_relations(alg, level)
    assert report.ok, f"fixture failed its own relations: {report}"
    return alg


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def revalidate_built(monkeypatch):
    """The oracle of the unchecked constructor: every system the library
    builds with ``OperationSystem._built`` is built again through the public
    constructor, which must accept it and keep the same tables.  Yields the
    list of the systems checked so far."""
    built = OperationSystem._built.__func__
    seen = []

    def rebuilt(cls, source, target, monoid, flavor, cutoff, role, tables):
        out = built(cls, source, target, monoid, flavor, cutoff, role, tables)
        public = OperationSystem(source, target, monoid, flavor, cutoff, role, {
            key: OperationTable(*key, role, entries) for key, entries in tables.items()})
        assert public.tables == out.tables
        seen.append(out)
        return out

    monkeypatch.setattr(OperationSystem, "_built", classmethod(rebuilt))
    yield seen
