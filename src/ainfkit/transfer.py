"""Planar rooted trees and every tree-sum construction: minimal models,
homotopy inverses of strict surjective quasi-isomorphisms, and the
geometric-to-A_{N,0} assembly.

The engine below never materializes decorated trees.  A tree with k leaves is
the choice of a root vertex arity m, a key decoration for the root, and an
ordered list of children, each either a leaf or a smaller tree; the sum over
decorated trees is the recursion

    S_k^key = sum over m, root key kv, compositions k = k_1 + ... + k_m,
              child keys summing with kv to key, of
              vertex_m^kv( child_1, ..., child_m ),

where a leaf child contributes the leaf injection and a subtree child
contributes edge_op( S_{k_j}^{key_j} ).  Vertices with 0 or 1 children must
carry a nonzero key (the m_0 and m_1 - m_1^{0,0} weights), which also makes
the recursion terminate: every such vertex costs at least lambda_0 energy.
So S_k^key is a block sum of the vertex tables (``gradedcore._fill_slots``)
whose slots read one index: the leaf injection at (1, 0, 0) and every
edge_op( S ) taken so far at its (k, lam, mu).  The sums are taken in
ascending key and arity, so every child is in the index before its parent.
In shifted degrees every child composite has even degree, so plain
composition and Koszul-signed composition agree and no interchange signs are
needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import AinfError, MalformedMorphismError, MissingDataError
from .gapped import ZERO_KEY, EnergyMonoid, _budgeted_keys, monoid_elements, monoid_norm
from .gradedcore import (
    GradedSpace,
    OperationSystem,
    OperationTable,
    _add_scaled,
    _apply,
    _apply_each,
    _check_square_zero,
    _fill_slots,
    _linear,
    _producers,
    _q_matrix,
)
from .ainfty import is_weak_homotopy_equiv
from .novikov import as_fraction
from .novmat import NovMatrix, _fold, strip_e_powers


# ---------------------------------------------------------------------------
# planar rooted trees

@dataclass(frozen=True)
class PlanarTree:
    """Leaf, or internal node with ordered children and optional key."""

    children: tuple | None  # None = leaf; tuple of PlanarTree otherwise
    key: tuple | None = None  # (lam, mu) decoration of an internal node

    @property
    def is_leaf(self):
        return self.children is None

    def leaves(self) -> int:
        if self.is_leaf:
            return 1
        return sum(c.leaves() for c in self.children)

    def internal_vertices(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + sum(c.internal_vertices() for c in self.children)

    def low_valence_vertices(self) -> int:
        if self.is_leaf:
            return 0
        own = 1 if len(self.children) <= 1 else 0
        return own + sum(c.low_valence_vertices() for c in self.children)

    def shape(self):
        if self.is_leaf:
            return "*"
        return "(" + "".join(c.shape() for c in self.children) + ")"


def _leaf():
    return PlanarTree(None)


def enumerate_trees(k: int, mode: str = "strict", low_valence_budget: int = 0):
    """All planar rooted trees with k leaves.

    strict mode: every internal vertex has >= 2 children (>= 3 edges).
    filtered mode: vertices with 0 or 1 children allowed, their total count
    bounded by ``low_valence_budget`` (the energy argument: N such vertices
    cost at least N * lambda_0).  Deterministic order: by internal vertex
    count, then by shape string.
    """
    if mode not in ("strict", "filtered"):
        raise ValueError(f"unknown mode {mode!r}")
    min_children = 2 if mode == "strict" else 0
    budget = 0 if mode == "strict" else low_valence_budget

    # trees(l, b) = trees with exactly l leaves and exactly b low-valence
    # vertices.  Every child slot consumes at least one unit of leaves +
    # budget, which makes the recursion well founded.
    def trees(leaves, lv_budget):
        out = []
        max_children = leaves + lv_budget
        for m in range(min_children, max_children + 1):
            own = 1 if m <= 1 else 0
            rest_budget = lv_budget - own
            if rest_budget < 0:
                continue
            if m == 0:
                if leaves == 0 and rest_budget == 0:
                    out.append(PlanarTree(()))
                continue
            for combo in child_combos(leaves, rest_budget, m):
                out.append(PlanarTree(tuple(combo)))
        return out

    def child_combos(leaves, lv_budget, m):
        if m == 0:
            if leaves == 0 and lv_budget == 0:
                yield []
            return
        for l1 in range(0, leaves + 1):
            for b1 in range(0, lv_budget + 1):
                if l1 + b1 == 0:
                    continue
                if m >= 2 and leaves - l1 + lv_budget - b1 < m - 1:
                    continue  # the remaining slots cannot all consume a unit
                firsts = children_of(l1, b1)
                if not firsts:
                    continue
                for rest in child_combos(leaves - l1, lv_budget - b1, m - 1):
                    for f in firsts:
                        yield [f] + rest

    def children_of(leaves, lv_budget):
        out = []
        if leaves == 1 and lv_budget == 0:
            out.append(_leaf())
        out.extend(trees(leaves, lv_budget))
        return out

    seen = {}
    for b in range(0, budget + 1):
        for t in trees(k, b):
            seen.setdefault(t.shape(), t)
    return sorted(seen.values(), key=lambda t: (t.internal_vertices(), t.shape()))


# ---------------------------------------------------------------------------
# splittings

@dataclass
class Splitting:
    """A = B + C + d(C) with H the contraction and Pi the projection onto B.

    ``include`` maps each B-label to its vector in A coordinates,
    ``project`` maps each A-label to B coordinates, and ``h`` is the degree
    minus-one matrix with H(B) = H(C) = 0, H(d c) = c.
    """

    a_space: GradedSpace
    b_space: GradedSpace
    include: dict  # b_label -> {a_label: Fraction}
    project: dict  # a_label -> {b_label: Fraction}
    h: dict        # a_label -> {a_label: Fraction}
    c_labels: list = field(default_factory=list)  # informational


def _assemble_splitting(space: GradedSpace, b_named, c_vecs, dc_vecs) -> Splitting:
    """Build include / project / h from per-degree column data.

    ``b_named[d]`` is a list of (label, vector) pairs, ``c_vecs[d]`` and
    ``dc_vecs[d]`` lists of vectors, all in coordinates of the degree-d
    labels; together the columns must be a basis of each degree.
    """
    degrees = space.degrees()
    by_deg = {dd: space.labels_of_degree(dd) for dd in degrees}
    include, project, h = {}, {}, {}
    b_basis = []
    for dd in degrees:
        for label, v in b_named.get(dd, []):
            b_basis.append((label, dd))
            include[label] = {by_deg[dd][j]: v[j] for j in range(len(v)) if v[j]}
    for dd in degrees:
        dom = by_deg.get(dd, [])
        if not dom:
            continue
        cols = (
            [(("b", lbl), v) for lbl, v in b_named.get(dd, [])]
            + [(("c", i), v) for i, v in enumerate(c_vecs.get(dd, []))]
            + [(("dc", i), v) for i, v in enumerate(dc_vecs.get(dd, []))]
        )
        m = [[col[1][i] for col in cols] for i in range(len(dom))]
        minv = linalg.invert(m)
        if minv is None:
            raise AinfError("splitting decomposition is not a direct sum")
        for i, a_label in enumerate(dom):
            coords = [minv[r][i] for r in range(len(cols))]
            pr, hv = {}, {}
            for (tag_kind, tag), coord in zip((c[0] for c in cols), coords):
                if not coord:
                    continue
                if tag_kind == "b":
                    pr[tag] = coord
                elif tag_kind == "dc":
                    # H(d c_i) = c_i, one degree down
                    _add_scaled(hv, dict(zip(by_deg[dd - 1], c_vecs[dd - 1][tag])), coord)
            if pr:
                project[a_label] = pr
            if hv:
                h[a_label] = hv
    c_labels = [f"c{dd}:{i}" for dd in degrees for i in range(len(c_vecs.get(dd, [])))]
    return Splitting(space, GradedSpace.make(b_basis), include, project, h, c_labels)


def splitting(alg: OperationSystem) -> Splitting:
    """Deterministic splitting of (A, m_1^{0,0}) with B = cohomology
    representatives: A = B + C + m_1(C), H(B) = H(C) = 0, H(m_1 c) = c.

    C is spanned by the basis vectors at the pivot columns of the
    differential, B extends the image inside the kernel using the kernel
    basis, leftmost pivots first, so the output is reproducible run-to-run.
    """
    d = _linear(alg.table(1, Fraction(0), 0))
    _check_square_zero(d)
    space = alg.source
    degrees = space.degrees()
    by_deg = {dd: space.labels_of_degree(dd) for dd in degrees}
    mats = {dd: _q_matrix(d, by_deg[dd], space.labels_of_degree(dd + 1))
            for dd in degrees}
    c_vecs, dc_vecs, b_named = {}, {}, {}
    for dd in degrees:
        _, pivots = linalg.row_reduce(mats[dd])
        c_vecs[dd] = [
            [Fraction(1) if j == p else Fraction(0) for j in range(len(by_deg[dd]))]
            for p in pivots
        ]
        dc_vecs[dd + 1] = [linalg.mat_vec(mats[dd], v) for v in c_vecs[dd]]
    counter = 0
    for dd in degrees:
        dom = by_deg[dd]
        inside = c_vecs[dd] + dc_vecs.get(dd, [])
        kb = linalg.kernel_basis(mats[dd], len(dom))
        chosen = linalg.extend_to_complement(inside, len(dom), kb)
        named = []
        for v in chosen:
            named.append((f"h{counter}", v))
            counter += 1
        b_named[dd] = named
    return _assemble_splitting(space, b_named, c_vecs, dc_vecs)


# ---------------------------------------------------------------------------
# the decorated-tree evaluation engine

class _TreeEngine:
    def __init__(self, vertex_table, vertex_keys, leaf_table, edge_matrix):
        """vertex_table(m, key) -> sparse Q-table or None (validated lookups);
        vertex_keys: the (m, key) pairs where vertex_table is probed, the only
        ones where it may be nonzero or must raise; probed in sorted order;
        leaf_table: {(b_label,): {a_label: coeff}};
        edge_matrix: {a_label: {a_label: coeff}} applied on internal edges."""
        self.vertex_table = vertex_table
        # the unary weight is m_1 - m_1^{0,0}, and m_0^{0,0} vanishes
        self.vertex_keys = sorted((m, kv) for m, kv in vertex_keys
                                  if m > 1 or kv != ZERO_KEY)
        self.edge_matrix = edge_matrix
        # what a vertex slot can take, by the a_label it needs: the leaf
        # injection at (1, 0, 0) and every finished sum after the edge map
        self.index = _producers({(1, *ZERO_KEY): leaf_table})
        self._memo = {}

    def S(self, k: int, key):
        """Root-vertex evaluation sum over all decorated trees with k leaves
        and total key ``key``, and that sum after the edge map; both sparse
        tables {b-input tuple: {a_label: c}}.

        A child subtree has less energy, or the same key and fewer leaves, so
        its sum must be taken first: call S in the element-major order of
        ``gapped._budgeted_keys``, which walks a set closed under children.
        A zero-key sum with fewer than two leaves is empty (it needs a
        low-valence vertex, which costs energy).
        """
        key = (as_fraction(key[0]), int(key[1]))
        memo_key = (k, key)
        if memo_key in self._memo:
            return self._memo[memo_key]
        result = {}
        probes = self.vertex_keys if key != ZERO_KEY or k > 1 else ()
        for m, kv in probes:
            if kv[0] > key[0]:
                continue
            table = self.vertex_table(m, kv)
            if not table:
                continue
            rest = (k, key[0] - kv[0], key[1] - kv[1])
            for v_inputs, v_outs in table.items():
                specs = [self.index.get(l) for l in v_inputs]
                if all(specs):
                    for _, inputs, coeff in _fill_slots(specs, k, rest[1], rest):
                        _add_scaled(result.setdefault(inputs, {}), v_outs, coeff)
        result = {i: v for i, v in result.items() if v}
        applied = _apply_each(self.edge_matrix, result)
        _producers({(k, *key): applied}, self.index)
        self._memo[memo_key] = result, applied
        return result, applied


def minimal_model(alg: OperationSystem, level=None, kmax=None, split=None):
    """Tree-sum transfer onto a splitting of (A, m_1^{0,0}).

    Returns (model, i) where the model is an algebra on the splitting's
    B-space and i is the inclusion morphism.  With the default splitting
    (cohomology representatives) n_1^{0,0} = 0, so the model is minimal.
    Admissible output keys: norm + k - 1 <= level if ``level`` is given,
    otherwise all monoid keys up to the cutoff with k <= kmax.
    """
    if level is None and kmax is None:
        raise ValueError("need an A_{N,0} level or an arity bound kmax")
    split = split or splitting(alg)
    leaf_table = {(b,): dict(vec) for b, vec in split.include.items()}
    edge_matrix = {a: {t: -c for t, c in vec.items()} for a, vec in split.h.items()}

    def vertex(m, kv):
        t = alg.table(m, kv[0], kv[1])
        return t.entries if t else None

    engine = _TreeEngine(vertex, [(k, (lam, mu)) for k, lam, mu in alg.tables],
                         leaf_table, edge_matrix)
    if level is not None:
        keys = _budgeted_keys(alg.monoid, alg.cutoff, level)
    else:
        keys = ((k, key) for key in monoid_elements(alg.monoid, alg.cutoff)
                for k in range(kmax + 1))
    n_tables, i_tables = [], []
    for k, key in keys:
        s, i_entries = engine.S(k, key)
        n_entries = _apply_each(split.project, s)
        if (k, key) == (1, ZERO_KEY):
            # S is empty here: n_1^{0,0} = Pi m_1^{0,0} i and i_1^{0,0} is
            # the plain inclusion
            d = _linear(alg.table(1, Fraction(0), 0))
            n_entries = {(b,): _apply(split.project, _apply(d, vec))
                         for b, vec in split.include.items()}
            i_entries = {(b,): vec for b, vec in split.include.items()}
        n_entries = {i: o for i, o in n_entries.items() if o}
        i_entries = {i: o for i, o in i_entries.items() if o}
        if n_entries:
            n_tables.append(OperationTable(k, key[0], key[1], "algebra", n_entries))
        if i_entries:
            i_tables.append(OperationTable(k, key[0], key[1], "morphism", i_entries))
    model = OperationSystem.algebra(split.b_space, alg.monoid, alg.flavor,
                                    alg.cutoff, n_tables)
    incl = OperationSystem.morphism(split.b_space, alg.source, alg.monoid,
                                    alg.flavor, alg.cutoff, i_tables)
    return model, incl


# ---------------------------------------------------------------------------
# homotopy inverse of a strict surjective quasi-isomorphism

def splitting_for_projection(alg: OperationSystem, p: OperationSystem,
                             D: OperationSystem) -> Splitting:
    """Splitting with C + m_1(C) = Ker p_1^{0,0} and B the image of a
    chain-level section of p_1^{0,0}.

    B must be closed under the differential for the tree sums to apply, so a
    plain linear complement of the kernel is not enough: starting from any
    linear section s0, the corrected section s = s0 - H_K (d s0 - s0 d) is a
    chain map (H_K is the contraction of the acyclic kernel subcomplex), and
    B = s(D) works.
    """
    p1 = _linear(p.table(1, Fraction(0), 0))
    d = _linear(alg.table(1, Fraction(0), 0))
    dD = _linear(D.table(1, Fraction(0), 0))
    space = alg.source
    degrees = sorted(set(space.degrees()) | set(D.source.degrees()))
    by_deg = {dd: space.labels_of_degree(dd) for dd in degrees}
    mats = {dd: _q_matrix(d, by_deg[dd], space.labels_of_degree(dd + 1))
            for dd in degrees}

    # kernel of p_1^{0,0} per degree, then C inside it via pivots of d|_K
    c_vecs, dc_vecs = {}, {}
    for dd in degrees:
        dom = by_deg[dd]
        rows = linalg.kernel_basis(
            _q_matrix(p1, dom, p.target.labels_of_degree(dd)), len(dom))
        dK = [linalg.mat_vec(mats[dd], v) for v in rows]
        cols = [list(col) for col in zip(*dK)]
        _, pivots = linalg.row_reduce(cols)
        c_vecs[dd] = [rows[p_] for p_ in pivots]
        dc_vecs[dd + 1] = [linalg.mat_vec(mats[dd], v) for v in c_vecs[dd]]

    # contraction H_K of the kernel subcomplex: solve coords in [C | dC]
    def h_kernel(dd, vec_dict):
        dom = by_deg.get(dd, [])
        cols = c_vecs.get(dd, []) + dc_vecs.get(dd, [])
        if not cols:
            if any(vec_dict.values()):
                raise AinfError("kernel subcomplex is not acyclic")
            return {}
        rhs = [vec_dict.get(l, Fraction(0)) for l in dom]
        mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(dom))]
        coords = linalg.solve(mat, rhs, len(cols))
        if coords is None:
            raise AinfError("vector not in the kernel subcomplex")
        out = {}
        n_c = len(c_vecs.get(dd, []))
        for coord, cvec in zip(coords[n_c:], c_vecs.get(dd - 1, [])):
            _add_scaled(out, dict(zip(by_deg[dd - 1], cvec)), coord)
        return out

    def section(y, dd, coeff):
        """A solution x of p_1^{0,0} x = coeff y, as a vector on degree dd."""
        dom = by_deg.get(dd, [])
        cod = p.target.labels_of_degree(dd)
        x = linalg.solve(_q_matrix(p1, dom, cod),
                         [coeff if out == y else Fraction(0) for out in cod], len(dom))
        if x is None:
            raise MalformedMorphismError(f"p_1^(0,0) misses {y}")
        return {l: c for l, c in zip(dom, x) if c}

    # corrected chain section s of p_1^{0,0}
    b_named = {}
    for dd in degrees:
        dom = by_deg[dd]
        named = []
        for y in D.source.labels_of_degree(dd):
            s0 = section(y, dd, Fraction(1))
            # defect = d(s0 y) - s0(d_D y), lands in the kernel
            defect = _apply(d, s0)
            for y2, c in dD.get(y, {}).items():
                _add_scaled(defect, section(y2, dd + 1, c), -1)
            s_vec = _add_scaled(s0, h_kernel(dd + 1, defect) if defect else {}, -1)
            named.append((f"s_{y}", [s_vec.get(l, Fraction(0)) for l in dom]))
        if named:
            b_named[dd] = named
    return _assemble_splitting(space, b_named, c_vecs, dc_vecs)


def homotopy_inverse_strict(p: OperationSystem, A: OperationSystem,
                            D: OperationSystem, level=None, kmax=None):
    """Explicit homotopy inverse q of a strict surjective wqe p, with
    compose(p, q) = identity mod the cutoff.

    q_k = i_k composed with (p_1 restricted to B) inverted in each slot,
    where i is the tree-sum inclusion for the splitting with
    C + m_1(C) = Ker p_1.
    """
    if any(k != 1 for k, _, _ in p.tables):
        raise MalformedMorphismError("p is not strict")
    p1 = _linear(p.table(1, Fraction(0), 0))
    # surjectivity of p_1^{0,0} degreewise
    for dd in D.source.degrees():
        cod = D.source.labels_of_degree(dd)
        if linalg.rank(_q_matrix(p1, A.source.labels_of_degree(dd), cod)) != len(cod):
            raise MalformedMorphismError(f"p_1^(0,0) is not surjective in degree {dd}")
    ok, cert = is_weak_homotopy_equiv(p, A, D)
    if not ok:
        raise MalformedMorphismError(f"p is not a weak homotopy equivalence: {cert}")
    split = splitting_for_projection(A, p, D)
    # higher components of p_1 must vanish on Ker p_1^{0,0} = C + dC,
    # i.e. on everything the projection kills
    killed = [  # (id - i Pi)(a) for every basis vector a
        _add_scaled({a: Fraction(1)}, _apply(split.include, split.project.get(a, {})), -1)
        for a in A.source.labels
    ]
    for (k, lam, mu), table in p.tables.items():
        if (lam, mu) != ZERO_KEY and any(_apply(_linear(table), v) for v in killed):
            raise MalformedMorphismError(
                f"p_1^({lam},{mu}) does not vanish on Ker p_1^(0,0)"
            )
    _, incl = minimal_model(A, level=level, kmax=kmax, split=split)
    # invert p_1|B as a Novikov matrix (strip degree-determined e-powers)
    restricted = {key: {(b,): _apply(_linear(t), vec) for b, vec in split.include.items()}
                  for key, t in p.tables.items()}
    pmat = NovMatrix(D.source.labels, split.b_space.labels, p.flavor, p.cutoff, {
        (d, b): v for (b,), column in _fold(restricted, 1, p.flavor, p.cutoff).items()
        for d, v in column.items()})
    stripped = strip_e_powers(pmat, D.source.degree, split.b_space.degree, 0)
    inv = stripped.inverse()  # rows = b labels, cols = D labels
    # a B-slot of i takes a D-label through the inverse, with the stripped
    # e-power restored: entry b <- d needs mu = (deg d - deg b) / 2
    slots = {}
    for (b_label, d_label), entry in inv.data.items():
        delta = D.source.degree(d_label) - split.b_space.degree(b_label)
        if delta % 2:
            continue
        for c, l, m in entry.terms:
            slots.setdefault(b_label, {}).setdefault(
                (1, l, m + delta // 2), []).append(((d_label,), c))
    q_tables = {}
    for (k, lam, mu), table in incl.tables.items():
        for inputs, outs in table.entries.items():
            specs = [slots.get(b) for b in inputs]
            if not all(specs):
                continue
            for (_, l, m), d_inputs, coeff in _fill_slots(specs, k, p.cutoff - lam):
                _add_scaled(q_tables.setdefault((k, lam + l, mu + m), {})
                            .setdefault(d_inputs, {}), outs, coeff)
    tables = [OperationTable(k, lam, mu, "morphism", e)
              for (k, lam, mu), e in q_tables.items() if e]
    q = OperationSystem.morphism(D.source, A.source, p.monoid, p.flavor,
                                 p.cutoff, tables)
    return q


# ---------------------------------------------------------------------------
# the geometric-to-A_{N,0} pipeline

@dataclass
class GeometricData:
    """Partial operation data on a filtered space.

    ``declared`` lists the (k, lam, mu) keys the data provides (tables may be
    empty there); lookups outside the declared set but inside the N' budget
    raise MissingDataError naming the key.
    """

    space: GradedSpace
    filtration: dict  # label -> int
    monoid: EnergyMonoid
    cutoff: Fraction
    flavor: str
    declared: set = field(default_factory=set)  # of (k, lam, mu)
    entries: dict = field(default_factory=dict)  # (k, lam, mu) -> {inputs: {out: c}}

    def table(self, k, key):
        tk = (k, as_fraction(key[0]), int(key[1]))
        if tk in self.declared:
            return self.entries.get(tk, {})
        return None


def filtration_splitting(geo: GeometricData, level: int) -> Splitting:
    """QX_{N'} = QX_N + A + dA with H = 0 on QX_N + A and H(d a) = a.

    B is spanned by the labels with filtration degree <= level (a d-closed
    subspace by the problem's contract); A is chosen among the remaining
    standard basis vectors by pivots of the quotient differential, so that
    the quotient complex splits as A + dA.
    """
    space = geo.space
    d_entries = geo.table(1, ZERO_KEY)
    if d_entries is None:
        raise MissingDataError("(k=1, lam=0, mu=0)")
    d = {l: outs for (l,), outs in d_entries.items()}
    low_set = {l for l, _ in space.basis if geo.filtration.get(l, 0) <= level}
    degrees = space.degrees()
    c_vecs, dc_vecs, b_named = {}, {}, {}
    for dd in degrees:
        dom = space.labels_of_degree(dd)
        cod = space.labels_of_degree(dd + 1)
        high = [l for l in dom if l not in low_set]
        # quotient differential: d followed by killing the low coordinates
        qmat = _q_matrix(d, high, [out for out in cod if out not in low_set])
        _, pivots = linalg.row_reduce(qmat)
        c_vecs[dd] = [
            [Fraction(1) if l == high[p] else Fraction(0) for l in dom] for p in pivots
        ]
        dc_vecs[dd + 1] = [linalg.mat_vec(_q_matrix(d, dom, cod), v) for v in c_vecs[dd]]
        b_named[dd] = [
            (l, [Fraction(1) if x == l else Fraction(0) for x in dom])
            for l in dom if l in low_set
        ]
    return _assemble_splitting(space, b_named, c_vecs, dc_vecs)


def ank_from_geometric(geo: GeometricData, level: int, ambient_parity: int,
                       split: Splitting | None = None) -> OperationSystem:
    """Assemble an A_{N,0} algebra from partial geometric tables by decorated
    tree sums with internal-edge weight (-1)^(ambient_parity + 1) H, root
    projection, and identity leaves.

    On inputs whose filtration budget fits, the output reproduces the
    geometric tables exactly; trees with an internal edge die on the level-N
    sub-filtration because H vanishes there.
    """
    n_prime = level * (level + 2)
    if split is None:
        split = filtration_splitting(geo, level)
    sign = Fraction((-1) ** (ambient_parity + 1))
    edge_matrix = {a: {t: sign * c for t, c in vec.items()} for a, vec in split.h.items()}
    leaf_table = {(l,): {l: Fraction(1)} for l, _ in split.b_space.basis}
    max_arity = max((k for k, _, _ in geo.declared), default=0)
    elements = monoid_elements(geo.monoid, geo.cutoff)
    members = set(elements)
    # declared tables with entries, and every undeclared key inside the N'
    # budget, whose lookup raises MissingDataError
    declared = {(k, (as_fraction(lam), int(mu))) for k, lam, mu in geo.declared}
    vertex_keys = {(m, kv) for m, kv in declared if kv in members and geo.table(m, kv)}
    vertex_keys.update(
        (m, kv) for kv in elements for m in range(max_arity + 1)
        if monoid_norm(geo.monoid, kv) + m - 1 <= n_prime and geo.table(m, kv) is None)

    def vertex(m, kv):
        t = geo.table(m, kv)
        if t is None:
            raise MissingDataError(f"(k={m}, lam={kv[0]}, mu={kv[1]})")
        return t

    engine = _TreeEngine(vertex, vertex_keys, leaf_table, edge_matrix)
    out_tables = []
    for k, key in _budgeted_keys(geo.monoid, geo.cutoff, level):
        if (k, key) == (1, ZERO_KEY):
            d = geo.table(1, ZERO_KEY)
            if d is None:
                raise MissingDataError("(k=1, lam=0, mu=0)")
            b_labels = set(split.b_space.labels)
            entries = {
                i: {ol: c for ol, c in o.items() if ol in b_labels}
                for i, o in d.items() if all(l in b_labels for l in i)
            }
            entries = {i: o for i, o in entries.items() if o}
            if entries:
                out_tables.append(OperationTable(1, Fraction(0), 0, "algebra", entries))
            continue
        entries = _apply_each(split.project, engine.S(k, key)[0])
        if entries:
            out_tables.append(OperationTable(k, key[0], key[1], "algebra", entries))
    return OperationSystem.algebra(split.b_space, geo.monoid, geo.flavor,
                                   geo.cutoff, out_tables)
