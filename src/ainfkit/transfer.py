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
In shifted degrees every child composite has even degree, so plain
composition and Koszul-signed composition agree and no interchange signs are
needed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from . import linalg
from .errors import (
    AinfError,
    MalformedMorphismError,
    MissingDataError,
    NotAComplexError,
)
from .gapped import ZERO_KEY, EnergyMonoid, monoid_elements, monoid_norm
from .gradedcore import GradedSpace, OperationSystem, OperationTable
from .ainfty import is_weak_homotopy_equiv
from .novikov import NovikovElement, as_fraction
from .novmat import NovMatrix, strip_e_powers


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


def _d_matrix(alg, dom, cod):
    d = alg.table(1, Fraction(0), 0)
    entries = d.entries if d else {}
    return [[entries.get((l,), {}).get(out, Fraction(0)) for l in dom] for out in cod]


def _apply_entries(entries, vec):
    """Apply a {(l,): {out: q}} unary table to a coordinate dict."""
    out = {}
    for l, c in vec.items():
        for target, q in entries.get((l,), {}).items():
            out[target] = out.get(target, Fraction(0)) + c * q
    return {t: c for t, c in out.items() if c}


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
        minv = linalg.invert(m) if m else None
        if cols and minv is None:
            raise AinfError("splitting decomposition is not a direct sum")
        for i, a_label in enumerate(dom):
            coords = [minv[r][i] for r in range(len(cols))] if cols else []
            pr, hv = {}, {}
            for (tag_kind, tag), coord in zip((c[0] for c in cols), coords):
                if not coord:
                    continue
                if tag_kind == "b":
                    pr[tag] = coord
                elif tag_kind == "dc":
                    # H(d c_i) = c_i, one degree down
                    cvec = c_vecs[dd - 1][tag]
                    below = by_deg.get(dd - 1, [])
                    for j, val in enumerate(cvec):
                        if val:
                            hv[below[j]] = hv.get(below[j], Fraction(0)) + coord * val
            if pr:
                project[a_label] = pr
            if hv:
                h[a_label] = hv
    c_labels = [f"c{dd}:{i}" for dd in degrees for i in range(len(c_vecs.get(dd, [])))]
    return Splitting(space, GradedSpace.make(b_basis), include, project, h, c_labels)


def _check_square_zero(entries):
    for (l,), outs in entries.items():
        acc = {}
        for mid, c in outs.items():
            for out, c2 in entries.get((mid,), {}).items():
                acc[out] = acc.get(out, Fraction(0)) + c * c2
        if any(acc.values()):
            raise NotAComplexError(f"differential squared is nonzero on {l}")


def splitting(alg: OperationSystem) -> Splitting:
    """Deterministic splitting of (A, m_1^{0,0}) with B = cohomology
    representatives: A = B + C + m_1(C), H(B) = H(C) = 0, H(m_1 c) = c.

    C is spanned by the basis vectors at the pivot columns of the
    differential, B extends the image inside the kernel using the kernel
    basis, leftmost pivots first, so the output is reproducible run-to-run.
    """
    d = alg.table(1, Fraction(0), 0)
    entries = d.entries if d else {}
    _check_square_zero(entries)
    space = alg.source
    degrees = space.degrees()
    by_deg = {dd: space.labels_of_degree(dd) for dd in degrees}

    def dmat(dd):
        dom = by_deg.get(dd, [])
        cod = by_deg.get(dd + 1, [])
        return [[entries.get((l,), {}).get(out, Fraction(0)) for l in dom] for out in cod]

    c_vecs, dc_vecs, b_named = {}, {}, {}
    counter = 0
    for dd in degrees:
        dom = by_deg.get(dd, [])
        if not dom:
            continue
        mat = dmat(dd)
        _, pivots = linalg.row_reduce(mat) if mat else ([], [])
        c_vecs[dd] = [
            [Fraction(1) if j == p else Fraction(0) for j in range(len(dom))]
            for p in pivots
        ]
    for dd in degrees:
        mat = dmat(dd)
        below = c_vecs.get(dd, [])
        dc_vecs[dd + 1] = [linalg.mat_vec(mat, v) for v in below] if below and mat else []
    for dd in degrees:
        dom = by_deg.get(dd, [])
        if not dom:
            continue
        inside = [list(v) for v in c_vecs.get(dd, [])] + [list(v) for v in dc_vecs.get(dd, [])]
        mat = dmat(dd)
        kb = linalg.kernel_basis(mat, len(dom)) if mat else linalg.identity(len(dom))
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
    def __init__(self, monoid: EnergyMonoid, cutoff, vertex_table, vertex_keys,
                 leaf_table, edge_matrix):
        """vertex_table(m, key) -> sparse Q-table or None (validated lookups);
        vertex_keys: the (m, key) pairs where vertex_table is probed, the only
        ones where it may be nonzero or must raise; probed in sorted order;
        leaf_table: {(b_label,): {a_label: coeff}};
        edge_matrix: {a_label: {a_label: coeff}} applied on internal edges."""
        self.elements = monoid_elements(monoid, cutoff)
        self.energies = [lam for lam, _ in self.elements]
        self.vertex_table = vertex_table
        # the unary weight is m_1 - m_1^{0,0}, and m_0^{0,0} vanishes
        self.vertex_keys = sorted((m, kv) for m, kv in vertex_keys
                                  if m > 1 or kv != ZERO_KEY)
        self.leaf_table = leaf_table
        self.edge_matrix = edge_matrix
        self._memo = {}

    def edge_applied(self, table):
        out = {}
        for inputs, vec in table.items():
            acc = {}
            for a_label, c in vec.items():
                for target, ec in self.edge_matrix.get(a_label, {}).items():
                    acc[target] = acc.get(target, Fraction(0)) + c * ec
            acc = {t: c for t, c in acc.items() if c}
            if acc:
                out[inputs] = acc
        return out

    def S(self, k: int, key) -> dict:
        """Root-vertex evaluation sum over all decorated trees with k leaves
        and total key ``key``; a sparse table {b-input tuple: {a_label: c}}."""
        key = (as_fraction(key[0]), int(key[1]))
        memo_key = (k, key)
        if memo_key in self._memo:
            return self._memo[memo_key]
        if key == ZERO_KEY and k <= 1:
            self._memo[memo_key] = {}
            return {}
        self._memo[memo_key] = {}  # guard against reentry while building
        result = {}
        for m, kv in self.vertex_keys:
            if kv[0] > key[0]:
                continue
            table = self.vertex_table(m, kv)
            if not table:
                continue
            rest = (key[0] - kv[0], key[1] - kv[1])
            for child_tables, coeff_one in self._children(k, rest, m):
                self._combine(result, table, child_tables)
        result = {i: v for i, v in result.items() if v}
        self._memo[memo_key] = result
        return result

    def _children(self, k, rest, m):
        """Yield lists of m child tables consuming k leaves and key ``rest``.

        A zero-key subtree child must have at least two leaves: one-leaf and
        zero-leaf trees force a low-valence vertex, which costs energy.  That
        pruning is what makes the recursion on (energy, leaf count) well
        founded.
        """

        def go(idx, k_rem, lam_rem, mu_rem):
            if idx == m:
                if k_rem == 0 and lam_rem == 0 and mu_rem == 0:
                    yield []
                return
            # leaf child
            if k_rem >= 1:
                for tail in go(idx + 1, k_rem - 1, lam_rem, mu_rem):
                    yield [self.leaf_table] + tail
            # subtree child
            for ck in islice(self.elements, bisect_right(self.energies, lam_rem)):
                for k_child in range(0, k_rem + 1):
                    if ck == ZERO_KEY and k_child < 2:
                        continue
                    sub = self.S(k_child, ck)
                    if not sub:
                        continue
                    applied = self.edge_applied(sub)
                    if not applied:
                        continue
                    for tail in go(idx + 1, k_rem - k_child,
                                   lam_rem - ck[0], mu_rem - ck[1]):
                        yield [applied] + tail

        yield from ((tables, 1) for tables in go(0, k, rest[0], rest[1]))

    def _combine(self, result, vtable, child_tables):
        m = len(child_tables)
        # iterate over vertex entries and match child output coefficients
        for v_inputs, v_outs in vtable.items():
            if len(v_inputs) != m:
                continue

            def assign(idx, acc_inputs, acc_coeff):
                if idx == m:
                    yield acc_inputs, acc_coeff
                    return
                need = v_inputs[idx]
                for c_inputs, c_vec in child_tables[idx].items():
                    c = c_vec.get(need)
                    if not c:
                        continue
                    yield from assign(idx + 1, acc_inputs + c_inputs, acc_coeff * c)

            for inputs, coeff in assign(0, (), Fraction(1)):
                for out_label, q in v_outs.items():
                    tgt = result.setdefault(inputs, {})
                    c = tgt.get(out_label, Fraction(0)) + coeff * q
                    if c:
                        tgt[out_label] = c
                    else:
                        tgt.pop(out_label, None)


def _admissible_keys(monoid, cutoff, level=None, kmax=None):
    out = []
    for key in monoid_elements(monoid, cutoff):
        if level is not None:
            n = monoid_norm(monoid, key)
            for k in range(0, max(level + 1 - n, 0) + 1):
                if n + k - 1 <= level:
                    out.append((k, key))
        else:
            for k in range(0, kmax + 1):
                out.append((k, key))
    return out


def _project_table(table, project):
    out = {}
    for inputs, vec in table.items():
        acc = {}
        for a_label, c in vec.items():
            for b_label, pc in project.get(a_label, {}).items():
                acc[b_label] = acc.get(b_label, Fraction(0)) + c * pc
        acc = {b: c for b, c in acc.items() if c}
        if acc:
            out[inputs] = acc
    return out


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

    engine = _TreeEngine(alg.monoid, alg.cutoff, vertex,
                         [(k, (lam, mu)) for k, lam, mu in alg.tables],
                         leaf_table, edge_matrix)
    n_tables, i_tables = [], []
    for k, key in _admissible_keys(alg.monoid, alg.cutoff, level, kmax):
        s = engine.S(k, key)
        n_entries = _project_table(s, split.project)
        i_entries = engine.edge_applied(s)
        if (k, key) == (1, ZERO_KEY):
            # n_1^{0,0} = Pi m_1^{0,0} i ; i_1^{0,0} = the plain inclusion
            d = alg.table(1, Fraction(0), 0)
            d_entries = d.entries if d else {}
            for b_label, vec in split.include.items():
                img = {}
                for a_label, c in vec.items():
                    for out, q in d_entries.get((a_label,), {}).items():
                        img[out] = img.get(out, Fraction(0)) + c * q
                acc = {}
                for a_label, c in img.items():
                    for bl, pc in split.project.get(a_label, {}).items():
                        acc[bl] = acc.get(bl, Fraction(0)) + c * pc
                acc = {b: c for b, c in acc.items() if c}
                if acc:
                    tgt = n_entries.setdefault((b_label,), {})
                    for b2, c in acc.items():
                        v = tgt.get(b2, Fraction(0)) + c
                        if v:
                            tgt[b2] = v
                        else:
                            tgt.pop(b2, None)
                tgt = i_entries.setdefault((b_label,), {})
                for a_label, c in vec.items():
                    v = tgt.get(a_label, Fraction(0)) + c
                    if v:
                        tgt[a_label] = v
                    else:
                        tgt.pop(a_label, None)
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
    p1 = p.table(1, Fraction(0), 0)
    p1_e = p1.entries if p1 else {}
    space = alg.source
    d = alg.table(1, Fraction(0), 0)
    d_entries = d.entries if d else {}
    dD = D.table(1, Fraction(0), 0)
    dD_e = dD.entries if dD else {}
    degrees = sorted(set(space.degrees()) | set(D.source.degrees()))
    by_deg = {dd: space.labels_of_degree(dd) for dd in degrees}

    def dmat(dd):
        dom = by_deg.get(dd, [])
        cod = by_deg.get(dd + 1, [])
        return [[d_entries.get((l,), {}).get(out, Fraction(0)) for l in dom] for out in cod]

    # kernel of p_1^{0,0} per degree, then C inside it via pivots of d|_K
    kernel_rows, c_vecs, dc_vecs = {}, {}, {}
    for dd in degrees:
        dom = by_deg.get(dd, [])
        cod = p.target.labels_of_degree(dd)
        mat = [[p1_e.get((l,), {}).get(out, Fraction(0)) for l in dom] for out in cod]
        kernel_rows[dd] = linalg.kernel_basis(mat, len(dom)) if dom else []
    for dd in degrees:
        rows = kernel_rows.get(dd, [])
        mat = dmat(dd)
        if not rows or not mat:
            c_vecs[dd] = []
            continue
        dK = [linalg.mat_vec(mat, v) for v in rows]
        cols = [list(col) for col in zip(*dK)]
        _, pivots = linalg.row_reduce(cols) if cols else ([], [])
        c_vecs[dd] = [rows[p_] for p_ in pivots]
    for dd in degrees:
        mat = dmat(dd)
        below = c_vecs.get(dd, [])
        dc_vecs[dd + 1] = [linalg.mat_vec(mat, v) for v in below] if below and mat else []

    # contraction H_K of the kernel subcomplex: solve coords in [C | dC]
    def h_kernel(dd, vec_dict):
        dom = by_deg.get(dd, [])
        cols = [list(v) for v in c_vecs.get(dd, [])] + [list(v) for v in dc_vecs.get(dd, [])]
        if not cols:
            if any(vec_dict.values()):
                raise AinfError("kernel subcomplex is not acyclic")
            return {}
        rhs = [vec_dict.get(l, Fraction(0)) for l in dom]
        mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(dom))]
        coords = linalg.solve(mat, rhs)
        if coords is None:
            raise AinfError("vector not in the kernel subcomplex")
        out = {}
        n_c = len(c_vecs.get(dd, []))
        below = by_deg.get(dd - 1, [])
        for i, coord in enumerate(coords[n_c:]):
            if coord:
                cvec = c_vecs[dd - 1][i]
                for j, val in enumerate(cvec):
                    if val:
                        out[below[j]] = out.get(below[j], Fraction(0)) + coord * val
        return out

    # corrected chain section s of p_1^{0,0}
    b_named = {}
    for dd in degrees:
        dom = by_deg.get(dd, [])
        d_labels = D.source.labels_of_degree(dd)
        if not d_labels:
            continue
        pmat = [[p1_e.get((l,), {}).get(out, Fraction(0)) for l in dom]
                for out in p.target.labels_of_degree(dd)]
        named = []
        for y in d_labels:
            rhs = [Fraction(1) if out == y else Fraction(0)
                   for out in p.target.labels_of_degree(dd)]
            s0 = linalg.solve(pmat, rhs)
            if s0 is None:
                raise MalformedMorphismError(f"p_1^(0,0) misses {y}")
            s0_dict = {dom[j]: s0[j] for j in range(len(dom)) if s0[j]}
            # defect = d(s0 y) - s0(d_D y), lands in the kernel
            defect = _apply_entries(d_entries, s0_dict)
            dy = dD_e.get((y,), {})
            s0_dy = {}
            dom_up = by_deg.get(dd + 1, [])
            up_labels = D.source.labels_of_degree(dd + 1)
            if dy:
                pmat_up = [[p1_e.get((l,), {}).get(out, Fraction(0)) for l in dom_up]
                           for out in p.target.labels_of_degree(dd + 1)]
                for y2, c in dy.items():
                    rhs2 = [c if out == y2 else Fraction(0)
                            for out in p.target.labels_of_degree(dd + 1)]
                    sol = linalg.solve(pmat_up, rhs2)
                    if sol is None:
                        raise MalformedMorphismError(f"p_1^(0,0) misses {y2}")
                    for j in range(len(dom_up)):
                        if sol[j]:
                            s0_dy[dom_up[j]] = s0_dy.get(dom_up[j], Fraction(0)) + sol[j]
            for l, c in s0_dy.items():
                defect[l] = defect.get(l, Fraction(0)) - c
            defect = {l: c for l, c in defect.items() if c}
            corr = h_kernel(dd + 1, defect) if defect else {}
            s_vec = dict(s0_dict)
            for l, c in corr.items():
                s_vec[l] = s_vec.get(l, Fraction(0)) - c
            named.append((f"s_{y}", [s_vec.get(l, Fraction(0)) for l in dom]))
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
    p1_00 = p.table(1, Fraction(0), 0)
    p1_e = p1_00.entries if p1_00 else {}
    # surjectivity of p_1^{0,0} degreewise
    for dd in D.source.degrees():
        dom = A.source.labels_of_degree(dd)
        cod = D.source.labels_of_degree(dd)
        mat = [[p1_e.get((l,), {}).get(out, Fraction(0)) for l in dom] for out in cod]
        if linalg.rank(mat) != len(cod):
            raise MalformedMorphismError(f"p_1^(0,0) is not surjective in degree {dd}")
    ok, cert = is_weak_homotopy_equiv(p, A, D)
    if not ok:
        raise MalformedMorphismError(f"p is not a weak homotopy equivalence: {cert}")
    split = splitting_for_projection(A, p, D)
    # higher components of p_1 must vanish on Ker p_1^{0,0} = C + dC,
    # i.e. on everything the projection kills
    killed = {}  # a_label -> (id - i Pi)(a_label) as a vector
    for a_label, _ in A.source.basis:
        vec = {a_label: Fraction(1)}
        for b_label, pc in split.project.get(a_label, {}).items():
            for a2, ic in split.include[b_label].items():
                vec[a2] = vec.get(a2, Fraction(0)) - pc * ic
        killed[a_label] = {l: c for l, c in vec.items() if c}
    for (k, lam, mu), table in p.tables.items():
        if (lam, mu) == ZERO_KEY:
            continue
        for a_label, kern_vec in killed.items():
            img = {}
            for l, c in kern_vec.items():
                for out, q in table.entries.get((l,), {}).items():
                    img[out] = img.get(out, Fraction(0)) + c * q
            if any(img.values()):
                raise MalformedMorphismError(
                    f"p_1^({lam},{mu}) does not vanish on Ker p_1^(0,0)"
                )
    _, incl = minimal_model(A, level=level, kmax=kmax, split=split)
    # invert p_1|B as a Novikov matrix (strip degree-determined e-powers)
    pmat = NovMatrix(D.source.labels, split.b_space.labels, p.flavor, p.cutoff)
    for (k, lam, mu), table in p.tables.items():
        for b_label, vec in split.include.items():
            acc = {}
            for a_label, c in vec.items():
                for out, q in table.entries.get((a_label,), {}).items():
                    acc[out] = acc.get(out, Fraction(0)) + c * q
            for out, c in acc.items():
                if c:
                    term = NovikovElement.monomial(c, lam, mu, p.flavor, p.cutoff)
                    pmat.set(out, b_label,
                             term if (out, b_label) not in pmat.data
                             else _nov_sum(pmat.get(out, b_label), term))
    stripped = strip_e_powers(pmat, D.source.degree, split.b_space.degree, 0)
    inv = stripped.inverse()  # rows = b labels, cols = D labels
    # restore e-powers: entry b <- d needs mu = (deg d - deg b) / 2
    q_tables = {}
    for (k, lam, mu), table in incl.tables.items():
        for inputs, outs in table.entries.items():
            _distribute_precompose(q_tables, k, (lam, mu), inputs, outs, inv,
                                   split.b_space, D.source, p.cutoff)
    tables = [OperationTable(k, lam, mu, "morphism", e)
              for (k, lam, mu), e in q_tables.items() if e]
    q = OperationSystem.morphism(D.source, A.source, p.monoid, p.flavor,
                                 p.cutoff, tables)
    return q


def _nov_sum(a, b):
    from .novikov import nov_add
    return nov_add(a, b)


def _distribute_precompose(acc, k, base_key, b_inputs, outs, inv_matrix,
                           b_space, d_space, cutoff):
    """Precompose a Q-table entry (on B-labels) with a Novikov matrix whose
    columns are D-labels, distributing term keys into table keys."""

    def go(idx, d_inputs, lam, mu, coeff):
        if idx == len(b_inputs):
            key = (k, base_key[0] + lam, base_key[1] + mu)
            if key[1] > cutoff:
                return
            tgt = acc.setdefault(key, {}).setdefault(tuple(d_inputs), {})
            for out_label, q in outs.items():
                c = tgt.get(out_label, Fraction(0)) + coeff * q
                if c:
                    tgt[out_label] = c
                else:
                    tgt.pop(out_label, None)
            return
        b_label = b_inputs[idx]
        delta = None
        for d_label in d_space.labels:
            entry = inv_matrix.data.get((b_label, d_label))
            if entry is None:
                continue
            # restore the e-power stripped from the degree-0 map
            delta = (d_space.degree(d_label) - b_space.degree(b_label))
            if delta % 2:
                continue
            mu_fix = delta // 2
            for c, l, m in entry.terms:
                go(idx + 1, d_inputs + [d_label], lam + l, mu + m + mu_fix, coeff * c)

    go(0, [], Fraction(0), 0, Fraction(1))
    return acc


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
    low_set = {l for l, _ in space.basis if geo.filtration.get(l, 0) <= level}
    degrees = space.degrees()
    by_deg = {dd: space.labels_of_degree(dd) for dd in degrees}

    def dmat(dd):
        dom = by_deg.get(dd, [])
        cod = by_deg.get(dd + 1, [])
        return [[d_entries.get((l,), {}).get(out, Fraction(0)) for l in dom] for out in cod]

    c_vecs, dc_vecs, b_named = {}, {}, {}
    for dd in degrees:
        dom = by_deg.get(dd, [])
        cod = by_deg.get(dd + 1, [])
        rows = [
            [Fraction(1) if dom[j] == l else Fraction(0) for j in range(len(dom))]
            for l in dom if l not in low_set
        ]
        if not rows:
            c_vecs[dd] = []
            continue
        # quotient differential: d followed by killing the low coordinates
        qmat = [
            [sum((v[j] * d_entries.get((dom[j],), {}).get(out, Fraction(0))
                  for j in range(len(dom))), Fraction(0)) for v in rows]
            for out in cod if out not in low_set
        ]
        _, pivots = linalg.row_reduce(qmat) if qmat else ([], [])
        c_vecs[dd] = [rows[p] for p in pivots]
    for dd in degrees:
        mat = dmat(dd)
        below = c_vecs.get(dd, [])
        dc_vecs[dd + 1] = [linalg.mat_vec(mat, v) for v in below] if below and mat else []
    for dd in degrees:
        dom = by_deg.get(dd, [])
        b_named[dd] = [
            (l, [Fraction(1) if dom[j] == l else Fraction(0) for j in range(len(dom))])
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

    engine = _TreeEngine(geo.monoid, geo.cutoff, vertex, vertex_keys,
                         leaf_table, edge_matrix)
    out_tables = []
    for key in elements:
        n = monoid_norm(geo.monoid, key)
        for k in range(0, max(level + 1 - n, 0) + 1):
            if n + k - 1 > level:
                continue
            if (k, key) == (1, ZERO_KEY):
                d = geo.table(1, ZERO_KEY)
                if d is None:
                    raise MissingDataError("(k=1, lam=0, mu=0)")
                entries = {
                    i: dict(o) for i, o in d.items()
                    if all(l in set(split.b_space.labels) for l in i)
                }
                entries = {
                    i: {ol: c for ol, c in o.items() if ol in set(split.b_space.labels)}
                    for i, o in entries.items()
                }
                entries = {i: o for i, o in entries.items() if o}
                if entries:
                    out_tables.append(OperationTable(1, Fraction(0), 0, "algebra", entries))
                continue
            s = engine.S(k, key)
            entries = _project_table(s, split.project)
            entries = {i: o for i, o in entries.items() if o}
            if entries:
                out_tables.append(OperationTable(k, key[0], key[1], "algebra", entries))
    return OperationSystem.algebra(split.b_space, geo.monoid, geo.flavor,
                                   geo.cutoff, out_tables)
