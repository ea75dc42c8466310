"""Planar rooted trees and every tree-sum construction: minimal models,
homotopy inverses of strict surjective quasi-isomorphisms, and the
geometric-to-A_{N,0} assembly.

``_tree_sums`` never materializes decorated trees.  A tree with k leaves is
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
whose slots read the leaf injection at (1, 0, 0) and edge_op of the sums
already finished.  A child has less energy, or the same key and fewer
leaves, so the sums are finished in ascending (lam, mu, k), and each one is
pushed forward as it is finished: every filling of a vertex is enumerated
once, when its last child is finished, and added to the sum it lands on.
The cost follows the fillings that exist, not the (arity, key) pairs.
In shifted degrees every child composite has even degree, so plain
composition and Koszul-signed composition agree and no interchange signs are
needed.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction

from . import linalg
from .errors import AinfError, MalformedMorphismError, MissingDataError
from .gapped import ZERO_KEY, EnergyMonoid, _element_norms
from .gradedcore import (
    GradedSpace,
    OperationSystem,
    OperationTable,
    _add_scaled,
    _apply,
    _apply_each,
    _block_sum,
    _check_square_zero,
    _fill_slots,
    _linear,
    _producers,
    _UNSEEN,
)
from .ainfty import is_weak_homotopy_equiv
from .novikov import as_fraction
from .novmat import NovMatrix, _fold


# ---------------------------------------------------------------------------
# planar rooted trees

@dataclass(frozen=True)
class PlanarTree:
    """Leaf, or internal node with ordered children and optional key."""

    children: tuple | None  # None = leaf; tuple of PlanarTree otherwise
    key: tuple | None = None  # (lam, mu) decoration of an internal node
    _shape: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # built once, from the children's strings
        object.__setattr__(self, "_shape", "*" if self.children is None else
                           "(" + "".join(c._shape for c in self.children) + ")")

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
        return self._shape


# Enumerating more trees than this is refused.  k = 10 leaves give 103,049
# strict trees, k = 11 give 518,859.
MAX_TREES = 200_000

# The fewest children an internal vertex has in each mode.
_MIN_CHILDREN = {"strict": 2, "filtered": 0}


def _tree_counter(min_children):
    """count(l, b): how many trees enumerate_trees' trees(l, b) lists, by the
    same recursion, memoised."""

    @cache
    def count(leaves, lv_budget):
        total = 0
        for m in range(min_children, leaves + lv_budget + 1):
            rest = lv_budget - 1 if m <= 1 else lv_budget  # m <= 1 is low-valence
            if rest >= 0:
                total += combos(leaves, rest, m)
        return total

    @cache
    def combos(leaves, lv_budget, m):
        if m == 0:
            return int(leaves == lv_budget == 0)
        total = 0
        for l1 in range(leaves + 1):
            for b1 in range(lv_budget + 1):
                if l1 + b1 and leaves - l1 + lv_budget - b1 >= m - 1:
                    children = count(l1, b1) + ((l1, b1) == (1, 0))  # the bare leaf
                    total += children * combos(leaves - l1, lv_budget - b1, m - 1)
        return total

    return count


def _count_trees(k: int, mode: str, low_valence_budget: int) -> int:
    """How many trees ``enumerate_trees(k, mode, low_valence_budget)`` lists,
    counted without building them (strict counts are the little Schroeder
    numbers), or the first count found past MAX_TREES.

    Grafting a tree and a leaf onto a new binary root adds a leaf and keeps
    the low-valence count, so count(l, b) grows with l.  Sizes are counted
    upward, which keeps the recursion shallow, and the first count past
    MAX_TREES is returned at once: a huge k or budget stops there.
    """
    count = _tree_counter(_MIN_CHILDREN[mode])
    total = 0
    for b in range(low_valence_budget + 1 if mode == "filtered" else 1):
        for leaves in range(k + 1):
            if count(leaves, b) > MAX_TREES:
                return count(leaves, b)
        total += count(k, b)
        if total > MAX_TREES:
            return total
    return total


def enumerate_trees(k: int, mode: str = "strict", low_valence_budget: int = 0):
    """All planar rooted trees with k leaves.

    strict mode: every internal vertex has >= 2 children (>= 3 edges).
    filtered mode: vertices with 0 or 1 children allowed, their total count
    bounded by ``low_valence_budget`` (the energy argument: N such vertices
    cost at least N * lambda_0).  Deterministic order: by internal vertex
    count, then by shape string.

    The trees are counted first, and more than MAX_TREES of them raise
    ValueError.
    """
    if mode not in _MIN_CHILDREN:
        raise ValueError(f"unknown mode {mode!r}")
    if _count_trees(k, mode, low_valence_budget) > MAX_TREES:
        within = (f" and at most {low_valence_budget} low-valence vertices"
                  if mode == "filtered" else "")
        raise ValueError(f"more than {MAX_TREES} {mode} trees have {k} leaves{within}; "
                         "refusing to enumerate them")
    min_children = _MIN_CHILDREN[mode]
    budget = 0 if mode == "strict" else low_valence_budget

    # trees(l, b) = trees with exactly l leaves and exactly b low-valence
    # vertices, children(l, b) the same plus the leaf at (1, 0).  Every
    # child consumes at least one unit of leaves + budget, which makes the
    # recursion well founded.
    @cache
    def trees(leaves, lv_budget):
        out = []
        for m in range(min_children, leaves + lv_budget + 1):
            rest = lv_budget - 1 if m <= 1 else lv_budget  # m <= 1 is low-valence
            if rest >= 0:
                out += [PlanarTree(tuple(combo)) for combo in child_combos(leaves, rest, m)]
        return out

    @cache
    def children(leaves, lv_budget):
        leaf = [PlanarTree(None)] if (leaves, lv_budget) == (1, 0) else []
        return leaf + trees(leaves, lv_budget)

    def child_combos(leaves, lv_budget, m):
        if m == 0:
            if leaves == lv_budget == 0:
                yield []
            return
        for l1 in range(leaves + 1):
            for b1 in range(lv_budget + 1):
                # the remaining slots must each consume a unit too
                if l1 + b1 and leaves - l1 + lv_budget - b1 >= m - 1:
                    for rest in child_combos(leaves - l1, lv_budget - b1, m - 1):
                        for first in children(l1, b1):
                            yield [first, *rest]

    # a shape string has one "(" per internal vertex
    found = [t for b in range(0, budget + 1) for t in trees(k, b)]
    return sorted(found, key=lambda t: (t._shape.count("("), t._shape))


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
    include: dict  # b_label -> {a_label: rational}
    project: dict  # a_label -> {b_label: rational}
    h: dict        # a_label -> {a_label: rational}


def _assemble_splitting(space: GradedSpace, b_named, c_vecs, dc_vecs) -> Splitting:
    """Build include / project / h from per-degree column data.

    ``b_named[d]`` is a list of (label, vector) pairs, ``c_vecs[d]`` and
    ``dc_vecs[d]`` lists of vectors, all on the degree-d labels; together
    the columns must be a basis of each degree.  The three maps hold
    canonical rationals (``as_fraction``).
    """
    degrees = space.degrees()
    include, project, h = {}, {}, {}
    b_basis = []
    for dd in degrees:
        for label, v in b_named.get(dd, []):
            b_basis.append((label, dd))
            include[label] = {a: as_fraction(q) for a, q in v.items()}
    for dd in degrees:
        dom = space.labels_of_degree(dd)
        if not dom:
            continue
        cols = {
            **{("b", lbl): v for lbl, v in b_named.get(dd, [])},
            **{("c", i): v for i, v in enumerate(c_vecs.get(dd, []))},
            **{("dc", i): v for i, v in enumerate(dc_vecs.get(dd, []))},
        }
        # the coordinates of each degree-d label in the columns
        coords_of = linalg.solver(cols, list(cols))
        coords = [coords_of({a_label: 1}) for a_label in dom]
        if len(cols) != len(dom) or None in coords:
            raise AinfError("splitting decomposition is not a direct sum")
        for a_label, coord in zip(dom, coords):
            pr, hv = {}, {}
            for (tag_kind, tag), q in coord.items():
                if tag_kind == "b":
                    pr[tag] = q
                elif tag_kind == "dc":
                    # H(d c_i) = c_i, one degree down
                    _add_scaled(hv, c_vecs[dd - 1][tag], q)
            if pr:
                project[a_label] = pr
            if hv:
                h[a_label] = {t: as_fraction(q) for t, q in hv.items()}
    return Splitting(space, GradedSpace.make(b_basis), include, project, h)


def splitting(alg: OperationSystem) -> Splitting:
    """Deterministic splitting of (A, m_1^{0,0}) with B = cohomology
    representatives: A = B + C + m_1(C), H(B) = H(C) = 0, H(m_1 c) = c.

    C is spanned by the basis vectors at the pivot columns of the
    differential, B extends the image inside the kernel using the kernel
    basis, leftmost pivots first, so the output is reproducible run-to-run.
    """
    d = _linear(alg.table(1, 0, 0))
    _check_square_zero(d)
    space = alg.source
    degrees = space.degrees()
    c_vecs, dc_vecs, b_named = {}, {}, {}
    for dd in degrees:
        dom = space.labels_of_degree(dd)
        pivots = [dom[j] for j in linalg.independent([d.get(l, {}) for l in dom])]
        c_vecs[dd] = [{l: 1} for l in pivots]
        dc_vecs[dd + 1] = [d[l] for l in pivots]
    counter = 0
    for dd in degrees:
        kb = linalg.kernel_basis(d, space.labels_of_degree(dd))
        chosen = linalg.independent(kb, inside=c_vecs[dd] + dc_vecs.get(dd, []))
        b_named[dd] = [(f"h{counter + i}", kb[j]) for i, j in enumerate(chosen)]
        counter += len(chosen)
    return _assemble_splitting(space, b_named, c_vecs, dc_vecs)


# ---------------------------------------------------------------------------
# the decorated-tree sums

def _tree_sums(vertices: dict, split: Splitting, edge_sign: int, k_bound: int, cutoff,
               admits) -> dict:
    """The sum S over all decorated trees with k leaves and total key
    (lam, mu), and S after the edge map, at every (k, lam, mu) with
    k <= k_bound, lam <= cutoff and admits(k, (lam, mu)) where S is nonzero:
    {(k, lam, mu): (S, edge(S))}, both sparse tables {b-input tuple:
    {a_label: c}}.

    vertices: {(m, kv): sparse Q-table}, the vertex tables the trees are
    decorated with; the leaves are ``split.include`` and the edge map is
    ``edge_sign`` times ``split.h``.  A child sum is taken only where admits
    holds too.

    A child subtree has less energy, or the same key and fewer leaves, so
    the sums are finished in ascending (lam, mu, k), each one before its
    parents.  Each filling of a vertex's slots is enumerated once, when the
    last of its children is finished, and added to the sum it lands on: in
    an entry reading a label the finished sum produces, slot j takes that
    sum, the slots before j the sums finished before it and the slots after
    j any finished sum, the leaf included.
    """
    edge = {a: {t: edge_sign * c for t, c in vec.items()} for a, vec in split.h.items()}
    entries = []  # the vertex entries with slots, as (lam, mu, inputs, outs)
    readers = {}  # label -> the indexes of the entries that read it
    pending = {}  # (lam, mu, k) -> the sum found so far, or None if not admitted
    order = []  # heap of the pending (lam, mu, k)
    for (m, kv), table in vertices.items():
        if m <= 1 and kv == ZERO_KEY:
            continue  # the unary weight is m_1 - m_1^{0,0}, and m_0^{0,0} vanishes
        if not m:
            if admits(0, kv):  # a curvature vertex is a whole tree
                pending[(*kv, 0)] = {inputs: dict(outs) for inputs, outs in table.items()}
                heapq.heappush(order, (*kv, 0))
            continue
        for inputs, outs in table.items():
            for label in inputs:
                readers.setdefault(label, set()).add(len(entries))
            entries.append((*kv, inputs, outs))
    index = {}  # what a slot can take, by the a_label it needs (``_producers``)
    sums = {}
    key, table = (1, *ZERO_KEY), {(b,): vec for b, vec in split.include.items()}  # the leaf
    while True:
        fresh = _producers({key: table})
        below = {l: index.get(l, {}) for l in fresh}
        for l, spec in fresh.items():
            index[l] = {**below[l], **spec}
        for i in sorted({i for l in fresh for i in readers.get(l, ())}):
            lam0, mu0, in_labels, outs = entries[i]
            for j, label in enumerate(in_labels):
                if label not in fresh:
                    continue
                specs = [below.get(x, index.get(x)) for x in in_labels[:j]]
                specs += [fresh[label], *map(index.get, in_labels[j + 1:])]
                if not all(specs):
                    continue
                for (k, lam, mu), inputs, coeff in _fill_slots(specs, k_bound, cutoff - lam0):
                    at = (lam0 + lam, mu0 + mu, k)
                    s = pending.get(at, _UNSEEN)
                    if s is _UNSEEN:
                        s = pending[at] = {} if admits(k, at[:2]) else None
                        if s is not None:
                            heapq.heappush(order, at)
                    if s is not None:
                        _add_scaled(s.setdefault(inputs, {}), outs, coeff)
        if not order:
            return sums
        lam, mu, k = at = heapq.heappop(order)
        s = {i: v for i, v in pending.pop(at).items() if v}
        key, table = (k, lam, mu), _apply_each(edge, s)
        if s:
            sums[key] = s, table


def minimal_model(alg: OperationSystem, level=None, kmax=None, split=None):
    """Tree-sum transfer onto a splitting of (A, m_1^{0,0}).

    Returns (model, i) where the model is an algebra on the splitting's
    B-space and i is the inclusion morphism.  With the default splitting
    (cohomology representatives) n_1^{0,0} = 0, so the model is minimal.
    Admissible output keys: norm + k - 1 <= level if ``level`` is given,
    otherwise all monoid keys up to the cutoff with k <= kmax.  The model is
    built unchecked, so a given ``split`` must come from ``splitting`` or
    ``splitting_for_projection``, whose splittings make it valid.
    """
    if level is None and kmax is None:
        raise ValueError("need an A_{N,0} level or an arity bound kmax")
    if alg.role != "algebra":
        raise AinfError(f"minimal_model needs an algebra, not a {alg.role}")
    split = split or splitting(alg)
    if level is not None:
        norms = dict(_element_norms(alg.monoid, alg.cutoff))
        k_bound, admits = level + 1, lambda k, key: norms[key] + k - 1 <= level
    else:
        k_bound, admits = kmax, lambda k, key: k <= kmax
    vertices = {(k, (lam, mu)): t.entries for (k, lam, mu), t in alg.tables.items()}
    sums = _tree_sums(vertices, split, -1, k_bound, alg.cutoff, admits)
    n_tables = {key: _apply_each(split.project, s) for key, (s, _) in sums.items()}
    i_tables = {key: applied for key, (_, applied) in sums.items()}
    if admits(1, ZERO_KEY):
        # no tree lands here: n_1^{0,0} = Pi m_1^{0,0} i and i_1^{0,0} is the
        # plain inclusion
        d = _linear(alg.table(1, 0, 0))
        n_tables[(1, *ZERO_KEY)] = {(b,): _apply(split.project, _apply(d, vec))
                                    for b, vec in split.include.items()}
        i_tables[(1, *ZERO_KEY)] = {(b,): vec for b, vec in split.include.items()}
    ring = (alg.monoid, alg.flavor, alg.cutoff)
    return (OperationSystem._built(split.b_space, split.b_space, *ring, "algebra", n_tables),
            OperationSystem._built(split.b_space, alg.source, *ring, "morphism", i_tables))


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
    p1 = _linear(p.table(1, 0, 0))
    d = _linear(alg.table(1, 0, 0))
    dD = _linear(D.table(1, 0, 0))
    space = alg.source
    degrees = sorted(set(space.degrees()) | set(D.source.degrees()))

    # kernel of p_1^{0,0} per degree, then C inside it via pivots of d|_K
    c_vecs, dc_vecs = {}, {}
    for dd in degrees:
        kernel = linalg.kernel_basis(p1, space.labels_of_degree(dd))
        dK = [_apply(d, v) for v in kernel]
        pivots = linalg.independent(dK)
        c_vecs[dd] = [kernel[j] for j in pivots]
        dc_vecs[dd + 1] = [dK[j] for j in pivots]

    # one solver per degree for [C | dC] and for p_1^{0,0}: a solver reduces
    # [mat | I], which costs more than one right-hand side's [mat | b]
    coord_solvers, section_solvers = {}, {}

    # contraction H_K of the kernel subcomplex: solve coords in [C | dC]
    def h_kernel(dd, vec_dict):
        cols = c_vecs.get(dd, []) + dc_vecs.get(dd, [])
        if not cols:
            if any(vec_dict.values()):
                raise AinfError("kernel subcomplex is not acyclic")
            return {}
        if dd not in coord_solvers:
            coord_solvers[dd] = linalg.solver(dict(enumerate(cols)), range(len(cols)))
        coords = coord_solvers[dd](vec_dict)
        if coords is None:
            raise AinfError("vector not in the kernel subcomplex")
        out = {}
        n_c = len(c_vecs.get(dd, []))
        for j, coord in coords.items():
            if j >= n_c:
                _add_scaled(out, c_vecs[dd - 1][j - n_c], coord)
        return out

    def section(y, dd, coeff):
        """A solution x of p_1^{0,0} x = coeff y, as a vector on degree dd."""
        if dd not in section_solvers:
            section_solvers[dd] = linalg.solver(p1, space.labels_of_degree(dd))
        x = section_solvers[dd]({y: coeff})
        if x is None:
            raise MalformedMorphismError(f"p_1^(0,0) misses {y}")
        return x

    # corrected chain section s of p_1^{0,0}
    b_named = {}
    for dd in degrees:
        named = []
        for y in D.source.labels_of_degree(dd):
            s0 = section(y, dd, 1)
            # defect = d(s0 y) - s0(d_D y), lands in the kernel
            defect = _apply(d, s0)
            for y2, c in dD.get(y, {}).items():
                _add_scaled(defect, section(y2, dd + 1, c), -1)
            s_vec = _add_scaled(s0, h_kernel(dd + 1, defect) if defect else {}, -1)
            named.append((f"s_{y}", s_vec))
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
    p1 = _linear(p.table(1, 0, 0))
    # surjectivity of p_1^{0,0} degreewise
    for dd in D.source.degrees():
        images = [p1[a] for a in A.source.labels_of_degree(dd) if a in p1]
        if len(linalg.independent(images)) != len(D.source.labels_of_degree(dd)):
            raise MalformedMorphismError(f"p_1^(0,0) is not surjective in degree {dd}")
    ok, cert = is_weak_homotopy_equiv(p, A, D)
    if not ok:
        raise MalformedMorphismError(f"p is not a weak homotopy equivalence: {cert}")
    split = splitting_for_projection(A, p, D)
    # higher components of p_1 must vanish on Ker p_1^{0,0} = C + dC,
    # i.e. on everything the projection kills
    killed = [  # (id - i Pi)(a) for every basis vector a
        _add_scaled({a: 1}, _apply(split.include, split.project.get(a, {})), -1)
        for a in A.source.labels
    ]
    for (k, lam, mu), table in p.tables.items():
        if (lam, mu) != ZERO_KEY and any(_apply(_linear(table), v) for v in killed):
            raise MalformedMorphismError(
                f"p_1^({lam},{mu}) does not vanish on Ker p_1^(0,0)"
            )
    _, incl = minimal_model(A, level=level, kmax=kmax, split=split)
    # invert p_1|B as a Novikov matrix; each entry d <- b carries the one
    # e-power (deg b - deg d) / 2, which the inverse keeps
    restricted = {key: {(b,): _apply(_linear(t), vec) for b, vec in split.include.items()}
                  for key, t in p.tables.items()}
    pmat = NovMatrix(D.source.labels, split.b_space.labels, p.flavor, p.cutoff, {
        (d, b): v for (b,), column in _fold(restricted, 1, p.flavor, p.cutoff).items()
        for d, v in column.items()})
    # a B-slot of i takes a D-label through the inverse (rows = b labels)
    slots = {}
    for (b_label, d_label), entry in pmat.inverse().data.items():
        for c, l, m in entry.terms:
            slots.setdefault(b_label, {}).setdefault((1, l, m), []).append(((d_label,), c))
    # every slot spec has arity 1, so the arity budget is never reached
    q_tables = _block_sum({}, incl, lambda r: [[slots] * r], math.inf, p.cutoff)
    tables = [OperationTable(k, lam, mu, "morphism", e)
              for (k, lam, mu), e in q_tables.items()]
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
        cod = set(space.labels_of_degree(dd + 1))
        high = [l for l in dom if l not in low_set]
        # d on the high labels, its outputs kept in degree dd + 1 (geometric
        # tables are not degree-checked)
        d_high = [{out: q for out, q in d.get(l, {}).items() if out in cod} for l in high]
        # pivots of the quotient differential: d followed by killing the low
        # coordinates
        pivots = linalg.independent(
            [{out: q for out, q in v.items() if out not in low_set} for v in d_high])
        c_vecs[dd] = [{high[j]: 1} for j in pivots]
        dc_vecs[dd + 1] = [d_high[j] for j in pivots]
        b_named[dd] = [(l, {l: 1}) for l in dom if l in low_set]
    return _assemble_splitting(space, b_named, c_vecs, dc_vecs)


def ank_from_geometric(geo: GeometricData, level: int, ambient_parity: int) -> OperationSystem:
    """Assemble an A_{N,0} algebra from partial geometric tables by decorated
    tree sums with internal-edge weight (-1)^(ambient_parity + 1) H, root
    projection, and identity leaves.

    On inputs whose filtration budget fits, the output reproduces the
    geometric tables exactly; trees with an internal edge die on the level-N
    sub-filtration because H vanishes there.

    Every vertex key (m, kv) that is declared or inside the N' budget, and
    whose energy some budgeted output key with a tree sum reaches, is
    looked up; an undeclared one raises MissingDataError.  The lookups go
    by the lowest such output energy, then by (m, kv), so the error names
    the key a walk over the output keys in ascending order misses first.
    """
    n_prime = level * (level + 2)
    split = filtration_splitting(geo, level)
    max_arity = max((k for k, _, _ in geo.declared), default=0)
    norms = dict(_element_norms(geo.monoid, geo.cutoff))

    def admits(k, key):
        return norms[key] + k - 1 <= level

    # the energies of the output keys with a tree sum: a zero-key sum needs
    # two leaves
    energies = sorted({kv[0] for kv in norms if admits(2 if kv == ZERO_KEY else 0, kv)})
    keys = {(k, (as_fraction(lam), int(mu))) for k, lam, mu in geo.declared}
    keys = {(m, kv) for m, kv in keys if kv in norms}
    keys.update((m, kv) for kv, norm in norms.items() for m in range(max_arity + 1)
                if norm + m - 1 <= n_prime)
    vertices = {}
    # the unary weight is m_1 - m_1^{0,0}, and m_0^{0,0} vanishes
    for _, m, kv in sorted((bisect_left(energies, kv[0]), m, kv) for m, kv in keys
                           if (m > 1 or kv != ZERO_KEY) and energies and kv[0] <= energies[-1]):
        table = geo.table(m, kv)
        if table is None:
            raise MissingDataError(f"(k={m}, lam={kv[0]}, mu={kv[1]})")
        vertices[(m, kv)] = table
    sums = _tree_sums(vertices, split, 1 if ambient_parity % 2 else -1, level + 1,
                      geo.cutoff, admits)
    # the restriction of d to B, which is d-closed by the problem's contract
    # (filtration_splitting refuses a missing d)
    b_labels = set(split.b_space.labels)
    d = {i: {ol: c for ol, c in o.items() if ol in b_labels}
         for i, o in geo.table(1, ZERO_KEY).items() if all(l in b_labels for l in i)}
    tables = [OperationTable(1, 0, 0, "algebra", d)] + [
        OperationTable(k, lam, mu, "algebra", _apply_each(split.project, s))
        for (k, lam, mu), (s, _) in sums.items()]
    return OperationSystem.algebra(split.b_space, geo.monoid, geo.flavor,
                                   geo.cutoff, tables)
