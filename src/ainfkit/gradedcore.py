"""Graded rational spaces, sparse multilinear operation tables, and the
Koszul-signed defect tensor of the filtered A-infinity relations.

An OperationSystem stores one family of multilinear maps (the m_k of an
algebra, the f_k of a morphism, or the H_k of a homotopy) as sparse rational
tables indexed by (arity k, energy lam, e-power mu).  Every table has one
format, {input label tuple: {output label: coeff}}, and so has every relation
defect.  Degree shifts per role:

    algebra    deg(out) = sum deg(in) + 1 - 2*mu
    morphism   deg(out) = sum deg(in)     - 2*mu
    homotopy   deg(out) = sum deg(in) - 1 - 2*mu

Signs are always recomputed from the stored integer degrees; they are never
cached anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import (DegreeError, IncompatibleRingError, NotAComplexError,
                     NotInMonoidError, UnknownBasisError)
from .gapped import EnergyMonoid
from .novikov import NovikovElement, as_fraction, nov_add, nov_mul

ROLE_SHIFT = {"algebra": 1, "morphism": 0, "homotopy": -1}


@dataclass(frozen=True)
class GradedSpace:
    """Ordered basis of (label, degree); order fixes pivoting downstream."""

    basis: tuple  # of (label, degree)

    def __post_init__(self):
        degree_of = dict(self.basis)
        if len(degree_of) != len(self.basis):
            raise ValueError("duplicate basis labels")
        object.__setattr__(self, "_degree_of", degree_of)

    @staticmethod
    def make(pairs) -> "GradedSpace":
        return GradedSpace(tuple((str(l), int(d)) for l, d in pairs))

    @property
    def labels(self):
        return tuple(l for l, _ in self.basis)

    def degree(self, label) -> int:
        if label not in self._degree_of:
            raise UnknownBasisError(label)
        return self._degree_of[label]

    def has(self, label) -> bool:
        return label in self._degree_of

    def labels_of_degree(self, d):
        return [l for l, dd in self.basis if dd == d]

    def degrees(self):
        return sorted({d for _, d in self.basis})

    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis


# A sparse Q-multilinear table: {input label tuple: {output label: coeff}}.
# A linear map is {label: {output label: coeff}}, a Q-vector {label: coeff}.

def _add_scaled(target: dict, outs: dict, coeff=1) -> dict:
    """target += coeff * outs entrywise; entries that cancel are removed."""
    for label, q in outs.items():
        if coeff != 1:
            q = coeff * q
        c = target.get(label)
        c = q if c is None else c + q
        if c:
            target[label] = c
        else:
            target.pop(label, None)
    return target


def _apply(matrix: dict, vec: dict) -> dict:
    """The linear map ``matrix`` applied to the Q-vector ``vec``."""
    out = {}
    for label, c in vec.items():
        row = matrix.get(label)
        if row:
            _add_scaled(out, row, c)
    return out


def _apply_each(matrix: dict, table: dict) -> dict:
    """``matrix`` applied to every output of ``table``; empty outputs dropped."""
    out = {}
    for inputs, vec in table.items():
        image = _apply(matrix, vec)
        if image:
            out[inputs] = image
    return out


def _producers(tables: dict, index: dict | None = None) -> dict:
    """Table entries {(k, lam, mu): {inputs: {out: q}}} indexed by output
    label as {label: {(k, lam, mu): [(inputs, q)]}}, added to ``index`` if
    one is given.  One label's groups are the specs of a slot that needs it."""
    index = {} if index is None else index
    for key, entries in tables.items():
        for inputs, outs in entries.items():
            for label, q in outs.items():
                index.setdefault(label, {}).setdefault(key, []).append((inputs, q))
    return index


def _producers_of(fam) -> dict:
    """An OperationSystem's entries indexed by output label (``_producers``)."""
    return _producers({key: t.entries for key, t in fam.tables.items()})


def _fill_slots(specs, k_budget, lam_budget):
    """Every way to fill slot j with one producer of ``specs[j]``.

    ``specs[j]`` is {(k, lam, mu): [(inputs, q)]}.  Yields (key, inputs,
    coeff): the sum of the chosen keys, the chosen inputs concatenated and
    the product of their coefficients, over the fillings whose arities sum
    to at most ``k_budget`` and energies to at most ``lam_budget`` (keys
    have k, lam >= 0, so a group past a budget is skipped whole).
    """
    if not specs:
        yield (0, 0, 0), (), 1
        return
    last = len(specs) - 1

    # coefficient arithmetic is most of the cost: the first slot starts the
    # sums and the product instead of adding to 0 and multiplying 1, and a
    # zero energy is not added
    def go(j, k, lam, mu, inputs, coeff):
        for (kk, ll, mm), group in specs[j].items():
            if j:
                kk, ll, mm = k + kk, lam + ll if ll else lam, mu + mm
            if kk > k_budget or ll > lam_budget:
                continue
            if j < last:
                for ins, q in group:
                    yield from go(j + 1, kk, ll, mm, inputs + ins, coeff * q if j else q)
            else:
                key = (kk, ll, mm)
                for ins, q in group:
                    yield key, inputs + ins, coeff * q if j else q

    yield from go(0, 0, 0, 0, (), None)
    del go  # go reaches itself through its closure: free the cycle now, not in a GC pass


def _linear(table) -> dict:
    """A unary OperationTable (or None) as the linear map {label: outputs}."""
    return {l: outs for (l,), outs in table.entries.items()} if table else {}


def _check_square_zero(d: dict):
    """Raise NotAComplexError unless the linear map d squares to zero."""
    for label, outs in d.items():
        if _apply(d, outs):
            raise NotAComplexError(f"differential squared is nonzero on {label}")


@dataclass
class OperationTable:
    k: int
    lam: Fraction
    mu: int
    role: str
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lam = as_fraction(self.lam)
        if self.role not in ROLE_SHIFT:
            raise ValueError(f"unknown role {self.role!r}")
        entries = ((tuple(k), {o: as_fraction(c) for o, c in v.items() if c})
                   for k, v in self.entries.items())
        self.entries = {k: v for k, v in entries if v}

    @property
    def key(self):
        return (self.k, self.lam, self.mu)

    def shift(self) -> int:
        return ROLE_SHIFT[self.role] - 2 * self.mu


def _check_table_degrees(table: OperationTable, source: GradedSpace, target: GradedSpace):
    for inputs, outputs in table.entries.items():
        if len(inputs) != table.k:
            raise DegreeError(f"entry arity {len(inputs)} != k={table.k}")
        din = sum(source.degree(l) for l in inputs)
        for out_label, _ in outputs.items():
            if target.degree(out_label) != din + table.shift():
                raise DegreeError(
                    f"entry {inputs} -> {out_label} violates the {table.role} "
                    f"degree shift at (k={table.k}, lam={table.lam}, mu={table.mu})"
                )


@dataclass
class OperationSystem:
    """Graded basis plus the sparse structure-constant tables of one family."""

    source: GradedSpace
    target: GradedSpace
    monoid: EnergyMonoid
    flavor: str
    cutoff: Fraction
    role: str
    tables: dict = field(default_factory=dict)  # (k, lam, mu) -> OperationTable

    def __post_init__(self):
        self.cutoff = as_fraction(self.cutoff)
        fixed = {}
        for table in self.tables.values():
            if table.role != self.role:
                raise ValueError(f"table role {table.role} != system role {self.role}")
            if self.flavor in ("cy", "cy0") and table.mu != 0:
                raise IncompatibleRingError(
                    f"flavor violation: e-power {table.mu} in a {self.flavor} system"
                )
            if table.lam > self.cutoff:
                continue
            if not self.monoid.contains((table.lam, table.mu)):
                raise NotInMonoidError(
                    f"table key (lam={table.lam}, mu={table.mu}) is not in the monoid"
                )
            if table.key in fixed:
                raise ValueError(f"duplicate table key {table.key}")
            _check_table_degrees(table, self.source, self.target)
            if table.entries:
                fixed[table.key] = table
        self.tables = fixed

    @classmethod
    def _built(cls, source, target, monoid, flavor, cutoff, role, tables):
        """A system from tables {(k, lam, mu): {inputs: {out: q}}} that the
        library built, valid by construction: coefficients are made canonical
        and empty entries, empty tables and tables past the cutoff dropped,
        but nothing is checked.  Outside data goes through the constructor."""
        out = cls.__new__(cls)
        out.source, out.target, out.monoid = source, target, monoid
        out.flavor, out.cutoff, out.role = flavor, cutoff, role
        built = (OperationTable(k, lam, mu, role, entries)
                 for (k, lam, mu), entries in tables.items() if lam <= cutoff)
        out.tables = {t.key: t for t in built if t.entries}
        return out

    # -- convenience ------------------------------------------------------

    @staticmethod
    def algebra(space, monoid, flavor, cutoff, tables=()):
        return OperationSystem(space, space, monoid, flavor, cutoff, "algebra",
                               {t.key: t for t in tables})

    @staticmethod
    def morphism(source, target, monoid, flavor, cutoff, tables=()):
        return OperationSystem(source, target, monoid, flavor, cutoff, "morphism",
                               {t.key: t for t in tables})

    @staticmethod
    def homotopy(source, target, monoid, flavor, cutoff, tables=()):
        return OperationSystem(source, target, monoid, flavor, cutoff, "homotopy",
                               {t.key: t for t in tables})

    def table(self, k, lam, mu) -> OperationTable | None:
        return self.tables.get((k, as_fraction(lam), mu))

    def with_tables(self, tables):
        return OperationSystem(self.source, self.target, self.monoid, self.flavor,
                               self.cutoff, self.role, {t.key: t for t in tables})


# -- vectors over the Novikov ring ------------------------------------------
# A vector is a dict {basis label: NovikovElement}; absent labels mean zero.

def vec_add(u: dict, v: dict) -> dict:
    out = dict(u)
    for label, val in v.items():
        out[label] = nov_add(out[label], val) if label in out else val
    return {l: x for l, x in out.items() if not x.is_zero()}


def vec_is_zero(v: dict) -> bool:
    return all(x.is_zero() for x in v.values())


def apply_operation(sys: OperationSystem, k: int, inputs) -> dict:
    """Full filtered application: sum over stored (lam, mu) of
    T^lam e^mu times the multilinear extension of the Q-table.

    ``inputs`` is a sequence of k vectors over the source space.  The scalars
    T, e are even, so the multilinear extension introduces no Koszul signs.
    """
    if len(inputs) != k:
        raise ValueError(f"expected {k} inputs, got {len(inputs)}")
    for vec in inputs:
        for label, coeff in vec.items():
            if not sys.source.has(label):
                raise UnknownBasisError(label)
            if coeff.flavor != sys.flavor or coeff.cutoff != sys.cutoff:
                raise IncompatibleRingError(f"coefficient ring mismatch on {label}")
    out = {}
    for (kk, lam, mu), table in sys.tables.items():
        if kk != k:
            continue
        for in_labels, outputs in table.entries.items():
            scalar = None
            ok = True
            for slot, label in enumerate(in_labels):
                coeff = inputs[slot].get(label)
                if coeff is None:
                    ok = False
                    break
                scalar = coeff if scalar is None else nov_mul(scalar, coeff)
            if not ok:
                continue
            if scalar is None:  # k == 0
                scalar = NovikovElement.unit(sys.flavor, sys.cutoff)
            scalar = scalar.shift(lam, mu)
            if scalar.is_zero():
                continue
            for out_label, q in outputs.items():
                term = scalar.scale(q)
                if term.is_zero():
                    continue
                out[out_label] = (
                    nov_add(out[out_label], term) if out_label in out else term
                )
    return {l: x for l, x in out.items() if not x.is_zero()}


def _insertion_sum(out: dict, outer: OperationSystem, inner: OperationSystem,
                   producers: dict, keys, coeff=1) -> dict:
    """out[key] += coeff * sum (-1)^(deg prefix) outer_{k1}(..., inner_{k2}(block), ...)

    at every key (k, lam, mu) of the set ``keys``, over insertion positions
    and splits, over the inner system's source basis; ``out`` is
    {(k, lam, mu): {inputs: {out: q}}}.  This is the left side of the
    algebra and morphism relations and the second sum of the homotopy
    relation, depending on which families are passed.  ``producers`` is
    ``_producers_of(inner)``.  One walk serves every key: each outer entry
    and slot is visited once, and each producer group (k2, lam2, mu2) of the
    slot's label adds to the key (k1 + k2 - 1, lam1 + lam2, mu1 + mu2) it
    lands on, if that key is in ``keys``.
    """
    degree = inner.source.degree
    for (k1, lam1, mu1), outer_t in outer.tables.items():
        lands = {}  # inner key -> the defect table of the key it lands on
        for inner_key in inner.tables:
            key = (k1 + inner_key[0] - 1, lam1 + inner_key[1], mu1 + inner_key[2])
            if key in keys:
                lands[inner_key] = out.setdefault(key, {})
        if not lands:
            continue
        for in_outer, out_outer in outer_t.entries.items():
            sign = coeff
            for i, slot_label in enumerate(in_outer):
                groups = producers.get(slot_label)
                if groups:
                    prefix, suffix = in_outer[:i], in_outer[i + 1:]
                    for inner_key, blocks in groups.items():
                        target = lands.get(inner_key)
                        if target is not None:
                            for in_inner, q_in in blocks:
                                _add_scaled(target.setdefault(prefix + in_inner + suffix, {}),
                                            out_outer, sign * q_in)
                if degree(slot_label) % 2:
                    sign = -sign
    return out


_UNSEEN = object()


def _block_sum(out: dict, outer: OperationSystem, families, k_budget, lam_budget,
               keys=None, coeff=1) -> dict:
    """out[key] += coeff * sum outer_r(filling of every slot)

    over the stored entries of ``outer`` and every filling of their slots
    whose arities sum to at most ``k_budget`` and whose energy, with the
    entry's, is at most ``lam_budget``; ``out`` is {(k, lam, mu): {inputs:
    {out: q}}}, and a filling adds at the outer key plus the filling key, if
    ``keys`` is None or that key is in the set ``keys``.  ``families(r)``
    yields one or more lists of r slot indexes {label: ``_fill_slots``
    spec}, one per slot: all slots f for a composition or a morphism
    relation, one list per position of the H-block for a homotopy, b's
    insertions for a twist.  Each entry builds its slot specs once per list
    and makes one ``_fill_slots`` walk.
    """
    for (r, lam0, mu0), table in outer.tables.items():
        budget = lam_budget - lam0
        if budget < 0:
            continue
        lands = {}  # filling key -> the table it lands on, or None
        for slot_indexes in families(r):
            for in_labels, outs in table.entries.items():
                specs = list(map(dict.get, slot_indexes, in_labels))
                if None in specs:
                    continue
                for fill_key, inputs, c in _fill_slots(specs, k_budget, budget):
                    target = lands.get(fill_key, _UNSEEN)
                    if target is _UNSEEN:
                        key = (fill_key[0], lam0 + fill_key[1], mu0 + fill_key[2])
                        target = lands[fill_key] = (out.setdefault(key, {})
                                                    if keys is None or key in keys else None)
                    if target is not None:
                        _add_scaled(target.setdefault(inputs, {}), outs,
                                    c if coeff == 1 else coeff * c)
    return out


def _nonzero(table: dict) -> dict:
    """``table`` without the inputs whose outputs have all cancelled."""
    return {inputs: outs for inputs, outs in table.items() if outs}


def relation_defect(alg: OperationSystem, k: int, lam, mu) -> dict:
    """Left side of the filtered A-infinity relation at (k, lam, mu).

    Returns the defect as a table in the library's one sparse format,
    {input tuple: {output label: coeff}}; the relation at this key holds iff
    the table is empty.  Assembled by stitching pairs of stored table entries
    through their output-label index (``_producers_of``), so the cost follows
    the pairs of entries that actually compose, not basis^k.
    """
    if alg.role != "algebra":
        raise ValueError("relation_defect needs an algebra")
    key = (k, as_fraction(lam), mu)
    return _nonzero(_insertion_sum({}, alg, alg, _producers_of(alg), {key}).get(key, {}))


def cohomology_ranks(space: GradedSpace, d_table: OperationTable) -> dict:
    """Per-degree Betti numbers of (space, d) over Q by exact row reduction."""
    if d_table.k != 1 or d_table.lam != 0 or d_table.mu != 0:
        raise ValueError("differential must be the (1, 0, 0) table")
    dmap = _linear(d_table)
    _check_square_zero(dmap)
    ranks = {}
    degs = space.degrees()
    rank_at = {d: len(linalg.independent([dmap[l] for l in space.labels_of_degree(d)
                                          if l in dmap]))
               for d in degs}
    for d in degs:
        b = len(space.labels_of_degree(d)) - rank_at[d] - rank_at.get(d - 1, 0)
        if b:
            ranks[d] = b
    return ranks
