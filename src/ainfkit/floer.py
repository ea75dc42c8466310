"""Bounding cochains, twisted operations, the Maurer-Cartan solver, gauge
action, Floer cohomology and its product, disjoint-union sectors,
wall-crossing rescaling and the Legendrian lattice check.

A LagrangianPresentation carries the canonical graded space: one generator
per homology class of the domain (homology degree d sits in internal degree
n - d - 1) and one generator per ordered double point (p-, p+) in internal
degree eta - 1.  Operations are an OperationSystem on that space; everything
is truncated at the presentation's energy cutoff.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import linalg
from .errors import AinfError, DivergentTwistError, IncompatibleRingError, NotAComplexError
from .gapped import EnergyMonoid, validate_gapped
from .gradedcore import (
    GradedSpace,
    OperationSystem,
    OperationTable,
    _add_scaled,
    _block_sum,
    _fill_slots,
    _linear,
    apply_operation,
    vec_is_zero,
)
from .geomsign import eta_from_phases
from .novikov import NovikovElement, _term_violations, as_fraction, nov_valuation
from .novmat import NovMatrix, _fold, smith_valuations

MAX_SIGNED_SUMS = 10_000  # per entry of legendrian_validate


# ---------------------------------------------------------------------------
# presentations

@dataclass(frozen=True)
class DoublePoint:
    """One ordered pair (p-, p+) of preimages of a self-intersection."""

    p_minus: str
    p_plus: str
    eta: int
    eps: int | None = None
    phases_minus: tuple | None = None  # rationals r with angle r*pi
    phases_plus: tuple | None = None
    a_value: Fraction | None = None    # Legendrian theta / 2pi, in (0, 1)
    c_shift: Fraction = 0              # wall-crossing energy shift
    regrade: int = 0                   # e-regrade

    @property
    def pair(self):
        return (self.p_minus, self.p_plus)

    @property
    def label(self):
        return f"{self.p_minus}:{self.p_plus}"


def _validate_double_points(n, points):
    by_pair = {dp.pair: dp for dp in points}
    if len(by_pair) != len(points):
        raise ValueError("duplicate double-point records")
    for dp in points:
        swapped = by_pair.get((dp.p_plus, dp.p_minus))
        if swapped is None:
            raise ValueError(f"missing paired record for {dp.pair}")
        if dp.eta + swapped.eta != n:
            raise ValueError(
                f"eta pairing broken at {dp.pair}: {dp.eta} + {swapped.eta} != {n}"
            )
        if dp.a_value is not None:
            if swapped.a_value is None or dp.a_value + swapped.a_value != 1:
                raise ValueError(f"a-values at {dp.pair} do not sum to 1")
            if not (0 < dp.a_value < 1):
                raise ValueError(f"a-value at {dp.pair} outside (0, 1)")
        if dp.eps is not None:
            if swapped.eps is None:
                raise ValueError(f"missing eps on the record paired with {dp.pair}")
            want = -1 if dp.eta * (n - dp.eta) % 2 else 1
            if dp.eps * swapped.eps != want:
                raise ValueError(
                    f"eps pairing broken at {dp.pair}: product must be (-1)^(eta(n-eta))"
                )
        if dp.c_shift + swapped.c_shift != 0:
            raise ValueError(f"c-shifts at {dp.pair} do not cancel")
        if dp.regrade + swapped.regrade != 0:
            raise ValueError(f"regrades at {dp.pair} do not cancel")


@dataclass
class LagrangianPresentation:
    n: int
    homology_ranks: dict           # homology degree -> rank
    double_points: list            # of DoublePoint, paired records present
    algebra: OperationSystem       # on the canonical space
    label_prefix: str = ""
    sectors: dict = field(default_factory=dict)  # label -> sector tag

    @property
    def space(self):
        return self.algebra.source


# Presentations are built eagerly, so their size is bounded up front: at most
# this many homology generators, and at most this ambient dimension for the
# preset, whose phase lists have one entry per dimension.
MAX_GENERATORS = 100_000


def presentation_space(n, homology_ranks, double_points, prefix="") -> GradedSpace:
    if n < 0:
        raise ValueError(f"ambient dimension {n} < 0")
    if min(homology_ranks.values(), default=0) < 0:
        raise ValueError(f"negative homology rank in {homology_ranks}")
    if sum(homology_ranks.values()) > MAX_GENERATORS:
        raise ValueError(f"more than {MAX_GENERATORS} homology generators")
    basis = []
    for d_h in sorted(homology_ranks):
        for i in range(homology_ranks[d_h]):
            basis.append((f"{prefix}h{d_h}_{i}", n - d_h - 1))
    for dp in double_points:
        basis.append((f"{prefix}{dp.label}", dp.eta - 1 + 2 * dp.regrade))
    return GradedSpace.make(basis)


def make_presentation(n, homology_ranks, double_points, monoid, flavor, cutoff,
                      tables=(), prefix="") -> LagrangianPresentation:
    space = presentation_space(n, homology_ranks, double_points, prefix)
    _validate_double_points(n, list(double_points))
    alg = OperationSystem.algebra(space, monoid, flavor, cutoff, tables)
    return LagrangianPresentation(n, dict(homology_ranks), list(double_points),
                                  alg, prefix)


def whitney_preset(n: int, flavor="cy0", cutoff=2,
                   generators=((1, 0),)) -> LagrangianPresentation:
    """The immersed-sphere presentation: sphere homology, one double point
    pair with phase data (-1/4, ..., -1/4) against (5/4, 1/4, ..., 1/4).

    The indices computed from the phases are n + 1 and -1, giving generators
    in internal degrees {-2, -1, n-1, n}.  Operations are empty by default.
    """
    if not 2 <= n <= MAX_GENERATORS:
        raise ValueError(f"need 2 <= n <= {MAX_GENERATORS}")
    if cutoff < 0:
        raise ValueError("need cutoff >= 0")
    r_minus = [Fraction(-1, 4)] * n
    r_plus = [Fraction(5, 4)] + [Fraction(1, 4)] * (n - 1)
    eta = eta_from_phases(n, r_minus, r_plus)
    eta_swap = eta_from_phases(n, r_plus, r_minus)
    assert eta == n + 1 and eta_swap == -1
    points = [
        DoublePoint("p-", "p+", eta, phases_minus=tuple(r_minus),
                    phases_plus=tuple(r_plus)),
        DoublePoint("p+", "p-", eta_swap, phases_minus=tuple(r_plus),
                    phases_plus=tuple(r_minus)),
    ]
    monoid = EnergyMonoid.make(generators)
    return make_presentation(n, {0: 1, n: 1}, points, monoid, flavor, cutoff)


# ---------------------------------------------------------------------------
# twisting and the Maurer-Cartan equation

@dataclass
class BoundingCochain:
    element: dict  # label -> NovikovElement, degree 0, valuation > 0
    certified: bool = False


def _element_of(b):
    return b.element if isinstance(b, BoundingCochain) else dict(b)


def _check_twistable(alg, b):
    bad = []
    min_val = math.inf
    for label, val in b.items():
        if val.is_zero():
            continue
        if val.flavor != alg.flavor or val.cutoff != alg.cutoff:
            raise AinfError(f"coefficient ring mismatch on {label}")
        d = alg.source.degree(label)
        for coeff, lam, mu in val.terms:
            if d + 2 * mu != 0:
                bad.append(f"{label}: term e^{mu} is not degree 0")
            min_val = min(min_val, lam)
    if bad:
        raise AinfError("; ".join(bad))
    if b and min_val <= 0:
        raise DivergentTwistError(
            "twisting element has valuation 0; the insertion sum diverges"
        )
    return min_val


def _insert_b(sys, b, k_budget=math.inf):
    """Every insertion of b into the stored tables of ``sys``: each slot of a
    stored entry takes b (one producer per term of b) or an external input,
    with at most ``k_budget`` external slots, up to the cutoff.  Returns
    {(k, lam, mu): {external inputs: {out: q}}} with k the number of
    external slots."""
    slots = {}
    for label in sys.source.labels:
        spec = slots[label] = {(1, 0, 0): [((label,), 1)]}
        if label in b:
            for c, l, m in b[label].terms:
                spec[(0, l, m)] = [((), c)]
    return _block_sum({}, sys, lambda r: [[slots] * r], k_budget, sys.cutoff)


def _twist_monoid(alg, b):
    gens = list(alg.monoid.generators)
    for val in b.values():
        for _, lam, mu in val.terms:
            if lam > 0:
                gens.append((lam, mu))
    return EnergyMonoid.make(gens)


def twist(alg: OperationSystem, b) -> OperationSystem:
    """The twisted operations m^b, with b inserted in all slots.

    The output is gapped over the monoid enlarged by b's term keys; its m_0
    is the Maurer-Cartan residual, so the twist is strict iff b is a bounding
    cochain.
    """
    if alg.role != "algebra":
        raise AinfError(f"twist needs an algebra, not a {alg.role}")
    b = _element_of(b)
    _check_twistable(alg, b)
    out = OperationSystem._built(alg.source, alg.source, _twist_monoid(alg, b),
                                 alg.flavor, alg.cutoff, "algebra", _insert_b(alg, b))
    report = validate_gapped(out)
    if not report.ok:
        raise AinfError(f"twist output failed gapped validation: {report}")
    return out


def mc_residual(alg: OperationSystem, b):
    """(sum_k m_k(b, ..., b), verified-zero flag), truncated at the cutoff."""
    b = _element_of(b)
    _check_twistable(alg, b)
    residual = _fold(_insert_b(alg, b, 0), 0, alg.flavor, alg.cutoff).get((), {})
    return residual, vec_is_zero(residual)


@dataclass
class Obstruction:
    level: Fraction
    mu: int
    class_vector: dict  # label -> Fraction, reduced mod Im m_1^{0,0}
    note: str = ("greedy failure at this level does not prove nonexistence "
                 "of bounding cochains")

    def __str__(self):
        cls = " + ".join(f"{c}*{l}" for l, c in sorted(self.class_vector.items()))
        return f"obstruction at level {self.level} (e^{self.mu}): class [{cls}]"


def mc_solve(alg: OperationSystem):
    """Greedy level-by-level Maurer-Cartan solver.

    Iterates the positive energies of the monoid up to the cutoff; at each
    level solves m_1^{0,0}(x) = -residual over Q, accumulating corrections
    supported on the monoid's keys.  Returns a certified BoundingCochain, or
    the first Obstruction (level plus residual class in degree-one
    cohomology).  m_1^{0,0} is row-reduced once per e-power, into a
    ``linalg.solver`` that every level of that e-power uses.

    The residual at a level is the part of sum_k m_k(b, ..., b) at exactly
    that energy.  b has valuation > 0, so the only insertion that puts a
    term of b at the level itself back at the level is m_1^{0,0} of it: the
    residual depends on the terms below the level alone.  So each
    b-insertion is enumerated once, when its highest-level terms are solved,
    and added to the residual of the level it lands on: in an entry reading
    a label with new terms, slot j takes the new terms, the slots before it
    the terms below the level and the slots after it any solved term.  The
    one full walk of the tables is the ``mc_residual`` that certifies the
    result.
    """
    space = alg.source
    d = _linear(alg.table(1, 0, 0))
    entries = []  # the stored entries of arity >= 1, as (lam, mu, inputs, outs)
    readers = {}  # label -> the indexes of the entries that read it
    pending = {}  # lam -> mu -> {out: q}, the residual found so far at lam
    for (k, lam0, mu0), table in alg.tables.items():
        for in_labels, outs in table.entries.items():
            if k:
                for label in in_labels:
                    readers.setdefault(label, set()).add(len(entries))
                entries.append((lam0, mu0, in_labels, outs))
            elif lam0 > 0:  # m_0^{0,0} is left to the certifying residual
                _add_scaled(pending.setdefault(lam0, {}).setdefault(mu0, {}), outs)
    solved = {label: {} for label in space.labels}  # slot specs of b's terms
    terms = {}  # label -> [(q, level, mu)]
    solvers = {}  # mu -> the solver of m_1^{0,0} from degree -2mu to 1 - 2mu
    for level in alg.monoid.positive_energies(alg.cutoff):
        by_mu = pending.pop(level, {})
        new = {}  # label -> slot spec of its terms at this level
        for mu in sorted(by_mu):
            target = by_mu[mu]
            if not target:
                continue
            bad = _term_violations(level, mu, alg.flavor)
            if bad:  # e.g. a novZ table at T^(1/2): the residual is off the ring
                raise IncompatibleRingError(bad[0])
            if mu not in solvers:
                solvers[mu] = linalg.solver(d, space.labels_of_degree(-2 * mu))
            sol = solvers[mu]({out: -q for out, q in target.items()})
            if sol is None:
                cls = _cohomology_class(target, space, d, 1 - 2 * mu)
                return Obstruction(level, mu, cls)
            for l, q in sol.items():
                new.setdefault(l, {})[(0, level, mu)] = [((), q)]
                terms.setdefault(l, []).append((q, level, mu))
        below = {l: solved[l] for l in new}
        for l, spec in new.items():
            solved[l] = {**below[l], **spec}
        for i in sorted({i for l in new for i in readers.get(l, ())}):
            lam0, mu0, in_labels, outs = entries[i]
            for j, label in enumerate(in_labels):
                if label not in new:
                    continue
                specs = [below.get(x, solved[x]) for x in in_labels[:j]]
                specs += [new[label], *(solved[x] for x in in_labels[j + 1:])]
                for (_, l, m), _, coeff in _fill_slots(specs, 0, alg.cutoff - lam0):
                    if lam0 + l > level:  # else m_1^{0,0} of a new term
                        _add_scaled(pending.setdefault(lam0 + l, {})
                                    .setdefault(mu0 + m, {}), outs, coeff)
    b = {l: NovikovElement.make(t, alg.flavor, alg.cutoff) for l, t in terms.items()}
    residual, ok = mc_residual(alg, b)
    if not ok:
        # leftover residual above every solvable level within the cutoff
        for label, val in sorted(residual.items()):
            coeff, lam, mu = val.terms[0]
            cls = _cohomology_class({label: coeff}, space, d, 1 - 2 * mu)
            return Obstruction(lam, mu, cls)
    return BoundingCochain(b, certified=True)


def _cohomology_class(target, space, d, out_degree):
    """Reduce a degree-``out_degree`` vector modulo Im m_1^{0,0}."""
    images = [d[l] for l in space.labels_of_degree(out_degree - 1) if l in d]
    vec = dict(target)
    # pivots leftmost in the basis order of the degree-``out_degree`` labels
    for pc, row in linalg.row_reduce(images, space.labels_of_degree(out_degree)).items():
        if pc in vec:
            _add_scaled(vec, row, -vec[pc])
    return {l: as_fraction(q) for l, q in vec.items() if q}


# ---------------------------------------------------------------------------
# bounding-cochain criteria from ranks and indices

@dataclass
class CriteriaReport:
    every_degree0_is_bc: bool
    zero_is_only_candidate: bool
    zero_is_bc: bool
    unique_zero: bool
    notes: list

    def __str__(self):
        lines = [
            f"every positive-valuation degree-0 element bounds: {self.every_degree0_is_bc}",
            f"zero is the only candidate: {self.zero_is_only_candidate}",
            f"zero is a bounding cochain (exactness criterion): {self.zero_is_bc}",
        ]
        if self.unique_zero:
            lines.append("unique bounding cochain: 0")
        lines.extend(self.notes)
        return "\n".join(lines)


def bc_criteria(pres: LagrangianPresentation, exact: bool = False) -> CriteriaReport:
    """The rank-and-index criteria for existence/uniqueness of bounding
    cochains of a graded (cy-flavor) presentation.

    Candidates live in degree 0 and residuals in degree 1; with the canonical
    grading these pieces vanish iff b_{n-2}(L) = 0 with no double-point index
    2, resp. b_{n-1}(L) = 0 with no index 1.
    """
    if pres.algebra.flavor not in ("cy", "cy0"):
        raise AinfError("criteria apply to graded (cy-flavor) presentations")
    n = pres.n
    etas = [dp.eta for dp in pres.double_points]
    b_n2 = pres.homology_ranks.get(n - 2, 0)
    b_n1 = pres.homology_ranks.get(n - 1, 0)
    every0 = b_n2 == 0 and all(e != 2 for e in etas)
    only0 = b_n1 == 0 and all(e != 1 for e in etas)
    notes = []
    if any(e == 2 for e in etas):
        zero_bc = False
        notes.append("exactness criterion inconclusive: some index equals 2")
    else:
        zero_bc = bool(exact)
        if not exact:
            notes.append("exactness criterion not applied (presentation not marked exact)")
    unique = only0 and (every0 or zero_bc)
    return CriteriaReport(every0, only0, zero_bc, unique, notes)


def acyclicity_feasible(dims: dict):
    """dim H^d <= dim H^{d-1} + dim H^{d+1} for every degree; returns
    (feasible, first failing degree or None).  A negative dimension raises
    ValueError."""
    degrees = sorted(dims)
    for d in degrees:
        if dims[d] < 0:
            raise ValueError(f"negative dimension {dims[d]} in degree {d}")
    for d in degrees:
        if dims.get(d, 0) > dims.get(d - 1, 0) + dims.get(d + 1, 0):
            return False, d
    return True, None


# ---------------------------------------------------------------------------
# gauge action

def gauge_act(j: OperationSystem, b, target_alg: OperationSystem = None):
    """(j . b, transport j_1^b) for a morphism j and bounding cochain b.

    j . b = sum_k j_k(b, ..., b);  j_1^b(a) = sum j_{l+m+1}(b^l, a, b^m).
    When the target algebra is supplied and b was certified, the output is
    certified by the Maurer-Cartan residual.
    """
    bc = b if isinstance(b, BoundingCochain) else BoundingCochain(_element_of(b))
    b = _element_of(b)
    _check_twistable(j, b)
    tables = _insert_b(j, b, 1)
    jb = _fold(tables, 0, j.flavor, j.cutoff).get((), {})
    transport = NovMatrix.from_linear_tables(j, tables)
    vals = [nov_valuation(v) for v in jb.values()]
    if vals and min(vals) <= 0:
        raise AinfError("transported cochain has valuation 0")
    certified = False
    if target_alg is not None and bc.certified:
        _, certified = mc_residual(target_alg, jb)
    return BoundingCochain(jb, certified=certified), transport


# ---------------------------------------------------------------------------
# Floer cohomology

@dataclass
class HFReport:
    """Free ranks and torsion per HF degree, mod F^{>E}.

    ``stable`` says the free ranks recomputed at E/2 agree with those at E.
    With every energy >= 0, a Smith form over Lambda_0 / F^{>E} reduced mod
    F^{>E/2} is again a Smith form, so ``stable`` holds iff no Smith divisor
    lies in (E/2, E].  Twisted differentials have no negative energy (table
    keys lie in the monoid, a bounding cochain has positive valuation).
    When the groups at E are parity classes, the E/2 ranks are summed by
    parity, also where the e-entries behind the collapse all lie above E/2,
    so the rule holds in every case.  The torsion at E/2 is the torsion at E
    below E/2, so there is no separate torsion check.
    """

    flavor: str
    cutoff: Fraction
    stable: bool
    groups: dict  # hf degree -> {"free": int, "torsion": [Fraction, ...]}
    parity_collapsed: bool = False

    def __str__(self):
        lines = [f"HF over {self.flavor}, cutoff {self.cutoff}, "
                 f"stabilization {'ok' if self.stable else 'UNSTABLE'}"]
        if self.parity_collapsed:
            lines.append("(e-periodic: degrees reported mod 2)")
        for k in sorted(self.groups):
            g = self.groups[k]
            tor = ", ".join(f"T^{v}" for v in g["torsion"])
            lines.append(f"  HF^{k}: free rank {g['free']}"
                         + (f", torsion [{tor}]" if g["torsion"] else ""))
        return "\n".join(lines)


def _hf_groups(space: GradedSpace, dmat: NovMatrix):
    """Per-slot free ranks and torsion via valuation Smith reduction, the
    parity flag, and the Smith divisors of every degree block."""
    # an entry that breaks the degree shift by 1 collapses degrees to parity
    mixes = any(space.degree(r) != space.degree(c) + 1 for r, c in dmat.data)
    slots = {l: space.degree(l) % 2 if mixes else space.degree(l) for l, _ in space.basis}

    def step(s, by):
        return (s + by) % 2 if mixes else s + by

    labels = {}
    for l, s in slots.items():
        labels.setdefault(s, []).append(l)
    blocks = {s: NovMatrix(tuple(labels.get(step(s, 1), ())), tuple(cols),
                           dmat.flavor, dmat.cutoff) for s, cols in labels.items()}
    for (r, c), v in dmat.data.items():
        if slots[r] == step(slots[c], 1):
            blocks[slots[c]].data[(r, c)] = v
    divisors = {s: smith_valuations(block) for s, block in blocks.items()}
    unit_flavor = dmat.flavor in ("nov", "cy", "novZ")
    groups = {}
    for s in sorted(labels):
        below = divisors.get(step(s, -1), [])
        groups[s] = {"free": len(labels[s]) - len(divisors[s]) - len(below),
                     "torsion": [] if unit_flavor else [v for v in below if v > 0]}
    return groups, mixes, [v for block in divisors.values() for v in block]


def _twist_by_bounding_cochain(pres: LagrangianPresentation, b) -> OperationSystem:
    """The presentation's algebra twisted by b, refused with AinfError when
    b is not a certified BoundingCochain and fails the Maurer-Cartan
    equation."""
    bc = b if isinstance(b, BoundingCochain) else BoundingCochain(_element_of(b))
    twisted = twist(pres.algebra, bc.element)
    # the twist's arity-0 tables are m_0^b, the Maurer-Cartan residual
    if not bc.certified and any(k == 0 for k, _, _ in twisted.tables):
        raise AinfError("bounding cochain is not certified and fails the "
                        "Maurer-Cartan equation")
    return twisted


def hf_compute(pres: LagrangianPresentation, b) -> HFReport:
    """Floer cohomology of (presentation, bounding cochain), with the degree
    shift HF^k = H^(k-1).

    Asserts the twisted differential squares to zero mod the cutoff, then
    reduces each degree block once by valuation-aware Smith reduction.  The
    report carries the cutoff and the stabilization flag (see ``HFReport``).
    """
    twisted = _twist_by_bounding_cochain(pres, b)
    dmat = NovMatrix.from_linear_tables(twisted)
    if dmat.matmul(dmat).data:
        raise NotAComplexError("twisted differential does not square to zero "
                               "mod the cutoff: inconsistent presentation")
    groups, mixes, divisors = _hf_groups(pres.space, dmat)
    stable = all(2 * v <= pres.algebra.cutoff for v in divisors)
    shifted = {s + 1: g for s, g in groups.items()}
    return HFReport(pres.algebra.flavor, pres.algebra.cutoff, stable, shifted,
                    parity_collapsed=mixes)


def _pure_degree(space, vec):
    degs = set()
    for label, val in vec.items():
        base = space.degree(label)
        for _, _, mu in val.terms:
            degs.add(base + 2 * mu)
    if len(degs) != 1:
        raise AinfError(f"element is not pure: degrees {sorted(degs)}")
    return degs.pop()


def hf_product(pres: LagrangianPresentation, b, x: dict, y: dict):
    """The signed product (-1)^(k(l+1)) n_2^b(x, y) on cycle representatives,
    with a cycle certificate for the output.  k, l are the HF-degrees
    (element degree + 1).  b must be a bounding cochain, as for
    ``hf_compute``."""
    twisted = _twist_by_bounding_cochain(pres, b)
    dmat = NovMatrix.from_linear_tables(twisted)
    for name, vec in (("x", x), ("y", y)):
        img = dmat.apply(vec)
        if not vec_is_zero(img):
            raise AinfError(f"{name} is not a cycle of the twisted differential")
    k = _pure_degree(pres.space, x) + 1
    l = _pure_degree(pres.space, y) + 1
    sign = -1 if (k * (l + 1)) % 2 else 1
    prod = apply_operation(twisted, 2, [x, y])
    prod = {lbl: v.scale(sign) for lbl, v in prod.items()}
    cycle_ok = vec_is_zero(dmat.apply(prod))
    return prod, cycle_ok


# ---------------------------------------------------------------------------
# disjoint unions and sectors

def union_sectors(presA: LagrangianPresentation, presB: LagrangianPresentation,
                  cross_points=(), cross_tables=()):
    """One presentation on the direct sum, with a sector tag per generator.

    ``cross_points`` lists DoublePoint records bridging the two Lagrangians;
    within each swapped pair, the record listed first is the AB one.  Cross
    tables may reference any generator of the union.
    """
    if presA.n != presB.n:
        raise AinfError("ambient dimensions differ")
    if presA.algebra.flavor != presB.algebra.flavor or \
            presA.algebra.cutoff != presB.algebra.cutoff:
        raise AinfError("presentations live over different rings")
    common = set(presA.space.labels) & set(presB.space.labels)
    if common:
        raise AinfError(f"label collision: {sorted(common)}")
    if any(t.role != "algebra" for t in cross_tables):
        raise AinfError("cross tables must be algebra tables")
    cross_points = list(cross_points)
    _validate_double_points(presA.n, cross_points)
    sector = {l: "AA" for l in presA.space.labels}
    sector.update({l: "BB" for l in presB.space.labels})
    seen_pairs = set()
    basis = list(presA.space.basis) + list(presB.space.basis)
    for dp in cross_points:
        tag = "AB" if (dp.p_plus, dp.p_minus) not in seen_pairs else "BA"
        seen_pairs.add(dp.pair)
        label = dp.label
        if label in sector:
            raise AinfError(f"label collision on cross generator {label}")
        sector[label] = tag
        basis.append((label, dp.eta - 1 + 2 * dp.regrade))
    space = GradedSpace.make(basis)
    monoid = EnergyMonoid.make(
        list(presA.algebra.monoid.generators) + list(presB.algebra.monoid.generators)
        + [g for t in cross_tables for g in [(t.lam, t.mu)] if t.lam > 0]
    )
    entries = {}
    for t in [*presA.algebra.tables.values(), *presB.algebra.tables.values(),
              *cross_tables]:
        merged = entries.setdefault(t.key, {})
        for i, o in t.entries.items():
            _add_scaled(merged.setdefault(i, {}), o)
    alg = OperationSystem.algebra(space, monoid, presA.algebra.flavor,
                                  presA.algebra.cutoff,
                                  [OperationTable(k, lam, mu, "algebra", e)
                                   for (k, lam, mu), e in entries.items()])
    ranks = dict(presA.homology_ranks)
    for d, r in presB.homology_ranks.items():
        ranks[d] = ranks.get(d, 0) + r
    union = LagrangianPresentation(
        presA.n, ranks, presA.double_points + presB.double_points + cross_points,
        alg, sectors=sector,
    )
    return union


def sector_project(union: LagrangianPresentation, sector: str):
    """The subcomplex spanned by one sector's generators: the sub-basis with
    all tables restricted to inputs and outputs inside the sector."""
    if sector not in ("AA", "BB", "AB", "BA"):
        raise ValueError(f"unknown sector {sector!r}")
    keep = {l for l, tag in union.sectors.items() if tag == sector}
    space = GradedSpace.make([(l, d) for l, d in union.space.basis if l in keep])
    alg = union.algebra
    tables = {key: {inputs: {l: c for l, c in outs.items() if l in keep}
                    for inputs, outs in t.entries.items() if all(l in keep for l in inputs)}
              for key, t in alg.tables.items()}
    return OperationSystem._built(space, space, alg.monoid, alg.flavor, alg.cutoff,
                                  "algebra", tables)


# ---------------------------------------------------------------------------
# wall-crossing rescaling and regrading

@dataclass
class RescaleReport:
    presentation: LagrangianPresentation | None
    transported: dict | None
    transported_valuation: Fraction | None
    wall: bool
    algebra_wall: bool
    intertwining_checked: bool

    def __str__(self):
        lines = [f"wall: {self.wall}", f"algebra wall: {self.algebra_wall}"]
        if self.transported_valuation is not None:
            lines.insert(0, f"transported valuation: {self.transported_valuation}")
        return "\n".join(lines)


def rescale_regrade(pres: LagrangianPresentation, assignments: dict,
                    b=None) -> RescaleReport:
    """Apply per-double-point energy shifts c and e-regrades d.

    The transport sends a double-point generator to T^(-c) e^(-d) times the
    regraded generator; structure-constant keys shift by the input/output
    c- and d-sums.  The wall flag is raised when the transported cochain's
    valuation drops to or below zero; a negative-energy structure constant
    is a wall for the algebra itself.
    """
    cy = pres.algebra.flavor in ("cy", "cy0")
    shifts = {}
    for pair, data in assignments.items():
        c = as_fraction(data.get("c", 0))
        d = int(data.get("d", 0))
        if cy and d != 0:
            raise AinfError("cy flavors forbid e-regrades")
        shifts[tuple(pair)] = (c, d)
    for pair, (c, d) in list(shifts.items()):
        swapped = (pair[1], pair[0])
        cs, ds = shifts.get(swapped, (0, 0))
        if c + cs != 0 or d + ds != 0:
            raise AinfError(f"c/d antisymmetry broken at {pair}")

    new_points = []
    label_shift = {}
    for dp in pres.double_points:
        c, d = shifts.get(dp.pair, (0, 0))
        new_points.append(replace(dp, c_shift=0, regrade=dp.regrade + d))
        label_shift[f"{pres.label_prefix}{dp.label}"] = (c, d)

    # each entry moves to its key shifted by the inputs' c/d-sums minus the
    # output's; the shift is fixed by (inputs, output), so no two entries meet
    algebra_wall = False
    new_tables = {}
    for (k, lam, mu), t in pres.algebra.tables.items():
        for inputs, outs in t.entries.items():
            delta_c = sum(label_shift.get(l, (0, 0))[0] for l in inputs)
            delta_d = sum(label_shift.get(l, (0, 0))[1] for l in inputs)
            for out_label, q in outs.items():
                oc, od = label_shift.get(out_label, (0, 0))
                lam2 = lam + delta_c - oc
                if lam2 < 0:
                    algebra_wall = True
                    continue
                key = (k, lam2, mu + delta_d - od)
                new_tables.setdefault(key, {}).setdefault(inputs, {})[out_label] = q

    transported = None
    t_val = None
    wall = False
    if b is not None:
        b = _element_of(b)
        transported = {}
        for label, val in b.items():
            c, d = label_shift.get(label, (0, 0))
            moved = NovikovElement.make(
                ((q, l - c, m - d) for q, l, m in val.terms),
                "nov" if val.flavor in ("nov", "nov0", "novZ", "novN") else "cy",
                val.cutoff,
            )
            if not moved.is_zero():
                transported[label] = moved
        vals = [nov_valuation(v) for v in transported.values()]
        t_val = min(vals) if vals else math.inf
        wall = t_val <= 0

    pres2 = None
    checked = False
    if not algebra_wall:
        gens = [g for g in pres.algebra.monoid.generators]
        gens += [(lam, mu) for (k, lam, mu) in new_tables if lam > 0]
        monoid = EnergyMonoid.make(gens)
        tables = [OperationTable(k, lam, mu, "algebra", e)
                  for (k, lam, mu), e in new_tables.items()]
        space2 = presentation_space(pres.n, pres.homology_ranks, new_points,
                                    pres.label_prefix)
        alg2 = OperationSystem.algebra(space2, monoid, pres.algebra.flavor,
                                       pres.algebra.cutoff, tables)
        pres2 = LagrangianPresentation(pres.n, dict(pres.homology_ranks),
                                       new_points, alg2, pres.label_prefix)
        checked = _check_intertwining(alg2, new_tables)
    return RescaleReport(pres2, transported, t_val, wall, algebra_wall, checked)


def _check_intertwining(alg2, shifted):
    """Verify m'_k(Xi h_1, ...) = Xi m_k(h_1, ...) on all stored keys.

    Entrywise the identity says: m has coefficient q on (inputs -> out) at
    key (lam, mu) iff m' has the same coefficient at the key shifted by the
    inputs' c/d-sums minus the output's.  ``shifted`` holds m's entries at
    their shifted keys; comparing entries avoids building negative-energy
    scalars in 0-flavors.  Entries pushed past the cutoff by positive shifts
    are dropped in m', so only keys within the cutoff are compared.
    """
    expected = {key: e for key, e in shifted.items() if key[1] <= alg2.cutoff}
    return {key: t.entries for key, t in alg2.tables.items()} == expected


# ---------------------------------------------------------------------------
# Legendrian lattice validation

@dataclass
class LegendrianReport:
    ok: bool
    violations: list

    def __str__(self):
        if self.ok:
            return "legendrian lattice: pass"
        return "legendrian lattice: FAIL\n" + "\n".join(f"  - {v}" for v in self.violations)


def legendrian_validate(pres: LagrangianPresentation) -> LegendrianReport:
    """Check the a-value pairing and the integrality lattice: every stored
    table energy must differ from some signed sum of the entry's double-point
    a-offsets by a nonnegative integer (an integer for unit flavors).

    The sign choice per double point reflects the two orientations of the
    fibre arc (a versus 1 - a, which agree mod Z); the search is exhaustive.
    An entry that reads and writes labels with a-values m_1, ..., m_r times
    has at most (m_1 + 1) ... (m_r + 1) signed sums; past MAX_SIGNED_SUMS
    the document is refused.
    """
    violations = []
    a_of = {}
    for dp in pres.double_points:
        if dp.a_value is None:
            violations.append(f"double point {dp.pair} carries no a-value")
        else:
            a_of[f"{pres.label_prefix}{dp.label}"] = dp.a_value
    if violations:
        return LegendrianReport(False, violations)
    unit_flavor = pres.algebra.flavor in ("nov", "cy", "novZ")
    for (k, lam, mu), t in pres.algebra.tables.items():
        for inputs, outs in t.entries.items():
            for out_label in outs:
                labels = [l for l in (*inputs, out_label) if l in a_of]
                if math.prod(m + 1 for m in Counter(labels).values()) > MAX_SIGNED_SUMS:
                    raise AinfError(
                        f"entry -> {out_label} at (k={k}, lam={lam}, mu={mu}) has more "
                        f"than {MAX_SIGNED_SUMS} signed sums of a-offsets")
                offsets = [a_of[l] for l in labels]
                if _lattice_member(lam, offsets, unit_flavor):
                    continue
                violations.append(
                    f"energy {lam} at (k={k}, mu={mu}) entry {inputs} -> {out_label} "
                    f"misses the integer lattice for offsets {offsets}"
                )
    return LegendrianReport(not violations, violations)


def _lattice_member(lam, offsets, unit_flavor):
    """Is lam plus some signed sum of ``offsets`` an integer (a nonnegative
    one unless ``unit_flavor``)?  The reachable sums are one set, and an
    offset repeated m times adds its m + 1 signed multiples at once, so it
    costs a factor m + 1 and not 2^m."""
    sums = {lam}
    for a, m in Counter(offsets).items():
        sums = {s + (m - 2 * j) * a for s in sums for j in range(m + 1)}
    return any(s.denominator == 1 and (unit_flavor or s >= 0) for s in sums)
