"""The filtered A-infinity calculus: relation checking, morphisms,
composition, homotopies, and weak homotopy equivalence.

All verifications run componentwise: for each target key (k, lam, mu) the
relevant identity is assembled as a sparse rational table by stitching stored
table entries together, so the cost scales with the number of structure
constants rather than with basis^k.

Index conventions.  The extracted statements of the morphism and homotopy
relations are taken in the componentwise form induced by the bar complex:

* algebra relation at (k, lam, mu):
    sum over insertions of m_{k2} into m_{k1} (k1 + k2 = k + 1, position
    i = 1..k1) with sign (-1)^(deg a_1 + ... + deg a_{i-1}) and all key
    decompositions, equals zero;
* morphism relation: sum over insertions of m into f (same signs) equals the
  sum over block splittings n_r(f(block_1), ..., f(block_r)), where in the
  filtered case blocks may be empty (f_0 insertions) and r = 0 contributes the
  bare n_0 at k = 0;
* homotopy relation: f_k - g_k equals the block sum with one H-block
  surrounded by f-blocks (left) and g-blocks (right), plus the signed
  insertion sum of m into H.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from . import linalg
from .errors import MalformedMorphismError
from .gapped import _element_norms, validate_gapped
from .gradedcore import (
    OperationSystem,
    OperationTable,
    _add_scaled,
    _apply,
    _apply_each,
    _block_sum,
    _insertion_sum,
    _linear,
    _nonzero,
    _producers_of,
)
from .novikov import as_fraction


# ---------------------------------------------------------------------------
# reports

@dataclass
class CheckReport:
    ok: bool
    failures: list  # of (kind, (k, lam, mu), witness)
    note: str = ""

    def __str__(self):
        if self.ok:
            return "check: pass" + (f" ({self.note})" if self.note else "")
        lines = ["check: FAIL"]
        for kind, key, witness in self.failures:
            lines.append(f"  - {kind} at (k={key[0]}, lam={key[1]}, mu={key[2]}), witness {witness}")
        return "\n".join(lines)


def _check_keys(kind: str, fam: OperationSystem, level: int, defects_at) -> CheckReport:
    """Check every budgeted key of ``fam``: lam <= cutoff and
    norm((lam, mu)) + k - 1 <= level.  ``defects_at(keys)`` computes the
    defects of the whole key set in one pass, as {(k, lam, mu): {inputs:
    {out: q}}}.  The witness of a failing key is the least (inputs, output)
    pair of its defect table."""
    norms = _element_norms(fam.monoid, fam.cutoff)
    keys = [(k, lam, mu) for k in range(level + 2) for (lam, mu), norm in norms
            if norm + k - 1 <= level]
    defects = defects_at(set(keys))
    failures = []
    for key in keys:
        defect = _nonzero(defects.get(key, {}))
        if defect:
            inputs = min(defect)
            failures.append((kind, key, (inputs, min(defect[inputs]))))
    return CheckReport(not failures, failures, note=f"level {level}")


# ---------------------------------------------------------------------------
# relation checking

def check_relations(alg: OperationSystem, level: int) -> CheckReport:
    """Verify the filtered A-infinity relations on every budgeted key.

    Budget: lam <= cutoff and norm((lam, mu)) + k - 1 <= level.  The witness
    for a failing key is the lexicographically first nonzero defect entry.
    """
    gapped = validate_gapped(alg)
    if not gapped.ok:
        return CheckReport(False, [("gapped", (0, 0, 0), f) for f in gapped.failures])
    producers = _producers_of(alg)
    return _check_keys("relation", alg, level,
                       lambda keys: _insertion_sum({}, alg, alg, producers, keys))


# ---------------------------------------------------------------------------
# morphisms

def _require(fam: OperationSystem, role: str, A: OperationSystem, B: OperationSystem):
    """Raise MalformedMorphismError unless ``fam`` is a ``role`` family from
    A's basis to B's basis whose (0, 0, 0) table is zero."""
    if fam.role != role:
        raise MalformedMorphismError(f"role {fam.role!r} is not a {role}")
    t = fam.table(0, 0, 0)
    if t is not None and t.entries:
        raise MalformedMorphismError(f"the (0, 0, 0) table of the {role} is nonzero")
    if fam.source.basis != A.source.basis or fam.target.basis != B.source.basis:
        raise MalformedMorphismError(f"{role} does not run from A's basis to B's basis")


def _tops(keys):
    """The largest arity and the largest energy of the key set ``keys``."""
    return (max((k for k, _, _ in keys), default=0),
            max((lam for _, lam, _ in keys), default=0))


def _morphism_defects(f, A, B, producers, keys) -> dict:
    """LHS - RHS of the filtered morphism relation at every key of ``keys``,
    as {(k, lam, mu): {inputs: {out: q}}}; ``producers`` is
    ``_producers_of`` of (f, A)."""
    f_prod, a_prod = producers
    out = _insertion_sum({}, f, A, a_prod, keys)
    return _block_sum(out, B, lambda r: [[f_prod] * r], *_tops(keys), keys, -1)


def morphism_defect(f: OperationSystem, A: OperationSystem, B: OperationSystem,
                    k, lam, mu) -> dict:
    """LHS - RHS of the filtered morphism relation at one key, as a table
    {inputs: {out: q}}."""
    producers = (_producers_of(f), _producers_of(A))
    key = (k, as_fraction(lam), mu)
    return _nonzero(_morphism_defects(f, A, B, producers, {key}).get(key, {}))


def check_morphism(f: OperationSystem, A: OperationSystem, B: OperationSystem,
                   level: int) -> CheckReport:
    _require(f, "morphism", A, B)
    producers = (_producers_of(f), _producers_of(A))
    return _check_keys("morphism", f, level,
                       lambda keys: _morphism_defects(f, A, B, producers, keys))


def identity_morphism(A: OperationSystem) -> OperationSystem:
    ident = {(1, 0, 0): {(l,): {l: 1} for l in A.source.labels}}
    return OperationSystem._built(A.source, A.source, A.monoid, A.flavor, A.cutoff,
                                  "morphism", ident)


def compose_morphisms(g: OperationSystem, f: OperationSystem) -> OperationSystem:
    """(g o f)_k by block splittings, truncated at the cutoff."""
    if f.target.basis != g.source.basis:
        raise MalformedMorphismError("chain mismatch: target(f) != source(g)")
    if f.monoid != g.monoid or f.cutoff != g.cutoff or f.flavor != g.flavor:
        raise MalformedMorphismError("morphisms live over different rings")
    if f.role != "morphism" or g.role != "morphism":
        raise MalformedMorphismError("only morphisms compose")
    producers = _producers_of(f)
    acc = _block_sum({}, g, lambda r: [[producers] * r], math.inf, f.cutoff)
    return OperationSystem._built(f.source, g.target, f.monoid, f.flavor, f.cutoff,
                                  "morphism", acc)


# ---------------------------------------------------------------------------
# homotopies

def _homotopy_defects(H, f, g, A, B, producers, keys) -> dict:
    """f_k - g_k - (block sum with one H-slot) - (signed m-insertions into H)
    at every key of ``keys``, as {(k, lam, mu): {inputs: {out: q}}};
    ``producers`` is ``_producers_of`` of (f, g, H, A)."""
    f_prod, g_prod, h_prod, a_prod = producers
    out = {}
    for fam, sign in ((f, 1), (g, -1)):
        for key, t in fam.tables.items():
            if key in keys:
                target = out.setdefault(key, {})
                for inputs, outs in t.entries.items():
                    _add_scaled(target.setdefault(inputs, {}), outs, sign)

    def families(r):
        for t in range(r):
            yield [f_prod] * t + [h_prod] + [g_prod] * (r - 1 - t)

    _block_sum(out, B, families, *_tops(keys), keys, -1)
    return _insertion_sum(out, H, A, a_prod, keys, -1)


def homotopy_defect(H: OperationSystem, f: OperationSystem, g: OperationSystem,
                    A: OperationSystem, B: OperationSystem, k, lam, mu) -> dict:
    """f_k - g_k - (block sum with one H-slot) - (signed m-insertions into H)
    at one key, as a table {inputs: {out: q}}."""
    producers = [_producers_of(fam) for fam in (f, g, H, A)]
    key = (k, as_fraction(lam), mu)
    return _nonzero(_homotopy_defects(H, f, g, A, B, producers, {key}).get(key, {}))


def check_homotopy(H: OperationSystem, f: OperationSystem, g: OperationSystem,
                   A: OperationSystem, B: OperationSystem, level: int) -> CheckReport:
    for fam, role in ((H, "homotopy"), (f, "morphism"), (g, "morphism")):
        _require(fam, role, A, B)
    producers = [_producers_of(fam) for fam in (f, g, H, A)]
    return _check_keys("homotopy", H, level,
                       lambda keys: _homotopy_defects(H, f, g, A, B, producers, keys))


def whisker_strict(h: OperationSystem, H: OperationSystem) -> OperationSystem:
    """(h o H)_k = h_1 o H_k for a strict morphism h; a homotopy h∘f => h∘g."""
    if h.role != "morphism" or any(k != 1 for k, _, _ in h.tables):
        raise MalformedMorphismError("h is not a strict morphism")
    if H.role != "homotopy":
        raise MalformedMorphismError(f"H is a {H.role}, not a homotopy")
    if H.target.basis != h.source.basis:
        raise MalformedMorphismError("chain mismatch: target(H) != source(h)")
    h1 = {(lam, mu): _linear(t) for (_, lam, mu), t in h.tables.items()}
    out = defaultdict(dict)
    for (k, lam, mu), table in H.tables.items():
        for (lam1, mu1), h_map in h1.items():
            for inputs, image in _apply_each(h_map, table.entries).items():
                _add_scaled(out[(k, lam + lam1, mu + mu1)].setdefault(inputs, {}), image)
    tables = [OperationTable(k, lam, mu, "homotopy", e)
              for (k, lam, mu), e in out.items()]
    return OperationSystem.homotopy(H.source, h.target, H.monoid, H.flavor,
                                    H.cutoff, tables)


# ---------------------------------------------------------------------------
# weak homotopy equivalence

def is_weak_homotopy_equiv(f: OperationSystem, A: OperationSystem,
                           B: OperationSystem):
    """Does f_1^{0,0} induce an isomorphism on Q-cohomology in every degree?

    Returns (bool, certificate) with certificate a per-degree list of
    (degree, dim H(A), dim H(B), rank of the induced map).
    """
    dA = _linear(A.table(1, 0, 0))
    dB = _linear(B.table(1, 0, 0))
    f1 = _linear(f.table(1, 0, 0))
    degrees = sorted(set(A.source.degrees()) | set(B.target.degrees()))
    cert = []
    ok = True
    for d in degrees:
        zA = linalg.kernel_basis(dA, A.source.labels_of_degree(d))
        hA = len(zA) - len(linalg.independent(
            [dA[l] for l in A.source.labels_of_degree(d - 1) if l in dA]))
        zB = linalg.kernel_basis(dB, B.target.labels_of_degree(d))
        imB = [dB[l] for l in B.target.labels_of_degree(d - 1) if l in dB]
        hB = len(zB) - len(linalg.independent(imB))

        # induced map: images of cycle basis vectors, modulo boundaries of B
        rk = len(linalg.independent([_apply(f1, z) for z in zA], inside=imB))
        cert.append((d, hA, hB, rk))
        if hA != hB or rk != hA:
            ok = False
    return ok, cert
