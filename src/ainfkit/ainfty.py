"""The filtered A-infinity calculus: relation checking, the bar complex,
morphisms, composition, homotopies, and weak homotopy equivalence.

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
from fractions import Fraction

from . import linalg
from .errors import MalformedMorphismError
from .gapped import _budgeted_keys, validate_gapped
from .gradedcore import (
    GradedSpace,
    OperationSystem,
    OperationTable,
    _add_scaled,
    _apply,
    _apply_each,
    _fill_slots,
    _insertion_sum,
    _linear,
    _producers,
    _q_matrix,
    prefix_degree_sign,
    relation_defect,
)
from .novikov import NovikovElement, as_fraction, nov_add


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


def _first_witness(defect: dict):
    return min(defect.keys()) if defect else None


# ---------------------------------------------------------------------------
# generic stitching helpers

def _producers_of(fam: OperationSystem) -> dict:
    """The family's entries indexed by output label (``_producers``)."""
    return _producers({key: t.entries for key, t in fam.tables.items()})


def _block_sum(n_alg: OperationSystem, families_for_slot, k, key):
    """sum over n_r entries with slots filled by block producers.

    ``families_for_slot(r)`` yields one or more lists of r producer indexes,
    one per slot; for morphisms there is a single choice (all slots f), for
    homotopies one choice per position of the H-block.
    """
    lam, mu = key
    out = {}
    for (r, lam0, mu0), table in n_alg.tables.items():
        rest = (k, lam - lam0, mu - mu0)
        if rest[1] < 0:
            continue
        for slot_indexes in families_for_slot(r):
            for in_labels, outs in table.entries.items():
                specs = [index.get(l) for index, l in zip(slot_indexes, in_labels)]
                if not all(specs):
                    continue
                for _, inputs, coeff in _fill_slots(specs, k, rest[1], rest):
                    for out_label, q in outs.items():
                        dkey = (inputs, out_label)
                        c = out.get(dkey)
                        c = coeff * q if c is None else c + coeff * q
                        if c:
                            out[dkey] = c
                        else:
                            out.pop(dkey, None)
    return out


def _table_sub(a: dict, b: dict) -> dict:
    return _add_scaled(dict(a), b, -1)


# ---------------------------------------------------------------------------
# relation checking

def check_relations(alg: OperationSystem, level: int) -> CheckReport:
    """Verify the filtered A-infinity relations on every budgeted key.

    Budget: lam <= cutoff and norm((lam, mu)) + k - 1 <= level.  The witness
    for a failing key is the lexicographically first nonzero defect entry.
    """
    gapped = validate_gapped(alg)
    if not gapped.ok:
        return CheckReport(False, [("gapped", (0, Fraction(0), 0), f) for f in gapped.failures])
    failures = []
    for k, (lam, mu) in sorted(_budgeted_keys(alg.monoid, alg.cutoff, level)):
        defect = relation_defect(alg, k, lam, mu)
        if defect:
            failures.append(("relation", (k, lam, mu), _first_witness(defect)))
    return CheckReport(not failures, failures, note=f"level {level}")


# ---------------------------------------------------------------------------
# bar complex

@dataclass(frozen=True)
class BarWord:
    """Tensor word of basis labels with a Novikov coefficient."""

    coeff: NovikovElement
    letters: tuple

    def degree(self, space: GradedSpace) -> int:
        return sum(space.degree(l) for l in self.letters)


def _merge_words(words):
    acc = {}
    for w in words:
        if w.letters in acc:
            acc[w.letters] = nov_add(acc[w.letters], w.coeff)
        else:
            acc[w.letters] = w.coeff
    return [BarWord(c, ls) for ls, c in sorted(acc.items()) if not c.is_zero()]


def bar_differential(alg: OperationSystem, word: BarWord):
    """The coderivation d-bar on one word, as a merged list of words.

    Insertion of m_k at position l carries (-1)^(deg a_1 + ... + deg a_{l-1});
    on the empty word, d-bar gives the length-one word m_0.
    """
    out = []
    n = len(word.letters)
    for (k, lam, mu), table in alg.tables.items():
        for l in range(1, n - k + 2):
            block = word.letters[l - 1: l - 1 + k]
            outs = table.entries.get(block)
            if not outs:
                continue
            sign = prefix_degree_sign(alg.source, word.letters[: l - 1])
            scalar = word.coeff.shift(lam, mu).scale(sign)
            if scalar.is_zero():
                continue
            for out_label, q in outs.items():
                ww = word.letters[: l - 1] + (out_label,) + word.letters[l - 1 + k:]
                out.append(BarWord(scalar.scale(q), ww))
    return _merge_words(out)


def bar_transport(f: OperationSystem, word: BarWord):
    """The coalgebra morphism f-bar on one word: sum over block splittings
    (empty blocks insert f_0 letters), merged.  Truncation at the cutoff makes
    the f_0 insertions finite."""
    results = []

    def go(rest, letters_acc, coeff):
        if coeff.is_zero():
            return
        if not rest:
            results.append(BarWord(coeff, tuple(letters_acc)))
            # further trailing f_0 blocks
            _emit_empty(rest, letters_acc, coeff, trailing=True)
            return
        # empty block (f_0 insertion)
        _emit_empty(rest, letters_acc, coeff, trailing=False)
        # nonempty block
        for s in range(1, len(rest) + 1):
            block = tuple(rest[:s])
            for (kk, lam, mu), table in f.tables.items():
                if kk != s:
                    continue
                outs = table.entries.get(block)
                if not outs:
                    continue
                scalar = coeff.shift(lam, mu)
                for out_label, q in outs.items():
                    go(rest[s:], letters_acc + [out_label], scalar.scale(q))

    def _emit_empty(rest, letters_acc, coeff, trailing):
        for (kk, lam, mu), table in f.tables.items():
            if kk != 0:
                continue
            outs = table.entries.get(())
            if not outs:
                continue
            scalar = coeff.shift(lam, mu)
            if scalar.is_zero():
                continue
            for out_label, q in outs.items():
                if trailing:
                    results.append(BarWord(scalar.scale(q), tuple(letters_acc + [out_label])))
                    _emit_empty(rest, letters_acc + [out_label], scalar.scale(q), trailing=True)
                else:
                    go(rest, letters_acc + [out_label], scalar.scale(q))

    go(list(word.letters), [], word.coeff)
    return _merge_words(results)


# ---------------------------------------------------------------------------
# morphisms

def _require_morphism(f: OperationSystem):
    if f.role != "morphism":
        raise MalformedMorphismError(f"role {f.role!r} is not a morphism")
    t = f.table(0, Fraction(0), 0)
    if t is not None and t.entries:
        raise MalformedMorphismError("f_0^{0,0} != 0")


def morphism_defect(f: OperationSystem, A: OperationSystem, B: OperationSystem,
                    k, lam, mu, producers=None) -> dict:
    """LHS - RHS of the filtered morphism relation at one key.  ``producers``
    is ``_producers_of(f)``, passed by a caller that checks many keys."""
    lhs = _insertion_sum(f, A, k, lam, mu)
    if producers is None:
        producers = _producers_of(f)

    def families(r):
        yield [producers] * r

    rhs = _block_sum(B, families, k, (as_fraction(lam), mu))
    return _table_sub(lhs, rhs)


def check_morphism(f: OperationSystem, A: OperationSystem, B: OperationSystem,
                   level: int) -> CheckReport:
    _require_morphism(f)
    failures = []
    producers = _producers_of(f)
    for k, (lam, mu) in sorted(_budgeted_keys(f.monoid, f.cutoff, level)):
        defect = morphism_defect(f, A, B, k, lam, mu, producers)
        if defect:
            failures.append(("morphism", (k, lam, mu), _first_witness(defect)))
    return CheckReport(not failures, failures, note=f"level {level}")


def identity_morphism(A: OperationSystem) -> OperationSystem:
    entries = {(l,): {l: Fraction(1)} for l, _ in A.source.basis}
    t = OperationTable(1, Fraction(0), 0, "morphism", entries)
    return OperationSystem.morphism(A.source, A.target, A.monoid, A.flavor,
                                    A.cutoff, [t])


def compose_morphisms(g: OperationSystem, f: OperationSystem) -> OperationSystem:
    """(g o f)_k by block splittings, truncated at the cutoff."""
    if f.target.basis != g.source.basis:
        raise MalformedMorphismError("chain mismatch: target(f) != source(g)")
    if f.monoid != g.monoid or f.cutoff != g.cutoff or f.flavor != g.flavor:
        raise MalformedMorphismError("morphisms live over different rings")
    producers = _producers_of(f)
    acc = defaultdict(dict)  # (k, lam, mu) -> entries
    for (_, lam0, mu0), table in g.tables.items():
        for in_labels, outs in table.entries.items():
            specs = [producers.get(l) for l in in_labels]
            if not all(specs):
                continue
            for (k, lam, mu), inputs, coeff in _fill_slots(specs, math.inf, f.cutoff - lam0):
                _add_scaled(acc[(k, lam0 + lam, mu0 + mu)].setdefault(inputs, {}), outs, coeff)
    tables = [
        OperationTable(k, lam, mu, "morphism",
                       {i: o for i, o in entries.items() if o})
        for (k, lam, mu), entries in acc.items()
    ]
    return OperationSystem.morphism(f.source, g.target, f.monoid, f.flavor,
                                    f.cutoff, [t for t in tables if t.entries])


# ---------------------------------------------------------------------------
# homotopies

def homotopy_defect(H: OperationSystem, f: OperationSystem, g: OperationSystem,
                    A: OperationSystem, B: OperationSystem, k, lam, mu,
                    producers=None) -> dict:
    """f_k - g_k - (block sum with one H-slot) - (signed m-insertions into H).
    ``producers`` is ``_producers_of`` of (f, g, H), passed by a caller that
    checks many keys."""
    key = (as_fraction(lam), mu)
    target = {}
    for fam, sign in ((f, 1), (g, -1)):
        t = fam.table(k, key[0], key[1])
        if t is None:
            continue
        for inputs, outs in t.entries.items():
            _add_scaled(target, {(inputs, o): q for o, q in outs.items()}, sign)
    f_prod, g_prod, h_prod = (map(_producers_of, (f, g, H)) if producers is None
                              else producers)

    def families(r):
        for t in range(r):
            yield [f_prod] * t + [h_prod] + [g_prod] * (r - 1 - t)

    sum1 = _block_sum(B, families, k, key)
    sum2 = _insertion_sum(H, A, k, *key)
    return _table_sub(_table_sub(target, sum1), sum2)


def check_homotopy(H: OperationSystem, f: OperationSystem, g: OperationSystem,
                   A: OperationSystem, B: OperationSystem, level: int) -> CheckReport:
    if H.role != "homotopy":
        raise MalformedMorphismError(f"role {H.role!r} is not a homotopy")
    t = H.table(0, Fraction(0), 0)
    if t is not None and t.entries:
        raise MalformedMorphismError("H_0^{0,0} != 0")
    failures = []
    producers = [_producers_of(fam) for fam in (f, g, H)]
    for k, (lam, mu) in sorted(_budgeted_keys(H.monoid, H.cutoff, level)):
        defect = homotopy_defect(H, f, g, A, B, k, lam, mu, producers)
        if defect:
            failures.append(("homotopy", (k, lam, mu), _first_witness(defect)))
    return CheckReport(not failures, failures, note=f"level {level}")


def whisker_strict(h: OperationSystem, H: OperationSystem) -> OperationSystem:
    """(h o H)_k = h_1 o H_k for a strict morphism h; a homotopy h∘f => h∘g."""
    h1 = {(lam, mu): _linear(t) for (kk, lam, mu), t in h.tables.items() if kk == 1}
    out = defaultdict(dict)
    for (k, lam, mu), table in H.tables.items():
        for (lam1, mu1), h_map in h1.items():
            for inputs, image in _apply_each(h_map, table.entries).items():
                _add_scaled(out[(k, lam + lam1, mu + mu1)].setdefault(inputs, {}), image)
    tables = [OperationTable(k, lam, mu, "homotopy", e)
              for (k, lam, mu), e in out.items()]
    return OperationSystem.homotopy(H.source, h.target, H.monoid, H.flavor,
                                    H.cutoff, [t for t in tables if t.entries])


# ---------------------------------------------------------------------------
# weak homotopy equivalence

def is_weak_homotopy_equiv(f: OperationSystem, A: OperationSystem,
                           B: OperationSystem):
    """Does f_1^{0,0} induce an isomorphism on Q-cohomology in every degree?

    Returns (bool, certificate) with certificate a per-degree list of
    (degree, dim H(A), dim H(B), rank of the induced map).
    """
    dA = _linear(A.table(1, Fraction(0), 0))
    dB = _linear(B.table(1, Fraction(0), 0))
    f1 = _linear(f.table(1, Fraction(0), 0))
    degrees = sorted(set(A.source.degrees()) | set(B.target.degrees()))
    cert = []
    ok = True
    for d in degrees:
        domA = A.source.labels_of_degree(d)
        codA = A.source.labels_of_degree(d + 1)
        prevA = A.source.labels_of_degree(d - 1)
        domB = B.target.labels_of_degree(d)
        codB = B.target.labels_of_degree(d + 1)
        prevB = B.target.labels_of_degree(d - 1)

        zA = linalg.kernel_basis(_q_matrix(dA, domA, codA), len(domA))
        hA = len(zA) - linalg.rank(_q_matrix(dA, prevA, domA))
        zB = linalg.kernel_basis(_q_matrix(dB, domB, codB), len(domB))
        imB = _q_matrix(dB, prevB, domB)
        rB = linalg.rank(imB)
        hB = len(zB) - rB

        # induced map: images of cycle basis vectors, modulo boundaries of B
        fz = [_apply(f1, dict(zip(domA, z))) for z in zA]
        rk = linalg.rank([row + [v.get(out, Fraction(0)) for v in fz]
                          for row, out in zip(imB, domB)]) - rB
        cert.append((d, hA, hB, rk))
        if hA != hB or rk != hA:
            ok = False
    return ok, cert
