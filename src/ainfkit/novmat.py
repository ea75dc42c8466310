"""Matrices over the truncated Novikov rings.

Used for inverting the linear part of strict morphisms, for gauge/rescaling
transports, and for the valuation-aware Smith reduction behind Floer
cohomology.  All arithmetic is exact on the truncated representation: every
statement is mod F^{>E}.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import IncompatibleRingError, NotInvertibleError
from .novikov import NovikovElement, _term_violations, as_fraction, nov_add, nov_mul


@dataclass
class NovMatrix:
    rows: tuple  # row labels
    cols: tuple  # column labels
    flavor: str
    cutoff: Fraction
    data: dict = field(default_factory=dict)  # (row, col) -> NovikovElement

    def get(self, r, c) -> NovikovElement:
        v = self.data.get((r, c))
        return v if v is not None else NovikovElement.zero(self.flavor, self.cutoff)

    def set(self, r, c, value: NovikovElement):
        if value.is_zero():
            self.data.pop((r, c), None)
        else:
            self.data[(r, c)] = value

    def copy(self) -> "NovMatrix":
        return NovMatrix(self.rows, self.cols, self.flavor, self.cutoff, dict(self.data))

    @staticmethod
    def identity(labels, flavor, cutoff) -> "NovMatrix":
        m = NovMatrix(tuple(labels), tuple(labels), flavor, cutoff)
        one = NovikovElement.unit(flavor, cutoff)
        for l in labels:
            m.data[(l, l)] = one
        return m

    @staticmethod
    def from_linear_tables(sys, tables=None) -> "NovMatrix":
        """Sum over the k=1 tables of T^lam e^mu times the Q-matrix, one Novikov
        element per entry.  ``tables`` ({(k, lam, mu): {inputs: {out: q}}})
        defaults to the stored tables of ``sys``."""
        if tables is None:
            tables = {key: t.entries for key, t in sys.tables.items()}
        return NovMatrix(sys.target.labels, sys.source.labels, sys.flavor, sys.cutoff, {
            (r, c): v for (c,), column in _fold(tables, 1, sys.flavor, sys.cutoff).items()
            for r, v in column.items()})

    def apply(self, vec: dict) -> dict:
        out = {}
        for (r, c), val in self.data.items():
            x = vec.get(c)
            if x is None:
                continue
            term = nov_mul(val, x)
            if term.is_zero():
                continue
            out[r] = nov_add(out[r], term) if r in out else term
        return {k: v for k, v in out.items() if not v.is_zero()}

    def matmul(self, other: "NovMatrix") -> "NovMatrix":
        assert self.cols == other.rows
        by_row = {}
        for (mid, c), v in other.data.items():
            by_row.setdefault(mid, []).append((c, v))
        terms = {}
        for (r, mid), v1 in self.data.items():
            for c, v2 in by_row.get(mid, ()):
                terms.setdefault((r, c), []).extend(nov_mul(v1, v2).terms)
        out = NovMatrix(self.rows, other.cols, self.flavor, self.cutoff)
        for key, t in terms.items():
            out.set(*key, NovikovElement.make(t, self.flavor, self.cutoff))
        return out

    def inverse(self) -> "NovMatrix":
        """Gauss-Jordan elimination on valuation-0 pivots (``_eliminate``).

        Requires a square matrix whose energy-0 part is invertible; raises
        NotInvertibleError otherwise.
        """
        if set(self.rows) != set(self.cols) and len(self.rows) != len(self.cols):
            raise NotInvertibleError("matrix is not square")
        scale, pivots, rows = _eliminate(self)
        out = NovMatrix(self.cols, self.rows, self.flavor, self.cutoff)
        for r0, c0 in pivots:
            row = rows[r0]
            for c, p in row.carried.items():
                out.data[(c0, c)] = NovikovElement.make(
                    ((Fraction(q, row.den), Fraction(n, scale), mu) for (n, mu), q in p.items()),
                    self.flavor, self.cutoff)
        return out


def smith_valuations(matrix: NovMatrix):
    """Valuation-aware Smith reduction: the sorted valuations of the pivots
    of ``_smith_pivots``.  The rank is the list's length.

    Over unit flavors this is plain elimination (every nonzero entry is a
    unit); over 0-flavors the diagonal entries are T^v up to units, and the
    positive v's are the torsion exponents of the cokernel.  When every
    energy is >= 0, as in the differentials ``hf_compute`` hands it, and
    every pivot's leading level is one monomial, the divisors do not depend
    on the pivot order.  A negative energy breaks this, because F^{>E} is
    then no ideal.
    """
    return sorted(v for _, _, v in _smith_pivots(matrix))


def _fold(tables, k, flavor, cutoff):
    """The arity-k part of {(k, lam, mu): {inputs: {out: q}}} as {inputs:
    vector}, one Novikov element per output.

    The table keys are distinct, so no two terms of one output share a
    (lam, mu) and nothing merges: each key is canonicalized and checked
    against ``flavor`` once, keys past the cutoff and zero coefficients are
    skipped, and each output's terms are sorted into its element."""
    cutoff = as_fraction(cutoff)
    terms = {}
    for (kk, lam, mu), entries in tables.items():
        if kk != k:
            continue
        lam, mu = as_fraction(lam), int(mu)
        if lam > cutoff:
            continue
        bad = _term_violations(lam, mu, flavor)
        for ext, outs in entries.items():
            by_out = terms.setdefault(ext, {})
            for out_label, q in outs.items():
                if q:
                    if bad:
                        raise IncompatibleRingError(bad[0])
                    by_out.setdefault(out_label, []).append((lam, mu, as_fraction(q)))
    return {ext: {l: NovikovElement(flavor, cutoff,
                                    tuple((q, lam, mu) for lam, mu, q in sorted(t)))
                  for l, t in by_out.items()}
            for ext, by_out in terms.items()}


# ---------------------------------------------------------------------------
# the elimination kernels: an entry is {(n, mu): q} with n = lam * scale an
# integer, and every shift and product drops the terms with n > top =
# E * scale, as NovikovElement arithmetic at cutoff E does.  The Smith
# reduction (``_smith_pivots``) keeps each row's coefficients as integers and
# never divides; the inverse (``_eliminate``) keeps them as integers over one
# positive denominator and carries the rows of the identity along.

@dataclass(slots=True)
class _Row:
    """The rationals entries / den, and the carried row of the identity over
    the same denominator (empty until ``_eliminate`` fills it)."""

    den: int
    entries: dict  # col -> {(n, mu): int}
    carried: dict  # identity col -> {(n, mu): int}

    def parts(self):
        return self.entries, self.carried

    def reduce(self):
        """Divide the denominator and every numerator by their gcd, so the
        integers are the reduced rationals over their least common
        denominator."""
        if self.den == 1:
            return
        g = math.gcd(self.den, *(q for part in self.parts() for p in part.values()
                                 for q in p.values()))
        if g > 1:
            self.den //= g
            for part in self.parts():
                for c, p in part.items():
                    part[c] = {key: q // g for key, q in p.items()}


def _integer_rows(matrix: NovMatrix):
    """(scale, top, {row: _Row}) for every row label, in ``matrix.rows``
    order: energies as integers n = lam * scale, with scale the least common
    multiple of the energy denominators and the cutoff's, and coefficients
    as integers over the row's least common denominator; nonzero rationals
    are units, so the scaling changes no pivot."""
    scale = math.lcm(matrix.cutoff.denominator, *(
        lam.denominator for v in matrix.data.values() for _, lam, _ in v.terms))
    top = math.floor(matrix.cutoff * scale)
    dens = {}
    for (r, _), v in matrix.data.items():
        if v.terms:
            dens[r] = math.lcm(dens.get(r, 1), *(q.denominator for q, _, _ in v.terms))
    rows = {r: _Row(dens.get(r, 1), {}, {}) for r in (*matrix.rows, *dens)}
    for (r, c), v in matrix.data.items():
        if v.terms:
            den = dens[r]
            rows[r].entries[c] = {(lam.numerator * (scale // lam.denominator), mu):
                                  q.numerator * (den // q.denominator) for q, lam, mu in v.terms}
    return scale, top, rows


def _smith_pivots(matrix: NovMatrix):
    """[(row, col, v)] in pivot order, v the pivot's valuation: fraction-free
    valuation elimination on sparse integer rows, with a column index {col:
    live rows}.

    A pivot is the live entry of least (valuation v, (rows with an entry of
    valuation v in its column - 1) * (entries of valuation v in its row -
    1), str(row), str(col)): Markowitz's least-fill rule on the entries of
    least valuation.  The rule reads only valuations and leading levels,
    which reduction mod F^{>E/2} keeps below E/2, so with energies >= 0 the
    pivots at E/2 are the pivots at E of valuation <= E/2, and whether a
    pivot's leading level fails to be one monomial (NotInvertibleError) is
    decided alike at both cutoffs.  Otherwise the pivot is T^v times a unit
    u, and each live row with an entry a in the pivot column becomes u * row
    - (a / T^v) * (pivot row), divided by the gcd of its integers; u is never
    inverted.  A step visits only the rows in the pivot column.
    """
    scale, top, integer_rows = _integer_rows(matrix)
    rows = {r: row.entries for r, row in integer_rows.items() if row.entries}
    vals = {r: {c: min(p)[0] for c, p in row.items()} for r, row in rows.items()}
    cols = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    name = {c: str(c) for c in cols}
    order = sorted(rows, key=str)
    least = {r: min(row_vals.values()) for r, row_vals in vals.items()}
    pivots = []
    while rows:
        v = min(least.values())
        level = {r: [c for c, w in vals[r].items() if w == v] for r in order
                 if least.get(r) == v}
        in_col = Counter(c for cs in level.values() for c in cs)
        _, r0, c0 = min((((in_col[c] - 1) * (len(cs) - 1), i, name[c]), r, c)
                        for i, (r, cs) in enumerate(level.items()) for c in cs)
        pivot = rows.pop(r0)
        del vals[r0], least[r0]
        for c in pivot:
            cols[c].discard(r0)
        unit = {(n - v, mu): q for (n, mu), q in pivot.pop(c0).items() if n - v <= top}
        if sum(n == 0 for n, _ in unit) != 1:
            raise NotInvertibleError("leading energy level is not a single monomial")
        for r in cols.pop(c0):
            row = rows[r]
            a = row.pop(c0)
            if not pivot:  # u * row is the row up to a unit: it only loses c0
                if row:
                    del vals[r][c0]
                    least[r] = min(vals[r].values())
                else:
                    del rows[r], vals[r], least[r]
                continue
            factor = {(n - v, mu): -q for (n, mu), q in a.items() if n - v <= top}
            new = {c: _mul(unit, p, top) for c, p in row.items()}
            for c, p in pivot.items():
                new[c] = _mul(factor, p, top, new.get(c))
                if not new[c]:
                    del new[c]
            for c in row.keys() - new.keys():
                cols[c].discard(r)
            for c in new.keys() - row.keys():
                cols[c].add(r)
            g = math.gcd(*(q for p in new.values() for q in p.values()))
            if g > 1:
                new = {c: {key: q // g for key, q in p.items()} for c, p in new.items()}
            if new:
                rows[r], vals[r] = new, {c: min(p)[0] for c, p in new.items()}
                least[r] = min(vals[r].values())
            else:
                del rows[r], vals[r], least[r]
        pivots.append((r0, c0, as_fraction(Fraction(v, scale))))
    return pivots


def _eliminate(matrix: NovMatrix):
    """Gauss-Jordan elimination for ``NovMatrix.inverse`` on sparse integer
    rows (``_Row``) that carry the rows of the identity along.

    A pivot is a live entry of valuation 0: the least str(row), then
    str(col); NotInvertibleError when no live row has one.  Each live row
    keeps its least candidate column and recomputes it only when it
    changes.  The pivot row is multiplied by the inverse of its unit pivot
    (``_unit_inverse``, integers W over d), which turns (D0, N0) into (d,
    N0 W).  Every other row (D, N), live or pivoted, with an entry a in the
    pivot column loses a times it: it becomes (N d - a P) / (D d), reduced
    by the gcd.

    Returns (scale, [(row, col)] in pivot order, {pivot row: _Row}).
    """
    scale, top, live = _integer_rows(matrix)
    for r, row in live.items():
        row.carried[r] = {(0, 0): row.den}
    name = {x: str(x) for key in matrix.data for x in key}

    def least(row):
        """The row's valuation-0 column that sorts first, or None."""
        return min((c for c, p in row.entries.items() if min(p)[0] == 0),
                   key=name.get, default=None)

    keys = {r: least(row) for r, row in live.items()}
    done, pivots = {}, []
    while live:
        best = min(((r, c) for r, c in keys.items() if c is not None),
                   key=lambda e: (name[e[0]], name[e[1]]), default=None)
        if best is None:
            raise NotInvertibleError("energy-0 part is not invertible")
        r0, c0 = best
        pivot = live.pop(r0)
        del keys[r0]
        w, pivot.den = _unit_inverse({key: q for key, q in pivot.entries.pop(c0).items()
                                      if key[0] <= top}, top)
        for part in pivot.parts():
            for c, p in part.items():
                part[c] = _mul(p, w, top)
        pivot.reduce()
        d = pivot.den
        for r, row in [*live.items(), *done.items()]:
            a = row.entries.pop(c0, None)
            if a is None:
                continue
            factor = {key: -q for key, q in a.items() if key[0] <= top}
            row.den *= d
            for part, source in zip(row.parts(), pivot.parts()):
                if d != 1:
                    for c, p in part.items():
                        part[c] = {key: q * d for key, q in p.items()}
                for c, p in source.items():
                    part[c] = _mul(factor, p, top, part.get(c))
                    if not part[c]:
                        del part[c]
            row.reduce()
            if r in keys:
                keys[r] = least(row)
        done[r0] = pivot
        pivots.append((r0, c0))
    return scale, pivots, done


def _mul(a, b, top, acc=None):
    """acc + a * b, terms past ``top`` dropped; ``acc`` is updated in place."""
    acc = {} if acc is None else acc
    for (n1, m1), q1 in a.items():
        for (n2, m2), q2 in b.items():
            if n1 + n2 <= top:
                key = (n1 + n2, m1 + m2)
                acc[key] = acc[key] + q1 * q2 if key in acc else q1 * q2
    return {key: q for key, q in acc.items() if q}


def _unit_inverse(u, top):
    """(W, d) with u * W = d mod terms past ``top``, d > 0: the inverse of a
    valuation-0 integer entry {(n, mu): int} as integers over d.

    With u = c0 e^m0 + (terms of energy > 0), the energy-n part of the
    inverse is w_n = -(1/c0) e^-m0 sum_{k >= 1} u_k w_{n-k}, over the L
    energy levels that sums of u's energies reach within ``top``.  Over d =
    c0^L every w_n is an integer: the i-th level has denominator c0^(i+1).
    """
    lead = [(mu, q) for (n, mu), q in u.items() if n == 0]
    if len(lead) != 1:
        raise NotInvertibleError("leading energy level is not a single monomial")
    (m0, c0), = lead
    rest = [(n, mu - m0, q) for (n, mu), q in u.items() if n]
    steps = sorted({n for n, _, _ in rest})
    levels, frontier = [], [0]
    while frontier:
        n = heapq.heappop(frontier)
        if levels and levels[-1] == n:
            continue
        levels.append(n)
        for k in steps:
            if n + k > top:
                break
            heapq.heappush(frontier, n + k)
    d = c0 ** len(levels)
    w = {0: {-m0: d // c0}}
    for n in levels[1:]:
        acc = {}
        for k, mk, q in rest:
            for mu, x in w.get(n - k, {}).items():
                acc[mu + mk] = acc.get(mu + mk, 0) + q * x
        w[n] = {mu: -s // c0 for mu, s in acc.items() if s}
    sign = -1 if d < 0 else 1
    return {(n, mu): sign * x for n, level in w.items() for mu, x in level.items()}, sign * d
