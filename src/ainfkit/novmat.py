"""Matrices over the truncated Novikov rings.

Used for inverting the linear part of strict morphisms, for gauge/rescaling
transports, and for the valuation-aware Smith reduction behind Floer
cohomology.  All arithmetic is exact on the truncated representation: every
statement is mod F^{>E}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotInvertibleError
from .novikov import NovikovElement, nov_add, nov_mul


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
        scale, pivots, carried = _eliminate(self, inverse=True)
        out = NovMatrix(self.cols, self.rows, self.flavor, self.cutoff)
        for r0, c0, _ in pivots:
            for c, p in carried[r0].items():
                out.data[(c0, c)] = NovikovElement.make(
                    ((q, Fraction(n, scale), mu) for (n, mu), q in p.items()),
                    self.flavor, self.cutoff)
        return out


def strip_e_powers(matrix: NovMatrix, row_degree, col_degree, shift: int) -> NovMatrix:
    """Remove the degree-determined e-powers from a degree-homogeneous matrix.

    For a degree-``shift`` map, the entry col -> row forces
    mu = (deg(col) + shift - deg(row)) / 2 on every term; multiplying the
    entry by e^(-mu) is the e-regrade isomorphism, and leaves ranks and
    torsion unchanged because e is a unit.
    """
    out = NovMatrix(matrix.rows, matrix.cols, matrix.flavor, matrix.cutoff)
    for (r, c), v in matrix.data.items():
        delta = col_degree(c) + shift - row_degree(r)
        if delta % 2:
            raise ValueError(f"entry {c} -> {r} breaks degree parity")
        mu = delta // 2
        for coeff, lam, m in v.terms:
            if m != mu:
                raise ValueError(
                    f"entry {c} -> {r} carries e^{m}, expected e^{mu}: not degree-homogeneous"
                )
        out.data[(r, c)] = NovikovElement.make(
            ((coeff, lam, 0) for coeff, lam, _ in v.terms), matrix.flavor, matrix.cutoff
        )
    return out


def smith_valuations(matrix: NovMatrix):
    """Valuation-aware Smith reduction: pivot on entries of minimal valuation,
    eliminate with ratios that stay in the valuation ring, and return the
    sorted list of diagonal valuations.  The rank is the list's length.

    Over unit flavors this is plain elimination (every nonzero entry is a
    unit); over 0-flavors the diagonal entries are T^v up to units, and the
    positive v's are the torsion exponents of the cokernel.
    """
    scale, pivots, _ = _eliminate(matrix)
    return sorted(Fraction(n, scale) for _, _, n in pivots)


def _fold(tables, k, flavor, cutoff):
    """The arity-k part of {(k, lam, mu): {inputs: {out: q}}} as {inputs:
    vector}, one Novikov element per output."""
    terms = {}
    for (kk, lam, mu), entries in tables.items():
        if kk != k:
            continue
        for ext, outs in entries.items():
            for out_label, q in outs.items():
                terms.setdefault(ext, {}).setdefault(out_label, []).append((q, lam, mu))
    folded = {}
    for ext, by_out in terms.items():
        vec = {l: NovikovElement.make(t, flavor, cutoff) for l, t in by_out.items()}
        folded[ext] = {l: v for l, v in vec.items() if not v.is_zero()}
    return folded


# ---------------------------------------------------------------------------
# the elimination kernel: an entry is {(n, mu): coeff} with n = lam * scale an
# integer, and every shift and product drops the terms with n > top =
# E * scale, as NovikovElement arithmetic at cutoff E does

def _eliminate(matrix: NovMatrix, inverse=False):
    """Valuation-pivot elimination on sparse rows {col: entry}.

    A pivot is the live entry of least valuation v, ties broken by str(row),
    then str(col); its row is divided by the unit pivot / T^v, and each live
    row with an entry a in the pivot column loses (a / T^v) times it.  With
    ``inverse`` a pivot must have v = 0 (NotInvertibleError when no live
    row has one), the identity is carried along, and the pivoted rows are
    eliminated too (Gauss-Jordan).

    Returns (scale, [(row, col, v * scale)] in pivot order, carried rows).
    """
    scale = math.lcm(matrix.cutoff.denominator, *(
        lam.denominator for v in matrix.data.values() for _, lam, _ in v.terms))
    top = math.floor(matrix.cutoff * scale)
    live = {r: {} for r in matrix.rows}
    for (r, c), v in matrix.data.items():
        if v.terms:
            live.setdefault(r, {})[c] = {(int(lam * scale), mu): q for q, lam, mu in v.terms}
    name = {x: str(x) for key in matrix.data for x in key}
    carried = {r: {r: {(0, 0): Fraction(1)}} for r in live} if inverse else {}
    done, pivots = {}, []
    while live:
        entries = [(min(p)[0], r, c) for r, row in live.items() for c, p in row.items()]
        if inverse:
            entries = [e for e in entries if e[0] == 0]
            if not entries:
                raise NotInvertibleError("energy-0 part is not invertible")
        if not entries:
            break
        v, r0, c0 = min(entries, key=lambda e: (e[0], name[e[1]], name[e[2]]))
        row0 = live.pop(r0)
        unit_inv = _invert({(n - v, mu): q for (n, mu), q in row0.pop(c0).items()
                            if n - v <= top}, top)
        pivot_rows = (row0, carried[r0]) if inverse else (row0,)
        for part in pivot_rows:
            for c, p in part.items():
                part[c] = _mul(p, unit_inv, top)
        for r, row in [*live.items(), *done.items()]:
            a = row.pop(c0, None)
            if a is not None:
                factor = {(n - v, mu): -q for (n, mu), q in a.items() if n - v <= top}
                for part, source in zip((row, carried.get(r)), pivot_rows):
                    for c, p in source.items():
                        part[c] = _mul(factor, p, top, dict(part.get(c, ())))
                        if not part[c]:
                            del part[c]
        if inverse:
            done[r0] = row0
        pivots.append((r0, c0, v))
    return scale, pivots, carried


def _mul(a, b, top, acc=None):
    """acc + a * b, terms past ``top`` dropped."""
    acc = {} if acc is None else acc
    for (n1, m1), q1 in a.items():
        for (n2, m2), q2 in b.items():
            if n1 + n2 <= top:
                key = (n1 + n2, m1 + m2)
                acc[key] = acc[key] + q1 * q2 if key in acc else q1 * q2
    return {key: q for key, q in acc.items() if q}


def _invert(u, top):
    """Inverse of a valuation-0 entry: the inverse of its leading monomial
    times the geometric series in the rest, whose energies are positive."""
    (_, m0), q0 = min(u.items())
    if sum(1 for n, _ in u if n == 0) > 1:
        raise NotInvertibleError("leading energy level is not a single monomial")
    step = {(n, mu - m0): -q / q0 for (n, mu), q in u.items() if n}
    acc = power = {(0, 0): Fraction(1)}
    while power:
        power = _mul(power, step, top)
        acc = _mul(power, {(0, 0): 1}, top, acc)
    return {(n, mu - m0): q / q0 for (n, mu), q in acc.items()}
