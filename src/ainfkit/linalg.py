"""Small exact linear algebra over Q on the library's sparse formats.

A vector is ``{label: q}`` with exact rationals: ints, and Fractions where a
pivot division leaves a denominator.  A linear map is ``{label: image
vector}``, the ``gradedcore._linear`` form, read on the domain labels the
caller lists in order; that order, never the sort order of the labels, picks
every pivot.  Everything here is row reduction on sparse rows: a pivot row is
normalised, and eliminated with, over its nonzero entries only, so the cost
follows the nonzeros of the map rather than its shape.
"""

from fractions import Fraction

from .novikov import as_fraction


class _Unit:
    """The label of the identity column that ``solver`` puts beside the
    equation of one output label; it equals no label of the caller's."""

    __slots__ = ("out",)

    def __init__(self, out):
        self.out = out


def _eliminate(row, pivot_row, c):
    """row -= row[c] * pivot_row, over the pivot row's nonzero entries only."""
    f = row[c]
    for j, y in pivot_row.items():
        x = row.get(j, 0) - f * y
        if x:
            row[j] = x
        else:
            del row[j]


def _normalised(row, c):
    inv = as_fraction(Fraction(1, row[c]))
    return {j: x * inv for j, x in row.items()}


def _equations(matrix, dom):
    """The rows of ``matrix`` on ``dom``: {output label: {domain label: q}}."""
    rows = {}
    for l in dom:
        for out, q in matrix.get(l, {}).items():
            if q:
                rows.setdefault(out, {})[l] = q
    return rows


def row_reduce(vectors, order):
    """Reduced echelon basis of the span of ``vectors``, as {pivot: row} in
    pivot order; each pivot is the leftmost label in ``order`` that a row
    still has.  ``order`` lists every label the vectors use."""
    rows = [r for r in ({l: q for l, q in v.items() if q} for v in vectors) if r]
    echelon = {}
    for c in order:
        r = len(echelon)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        # later pivots eliminate inside this row in place, so it ends reduced
        rows[r] = echelon[c] = _normalised(rows[r], c)
        for i, row in enumerate(rows):
            if i != r and c in row:
                _eliminate(row, rows[r], c)
    return echelon


def independent(vectors, inside=()):
    """Indexes of the ``vectors`` that enlarge the span of ``inside`` and of
    the vectors before them.

    That is the greedy complement of span(inside), the pivot columns of the
    map whose images are ``vectors`` in their order, and, with ``inside``
    empty, as many indexes as the rank.  One echelon basis {leading column:
    row} is kept, with columns numbered as labels are first seen, and each
    vector is reduced against it once: it enlarges the span iff a nonzero
    remainder is left.
    """
    column = {}
    echelon = {}

    def enlarges(vec):
        row = {column.setdefault(l, len(column)): q for l, q in vec.items() if q}
        while row:
            c = min(row)
            if c not in echelon:
                echelon[c] = _normalised(row, c)
                return True
            _eliminate(row, echelon[c], c)
        return False

    for v in inside:
        enlarges(v)
    return [i for i, v in enumerate(vectors) if enlarges(v)]


def kernel_basis(matrix, dom):
    """Basis of the kernel of ``matrix`` on the labels ``dom``.

    One vector per free label (one whose image lies in the span of the
    images before it), in ``dom`` order: 1 there, 0 at every other free
    label.
    """
    echelon = row_reduce(_equations(matrix, dom).values(), dom)
    basis = []
    for f in dom:
        if f not in echelon:
            v = {f: 1}
            for p, row in echelon.items():
                if f in row:
                    v[p] = -row[f]
            basis.append(v)
    return basis


def solver(matrix, dom):
    """The function rhs -> one x on ``dom`` with matrix(x) = rhs, or None.

    The equations, one per label some image reaches, are row-reduced once
    beside an identity block, to ``[R | E]`` with E @ matrix = R.  A
    right-hand side b is solvable iff it is zero at every label no image
    reaches and the rows of E below the rank of matrix annihilate it; then
    x is E @ b on the pivot labels and 0 on the free ones (deterministic:
    free vars 0), the answer the reduced form of ``[matrix | b]`` gives.
    """
    rows = _equations(matrix, dom)
    units = [_Unit(out) for out in rows]
    echelon = row_reduce([{**row, u: 1} for row, u in zip(rows.values(), units)],
                         [*dom, *units])
    pivots, checks = [], []
    for p, row in echelon.items():
        left = {u.out: q for u, q in row.items() if isinstance(u, _Unit)}
        if isinstance(p, _Unit):
            checks.append(left)
        else:
            pivots.append((p, left))

    def solve_for(rhs):
        if any(q and out not in rows for out, q in rhs.items()):
            return None
        if any(sum(left[out] * q for out, q in rhs.items() if out in left) for left in checks):
            return None
        x = {}
        for p, left in pivots:
            v = sum(left[out] * q for out, q in rhs.items() if out in left)
            if v:
                x[p] = as_fraction(v)
        return x

    return solve_for
