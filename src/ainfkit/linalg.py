"""Small exact linear algebra over Q with deterministic leftmost pivoting.

Matrices are lists of rows, rows are lists of exact rationals: ints, and
Fractions where a pivot division leaves a denominator.  Everything here is
row reduction, done on sparse rows {column: nonzero entry}: a pivot row is
normalised, and eliminated with, over its nonzero columns only, so the cost
follows the nonzeros of the matrix rather than its shape.
"""

from fractions import Fraction

from .novikov import as_fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in nonzero) for row in a]


def _sparse(row):
    return {j: x for j, x in enumerate(row) if x}


def _eliminate(row, pivot_row, c):
    """row -= row[c] * pivot_row, over the pivot row's nonzero columns only."""
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


def row_reduce(mat):
    """Reduced row echelon form; returns (rref, pivot column list)."""
    a = [_sparse(row) for row in mat]
    rows = len(a)
    cols = len(mat[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if c in a[i]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        a[r] = _normalised(a[r], c)
        for i in range(rows):
            if i != r and c in a[i]:
                _eliminate(a[i], a[r], c)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return [[row.get(j, 0) for j in range(cols)] for row in a], pivots


def rank(mat):
    if not mat or not mat[0]:
        return 0
    return len(row_reduce(mat)[1])


def kernel_basis(mat, n_cols):
    """Basis of the kernel of the linear map with matrix ``mat`` (rows = outputs).

    Columns index the domain.  Deterministic: free columns in increasing order.
    """
    if not mat:
        return identity(n_cols)
    rref, pivots = row_reduce(mat)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * n_cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(v)
    return basis


def solver(mat, n_cols):
    """The function rhs -> one solution x of mat @ x = rhs, or None.

    ``[mat | I]`` is row-reduced once to ``[R | E]`` with E @ mat = R, so a
    right-hand side b is solvable iff the rows of E below the rank of mat
    annihilate it, and then x is E @ b on the pivot columns and 0 on the free
    ones (deterministic: free vars 0), the answer the reduced form of
    ``[mat | b]`` gives.  ``n_cols`` is the number of unknowns, which a
    matrix without rows does not carry; the zero vector solves that case.
    """
    if not mat:
        return lambda rhs: [0] * n_cols
    m = len(mat)
    rref, pivots = row_reduce([list(row) + unit for row, unit in zip(mat, identity(m))])
    rank = sum(1 for pc in pivots if pc < n_cols)
    left = [_sparse(row[n_cols:]) for row in rref]

    def solve_for(rhs):
        if any(sum(x * rhs[j] for j, x in left[r].items()) for r in range(rank, m)):
            return None
        x = [0] * n_cols
        for r in range(rank):
            x[pivots[r]] = as_fraction(sum(y * rhs[j] for j, y in left[r].items()))
        return x

    return solve_for


def extend_to_complement(inside, ambient_dim, candidates=None):
    """Greedily extend the row space of ``inside`` by candidate vectors.

    Returns the list of candidate vectors (default: standard basis, leftmost
    first) that enlarge the span; their span is a complement of span(inside)
    inside span(inside + chosen candidates).  One echelon basis
    {leading column: row} is kept, and each candidate is reduced against it
    once: it enlarges the span iff a nonzero remainder is left.
    """
    if candidates is None:
        candidates = identity(ambient_dim)
    echelon = {}

    def enlarges(vec):
        row = _sparse(vec)
        while row:
            c = min(row)
            if c not in echelon:
                echelon[c] = _normalised(row, c)
                return True
            _eliminate(row, echelon[c], c)
        return False

    for v in inside:
        enlarges(v)
    return [list(cand) for cand in candidates if enlarges(cand)]


def invert(mat):
    """Inverse of a square matrix, or None if it is singular or not square."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        return None
    aug = [list(row) + unit for row, unit in zip(mat, identity(n))]
    rref, pivots = row_reduce(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rref]
