"""Oracle tests of the exact linear algebra in ``ainfkit.linalg``.

Small random rational matrices, with zero rows, zero columns and empty
shapes, are checked against sympy; ``extend_to_complement`` is checked
against the rank-recount rule it replaced: a candidate is kept iff adding it
raises the rank.
"""

from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ainfkit import linalg

ENTRIES = st.one_of(st.just(F(0)), st.just(F(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=3))


@st.composite
def matrices(draw, rows=st.integers(0, 5), cols=st.integers(0, 6)):
    """A rows x cols matrix with some rows and columns forced to zero."""
    m, n = draw(rows), draw(cols)
    mat = [[draw(ENTRIES) for _ in range(n)] for _ in range(m)]
    zero_rows = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2))
    return [[F(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(mat)]


def to_sympy(mat, n_cols=None):
    n = len(mat[0]) if mat else (n_cols or 0)
    flat = [sympy.Rational(x.numerator, x.denominator) for row in mat for x in row]
    return sympy.Matrix(len(mat), n, flat)


def as_fractions(smat):
    return [[F(int(x.p), int(x.q)) for x in smat.row(i)] for i in range(smat.rows)]


def product(mat, x):
    return [sum((a * b for a, b in zip(row, x)), F(0)) for row in mat]


def rank_oracle(rows, n_cols):
    return to_sympy(rows, n_cols).rank() if rows else 0


@settings(max_examples=25, deadline=None)
@given(matrices())
@example([])
@example([[], []])
@example([[F(0), F(0)], [F(0), F(0)]])
def test_row_reduce_matches_sympy(mat):
    rref, pivots = linalg.row_reduce(mat)
    if not mat:
        assert (rref, pivots) == ([], [])
        return
    expected, expected_pivots = to_sympy(mat).rref()
    assert pivots == list(expected_pivots)
    assert rref == as_fractions(expected)


@settings(max_examples=25, deadline=None)
@given(matrices())
@example([])
@example([[], [], []])
def test_rank_matches_sympy(mat):
    assert linalg.rank(mat) == rank_oracle(mat, len(mat[0]) if mat else 0)


@settings(max_examples=25, deadline=None)
@given(matrices(), st.integers(0, 6))
@example([], 3)
@example([[], []], 0)
def test_kernel_basis_is_sympy_nullspace(mat, n_cols):
    if mat:
        n_cols = len(mat[0])
    basis = linalg.kernel_basis(mat, n_cols)
    if not mat:
        assert basis == linalg.identity(n_cols)
        return
    smat = to_sympy(mat)
    expected = smat.nullspace()
    assert len(basis) == len(expected)
    for v in basis:
        assert product(mat, v) == [0] * len(mat)
    if basis:
        assert rank_oracle(basis, n_cols) == len(basis)
    # free columns in increasing order: vector i is 1 at the i-th free column
    # and 0 at every other free column
    pivots = set(smat.rref()[1])
    free = [c for c in range(n_cols) if c not in pivots]
    assert [[v[c] for c in free] for v in basis] == linalg.identity(len(free))


@st.composite
def systems(draw):
    """(number of unknowns, matrix), the matrix possibly without rows."""
    n = draw(st.integers(0, 6))
    return n, draw(matrices(cols=st.just(n)))


def sympy_solution(mat, rhs, n):
    """The solution with free variables 0, read off sympy's reduced form of
    [mat | rhs], or None when the last column is a pivot."""
    if not mat:
        return [0] * n
    rref, pivots = to_sympy([row + [b] for row, b in zip(mat, rhs)]).rref()
    if n in pivots:
        return None
    x = [0] * n
    for r, pc in enumerate(pivots):
        x[pc] = F(int(rref[r, n].p), int(rref[r, n].q))
    return x


@settings(max_examples=30, deadline=None)
@given(systems(), st.data())
@example((0, [[], []]), None)
@example((3, []), None)
@example((0, []), None)
def test_solve_matches_sympy(system, data):
    """One reduction of [mat | I] serves consistent and inconsistent
    right-hand sides alike, each with the answer sympy's reduced form of
    [mat | rhs] gives."""
    n, mat = system
    solve_for = linalg.solver(mat, n)
    sides = [[F(1), F(0)][:len(mat)], [F(0)] * len(mat)] if data is None else [
        product(mat, [data.draw(ENTRIES) for _ in range(n)])  # consistent
        if data.draw(st.booleans()) else [data.draw(ENTRIES) for _ in mat]
        for _ in range(4)]
    for rhs in sides:
        x = solve_for(rhs)
        assert x == sympy_solution(mat, rhs, n)
        augmented = [row + [b] for row, b in zip(mat, rhs)]
        solvable = rank_oracle(mat, n) == rank_oracle(augmented, n + 1)
        if x is None:
            assert not solvable
        else:
            assert solvable
            assert len(x) == n
            assert product(mat, x) == rhs
            assert all(type(q) in (int, F) for q in x)


@settings(max_examples=25, deadline=None)
@given(matrices(rows=st.shared(st.integers(0, 5), key="n"),
                cols=st.shared(st.integers(0, 5), key="n")))
def test_invert_matches_sympy(mat):
    inv = linalg.invert(mat)
    if not mat:
        assert inv == []
        return
    smat = to_sympy(mat)
    if smat.det() == 0:
        assert inv is None
    else:
        assert inv == as_fractions(smat.inv())


@pytest.mark.parametrize("mat", [
    [[F(1)], [F(1)]],
    [[], []],
    [[F(1), F(0), F(0)], [F(0), F(1), F(0)]],
], ids=["2x1", "2x0", "2x3"])
def test_invert_refuses_non_square(mat):
    assert linalg.invert(mat) is None


def complement_by_rank(inside, candidates, n_cols):
    """The rank-recount rule: keep a candidate iff it raises the rank."""
    rows = [list(v) for v in inside]
    current = rank_oracle(rows, n_cols)
    chosen = []
    for cand in candidates:
        trial = rows + [list(cand)]
        r = rank_oracle(trial, n_cols)
        if r > current:
            rows, current = trial, r
            chosen.append(list(cand))
    return chosen


@st.composite
def complement_problems(draw):
    """(inside, candidates, n): candidates mix fresh vectors, duplicates of
    earlier candidates, and combinations of the inside vectors."""
    n = draw(st.integers(0, 6))
    inside = draw(matrices(rows=st.integers(0, 4), cols=st.just(n)))
    candidates = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "in-span"]))
        if kind == "duplicate" and candidates:
            candidates.append(list(draw(st.sampled_from(candidates))))
        elif kind == "in-span" and inside:
            coeffs = [draw(ENTRIES) for _ in inside]
            candidates.append([sum((c * row[j] for c, row in zip(coeffs, inside)), F(0))
                               for j in range(n)])
        else:
            candidates.append([draw(ENTRIES) for _ in range(n)])
    return inside, candidates, n


@settings(max_examples=40, deadline=None)
@given(complement_problems())
def test_extend_to_complement_matches_rank_recount(problem):
    inside, candidates, n = problem
    assert (linalg.extend_to_complement(inside, n, candidates)
            == complement_by_rank(inside, candidates, n))
    assert (linalg.extend_to_complement(inside, n)
            == complement_by_rank(inside, linalg.identity(n), n))


def test_mat_vec_skips_nothing_but_zeros():
    mat = [[F(1), F(2), F(0)], [F(0), F(-1), F(3)]]
    assert linalg.mat_vec(mat, [F(0), F(1), F(0)]) == [F(2), F(-1)]
    assert linalg.mat_vec(mat, [F(1), F(0), F(2)]) == [F(1), F(6)]
    assert linalg.mat_vec([], [F(1)]) == []
