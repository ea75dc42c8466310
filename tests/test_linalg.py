"""Oracle tests of the exact linear algebra in ``ainfkit.linalg``.

Small random rational maps {label: image vector}, with zero images, unreached
outputs and empty domains, are checked against sympy on the dense matrix
whose columns follow the domain order.  Every domain is listed in an order
unlike the sort order of its labels, so a pivot that followed the sort order
would be caught.  ``independent`` is checked against the rank-recount rule it
replaced: a candidate is kept iff adding it raises the rank.
"""

from fractions import Fraction as F

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ainfkit import linalg

ENTRIES = st.one_of(st.just(F(0)), st.just(F(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=3))
LABELS = ["a", "b", "c", "d", "e", "f"]


@st.composite
def orders(draw, n=st.integers(0, 6)):
    """n labels in an order that is not their sort order when n > 1."""
    labels = draw(st.permutations(LABELS))[:draw(n)]
    if len(labels) > 1 and labels == sorted(labels):
        labels.reverse()
    return labels


@st.composite
def vector_lists(draw, order, count=st.integers(0, 5)):
    """Vectors on ``order``, some forced to zero and some labels never used."""
    vectors = [{l: draw(ENTRIES) for l in order} for _ in range(draw(count))]
    zero_vectors = draw(st.sets(st.integers(0, 4), max_size=2))
    unused = draw(st.sets(st.sampled_from(order), max_size=2)) if order else set()
    return [{l: q for l, q in v.items() if q and l not in unused and i not in zero_vectors}
            for i, v in enumerate(vectors)]


@st.composite
def maps(draw):
    """(matrix, dom, cod): a map {x: {y: q}} on the labels ``dom`` with outputs
    among ``cod``; the output labels are capitals, so dom and cod stay apart."""
    dom = draw(orders())
    cod = [l.upper() for l in draw(orders(st.integers(0, 5)))]
    images = draw(vector_lists(cod, st.just(len(dom))))
    return {x: v for x, v in zip(dom, images) if v}, dom, cod


def dense(vectors, order):
    """Rows of the vectors in the coordinates of ``order``, as sympy."""
    flat = [sympy.Rational(v.get(l, 0)) for v in vectors for l in order]
    return sympy.Matrix(len(vectors), len(order), flat)


def columns(matrix, dom, cod):
    """The sympy matrix of ``matrix``: one column per ``dom`` label in order."""
    return dense([matrix.get(x, {}) for x in dom], cod).T


def label_vector(column, order):
    return {l: F(int(q.p), int(q.q)) for l, q in zip(order, column) if q}


@settings(max_examples=25, deadline=None)
@given(st.data())
@example(None)
def test_row_reduce_matches_sympy(data):
    """{pivot: row} is sympy's rref, pivots leftmost in the given order."""
    if data is None:
        assert linalg.row_reduce([], ["b", "a"]) == {}
        assert linalg.row_reduce([{}, {"a": F(0)}], ["b", "a"]) == {}
        return
    order = data.draw(orders())
    vectors = data.draw(vector_lists(order))
    echelon = linalg.row_reduce(vectors, order)
    if not vectors or not order:
        assert echelon == {}
        return
    rref, pivots = dense(vectors, order).rref()
    assert list(echelon) == [order[c] for c in pivots]
    assert list(echelon.values()) == [label_vector(rref.row(r), order)
                                      for r in range(len(pivots))]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_rank_matches_sympy(data):
    """The rank is the number of vectors that enlarge the span of those
    before them, and they are the pivot columns of the map with those
    images."""
    matrix, dom, cod = data.draw(maps())
    images = [matrix.get(x, {}) for x in dom]
    chosen = linalg.independent(images)
    smat = columns(matrix, dom, cod)
    assert chosen == (list(smat.rref()[1]) if cod else [])
    assert len(chosen) == (smat.rank() if cod else 0)


@settings(max_examples=25, deadline=None)
@given(st.data())
@example(None)
def test_kernel_basis_is_sympy_nullspace(data):
    """One vector per free label in domain order, 1 there and 0 at every
    other free label: sympy's nullspace basis, label for label."""
    if data is None:
        assert linalg.kernel_basis({}, ["b", "a"]) == [{"b": 1}, {"a": 1}]
        assert linalg.kernel_basis({}, []) == []
        return
    matrix, dom, cod = data.draw(maps())
    basis = linalg.kernel_basis(matrix, dom)
    if not cod:
        assert basis == [{x: 1} for x in dom]
        return
    expected = [label_vector(v, dom) for v in columns(matrix, dom, cod).nullspace()]
    assert basis == expected
    for v in basis:
        image = {}
        for x, q in v.items():
            for y, c in matrix.get(x, {}).items():
                image[y] = image.get(y, 0) + q * c
        assert not any(image.values())


def sympy_solution(matrix, dom, cod, rhs):
    """The solution with free variables 0, read off sympy's reduced form of
    [matrix | rhs], or None when the last column is a pivot or rhs is nonzero
    off ``cod``."""
    if any(q and y not in cod for y, q in rhs.items()):
        return None
    if not cod:
        return {}
    aug = columns(matrix, dom, cod).row_join(dense([rhs], cod).T)
    rref, pivots = aug.rref()
    if len(dom) in pivots:
        return None
    return {dom[pc]: F(int(rref[r, len(dom)].p), int(rref[r, len(dom)].q))
            for r, pc in enumerate(pivots) if rref[r, len(dom)]}


def apply(matrix, x):
    out = {}
    for l, q in x.items():
        for y, c in matrix.get(l, {}).items():
            out[y] = out.get(y, 0) + q * c
    return {y: q for y, q in out.items() if q}


@settings(max_examples=30, deadline=None)
@given(maps(), st.data())
@example(({}, [], []), None)
@example(({}, ["b", "a"], []), None)
@example(({"b": {"A": F(1)}}, ["b", "a"], ["B", "A"]), None)
def test_solve_matches_sympy(problem, data):
    """One reduction beside an identity block serves consistent and
    inconsistent right-hand sides alike, each with the answer sympy's
    reduced form of [matrix | rhs] gives; a right-hand side nonzero at a
    label no image reaches is unsolvable."""
    matrix, dom, cod = problem
    solve_for = linalg.solver(matrix, dom)
    if data is None:
        sides = [{}, {"A": F(1)}, {"B": F(1)}, {"Z": F(2)}]
    else:
        sides = [
            apply(matrix, {x: data.draw(ENTRIES) for x in dom})  # consistent
            if data.draw(st.booleans()) else
            {y: data.draw(ENTRIES) for y in data.draw(st.permutations(cod + ["Z"]))[:3]}
            for _ in range(4)]
    for rhs in sides:
        x = solve_for(rhs)
        assert x == sympy_solution(matrix, dom, cod, rhs)
        if x is not None:
            assert apply(matrix, x) == {y: q for y, q in rhs.items() if q}
            assert all(type(q) in (int, F) and q for q in x.values())


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_solver_inverts_square_maps_like_sympy(data):
    """On a square map the unit right-hand sides give the inverse's columns,
    and some unit is unsolvable iff the map is singular."""
    dom = data.draw(orders(st.integers(0, 5)))
    cod = [l.upper() for l in dom]
    images = data.draw(vector_lists(cod, st.just(len(dom))))
    matrix = {x: v for x, v in zip(dom, images) if v}
    solve_for = linalg.solver(matrix, dom)
    inverse = {y: solve_for({y: 1}) for y in cod}
    if not dom:
        assert inverse == {}
        return
    smat = columns(matrix, dom, cod)
    if smat.det() == 0:
        assert None in inverse.values()
    else:
        sinv = smat.inv()
        assert inverse == {y: label_vector(sinv.col(j), dom) for j, y in enumerate(cod)}


def complement_by_rank(inside, candidates, order):
    """The rank-recount rule: keep a candidate iff it raises the rank."""
    def rank(rows):
        return dense(rows, order).rank() if rows and order else 0

    rows = list(inside)
    current = rank(rows)
    chosen = []
    for i, cand in enumerate(candidates):
        r = rank(rows + [cand])
        if r > current:
            rows, current = rows + [cand], r
            chosen.append(i)
    return chosen


@st.composite
def complement_problems(draw):
    """(inside, candidates, order): candidates mix fresh vectors, duplicates
    of earlier candidates, and combinations of the inside vectors."""
    order = draw(orders())
    inside = draw(vector_lists(order, st.integers(0, 4)))
    candidates = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["fresh", "duplicate", "in-span"]))
        if kind == "duplicate" and candidates:
            candidates.append(dict(draw(st.sampled_from(candidates))))
        elif kind == "in-span" and inside:
            coeffs = [draw(ENTRIES) for _ in inside]
            combo = {l: sum((c * v.get(l, 0) for c, v in zip(coeffs, inside)), F(0))
                     for l in order}
            candidates.append({l: q for l, q in combo.items() if q})
        else:
            candidates.append(draw(vector_lists(order, st.just(1)))[0])
    return inside, candidates, order


@settings(max_examples=40, deadline=None)
@given(complement_problems())
def test_independent_matches_rank_recount(problem):
    inside, candidates, order = problem
    assert (linalg.independent(candidates, inside=inside)
            == complement_by_rank(inside, candidates, order))
    units = [{l: 1} for l in order]
    assert (linalg.independent(units, inside=inside)
            == complement_by_rank(inside, units, order))


def test_pivots_follow_the_given_order_not_the_sort_order():
    # d(x) = y1 + y2 with y2 listed first: y2 is the pivot, so y1 is the
    # free label and the remainder of y1 modulo the image is y1 itself
    matrix = {"x": {"y1": F(1), "y2": F(1)}}
    assert linalg.row_reduce([matrix["x"]], ["y2", "y1"]) == {"y2": {"y2": 1, "y1": 1}}
    assert linalg.row_reduce([matrix["x"]], ["y1", "y2"]) == {"y1": {"y1": 1, "y2": 1}}
    transpose = {"y2": {"x": F(1)}, "y1": {"x": F(1)}}
    assert linalg.kernel_basis(transpose, ["y2", "y1"]) == [{"y1": 1, "y2": -1}]
    assert linalg.solver(transpose, ["y2", "y1"])({"x": F(3)}) == {"y2": 3}
    assert linalg.solver(transpose, ["y1", "y2"])({"x": F(3)}) == {"y1": 3}
