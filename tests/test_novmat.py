"""The sparse valuation-elimination kernels against dense oracles.

``dense_inverse`` is the elimination loop that ``NovMatrix.inverse`` ran
before ``novmat._eliminate``, kept unchanged.  ``dense_smith_valuations`` is
the dense Smith loop with the pivot rule of ``novmat._smith_pivots`` (least
valuation, then least fill, then names); ``dense_smith_valuations_by_name``
is the same loop with the earlier rule (least valuation, then names).  They
work entry by entry through ``NovikovElement`` arithmetic, so they pin the
pivot rule, the truncation at the cutoff and the errors of the kernels.
"""

import random
from collections import Counter
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit import novmat
from ainfkit.errors import NotInvertibleError
from ainfkit.novikov import (
    NovikovElement,
    nov_add,
    nov_invert,
    nov_mul,
    nov_valuation,
)
from ainfkit.novmat import NovMatrix, _mul, _smith_pivots, _unit_inverse, smith_valuations
from conftest import is_canonical_rational


# ---------------------------------------------------------------------------
# the dense oracles

def dense_inverse(self) -> "NovMatrix":
    """Gauss elimination with minimal-valuation pivoting.

    Requires a square matrix whose energy-0 part is invertible; raises
    NotInvertibleError otherwise.
    """
    if set(self.rows) != set(self.cols) and len(self.rows) != len(self.cols):
        raise NotInvertibleError("matrix is not square")
    n = len(self.rows)
    work = self.copy()
    aug = NovMatrix.identity(self.rows, self.flavor, self.cutoff)
    # map output coordinates: inverse has rows = self.cols, cols = self.rows
    used_rows, used_cols = set(), set()
    pivots = []
    for _ in range(n):
        best = None
        for (r, c), v in sorted(work.data.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
            if r in used_rows or c in used_cols or v.is_zero():
                continue
            val = nov_valuation(v)
            if val != 0:
                continue
            best = (r, c)
            break
        if best is None:
            raise NotInvertibleError("energy-0 part is not invertible")
        r0, c0 = best
        inv = nov_invert(work.get(r0, c0))
        for c in list(work.cols):
            work.set(r0, c, nov_mul(work.get(r0, c), inv))
        for c in list(aug.cols):
            aug.set(r0, c, nov_mul(aug.get(r0, c), inv))
        for r in self.rows:
            if r == r0:
                continue
            f = work.get(r, c0)
            if f.is_zero():
                continue
            for c in list(work.cols):
                work.set(r, c, nov_add(work.get(r, c), nov_mul(f, work.get(r0, c)).scale(-1)))
            for c in list(aug.cols):
                aug.set(r, c, nov_add(aug.get(r, c), nov_mul(f, aug.get(r0, c)).scale(-1)))
        used_rows.add(r0)
        used_cols.add(c0)
        pivots.append((r0, c0))
    out = NovMatrix(self.cols, self.rows, self.flavor, self.cutoff)
    for r0, c0 in pivots:
        for c in aug.cols:
            v = aug.get(r0, c)
            if not v.is_zero():
                out.data[(c0, c)] = v
    return out


def dense_smith_valuations(matrix: NovMatrix):
    """Valuation-aware Smith reduction that pivots on the live entry of least
    (valuation v, (rows with an entry of valuation v in its column - 1) *
    (entries of valuation v in its row - 1), str(row), str(col)), counted on
    the live submatrix."""
    return _dense_smith(matrix, least_fill=True)


def dense_smith_valuations_by_name(matrix: NovMatrix):
    """Valuation-aware Smith reduction that pivots on the live entry of least
    (valuation, str(row), str(col))."""
    return _dense_smith(matrix, least_fill=False)


def _dense_smith(matrix: NovMatrix, least_fill):
    """Valuation-aware Smith reduction: pivot on entries of minimal valuation,
    eliminate with ratios that stay in the valuation ring, and return the
    sorted list of diagonal valuations.  The rank is the list's length.

    Over unit flavors this is plain elimination (every nonzero entry is a
    unit); over 0-flavors the diagonal entries are T^v up to units, and the
    positive v's are the torsion exponents of the cokernel.
    """
    work = matrix.copy()
    used_rows, used_cols = set(), set()
    divisors = []
    while True:
        live = {(r, c): nov_valuation(v) for (r, c), v in
                sorted(work.data.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
                if r not in used_rows and c not in used_cols and not v.is_zero()}
        if not live:
            break
        least = min(live.values())
        level = [rc for rc, val in live.items() if val == least]
        in_col, in_row = Counter(c for _, c in level), Counter(r for r, _ in level)

        def key(rc):
            fill = (in_col[rc[1]] - 1) * (in_row[rc[0]] - 1) if least_fill else 0
            return live[rc], fill, str(rc[0]), str(rc[1])

        best = min(live, key=key)
        best_val = live[best]
        r0, c0 = best
        pivot = work.get(r0, c0)
        # pivot = T^v * u with u a valuation-0 unit: normalize the row by u^{-1}
        unit = NovikovElement.make(
            ((coeff, lam - best_val, mu) for coeff, lam, mu in pivot.terms),
            work.flavor, work.cutoff,
        )
        unit_inv = nov_invert(unit)
        for c in work.cols:
            if c == c0 or (r0, c) not in work.data:
                continue
            work.set(r0, c, nov_mul(work.get(r0, c), unit_inv))
        work.set(r0, c0, NovikovElement.monomial(1, best_val, 0, work.flavor, work.cutoff))
        tpow_neg = best_val
        for r in work.rows:
            if r == r0 or r in used_rows:
                continue
            a = work.get(r, c0)
            if a.is_zero():
                continue
            # factor = a / T^v, valuation >= 0 because the pivot was minimal
            factor = NovikovElement.make(
                ((coeff, lam - tpow_neg, mu) for coeff, lam, mu in a.terms),
                work.flavor, work.cutoff,
            )
            for c in work.cols:
                if c in used_cols:
                    continue
                val = nov_add(work.get(r, c), nov_mul(factor, work.get(r0, c)).scale(-1))
                work.set(r, c, val)
        # column elimination is implicit: remaining rows now have 0 in c0;
        # entries of the pivot ROW in other columns no longer meet live rows.
        used_rows.add(r0)
        used_cols.add(c0)
        divisors.append(best_val)
    return sorted(divisors)


# ---------------------------------------------------------------------------
# random matrices over every flavor

FLAVORS = ("nov", "nov0", "cy", "cy0", "novZ", "novN")
UNIT_FLAVORS = ("nov", "cy", "novZ")


@st.composite
def matrices(draw, square=False, negative=True):
    """1-5 x 1-5 matrices with 1-3 terms per entry: e-powers where the
    flavor has them, negative energies on unit flavors when ``negative``,
    and with ``square`` often a unit at energy 0 on a permutation."""
    flavor = draw(st.sampled_from(FLAVORS))
    cutoff = draw(st.sampled_from([F(1), F(3, 2), F(2), F(5, 2), F(3)]))
    energies = [F(0), F(1, 2), F(1), F(3, 2), F(2), F(3)]
    if negative and flavor in UNIT_FLAVORS:
        energies += [F(-1), F(-1, 2)]
    if flavor in ("novZ", "novN"):
        energies = [lam for lam in energies if lam.denominator == 1]
    mus = [0] if flavor in ("cy", "cy0") else [-1, 0, 0, 1]
    n = draw(st.integers(1, 5))
    m = n if square else draw(st.integers(1, 5))
    rows = tuple(f"r{i}" for i in range(n))
    cols = rows if square and draw(st.booleans()) else tuple(f"c{j}" for j in range(m))
    terms = {}
    for r in rows:
        for c in cols:
            if draw(st.booleans()):
                terms[(r, c)] = draw(st.lists(
                    st.tuples(st.sampled_from([-2, -1, 1, 2, 3]), st.sampled_from(energies),
                              st.sampled_from(mus)), min_size=1, max_size=3))
    if square and draw(st.booleans()):
        perm = draw(st.permutations(range(n)))
        for i, j in enumerate(perm):
            terms.setdefault((rows[i], cols[j]), []).append((draw(st.sampled_from([1, -2])), 0, 0))
    mat = NovMatrix(rows, cols, flavor, cutoff)
    for (r, c), t in terms.items():
        mat.set(r, c, NovikovElement.make(t, flavor, cutoff))
    return mat


def _outcome(fn, mat):
    try:
        return fn(mat)
    except NotInvertibleError:
        return "NotInvertibleError"


def _nonnegative(mat):
    return all(lam >= 0 for v in mat.data.values() for _, lam, _ in v.terms)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_smith_valuations_match_dense_oracle(mat):
    assert _outcome(smith_valuations, mat) == _outcome(dense_smith_valuations, mat)


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_inverse_matches_dense_oracle(mat):
    got = _outcome(NovMatrix.inverse, mat)
    want = _outcome(dense_inverse, mat)
    if want == "NotInvertibleError":
        assert got == want
        return
    assert (got.rows, got.cols, got.data) == (want.rows, want.cols, want.data)
    # with a negative energy F^{>E} is not an ideal, so truncated products
    # need not give the identity
    if _nonnegative(mat):
        assert mat.matmul(got).data == NovMatrix.identity(mat.rows, mat.flavor, mat.cutoff).data
        assert got.matmul(mat).data == NovMatrix.identity(mat.cols, mat.flavor, mat.cutoff).data


def _at(mat, cutoff):
    return NovMatrix(mat.rows, mat.cols, mat.flavor, cutoff,
                     {key: v.retag(cutoff=cutoff) for key, v in mat.data.items()})


@settings(max_examples=200, deadline=None)
@given(matrices(negative=False))
def test_divisors_at_half_cutoff_are_the_small_divisors(mat):
    """With every energy >= 0 a Smith form mod F^{>E} reduces to one mod
    F^{>E/2}: the rule behind HF's stabilization flag."""
    divisors = _outcome(smith_valuations, mat)
    half = mat.cutoff / 2
    if divisors != "NotInvertibleError":
        assert smith_valuations(_at(mat, half)) == [v for v in divisors if v <= half]


def test_a_two_e_power_pivot_is_met_at_both_cutoffs_or_neither():
    # At E = 1, (r1, c0) has valuation 1 and puts a second row in column c0;
    # at E/2 it is gone.  A fill count over every entry would then take
    # (r0, c1) first at E and (r0, c0), whose leading level has two
    # e-powers, at E/2.  Counting only the entries of least valuation takes
    # (r0, c0) at both cutoffs.
    mat = NovMatrix(("r0", "r1"), ("c0", "c1"), "nov", F(1))
    for (r, c), terms in ((("r0", "c0"), [(-2, F(1, 2), -1), (-2, F(1, 2), 0)]),
                          (("r0", "c1"), [(-2, F(1, 2), -1)]),
                          (("r1", "c0"), [(-2, 1, -1)])):
        mat.set(r, c, NovikovElement.make(terms, "nov", F(1)))
    for cutoff in (F(1), F(1, 2)):
        with pytest.raises(NotInvertibleError):
            smith_valuations(_at(mat, cutoff))


def test_half_cutoff_rule_fails_with_a_negative_energy():
    # Over cy at E = 1 the first pivot is 2 T^-1 at (v0, u0).  Clearing
    # (v1, u0) = 2 takes the factor 2 T^1, which the cutoff keeps at E and
    # drops at E/2, so (v1, u1) becomes 4 - 4 = 0 at E and stays 4 at E/2: a
    # divisor 0 <= E/2 that the E reduction never sees.  hf_compute relies on
    # energies >= 0.
    mat = NovMatrix(("v0", "v1"), ("u0", "u1"), "cy", F(1))
    for (r, c), lam in ((("v0", "u0"), -1), (("v0", "u1"), -1),
                        (("v1", "u0"), 0), (("v1", "u1"), 0)):
        mat.set(r, c, NovikovElement.monomial(2, lam, 0, "cy", F(1)))
    assert smith_valuations(mat) == [-1]
    assert smith_valuations(_at(mat, F(1, 2))) == [-1, 0]


# ---------------------------------------------------------------------------
# canonical rationals: an int when integral, otherwise a Fraction

@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_divisors_and_inverse_entries_are_canonical_rationals(mat):
    found = []
    divisors, inv = _outcome(smith_valuations, mat), _outcome(NovMatrix.inverse, mat)
    if divisors != "NotInvertibleError":
        found += divisors
    if inv != "NotInvertibleError":
        found += [x for v in inv.data.values() for c, lam, _ in v.terms for x in (c, lam)]
    assert all(is_canonical_rational(x) for x in found), found


def test_inverse_of_an_integral_entry_keeps_int_coefficients():
    # the inverse of the leading coefficient multiplies, so 1 / 1 is no float
    x = NovikovElement.make([(1, 0, 0), (2, 1, 0)], "nov0", 3)
    inv = NovMatrix(("r",), ("c",), "nov0", 3, {("r", "c"): x}).inverse()
    terms = inv.get("c", "r").terms
    assert terms == ((1, 0, 0), (-2, 1, 0), (4, 2, 0), (-8, 3, 0))
    assert all(type(x) is int for term in terms for x in term)


# ---------------------------------------------------------------------------
# rows over one common denominator: coefficients whose denominators meet

COEFFS = [F(1, 2), F(-1, 2), F(2, 3), F(-2, 3), 3, -5]


@st.composite
def denominator_matrices(draw, square=False):
    """6-10-row matrices over nov0 or nov with coefficients in COEFFS, about
    half the entries set, so that the pivots divide by 2, 3 and 5 and the
    rows' denominators grow and cancel.  With ``square`` the matrix is often
    a unit at energy 0 on a permutation plus terms of positive energy, which
    is invertible."""
    flavor = draw(st.sampled_from(["nov0", "nov"]))
    cutoff = draw(st.sampled_from([F(3, 2), F(2), F(3)]))
    unit_part = square and draw(st.booleans())
    energies = [F(1, 2), 1, F(3, 2), 2] + ([] if unit_part else [0])
    energies += [F(-1, 2)] if flavor == "nov" and not unit_part else []
    n = draw(st.integers(6, 10))
    m = n if square else draw(st.integers(6, 10))
    rows = tuple(f"r{i}" for i in range(n))
    cols = tuple(f"c{j}" for j in range(m))
    terms = {}
    for r in rows:
        for c in cols:
            if draw(st.booleans()):
                terms[(r, c)] = draw(st.lists(
                    st.tuples(st.sampled_from(COEFFS), st.sampled_from(energies),
                              st.sampled_from([-1, 0, 0, 1])), min_size=1, max_size=2))
    if unit_part:
        for i, j in enumerate(draw(st.permutations(range(n)))):
            terms.setdefault((rows[i], cols[j]), []).append((draw(st.sampled_from(COEFFS)), 0, 0))
    mat = NovMatrix(rows, cols, flavor, cutoff)
    for (r, c), t in terms.items():
        mat.set(r, c, NovikovElement.make(t, flavor, cutoff))
    return mat


@settings(max_examples=40, deadline=None)
@given(denominator_matrices())
def test_smith_valuations_with_denominators_match_dense_oracle(mat):
    assert _outcome(smith_valuations, mat) == _outcome(dense_smith_valuations, mat)


@settings(max_examples=25, deadline=None)
@given(denominator_matrices(square=True))
def test_inverse_with_denominators_matches_dense_oracle(mat):
    got = _outcome(NovMatrix.inverse, mat)
    want = _outcome(dense_inverse, mat)
    if want == "NotInvertibleError":
        assert got == want
        return
    assert (got.rows, got.cols, got.data) == (want.rows, want.cols, want.data)
    if _nonnegative(mat):
        assert mat.matmul(got).data == NovMatrix.identity(mat.rows, mat.flavor, mat.cutoff).data


@st.composite
def units(draw):
    """(u, top): a valuation-0 integer entry {(n, mu): int} with one term at
    energy 0, and the energy cutoff."""
    top = draw(st.integers(0, 12))
    m0 = draw(st.integers(-1, 1))
    u = {(0, m0): draw(st.sampled_from([1, -1, 2, -3, 5, 6]))}
    for _ in range(draw(st.integers(0, 4))):
        u[(draw(st.integers(1, 5)), draw(st.integers(-1, 1)))] = draw(
            st.sampled_from([1, -1, 2, -2, 3, 7]))
    return u, top


@settings(max_examples=200, deadline=None)
@given(units())
def test_recurrence_inverse_times_its_unit_is_one(unit):
    # mod F^{>E}: every energy is >= 0, so truncated products are exact
    u, top = unit
    w, d = _unit_inverse(u, top)
    assert d > 0 and all(type(x) is int for x in w.values())
    assert _mul(u, w, top) == {(0, 0): d}


def test_recurrence_inverse_refuses_a_leading_level_of_two_monomials():
    with pytest.raises(NotInvertibleError):
        _unit_inverse({(0, 0): 1, (0, 1): 1, (1, 0): 2}, 3)


def test_pivot_ties_go_to_the_least_column_name_after_a_row_changes():
    # eliminating (r0, c0) appends c1 to r1 after c2; both have valuation 1
    # and fill 0, and the rule takes c1
    mat = NovMatrix(("r0", "r1"), ("c0", "c1", "c2"), "nov0", 2)
    for (r, c), lam in ((("r0", "c0"), 0), (("r0", "c1"), 1),
                        (("r1", "c0"), 0), (("r1", "c2"), 1)):
        mat.set(r, c, NovikovElement.monomial(1, lam, 0, "nov0", 2))
    assert _smith_pivots(mat) == [("r0", "c0", 0), ("r1", "c1", 1)]


def test_pivots_take_the_least_fill_before_the_least_name():
    # every entry is a unit; (r0, c0) would fill, (r0, c1) and (r1, c2) would not
    mat = NovMatrix(("r0", "r1"), ("c0", "c1", "c2"), "nov0", 2)
    for key in (("r0", "c0"), ("r0", "c1"), ("r1", "c0"), ("r1", "c2")):
        mat.set(*key, NovikovElement.unit("nov0", 2))
    assert _smith_pivots(mat) == [("r0", "c1", 0), ("r1", "c0", 0)]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_pivot_order_matters_only_with_a_negative_energy_or_an_e_power_tie(mat):
    """With energies >= 0 and leading levels that are monomials a Smith form
    does not depend on the pivot order; a leading level of two e-powers
    makes some orders raise, and a negative energy breaks the ideal F^{>E}.
    Over cy and cy0 there are no e-powers, and the orders always agree."""
    by_fill = _outcome(dense_smith_valuations, mat)
    by_name = _outcome(dense_smith_valuations_by_name, mat)
    if mat.flavor in ("cy", "cy0") or (
            _nonnegative(mat) and "NotInvertibleError" not in (by_fill, by_name)):
        assert by_fill == by_name


def permuted_unit_triangle(seed, n=8, cutoff=F(2)):
    """Block A of the mc-hf benchmark: an upper-triangular cy0 matrix with a
    rational unit on the diagonal and c + c' T^lam above it, its rows and
    columns permuted."""
    rng = random.Random(seed)
    row_of, col_of = rng.sample(range(n), n), rng.sample(range(n), n)
    mat = NovMatrix(tuple(f"r{i}" for i in range(n)), tuple(f"c{j}" for j in range(n)),
                    "cy0", cutoff)
    coeffs = [-3, -1, 1, 2, F(1, 2), F(-2, 3)]
    for i in range(n):
        for j in range(i, n):
            terms = [(rng.choice(coeffs), 0, 0)]
            if j > i:
                terms.append((rng.choice(coeffs), rng.choice([F(1, 3), F(1, 2), 1]), 0))
            mat.set(f"r{row_of[i]}", f"c{col_of[j]}", NovikovElement.make(terms, "cy0", cutoff))
    return mat


@pytest.mark.parametrize("seed", range(5))
def test_a_permuted_unit_triangle_takes_no_product(seed):
    # least fill pivots on a column or a row of one entry, so no row is updated
    mat = permuted_unit_triangle(seed)
    with mock.patch.object(novmat, "_mul", side_effect=novmat._mul) as mul:
        assert smith_valuations(mat) == [0] * 8
    assert mul.call_count == 0


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_smith_reduction_never_inverts_a_unit(mat):
    with mock.patch.object(novmat, "_unit_inverse", side_effect=AssertionError):
        _outcome(smith_valuations, mat)


def dense_nov0(seed, n=24, cutoff=F(3)):
    """A dense n x n nov0 matrix with up to three terms per entry, rarely at
    energy 0, so the Smith divisors are not all 0."""
    rng = random.Random(seed)
    rows = tuple(f"r{i}" for i in range(n))
    cols = tuple(f"c{j}" for j in range(n))
    mat = NovMatrix(rows, cols, "nov0", cutoff)
    for r in rows:
        for c in cols:
            terms = [(rng.choice([-5, -2, -1, 1, 2, 3, F(1, 2), F(-2, 3)]),
                      rng.choice([0] + [F(1, 2), 1, F(3, 2), 2, F(5, 2), 3] * 8), 0)
                     for _ in range(rng.randint(1, 3))]
            mat.set(r, c, NovikovElement.make(terms, "nov0", cutoff))
    return mat


def test_dense_24x24_divisors_are_unchanged():
    # recorded with the Fraction kernel that the integer rows replaced
    assert smith_valuations(dense_nov0(1)) == [0] * 11 + [F(1, 2)] * 13
