"""The sparse valuation-elimination kernel against the dense code it replaced.

``dense_smith_valuations`` and ``dense_inverse`` are the elimination loops
that ``smith_valuations`` and ``NovMatrix.inverse`` ran before they shared
``novmat._eliminate``, kept here unchanged as oracles.  They work entry by
entry through ``NovikovElement`` arithmetic, so they pin the pivot rule, the
truncation at the cutoff and the errors of the kernel.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit.errors import NotInvertibleError
from ainfkit.novikov import (
    NovikovElement,
    nov_add,
    nov_invert,
    nov_mul,
    nov_valuation,
)
from ainfkit.novmat import NovMatrix, _eliminate, _mul, _unit_inverse, smith_valuations
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
        best = None
        best_val = None
        for (r, c), v in sorted(work.data.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
            if r in used_rows or c in used_cols or v.is_zero():
                continue
            val = nov_valuation(v)
            if best_val is None or val < best_val:
                best, best_val = (r, c), val
        if best is None:
            break
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


def test_half_cutoff_rule_fails_with_a_negative_energy():
    # Over cy at E = 1 the first pivot is T^-1 at (v1, u0).  Clearing
    # (v0, u0) = 2 takes the factor 2 T^1, which the cutoff keeps at E and
    # drops at E/2, so only at E does (v0, u1) become -2: a divisor 0 <= E/2
    # that the E/2 reduction never sees.  hf_compute relies on energies >= 0.
    mat = NovMatrix(("v0", "v1"), ("u0", "u1"), "cy", F(1))
    for (r, c), lam, q in ((("v0", "u0"), 0, 2), (("v1", "u0"), -1, 1),
                           (("v1", "u1"), -1, -1)):
        mat.set(r, c, NovikovElement.monomial(q, lam, 0, "cy", F(1)))
    assert smith_valuations(mat) == [-1, 0]
    assert smith_valuations(_at(mat, F(1, 2))) == [-1]


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
    # eliminating (r0, c0) appends c1 to r1 after c2; both have valuation 0,
    # and the rule takes c1
    mat = NovMatrix(("r0", "r1"), ("c0", "c1", "c2"), "nov0", 2)
    for key in (("r0", "c0"), ("r0", "c1"), ("r1", "c0"), ("r1", "c2")):
        mat.set(*key, NovikovElement.unit("nov0", 2))
    assert _eliminate(mat)[1] == [("r0", "c0", 0), ("r1", "c1", 0)]


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
