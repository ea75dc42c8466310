from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit import (
    NovikovElement,
    nov_add,
    nov_flavor_check,
    nov_invert,
    nov_mul,
    nov_sub,
    nov_valuation,
)
from ainfkit.errors import IncompatibleRingError, NotInvertibleError
from ainfkit.novikov import as_fraction, format_term, parse_term

E = F(10)


def mono(c, lam, mu, flavor="nov", cutoff=E):
    return NovikovElement.monomial(c, lam, mu, flavor, cutoff)


def test_like_terms_combine():
    a = mono(1, F(1, 2), 0)
    assert nov_add(a, a) == mono(2, F(1, 2), 0)


def test_additive_identity_and_cancellation():
    x = NovikovElement.make([(3, 1, 2), (F(1, 3), 0, 0)], "nov", E)
    zero = NovikovElement.zero("nov", E)
    assert nov_add(x, zero) == x
    assert nov_add(mono(1, 3, 1), mono(-1, 3, 1)).is_zero()


def test_product_of_monomials():
    a, b = mono(2, F(1, 2), 1), mono(3, F(3, 2), -2)
    assert nov_mul(a, b) == mono(6, 2, -1)


def test_product_truncates_at_cutoff():
    a = mono(1, 6, 0, cutoff=F(10))
    b = mono(1, 5, 0, cutoff=F(10))
    assert nov_mul(a, b).is_zero()


def test_one_minus_t_times_one_plus_t():
    one = NovikovElement.unit("nov0", E)
    t = mono(1, 1, 0, "nov0")
    assert nov_mul(nov_sub(one, t), nov_add(one, t)) == nov_sub(one, nov_mul(t, t))


def test_flavor_mismatch_raises():
    with pytest.raises(IncompatibleRingError):
        nov_add(mono(1, 0, 0, "nov"), mono(1, 0, 0, "nov0"))
    with pytest.raises(IncompatibleRingError):
        nov_mul(mono(1, 0, 0, "nov", E), mono(1, 0, 0, "nov", F(5)))


def test_valuation():
    a = NovikovElement.make([(3, F(1, 2), 0), (1, 2, 0)], "nov0", E)
    assert nov_valuation(a) == F(1, 2)
    assert nov_valuation(NovikovElement.zero("nov", E)) == float("inf")
    assert nov_valuation(mono(5, 0, -3)) == 0


def test_invert_geometric_series():
    one = NovikovElement.unit("nov0", F(3))
    t = mono(1, 1, 0, "nov0", F(3))
    inv = nov_invert(nov_sub(one, t))
    expect = NovikovElement.make([(1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0)], "nov0", F(3))
    assert inv == expect
    # derived check: multiply back and compare with 1 mod F^{>3}
    assert nov_mul(nov_sub(one, t), inv) == one


def test_invert_errors_and_monomials():
    with pytest.raises(NotInvertibleError):
        nov_invert(mono(1, 1, 0, "cy0"))
    with pytest.raises(NotInvertibleError):
        nov_invert(NovikovElement.zero("nov", E))
    assert nov_invert(mono(1, 1, 2, "nov")) == mono(1, -1, -2, "nov")
    # several e-powers at the leading energy level have no inverse
    bad = NovikovElement.make([(1, 0, 1), (1, 0, 2)], "nov", E)
    with pytest.raises(NotInvertibleError):
        nov_invert(bad)


def test_flavor_check_diagnostics():
    half = mono(1, F(1, 2), 0, "nov0")
    assert len(nov_flavor_check(half, "novN")) == 1
    te = mono(1, 2, 1, "nov0")
    assert len(nov_flavor_check(te, "cy0")) == 1
    tminus = mono(1, -1, 0, "nov")
    assert nov_flavor_check(tminus, "novZ") == []


def test_flavor_constraints_enforced_on_construction():
    with pytest.raises(ValueError):
        mono(1, -1, 0, "nov0")
    with pytest.raises(ValueError):
        mono(1, 0, 1, "cy")
    with pytest.raises(ValueError):
        mono(1, F(1, 2), 0, "novZ")


def test_term_encoding_round_trip():
    text = format_term(F(3, 2), F(-1, 4), -2)
    assert text == "3/2*T^(-1/4)*e^(-2)"
    assert parse_term(text) == (F(3, 2), F(-1, 4), -2)


def test_as_fraction_is_the_canonical_form():
    got = [as_fraction(x) for x in (F(4, 2), F(3, 2), -5, "7", "6/4", "-8/4", "0.25")]
    assert got == [2, F(3, 2), -5, 7, F(3, 2), -2, F(1, 4)]
    assert [type(x) for x in got] == [int, F, int, int, F, int, F]
    for bad in (0.5, 1.0, True):
        with pytest.raises(TypeError):
            as_fraction(bad)


@pytest.mark.parametrize("text", ["1e3", "1.5e3", "2E-1", "1e1000000"])
def test_as_fraction_refuses_exponent_notation(text):
    # a few characters of exponent would stand for an integer of any length
    with pytest.raises(ValueError, match="exponent notation"):
        as_fraction(text)


def test_integral_terms_are_ints():
    # 1/2 + 1/2 meets in one term: a sum over 1 is an int
    a = NovikovElement.make([(F(1, 2), F(2, 2), 0), (F(1, 2), 1, 0), ("3", "1/2", 1)],
                            "nov", "5")
    assert a.terms == ((3, F(1, 2), 1), (1, 1, 0)) and type(a.cutoff) is int
    assert [type(x) for c, lam, _ in a.terms for x in (c, lam)] == [int, F, int, int]
    assert [type(x) for x in parse_term("4/2*T^(3)*e^(0)")] == [int, int, int]


# -- ring axioms mod cutoff on random term triples --------------------------

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
energies = st.fractions(min_value=0, max_value=3, max_denominator=4)


@st.composite
def elements(draw):
    terms = draw(st.lists(
        st.tuples(rationals, energies, st.integers(-2, 2)), max_size=4))
    return NovikovElement.make(terms, "nov0", F(3))


@given(elements(), elements(), elements())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert nov_add(a, b) == nov_add(b, a)
    assert nov_mul(a, b) == nov_mul(b, a)
    assert nov_add(nov_add(a, b), c) == nov_add(a, nov_add(b, c))
    assert nov_mul(nov_mul(a, b), c) == nov_mul(a, nov_mul(b, c))
    assert nov_mul(a, nov_add(b, c)) == nov_add(nov_mul(a, b), nov_mul(a, c))


@given(elements(), elements())
@settings(max_examples=60, deadline=None)
def test_valuation_multiplicative(a, b):
    va, vb = nov_valuation(a), nov_valuation(b)
    if a.is_zero() or b.is_zero() or va + vb > F(3):
        return
    assert nov_valuation(nov_mul(a, b)) == va + vb


@given(elements(), elements())
@settings(max_examples=40, deadline=None)
def test_filtration_product_law(a, b):
    # a in F^va, b in F^vb implies ab in F^{va+vb}
    prod = nov_mul(a, b)
    if prod.is_zero():
        return
    assert nov_valuation(prod) >= nov_valuation(a) + nov_valuation(b)


def test_grading_odd_pieces_vanish():
    # every term has internal degree 2*mu: there is no odd term to build
    a = NovikovElement.make([(1, 0, 1), (2, 1, -3)], "nov", E)
    assert all(2 * mu % 2 == 0 for _, _, mu in a.terms)


def test_e_shift_is_degree_two_bijection():
    a = NovikovElement.make([(1, 0, 0), (2, 1, 1), (3, 2, -1)], "nov", E)
    shifted = a.shift(0, 3)
    assert len(shifted.terms) == len(a.terms)
    assert {(c, l, m + 3) for c, l, m in a.terms} == set(shifted.terms)
