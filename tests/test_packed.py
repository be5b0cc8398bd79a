"""Power-series division by a linear form, and the plain product, on packed
exponent ints."""

from fractions import Fraction

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from thomcalc.packed import (
    ExponentPacking,
    divide_by_form,
    divide_exact,
    exact_quotient,
    packed_mul,
)
from thomcalc.poly import Polynomial, cvar, lamvar, linear_form, zvar

Z1, Z2, C1 = zvar(1), zvar(2), cvar(1)
LEADS = st.sampled_from([1, -1, 2, Fraction(-3, 2)])
SMALL = st.integers(-2, 2)
# (exponent of z1, of z2, of c1) -> coefficient; z2 may carry negative powers
TERMS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(-2, 3), st.integers(0, 2)),
    st.integers(-3, 3).filter(bool),
    max_size=5,
)


def _polynomial(terms):
    total = Polynomial.zero()
    for (i, j, k), c in terms.items():
        total = total + Polynomial.term(c, [(Z1, i), (Z2, j), (C1, k)])
    return total


def _series_quotient(t, a, l0, depth):
    """sum_{s <= depth} t * (-l0)^s / (a*z2)^(s+1), in Polynomial arithmetic."""
    over = Polynomial.term(Fraction(1) / a, [(Z2, -1)])
    total, power = Polynomial.zero(), t * over
    for _ in range(depth + 1):
        total = total + power
        power = power * -l0 * over
    return total


def _kept(p, keep):
    return Polynomial({mono: c for mono, c in p.term_map().items() if keep(dict(mono))})


@given(TERMS, LEADS, SMALL, SMALL, st.sampled_from([0, 1, -3, Fraction(1, 2)]), st.integers(-7, 0))
@settings(max_examples=80, deadline=None)
def test_division_is_the_series_quotient_down_to_the_floor(terms, a, b, e, k, low):
    # 1/(a*z2 + b*z1 + e*c1 + k), kept where z2's exponent is at least low
    t = _polynomial(terms)
    packing = ExponentPacking((Z1, Z2, C1), 20)
    form = linear_form((a, Z2), (b, Z1), (e, C1), constant=k)
    got = divide_by_form(packing.terms(t, biased=True), packing, form, packing.half + low)
    l0 = linear_form((b, Z1), (e, C1), constant=k).as_polynomial()
    # the power-s term carries z2 to at most 3 - s - 1
    expected = _series_quotient(t, a, l0, 3 - low)
    assert packing.polynomial(got) == _kept(expected, lambda mono: mono.get(Z2, 0) >= low)


@given(TERMS, LEADS, SMALL.filter(bool), st.integers(-3, 8))
@settings(max_examples=80, deadline=None)
def test_division_is_the_series_quotient_under_a_degree_ceiling(terms, a, b, cap):
    # weights z1: 2, z2: 1, so each power of -b*z1/(a*z2) raises the degree
    # by one and the ceiling alone ends the division
    t = _polynomial(terms)
    weights = {Z1: 2, Z2: 1}
    packing = ExponentPacking((Z1, Z2, C1), 40, weights)
    mask, dshift, half = packing.mask, packing.degree_shift, packing.half
    form = linear_form((a, Z2), (b, Z1))
    got = divide_by_form(
        packing.terms(t, biased=True), packing, form, 0,
        lambda key: (key >> dshift & mask) <= cap + half,
    )
    # the power-s term has degree at least -2 - 1 + s
    expected = _series_quotient(t, a, linear_form((b, Z1)).as_polynomial(), cap + 3)

    def under(mono):
        return sum(e * weights.get(v, 0) for v, e in mono.items()) <= cap

    assert packing.polynomial(got) == _kept(expected, under)


def test_product_drops_the_keys_that_cancel():
    # (1 + x)(x - 1): the two products at x cancel and leave no entry
    assert packed_mul({0: 1, 1: 1}, {1: 1, 0: -1}) == {0: -1, 2: 1}
    assert packed_mul({}, {1: 1}) == {}


def test_exact_quotient_is_an_int_exactly_where_the_quotient_is_integral():
    for c in (0, 6, -7, Fraction(9, 2), Fraction(-4, 1)):
        for lead in (1, -1, 2, Fraction(-3, 2)):
            q = exact_quotient(c, lead)
            assert q == Fraction(c) / lead
            assert type(q) is (int if (Fraction(c) / lead).denominator == 1 else Fraction)


def test_divide_exact_takes_a_biased_dividend_and_gives_a_biased_quotient():
    p = _polynomial({(2, 1, 0): 3, (0, 0, 1): -1})
    q = _polynomial({(1, 0, 0): 2, (0, 1, 1): 1})
    packing = ExponentPacking([Z1, Z2, C1], 4)
    dividend = packing.terms(p * q, biased=True)
    assert divide_exact(packing, dividend, packing.terms(q)) == packing.terms(p, biased=True)


def test_divide_exact_refuses_operands_too_wide_for_the_packing():
    # z_1^5 does not fit fields of three bits: that is no remainder
    packing = ExponentPacking([Z1, lamvar(1)], 3)
    dividend = packing.terms(Polynomial.term(1, [(Z1, 5), (lamvar(1), 1)]), biased=True)
    with pytest.raises(OverflowError, match="outgrows the packing"):
        divide_exact(packing, dividend, packing.terms(Polynomial.variable(Z1)))
    with pytest.raises(OverflowError, match="outgrows the packing"):
        divide_exact(packing, {packing.bias: 1}, packing.terms(Polynomial.term(1, [(Z1, 4)])))
