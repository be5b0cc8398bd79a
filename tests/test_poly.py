"""Polynomial core: arithmetic laws, canonical text, JSON, exact division."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from thomcalc import (
    ConstantFormError,
    LinearForm,
    NonDivisibleError,
    Polynomial,
    RationalFunction,
    Variable,
    avar,
    cvar,
    etavar,
    lamvar,
    linear_form,
    poly_divide_exact,
    thvar,
    uhatvar,
    uvar,
    variable_from_text,
    yvar,
    zvar,
)
from thomcalc.poly import expand_inverse_factor


POOL = [cvar(0), cvar(1), cvar(2), zvar(1), zvar(2), avar(-1)]

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def polynomials(draw, pool=POOL, max_terms=4, max_exp=3):
    p = Polynomial.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        pairs = [
            (v, draw(st.integers(1, max_exp)))
            for v in draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
        ]
        p = p + Polynomial.term(draw(coeffs), pairs)
    return p


PLAIN_POOL = [cvar(1), cvar(2), zvar(1)]


def plain_polynomials(**kw):
    return polynomials(pool=PLAIN_POOL, **kw)


# -- variables ---------------------------------------------------------


def test_variables_are_interned():
    assert zvar(3) is zvar(3)
    assert uhatvar(1, 2, 3) is uhatvar(1, 2, 3)
    assert zvar(3) is not zvar(4)


def test_variable_text_round_trip():
    for v in (zvar(7), lamvar(2), thvar(3), etavar(1), yvar(4),
              cvar(0), cvar(12), avar(5), avar(0), avar(-3), uhatvar(1, 2, 3)):
        assert variable_from_text(v.text) is v


def test_bad_indices_rejected():
    with pytest.raises(ValueError):
        zvar(0)
    with pytest.raises(ValueError):
        cvar(-1)
    with pytest.raises(ValueError):
        uhatvar(2, 1, 3)  # needs m <= r
    with pytest.raises(ValueError):
        uvar(2, (1, 1, 1))  # partition heavier than the level
    with pytest.raises(ValueError):
        Variable("w", 1)


def test_u_family_text():
    assert uvar(3, (1, 2)).text == "u[1,2]^3"
    assert uhatvar(1, 1, 2).text == "u_{1,1}^{2}"


# -- arithmetic --------------------------------------------------------


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@given(polynomials())
@settings(max_examples=40, deadline=None)
def test_additive_inverse(p):
    assert (p - p).is_zero()
    assert p + Polynomial.zero() == p
    assert p * Polynomial.one() == p
    assert (p * Polynomial.zero()).is_zero()


def test_zero_coefficients_are_dropped():
    p = Polynomial.term(1, [(cvar(1), 1)]) + Polynomial.term(-1, [(cvar(1), 1)])
    assert p.is_zero()
    assert len(p) == 0
    assert not p


def test_power_matches_repeated_product():
    p = Polynomial.variable(zvar(1)) + Polynomial.one()
    assert p ** 3 == p * p * p
    assert p ** 0 == Polynomial.one()


def test_laurent_exponents():
    p = Polynomial.term(Fraction(3, 2), [(zvar(1), -2), (zvar(2), 1)])
    assert p.exponent_range(zvar(1)) == (-2, -2)
    assert p.exponent_range(zvar(3)) == (0, 0)
    assert p.has_negative_exponent()


# -- canonical display -------------------------------------------------


def test_text_order_is_degree_then_reverse_lex():
    # the binding display convention: higher total degree first, and the
    # c2^2 monomial ahead of c1*c3 inside degree 2
    p = (
        Polynomial.term(9, [(cvar(1), 1), (cvar(3), 1)])
        + Polynomial.term(1, [(cvar(1), 4)])
        + Polynomial.term(2, [(cvar(2), 2)])
        + Polynomial.term(6, [(cvar(4), 1)])
        + Polynomial.term(6, [(cvar(1), 2), (cvar(2), 1)])
    )
    assert p.to_text() == "c1^4 + 6*c1^2*c2 + 2*c2^2 + 9*c1*c3 + 6*c4"


def test_text_signs_and_fractions():
    p = Polynomial.term(Fraction(-1, 2), [(zvar(1), 1)]) + Polynomial.constant(
        Fraction(5, 3)
    )
    assert p.to_text() == "-1/2*z_1 + 5/3"
    assert Polynomial.zero().to_text() == "0"


@given(polynomials())
@settings(max_examples=40, deadline=None)
def test_text_is_deterministic(p):
    assert p.to_text() == p.to_text()


# -- JSON --------------------------------------------------------------


@given(polynomials())
@settings(max_examples=50, deadline=None)
def test_json_round_trip(p):
    assert Polynomial.from_json_dict(p.to_json_dict()) == p
    assert Polynomial.from_json(p.to_json()) == p


def test_json_coefficients_carry_denominators():
    p = Polynomial.term(6, [(cvar(1), 1)])
    payload = p.to_json_dict()
    assert payload["terms"][0]["coeff"] == "6/1"


# -- substitution and evaluation ---------------------------------------


def test_substitute_polynomial_value():
    p = Polynomial.term(1, [(zvar(1), 2)]) + Polynomial.variable(zvar(2))
    q = p.substitute({zvar(1): Polynomial.variable(zvar(2)) + Polynomial.one()})
    z2 = Polynomial.variable(zvar(2))
    assert q == z2 ** 2 + 3 * z2 + Polynomial.one()


@given(polynomials(pool=PLAIN_POOL), coeffs, coeffs, coeffs)
@settings(max_examples=40, deadline=None)
def test_evaluate_agrees_with_substitute(p, x, y, z):
    values = {cvar(1): x, cvar(2): y, zvar(1): z}
    subbed = p.substitute({v: Polynomial.constant(q) for v, q in values.items()})
    assert subbed == Polynomial.constant(p.evaluate(values)) or (
        subbed.is_zero() and p.evaluate(values) == 0
    )


def test_coefficient_slice():
    z1, z2 = zvar(1), zvar(2)
    p = (
        Polynomial.term(2, [(z1, 3), (z2, 1)])
        + Polynomial.term(5, [(z1, 3)])
        + Polynomial.variable(z2)
    )
    got = p.coefficient_slice(z1, 3)
    assert got == 2 * Polynomial.variable(z2) + Polynomial.constant(5)
    assert p.coefficient_slice(z1, 7).is_zero()


# -- linear forms ------------------------------------------------------


def test_linear_form_combines_repeated_variables():
    f = linear_form((2, zvar(1)), (-1, zvar(1)), (1, zvar(2)))
    assert f == linear_form((1, zvar(1)), (1, zvar(2)))
    assert f.coefficient(zvar(1)) == 1
    assert f.coefficient(zvar(3)) == 0


def test_top_z_variable():
    f = linear_form((3, lamvar(1)), (2, zvar(2)), (-1, zvar(1)))
    assert f.top_z_variable() == (zvar(2), Fraction(2))
    with pytest.raises(ConstantFormError):
        linear_form((1, lamvar(1))).top_z_variable()


def test_linear_form_substitute_linear():
    f = linear_form((1, zvar(1)), (1, zvar(2)))
    g = f.substitute_linear({zvar(2): linear_form((2, zvar(1)))})
    assert g == linear_form((3, zvar(1)))


def test_from_polynomial_rejects_higher_degree():
    p = Polynomial.term(1, [(zvar(1), 2)])
    with pytest.raises(ValueError):
        LinearForm.from_polynomial(p)
    f = linear_form((2, zvar(1)), constant=3)
    assert LinearForm.from_polynomial(f.as_polynomial()) == f


def test_linear_form_json_round_trip():
    f = linear_form((2, zvar(1)), (-1, lamvar(2)), constant=Fraction(1, 3))
    assert LinearForm.from_json_dict(f.to_json_dict()) == f


def test_expand_inverse_factor_identity():
    f = linear_form((2, zvar(2)), (1, zvar(1)), constant=0)
    for order in (0, 1, 4):
        series = expand_inverse_factor(f, order)
        err = f.as_polynomial() * series - Polynomial.one()
        # what remains after truncation sits at exponent exactly -(order+1)
        if not err.is_zero():
            lo, hi = err.exponent_range(zvar(2))
            assert hi <= -(order + 1)


def test_expand_inverse_pure_variable():
    f = linear_form((4, zvar(1)))
    series = expand_inverse_factor(f, 3)
    assert series == Polynomial.term(Fraction(1, 4), [(zvar(1), -1)])


# -- exact division ----------------------------------------------------


@given(plain_polynomials(max_terms=3), plain_polynomials(max_terms=3))
@settings(max_examples=50, deadline=None)
def test_divide_product_recovers_factor(p, q):
    if q.is_zero():
        return
    assert poly_divide_exact(p * q, q) == p


def test_divide_rejects_remainder():
    z1 = Polynomial.variable(zvar(1))
    with pytest.raises(NonDivisibleError):
        poly_divide_exact(z1 ** 2 + Polynomial.one(), z1 + Polynomial.one())


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divide_exact(Polynomial.one(), Polynomial.zero())


def test_divide_rejects_laurent():
    p = Polynomial.term(1, [(zvar(1), -1)])
    with pytest.raises(ValueError):
        poly_divide_exact(p, Polynomial.one())


# -- rational functions ------------------------------------------------


def test_adding_the_zero_function_keeps_the_other_denominator():
    z1, z2 = Polynomial.variable(zvar(1)), Polynomial.variable(zvar(2))
    f = RationalFunction(z1, z1 + z2)
    zero = RationalFunction(Polynomial.zero(), z1 - z2)
    assert (f + zero).den == z1 + z2
    assert (zero + f).den == z1 + z2
    assert (f + zero).num == z1
