"""Polynomial core: arithmetic laws, canonical text, JSON, exact division."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from thomcalc import (
    ConstantFormError,
    LinearForm,
    NonDivisibleError,
    Polynomial,
    UnassignedVariableError,
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
from thomcalc.poly import expand_inverse_factor, read_json


POOL = [cvar(0), cvar(1), cvar(2), zvar(1), zvar(2), avar(-1)]

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def polynomials(draw, pool=POOL, max_terms=4, min_exp=1, max_exp=3):
    p = Polynomial.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        pairs = [
            (v, draw(st.integers(min_exp, max_exp).filter(bool)))
            for v in draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
        ]
        p = p + Polynomial.term(draw(coeffs), pairs)
    return p


laurent_terms = st.builds(
    lambda c, v, e: Polynomial.term(c, [(v, e)]),
    coeffs.filter(bool),
    st.sampled_from(POOL),
    st.integers(-3, 3),
)
points = st.fixed_dictionaries(
    {v: st.fractions(min_value=-4, max_value=4, max_denominator=4).filter(bool) for v in POOL}
)


PLAIN_POOL = [cvar(1), cvar(2), zvar(1)]


def plain_polynomials(**kw):
    return polynomials(pool=PLAIN_POOL, **kw)


# -- variables ---------------------------------------------------------


def test_variables_are_interned():
    assert zvar(3) is zvar(3)
    assert uhatvar(1, 2, 3) is uhatvar(1, 2, 3)
    assert zvar(3) is not zvar(4)


def test_every_route_to_a_variable_returns_the_interned_object():
    # Variable defines no value equality: identity is the only equality,
    # so every constructor and reader must hand back the one object
    z1 = Variable("z", 1)
    assert zvar(1) is z1
    assert variable_from_text("z_1") is z1
    assert Variable.from_json(zvar(1).to_json()) is z1
    assert uvar(3, [1, 2]) is uvar(3, (1, 2))
    u = uhatvar(1, 2, 4)
    assert variable_from_text("u_{1,2}^{4}") is u
    assert Variable.from_json(u.to_json()) is u


def test_json_round_trip_keeps_the_interned_variables():
    z1, u = zvar(1), uhatvar(1, 2, 4)
    p = Polynomial.term(3, [(z1, 2), (u, -1)]) + Polynomial.variable(uvar(3, (1, 2)))
    read = Polynomial.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
    assert read == p
    variables = [v for mono in read.term_map() for v, _ in mono]
    assert {v.text for v in variables} == {z1.text, u.text, "u[1,2]^3"}
    assert all(v is Variable(v.family, v.index) for v in variables)
    assert any(v is z1 for v in variables) and any(v is u for v in variables)


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: zvar(1.9),
        lambda: cvar(Fraction(2)),
        lambda: zvar(True),
        lambda: uhatvar(1, 1, 2.5),
        lambda: uvar(3.0, (1, 1)),
        lambda: uvar(3, (1, 1.0)),
    ],
    ids=["float", "fraction", "bool", "uhat-float", "u-level-float", "u-part-float"],
)
def test_an_index_that_is_not_an_int_is_refused(make):
    with pytest.raises(ValueError, match="integer"):
        make()


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


@given(polynomials(min_exp=-3), polynomials(min_exp=-3), points)
@settings(max_examples=60, deadline=None)
def test_product_evaluates_to_the_product_of_values(p, q, pt):
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


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
    assert p.term_map() == {((zvar(1), -2), (zvar(2), 1)): Fraction(3, 2)}
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
    assert Polynomial.from_json_dict(read_json(json.dumps(p.to_json_dict()))) == p


Z_VARS = [{"family": "z", "index": i} for i in (1, 2, 4)]


def _reshaped(vars_list, rows, coeffs=("2/1", "1/1", "-1/1")):
    return {"vars": vars_list, "terms": [{"coeff": c, "exps": e} for c, e in zip(coeffs, rows)]}


# 2*z1 + z2 - z4 with one entry malformed, and the refusal each gets;
# none may be cut, rounded or merged
MALFORMED_POLYNOMIALS = {
    "row-too-long": (
        _reshaped(Z_VARS, [[1, 0, 0, 3], [0, 1, 0], [0, 0, 1]]),
        "do not match the 3 vars",
    ),
    "row-too-short": (
        _reshaped(Z_VARS, [[1, 0, 0], [0, 1], [0, 0, 1]]),
        "do not match the 3 vars",
    ),
    "fractional-exponent": (
        _reshaped(Z_VARS, [[1, 0, 0], [0, 1, 0], [0, 0, 1.9]]),
        "expected an integer, got 1.9",
    ),
    "repeated-variable": (
        _reshaped(Z_VARS + Z_VARS[2:], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        "repeated variable",
    ),
    "float-coefficient": (
        _reshaped(Z_VARS, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], coeffs=(0.1, "1/1", "-1/1")),
        "got 0.1",
    ),
    "fractional-variable-index": (
        _reshaped(Z_VARS[:2] + [{"family": "z", "index": 4.5}], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        "expected an integer, got 4.5",
    ),
}


def test_json_well_formed_sample_reads():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    z1, z2, z4 = (Polynomial.variable(zvar(i)) for i in (1, 2, 4))
    read = Polynomial.from_json_dict(_reshaped(Z_VARS, rows, (2, "1", "-1/1")))
    assert read == 2 * z1 + z2 - z4


@pytest.mark.parametrize("case", sorted(MALFORMED_POLYNOMIALS))
def test_json_malformed_polynomial_is_refused(case):
    payload, refusal = MALFORMED_POLYNOMIALS[case]
    with pytest.raises(ValueError, match=refusal):
        Polynomial.from_json_dict(payload)


@pytest.mark.parametrize(
    "payload",
    [{"constant": "0/1", "coeffs": {"z_1": 0.1}}, {"constant": 0.1, "coeffs": {"z_1": "1/1"}}],
)
def test_json_float_linear_form_coefficient_is_refused(payload):
    with pytest.raises(ValueError, match="got 0.1"):
        LinearForm.from_json_dict(payload)


def test_json_repeated_key_is_refused():
    text = '{"vars": [{"family": "z", "index": 1}], "terms": [], "terms": [%s]}' % (
        '{"coeff": "1/1", "exps": [1]}'
    )
    with pytest.raises(ValueError, match="repeated key 'terms'"):
        read_json(text)


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


@given(
    polynomials(min_exp=-3), st.sampled_from(POOL), polynomials(min_exp=-3), laurent_terms, points
)
@settings(max_examples=60, deadline=None)
def test_substitute_then_evaluate_is_evaluate_at_the_value(p, x, q, term, pt):
    # a negative power of x can only take a single-term value
    value = term if any(v is x and e < 0 for v, e in p.exponent_pairs()) else q
    assert p.substitute({x: value}).evaluate(pt) == p.evaluate({**pt, x: value.evaluate(pt)})


def test_substitute_into_negative_powers():
    z1, z2, z3 = zvar(1), zvar(2), zvar(3)
    p = Polynomial.term(Fraction(3, 2), [(z1, -2), (z2, 1)])
    p = p + Polynomial.term(1, [(z1, 1), (z2, 1)])
    q = p.substitute({z1: Polynomial.term(2, [(z3, 1)])})
    assert q.to_text() == "2*z_2*z_3 + 3/8*z_2*z_3^-2"
    with pytest.raises(ValueError, match="more than one term"):
        p.substitute({z1: Polynomial.variable(z3) + Polynomial.one()})
    with pytest.raises(ZeroDivisionError, match="substituting 0 for z_1"):
        p.substitute({z1: 0})


def test_evaluate_names_a_variable_missing_from_a_later_term():
    z1, c1 = zvar(1), cvar(1)
    p = Polynomial.term(1, [(z1, 2)]) + Polynomial.term(3, [(z1, 2), (c1, 1)])
    assert list(p.term_map())[0] == ((z1, 2),)  # c_1 only in the second term
    with pytest.raises(UnassignedVariableError, match="c1"):
        p.evaluate({z1: 2})


def test_evaluate_negative_exponents():
    z1, z2 = zvar(1), zvar(2)
    p = Polynomial.term(Fraction(3, 2), [(z1, -2), (z2, 1)])
    p = p + Polynomial.term(1, [(z1, -1)]) + Polynomial.term(1, [(z1, -2)])
    # 3/2 * 1/4 * (-3) + 1/2 + 1/4
    assert p.evaluate({z1: 2, z2: -3}) == Fraction(-3, 8)
    with pytest.raises(ZeroDivisionError):
        p.evaluate({z1: 0, z2: 1})


@given(polynomials(pool=PLAIN_POOL), coeffs, coeffs, coeffs)
@settings(max_examples=40, deadline=None)
def test_evaluate_agrees_with_substitute(p, x, y, z):
    values = {cvar(1): x, cvar(2): y, zvar(1): z}
    subbed = p.substitute({v: Polynomial.constant(q) for v, q in values.items()})
    assert subbed == Polynomial.constant(p.evaluate(values)) or (
        subbed.is_zero() and p.evaluate(values) == 0
    )


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


def test_linear_form_json_round_trip():
    f = linear_form((2, zvar(1)), (-1, lamvar(2)), constant=Fraction(1, 3))
    assert LinearForm.from_json_dict(f.to_json_dict()) == f


def test_expand_inverse_factor_identity():
    f = linear_form((2, zvar(2)), (1, zvar(1)), constant=0)
    for order in (0, 1, 4):
        series = expand_inverse_factor(f, order)
        err = f.as_polynomial() * series - Polynomial.one()
        # what remains after truncation sits at exponent exactly -(order+1)
        assert all(dict(mono).get(zvar(2), 0) <= -(order + 1) for mono in err.term_map())


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


def test_divide_stops_when_the_remainder_outgrows_the_dividend():
    # y2^3 leaves y1^2*y2^2, then y1^4*y2: past every exponent of the inputs
    y1, y2 = Polynomial.variable(yvar(1)), Polynomial.variable(yvar(2))
    with pytest.raises(NonDivisibleError, match="outgrows the exponents of the dividend"):
        poly_divide_exact(y2 ** 3, y2 - y1 ** 2)


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divide_exact(Polynomial.one(), Polynomial.zero())


def test_divide_rejects_laurent():
    p = Polynomial.term(1, [(zvar(1), -1)])
    with pytest.raises(ValueError):
        poly_divide_exact(p, Polynomial.one())

