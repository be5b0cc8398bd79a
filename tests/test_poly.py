"""Polynomial core: arithmetic laws, canonical text, JSON, exact division."""

import json
import random
import re
from fractions import Fraction
from functools import cmp_to_key

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
from thomcalc import poly
from thomcalc.poly import expand_inverse_factor, json_fraction, read_json


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


@pytest.mark.parametrize(
    "family, index, message",
    [
        ("z", True, "expected an integer, got True"),
        ("z", 1.0, "expected an integer, got 1.0"),
        ("z", 0, "z-variables are indexed from 1"),
        ("c", -1, "c-variables are indexed from 0"),
    ],
    ids=["bool", "float", "z-zero", "c-negative"],
)
def test_an_interned_variable_leaves_every_refusal_in_place(family, index, message):
    # True and 1.0 hash and compare like 1, so a lookup keyed on the value
    # alone would hand back z_1
    z1 = zvar(1)
    assert Variable._interned.get((family, index)) is (z1 if index == 1 else None)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Variable(family, index)


@pytest.mark.parametrize(
    "family, index, make, message",
    [
        ("u", (2, (1, True)), lambda: uvar(2, (1, 1)), "expected an integer, got True"),
        ("uhat", (1, 1, 2.0), lambda: uhatvar(1, 1, 2), "expected an integer, got 2.0"),
    ],
    ids=["u-bool-part", "uhat-float-part"],
)
def test_an_interned_tuple_index_leaves_every_refusal_in_place(family, index, make, message):
    # the index compares equal to an interned variable's, part by part
    interned = make()
    assert Variable._interned.get((family, index)) is interned
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Variable(family, index)


def test_an_interned_int_index_skips_the_index_checks(monkeypatch):
    checked = []

    def spy(family, index):
        checked.append((family, index))
        return normalize(family, index)

    normalize = poly._normalize_index
    uhat, u = uhatvar(1, 2, 3), uvar(3, (1, 2))
    monkeypatch.setattr(poly, "_normalize_index", spy)
    assert Variable("z", 1) is zvar(1) and checked == []
    with pytest.raises(ValueError):
        Variable("z", True)
    assert checked == [("z", True)]
    # an interned index of exact ints in tuples skips them too; a list part
    # is still checked
    assert Variable("uhat", (1, 2, 3)) is uhat and Variable("u", (3, (1, 2))) is u
    assert checked == [("z", True)]
    assert Variable("u", (3, [1, 2])) is u
    assert checked[1:] == [("u", (3, [1, 2]))]


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


def _grevlex_cmp(a, b):
    """Graded reverse lex on monomial tuples, written as a comparator:
    positive when a is the larger monomial."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return 1 if da > db else -1
    # scan from the largest variable down; the first differing exponent
    # decides, and the smaller exponent wins
    i, j = len(a) - 1, len(b) - 1
    while i >= 0 or j >= 0:
        if i >= 0 and (j < 0 or a[i][0].key > b[j][0].key):
            diff = a[i][1]
            i -= 1
        elif j >= 0 and (i < 0 or b[j][0].key > a[i][0].key):
            diff = -b[j][1]
            j -= 1
        else:
            diff = a[i][1] - b[j][1]
            i -= 1
            j -= 1
        if diff:
            return 1 if diff < 0 else -1
    return 0


# two or three variables of every family, a-indices below zero included
EVERY_FAMILY = [
    zvar(1), zvar(3), lamvar(1), lamvar(2), thvar(2), etavar(1), etavar(4),
    yvar(1), yvar(6), cvar(0), cvar(2), avar(-2), avar(0), avar(3),
    uvar(2, (1,)), uvar(3, (1, 2)), uvar(4, (1, 1, 2)),
    uhatvar(1, 1, 2), uhatvar(1, 2, 4), uhatvar(2, 2, 4),
]


def test_term_order_is_the_graded_reverse_lex_comparator():
    rng = random.Random(17)
    for _ in range(400):
        p = Polynomial.zero()
        for _ in range(rng.randint(0, 12)):
            pool = rng.sample(EVERY_FAMILY, rng.randint(2, 6))
            pairs = [(v, rng.randint(-3, 3)) for v in rng.sample(pool, rng.randint(0, len(pool)))]
            p = p + Polynomial.term(rng.randint(1, 5), pairs)
        expected = sorted(p.term_map(), key=cmp_to_key(_grevlex_cmp), reverse=True)
        assert [mono for mono, _ in p.terms()] == expected


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
    "repeated-row": (
        _reshaped(Z_VARS, [[1, 0, 0], [1, 0, 0], [0, 0, 1]]),
        r"exps \[1, 0, 0\] appear in two rows",
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


def test_json_zero_denominator_is_refused():
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        json_fraction("1/0")
    with pytest.raises(ValueError, match="zero denominator in '2/0'"):
        LinearForm.from_json_dict({"constant": "2/0"})


@pytest.mark.parametrize("text", ["1e3", "-2E-5", "1e10000000"])
def test_json_exponent_notation_is_refused(text):
    # Fraction would build 10^(10^7) from "1e10000000"
    message = f"exponent notation in '{text}'; write the coefficient as p/q"
    with pytest.raises(ValueError, match=message):
        json_fraction(text)


def test_json_decimal_string_is_read():
    assert json_fraction("0.5") == Fraction(1, 2)


def test_a_variable_name_that_is_not_a_string_is_refused():
    with pytest.raises(ValueError, match="expected a variable name, got 5"):
        variable_from_text(5)


@pytest.mark.parametrize(
    "alias", ["z_01", "c03", "c(3", "c3)", "c(3)", "a-1", "a(2)", " z_1", "z_1 ", "z_1\n"]
)
def test_a_variable_name_is_read_only_as_its_own_text(alias):
    # read as z_1, c3, a(-1) or a2, an alias would let two JSON keys name
    # one variable, and one of their values would be silently dropped
    with pytest.raises(ValueError, match="cannot parse variable"):
        variable_from_text(alias)


def test_json_coefficients_carry_denominators():
    p = Polynomial.term(6, [(cvar(1), 1)])
    payload = p.to_json_dict()
    assert payload["terms"][0]["coeff"] == "6/1"
    assert type(p.term_map()[((cvar(1), 1),)]) is int
    half = Polynomial.term(Fraction(-1, 2), [(cvar(1), 1)]) + Polynomial.constant(Fraction(4, 2))
    assert [t["coeff"] for t in half.to_json_dict()["terms"]] == ["-1/2", "2/1"]
    form = linear_form((Fraction(6, 3), zvar(1)), (Fraction(1, 2), zvar(2)), constant=-3)
    assert form.to_json_dict() == {"constant": "-3/1", "coeffs": {"z_1": "2/1", "z_2": "1/2"}}


# -- the coefficient convention ----------------------------------------


def _follows_the_convention(coefficient) -> bool:
    return type(coefficient) is int or (
        type(coefficient) is Fraction and coefficient.denominator > 1
    )


def _stores_the_convention(p: Polynomial) -> bool:
    return all(map(_follows_the_convention, p.term_map().values()))


def test_an_integral_coefficient_is_stored_as_an_int():
    z1 = zvar(1)
    assert Polynomial.constant(Fraction(4, 2)).term_map() == {(): 2}
    assert type(Polynomial.constant(Fraction(4, 2)).term_map()[()]) is int
    p = Polynomial.term(3, [(z1, 2)]) + Polynomial.variable(z1) + Polynomial.one()
    halved = p * Fraction(1, 2)
    assert halved.term_map()[((z1, 1),)] == Fraction(1, 2)
    assert halved * 2 == p
    assert all(type(c) is int for c in (halved * 2).term_map().values())
    assert all(type(c) is int for c in (halved + halved).term_map().values())
    assert type((halved * (Polynomial.variable(z1) * 2)).term_map()[((z1, 2),)]) is int


scalars = st.one_of(st.integers(-6, 6), coeffs)


@given(
    polynomials(), polynomials(min_exp=-3), scalars, scalars, scalars.filter(bool), laurent_terms
)
@settings(max_examples=60, deadline=None)
def test_every_route_stores_ints_exactly_where_a_coefficient_is_integral(p, q, s, t, u, term):
    results = [
        p,
        q,
        Polynomial.constant(s),
        Polynomial.term(s, [(zvar(1), 2)]),
        Polynomial({(): s, ((cvar(1), 1),): t}),
        p + q,
        p - q,
        s - p,
        -q,
        q * s,
        t * (q * s),
        p * q,
        (p * t) * (q * s),
        p ** 2,
        p.substitute({zvar(1): q, cvar(1): s}),
        q.substitute({avar(-1): term, cvar(2): u}),
        Polynomial.from_json_dict(json.loads(json.dumps((q * s).to_json_dict()))),
    ]
    assert all(map(_stores_the_convention, results))


@given(scalars, scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_linear_forms_store_ints_exactly_where_a_coefficient_is_integral(a, b, c, k):
    z1, z2 = zvar(1), zvar(2)
    f = linear_form((a, z1), (b, z2), (c, z1), constant=k)
    g = LinearForm(b, {z1: c, z2: a})
    forms = [f, g, f.minus(g), g.minus(f), LinearForm.from_json_dict(f.to_json_dict())]
    for form in forms:
        assert _follows_the_convention(form.constant)
        assert all(_follows_the_convention(q) for _, q in form.items)
        assert all(_follows_the_convention(form.coefficient(v)) for v in (z1, z2, zvar(3)))
    assert f == LinearForm(Fraction(k), {z1: Fraction(a) + c, z2: Fraction(b)})
    assert hash(f) == hash(LinearForm(Fraction(k), {z1: Fraction(a) + c, z2: Fraction(b)}))


def test_a_linear_form_keeps_ints_where_halves_cancel():
    z1, z2 = zvar(1), zvar(2)
    f = linear_form((Fraction(3, 2), z1), (Fraction(1, 2), z2), constant=Fraction(1, 2))
    g = f.minus(linear_form((Fraction(1, 2), z1), (Fraction(1, 2), z2), constant=Fraction(-1, 2)))
    assert g.items == ((z1, 1),) and type(g.coefficient(z1)) is int
    assert g.constant == 1 and type(g.constant) is int
    assert g.coefficient(z2) == 0 and type(g.coefficient(z2)) is int


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


def test_evaluate_is_exact_at_a_negative_power_of_an_int():
    z1 = zvar(1)
    value = Polynomial.term(1, [(z1, -2)]).evaluate({z1: 3})
    assert value == Fraction(1, 9) and type(value) is Fraction
    # ints in, ints throughout, and still a Fraction out
    value = Polynomial.term(2, [(z1, 3)]).evaluate({z1: 3})
    assert value == 54 and type(value) is Fraction
    assert type(Polynomial.zero().evaluate({})) is Fraction


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

