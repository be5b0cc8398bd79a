"""Residue engines: series extraction, exact pole sums, vanishing certificates."""

from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from thomcalc import (
    CoincidentPoleError,
    ConstantFormError,
    NonDivisibleError,
    Polynomial,
    ResidueProblem,
    TruncationUnstableError,
    cvar,
    fraction_sum,
    iterated_residue,
    lamvar,
    linear_form,
    residue_by_pole_sum,
    ronga_reference,
    shift_check,
    thom_polynomial,
    vanishing_criterion,
    zvar,
)
from thomcalc.residue import _add, _factors_deg_in_subset, _monic, deg_in_subset, lead_count

Z1, Z2, Z3 = zvar(1), zvar(2), zvar(3)


def form(*pairs, constant=0):
    return linear_form(*pairs, constant=constant)


# -- the series engine -------------------------------------------------


def test_pure_pole_product():
    # 1/(z1 z2 z3) picks up one sign flip per variable
    num = Polynomial.term(1, [(Z1, -1), (Z2, -1), (Z3, -1)])
    problem = ResidueProblem(num, variables=(Z1, Z2, Z3))
    assert iterated_residue(problem) == Polynomial.constant(-1)


def test_single_variable_series_factor():
    series = (
        Polynomial.variable(cvar(0))
        + Polynomial.term(1, [(cvar(1), 1), (Z1, -1)])
        + Polynomial.term(1, [(cvar(2), 1), (Z1, -2)])
    )
    problem = ResidueProblem(
        Polynomial.one(), per_variable_series={Z1: series}, variables=(Z1,)
    )
    assert iterated_residue(problem) == -Polynomial.variable(cvar(1))


def test_asymmetry_of_nesting():
    # 1/(z1 (z1+z2)) is nonzero even though each variable alone looks tame
    num = Polynomial.one()
    factors = ((form((1, Z1)), 1), (form((1, Z1), (1, Z2)), 1))
    problem = ResidueProblem(num, factors, variables=(Z1, Z2))
    assert iterated_residue(problem) == Polynomial.one()
    # and the certificate rightly refuses to certify it
    assert not vanishing_criterion([num], factors, 1, 2)
    assert not vanishing_criterion([num], factors, 2, 2)


def test_double_factor_vanishes_with_certificate():
    num = Polynomial.one()
    factors = ((form((1, Z1)), 1), (form((1, Z1), (1, Z2)), 2))
    problem = ResidueProblem(num, factors, variables=(Z1, Z2))
    assert iterated_residue(problem).is_zero()
    assert vanishing_criterion([num], factors, 2, 2)


def test_truncation_instability_is_detected():
    # the z2-slice first appears at expansion order 3; a base order of 2
    # misses it while the validation order catches it
    num = Polynomial.term(1, [(Z1, -4), (Z2, 3)])
    factors = ((form((1, Z1), (1, Z2)), 1),)
    problem = ResidueProblem(num, factors, variables=(Z1, Z2))
    with pytest.raises(TruncationUnstableError):
        iterated_residue(problem, order=2)
    stable = iterated_residue(problem, order=3)
    assert stable == Polynomial.constant(-1)


def test_listed_order_does_not_change_the_regime():
    # the expansion regime is |z1| << |z2| however the variables are listed
    num = Polynomial.term(1, [(Z1, 2), (Z2, 1)])
    factors = (
        (form((1, Z1), constant=-1), 1),
        (form((1, Z2), (-1, Z1), constant=-2), 1),
        (form((1, Z2), constant=-5), 1),
    )
    results = [
        iterated_residue(ResidueProblem(num, factors, variables=order))
        for order in ((Z1, Z2), (Z2, Z1))
    ]
    assert results == [Polynomial.one(), Polynomial.one()]


def test_policy_validation():
    # the order budget is the truncation policy; a negative one is refused
    problem = ResidueProblem(Polynomial.one(), ((form((1, Z1)), 1),), variables=(Z1,))
    with pytest.raises(ValueError):
        iterated_residue(problem, order=-1)


def test_deep_slice_needs_no_order():
    # the z2-slice needs power 10 of the factor, deeper than any guessed order
    num = Polynomial.term(1, [(Z1, -11), (Z2, 10)])
    factors = ((form((1, Z1), (1, Z2)), 1),)
    problem = ResidueProblem(num, factors, variables=(Z1, Z2))
    assert iterated_residue(problem) == Polynomial.one()


def test_exponents_past_sixteen_bits():
    # z1^-(n+1) z2^n / (z1 + z2) needs power n of the factor; with n past
    # 2^16 the exponents outgrow any fixed field width a packing could pick
    factors = ((form((1, Z1), (1, Z2)), 1),)
    for n in (2**16 + 1, 2**16 + 2):
        num = Polynomial.term(1, [(Z1, -(n + 1)), (Z2, n)])
        problem = ResidueProblem(num, factors, variables=(Z1, Z2))
        assert iterated_residue(problem) == Polynomial.constant((-1) ** n)


def test_classes_at_large_codim():
    # the Chern series windows reach z-exponents -152 at (2, 150) and -131
    # at (3, 64), past a signed 8-bit field, over 300 and 196 Chern symbols
    assert thom_polynomial(2, 150) == ronga_reference(150)
    assert shift_check(3, 64)


# -- problem construction and serialization ----------------------------


def test_problem_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ResidueProblem(Polynomial.one(), variables=(lamvar(1),))
    with pytest.raises(ValueError):
        ResidueProblem(Polynomial.one(), variables=(Z1, Z1))
    with pytest.raises(ValueError):
        ResidueProblem(
            Polynomial.one(), ((form((1, Z2)), 1),), variables=(Z1,)
        )
    with pytest.raises(ConstantFormError):
        ResidueProblem(
            Polynomial.one(), ((form((1, lamvar(1))), 1),), variables=(Z1,)
        )
    with pytest.raises(ValueError):
        ResidueProblem(Polynomial.variable(Z2), variables=(Z1,))
    with pytest.raises(ValueError):
        ResidueProblem(
            Polynomial.one(),
            per_variable_series={Z1: Polynomial.variable(Z2)},
            variables=(Z1, Z2),
        )


def test_problem_json_round_trip():
    series = Polynomial.variable(cvar(0)) + Polynomial.term(1, [(cvar(1), 1), (Z1, -1)])
    problem = ResidueProblem(
        Polynomial.term(2, [(Z1, 1), (Z2, 1)]),
        ((form((1, Z1), (1, Z2)), 2), (form((1, Z1), (-1, lamvar(1))), 1)),
        per_variable_series={Z1: series},
        variables=(Z1, Z2),
    )
    back = ResidueProblem.from_json_dict(problem.to_json_dict())
    assert back.numerator == problem.numerator
    assert back.denominator_factors == problem.denominator_factors
    assert back.per_variable_series == problem.per_variable_series
    assert back.variables == problem.variables
    assert iterated_residue(back) == iterated_residue(problem)


def test_problem_json_refuses_a_fractional_multiplicity():
    obj = ResidueProblem(
        Polynomial.one(), ((form((1, Z1)), 1),), variables=(Z1,)
    ).to_json_dict()
    obj["denominator_factors"][0]["mult"] = 1.8
    with pytest.raises(ValueError, match="integer"):
        ResidueProblem.from_json_dict(obj)


def test_problem_refuses_a_zero_multiplicity():
    with pytest.raises(ValueError, match="nonzero"):
        ResidueProblem(Polynomial.one(), ((form((1, Z1)), 0),), variables=(Z1,))


SIGNED_POOL = [
    form((1, Z1), constant=-1),
    form((1, Z1), (1, Z2)),
    form((1, Z2), (-1, Z1), constant=2),
    form((1, Z2), constant=3),
    form((2, Z1), (1, Z2), (-1, Z3)),
    form((1, Z3), (1, lamvar(1))),
    form((1, Z3), (-1, Z1), constant=-1),
]


@given(
    st.lists(
        st.tuples(st.integers(-2, 1), st.integers(-2, 1), st.integers(-2, 1), st.integers(-3, 3)),
        min_size=1, max_size=4,
    ),
    st.lists(st.tuples(st.sampled_from(SIGNED_POOL), st.integers(1, 2)), min_size=1, max_size=4),
    st.sampled_from(SIGNED_POOL),
    st.integers(1, 3),
    st.integers(0, 4),
)
@settings(max_examples=100, deadline=None)
def test_a_negative_multiplicity_multiplies_the_numerator(terms, factors, f, m, order):
    num = Polynomial.zero()
    for a, b, c, coeff in terms:
        num = num + Polynomial.term(coeff, [(Z1, a), (Z2, b), (Z3, c)])
    signed = ResidueProblem(num, (*factors, (f, -m)), variables=(Z1, Z2, Z3))
    expanded = ResidueProblem(num * f.as_polynomial() ** m, factors, variables=(Z1, Z2, Z3))

    def outcome(problem, budget):
        try:
            return iterated_residue(problem, budget)
        except TruncationUnstableError as err:
            return str(err)

    for budget in (None, order):
        assert outcome(signed, budget) == outcome(expanded, budget)


@pytest.mark.parametrize("mult", [Fraction(3, 2), 1.0, True])
def test_problem_refuses_a_multiplicity_that_is_not_an_int(mult):
    with pytest.raises(ValueError, match="integer"):
        ResidueProblem(Polynomial.one(), ((form((1, Z1)), mult),), variables=(Z1,))


# -- the exact pole sum ------------------------------------------------


def test_pole_sum_agrees_with_series_engine():
    num = Polynomial.term(1, [(Z1, 2), (Z2, 1)])
    numeric_forms = [
        form((1, Z1), constant=-1),
        form((1, Z1), constant=-3),
        form((1, Z2), constant=-2),
        form((1, Z2), constant=-5),
    ]
    by_poles = residue_by_pole_sum(num, numeric_forms, (Z1, Z2))
    problem = ResidueProblem(
        num, tuple((f, 1) for f in numeric_forms), variables=(Z1, Z2)
    )
    assert by_poles == iterated_residue(problem)


def test_pole_sum_coincident_roots():
    with pytest.raises(CoincidentPoleError):
        residue_by_pole_sum(
            Polynomial.one(),
            [form((1, Z1), constant=-1), form((2, Z1), constant=-2)],
            (Z1,),
        )


@given(
    st.integers(0, 3),
    st.integers(0, 2),
    st.lists(
        st.sampled_from([Fraction(1), Fraction(2), Fraction(-1), Fraction(5, 2), Fraction(-3)]),
        min_size=1, max_size=4, unique=True,
    ),
)
@settings(max_examples=40, deadline=None)
def test_backends_agree_on_numeric_roots(a, b, roots):
    num = Polynomial.term(1, [(Z1, a)]) + Polynomial.term(b + 1, [(Z1, b)])
    forms = [form((1, Z1), constant=-r) for r in roots]
    by_poles = residue_by_pole_sum(num, forms, (Z1,))
    series = iterated_residue(
        ResidueProblem(num, tuple((f, 1) for f in forms), variables=(Z1,))
    )
    assert by_poles == series


ROOTS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(5)])


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)),
        min_size=1, max_size=3,
    ),
    st.lists(ROOTS, max_size=2, unique=True),
    st.lists(ROOTS, max_size=2, unique=True),
    st.lists(ROOTS, max_size=2, unique=True),
)
@settings(max_examples=200, deadline=None)
def test_two_variable_backends_agree(terms, r_roots, s_roots, t_roots):
    # the z2 - z1 - t factors are not homogeneous in z: while one remains,
    # the series engine may bound the total z-degree from below only
    num = Polynomial.zero()
    for a, b, c in terms:
        num = num + Polynomial.term(c, [(Z1, a), (Z2, b)])
    forms = [form((1, Z1), constant=-r) for r in r_roots]
    forms += [form((1, Z2), constant=-s) for s in s_roots]
    forms += [form((1, Z2), (-1, Z1), constant=-t) for t in t_roots]
    try:
        by_poles = residue_by_pole_sum(num, forms, (Z1, Z2))
    except CoincidentPoleError:
        assume(False)
    series = iterated_residue(
        ResidueProblem(num, tuple((f, 1) for f in forms), variables=(Z1, Z2))
    )
    assert by_poles == series


# -- the exact sum of fractions ---------------------------------------

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
FRACTION_VARS = (Z1, Z2, lamvar(1))


@st.composite
def nonzero_forms(draw):
    # non-monic leads and nonzero constant forms included
    support = draw(st.lists(st.sampled_from(FRACTION_VARS), unique=True))
    f = form(*((draw(SMALL), v) for v in support), constant=draw(SMALL))
    assume(not f.is_zero())
    return f


@st.composite
def plain_numerators(draw):
    num = Polynomial.zero()
    for _ in range(draw(st.integers(0, 3))):
        support = draw(st.lists(st.sampled_from(FRACTION_VARS), max_size=2, unique=True))
        num = num + Polynomial.term(draw(SMALL), [(v, draw(st.integers(1, 2))) for v in support])
    return num


@given(st.lists(st.tuples(plain_numerators(), st.lists(nonzero_forms(), max_size=3)), max_size=3))
@settings(max_examples=60, deadline=None)
def test_fraction_sum_of_cleared_fractions_is_the_sum_of_numerators(pairs):
    terms = [
        (num * prod((f.as_polynomial() for f in forms), start=Polynomial.one()), forms)
        for num, forms in pairs
    ]
    expected = sum((num for num, _ in pairs), Polynomial.zero())
    assert fraction_sum(terms) == expected


def test_a_zero_numerator_adds_no_forms():
    f, g = form((1, Z1), (1, Z2)), form((1, Z1), (-1, Z2))
    z1 = Polynomial.variable(Z1)
    kept = _monic(z1, [f])
    zero = _monic(Polynomial.zero(), [g])
    assert _add(kept, zero) == (z1, Counter([f]))
    assert _add(zero, kept) == (z1, Counter([f]))
    assert fraction_sum([(z1 * f.as_polynomial(), [f]), (Polynomial.zero(), [g])]) == z1


def test_fraction_sum_rejects_a_proper_fraction():
    with pytest.raises(NonDivisibleError):
        fraction_sum([(Polynomial.one(), [form((1, Z1), (-1, Z2))])])


# -- degree bookkeeping ------------------------------------------------


def test_deg_in_subset():
    p = Polynomial.term(1, [(Z1, 2), (Z2, 1)]) + Polynomial.term(1, [(Z2, 4)])
    assert deg_in_subset(p, [2]) == 4
    assert deg_in_subset(p, [1, 2]) == 4
    assert deg_in_subset(p, [1]) == 2
    cancel = Polynomial.term(1, [(Z1, 1)]) - Polynomial.term(1, [(Z2, 1)])
    assert deg_in_subset(cancel, [1]) == 1
    assert deg_in_subset(cancel, [1, 2]) == float("-inf")


def test_factors_deg_in_subset():
    # z_1, z_2 go to t, z_3 to 1, and lambda_1 stays a symbol
    subset = {1, 2}
    lam1 = lamvar(1)
    cases = [
        (form((1, Z1)), 1),
        (form((1, Z1), (-1, Z2)), float("-inf")),
        (form((1, Z1), (-1, Z2), (1, lam1)), 0),
        (form((1, Z1), (-1, Z2), (1, Z3)), 0),
        (form((1, Z3)), 0),
    ]
    for f, expected in cases:
        assert _factors_deg_in_subset([(f, 1)], subset) == expected
    # multiplicities add; one factor without a term in the subset kills the product
    z1_squared = (form((1, Z1)), 2)
    assert _factors_deg_in_subset([z1_squared, (form((1, Z3)), 1)], subset) == 2
    assert _factors_deg_in_subset([z1_squared, (cases[1][0], 1)], subset) == float("-inf")


def test_lead_count():
    factors = (
        (form((2, Z1), (-1, Z2)), 1),
        (form((1, Z1), (1, Z2), (-1, Z3)), 1),
        (form((2, Z1), (-1, Z3)), 1),
    )
    assert lead_count(factors, 3) == 2
    assert lead_count(factors, 2) == 1
    assert lead_count(factors, 1) == 0


FACTOR_POOL = [
    form((1, Z1)),
    form((1, Z2)),
    form((1, Z1), (1, Z2)),
    form((2, Z1), (1, Z2)),
    form((1, Z1), (2, Z2)),
]


@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.lists(
        st.tuples(st.sampled_from(FACTOR_POOL), st.integers(1, 2)),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
def test_certified_vanishing_is_sound(a, b, factors):
    # whenever the certificate fires at some position, the residue is zero
    num = Polynomial.term(1, [(Z1, a), (Z2, b)])
    factors = tuple(factors)
    if not any(vanishing_criterion([num], factors, l, 2) for l in (1, 2)):
        return
    problem = ResidueProblem(num, factors, variables=(Z1, Z2))
    assert iterated_residue(problem).is_zero()
