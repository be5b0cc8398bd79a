"""Residue engines: series extraction, exact pole sums, vanishing certificates."""

from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from thomcalc import (
    CoincidentPoleError,
    ConstantFormError,
    LinearForm,
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
from thomcalc.packed import ExponentPacking
from thomcalc.poly import expand_inverse_factor
from thomcalc.residue import _add, _monic, deg_in_subset

Z1, Z2, Z3 = zvar(1), zvar(2), zvar(3)


def form(*pairs, constant=0):
    return linear_form(*pairs, constant=constant)


# -- the series engine -------------------------------------------------


def test_pure_pole_product():
    # 1/(z1 z2 z3) picks up one sign flip per variable
    num = Polynomial.term(1, [(Z1, -1), (Z2, -1), (Z3, -1)])
    problem = ResidueProblem(num, variables=(Z1, Z2, Z3))
    assert iterated_residue(problem) == Polynomial.constant(-1)


def test_a_problem_without_variables_has_its_numerator_as_residue():
    numerator = Polynomial.term(Fraction(3, 2), [(cvar(1), -2), (lamvar(1), 1)]) + 5
    problem = ResidueProblem(numerator)
    assert iterated_residue(problem) == numerator
    assert iterated_residue(problem, order=0) == numerator


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
    assert not vanishing_criterion(problem, 1)
    assert not vanishing_criterion(problem, 2)


def test_double_factor_vanishes_with_certificate():
    num = Polynomial.one()
    factors = ((form((1, Z1)), 1), (form((1, Z1), (1, Z2)), 2))
    problem = ResidueProblem(num, factors, variables=(Z1, Z2))
    assert iterated_residue(problem).is_zero()
    assert vanishing_criterion(problem, 2)


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
    problem = ResidueProblem(
        num, tuple((f, 1) for f in numeric_forms), variables=(Z1, Z2)
    )
    assert residue_by_pole_sum(problem) == iterated_residue(problem)


def test_pole_sum_skips_a_removable_pole():
    # the raised z2 - 1 equals a denominator form, so the branch at z2 = 1 is
    # 0; at z2 = 2 the raised z2 is the nonzero constant 2 and must stay
    poles = [form((1, Z2), constant=-1), form((1, Z2), constant=-2)]
    poles += [form((1, Z1), constant=-3), form((1, Z1), constant=-5)]
    factors = [(f, 1) for f in poles]
    factors += [(form((1, Z2), constant=-1), -1), (form((1, Z2)), -1)]
    problem = ResidueProblem(Polynomial.variable(Z1), factors, variables=(Z1, Z2))
    by_poles = residue_by_pole_sum(problem)
    assert by_poles == iterated_residue(problem)
    assert not by_poles.is_zero()


def test_pole_sum_packing_holds_the_sums_denominator():
    # the six differences of the four roots are pairwise apart, so the sum's
    # denominator has C(4, 2) monic forms and the exact division forms
    # exponents of l_1 and l_3 past the numerator's degree 6
    l1, l2, l3 = lamvar(1), lamvar(2), lamvar(3)
    poles = [
        form((1, Z1), (-1, l2)),
        form((1, Z1), (-2, l1), (1, l3)),
        form((1, Z1), (-1, l1), (-1, l3)),
        form((1, Z1), (2, l1), (-2, l3)),
    ]
    problem = ResidueProblem(
        Polynomial.term(1, [(Z1, 6)]), [(f, 1) for f in poles], variables=(Z1,)
    )
    assert residue_by_pole_sum(problem) == iterated_residue(problem)


def test_pole_sum_coincident_roots():
    poles = ((form((1, Z1), constant=-1), 1), (form((2, Z1), constant=-2), 1))
    with pytest.raises(CoincidentPoleError, match="poles in z_1 coincide at 1"):
        residue_by_pole_sum(ResidueProblem(Polynomial.one(), poles, variables=(Z1,)))
    double = ((form((1, Z1), constant=-1), 2),)
    with pytest.raises(CoincidentPoleError, match="multiplicity 2"):
        residue_by_pole_sum(ResidueProblem(Polynomial.one(), double, variables=(Z1,)))
    series = ResidueProblem(
        Polynomial.one(), per_variable_series={Z1: Polynomial.variable(cvar(1))}, variables=(Z1,)
    )
    with pytest.raises(ValueError, match="per-variable series"):
        residue_by_pole_sum(series)
    # a constant form divides by zero: refused before either route runs
    with pytest.raises(ConstantFormError):
        ResidueProblem(Polynomial.one(), ((LinearForm(0), 1),), variables=(Z1,))


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
    problem = ResidueProblem(num, tuple((f, 1) for f in forms), variables=(Z1,))
    assert residue_by_pole_sum(problem) == iterated_residue(problem)


ROOTS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(5)])
# numerator forms a*z1 + b*z2 + r at multiplicity -1 or -2
RAISED = st.lists(
    st.tuples(
        st.sampled_from([(1, 0), (0, 1), (1, -1), (2, 1)]), ROOTS, st.sampled_from([-1, -2])
    ),
    max_size=2,
)
# leading coefficients of the denominator forms
LEADS = st.sampled_from([1, 2, Fraction(3, 2)])


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)),
        min_size=1, max_size=3,
    ),
    st.lists(ROOTS, max_size=2, unique=True),
    st.lists(ROOTS, max_size=2, unique=True),
    st.lists(ROOTS, max_size=2, unique=True),
    RAISED,
    st.sampled_from([(Z1, Z2), (Z2, Z1)]),
    st.tuples(LEADS, LEADS),
)
@settings(max_examples=200, deadline=None)
def test_two_variable_backends_agree(terms, r_roots, s_roots, t_roots, raised, variables, leads):
    # the lead*z2 - z1 - t factors are not homogeneous in z: while one
    # remains, the series engine may bound the total z-degree from below
    # only; both routes take z2 first whatever the listed order
    num = Polynomial.zero()
    for a, b, c in terms:
        num = num + Polynomial.term(c, [(Z1, a), (Z2, b)])
    r_lead, t_lead = leads
    forms = [form((r_lead, Z1), constant=-r) for r in r_roots]
    forms += [form((1, Z2), constant=-s) for s in s_roots]
    forms += [form((t_lead, Z2), (-1, Z1), constant=-t) for t in t_roots]
    factors = [(f, 1) for f in forms]
    factors += [(form((a, Z1), (b, Z2), constant=r), m) for (a, b), r, m in raised]
    problem = ResidueProblem(num, factors, variables=variables)
    try:
        by_poles = residue_by_pole_sum(problem)
    except CoincidentPoleError:
        assume(False)
    assert by_poles == iterated_residue(problem)


# roots r + sigma*l_1, sigma in {-1, 0, 1}
SYMBOLIC_ROOTS = st.tuples(ROOTS, st.sampled_from([-1, 0, 1]))
# z1^a z2^(n - a) l1^b, total z-degree n up to 5
NUMERATOR_TERMS = st.lists(
    st.tuples(
        st.integers(0, 5).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))),
        st.integers(0, 1),
        st.integers(-3, 3),
    ),
    min_size=1, max_size=3,
)


@given(
    NUMERATOR_TERMS,
    st.lists(SYMBOLIC_ROOTS, max_size=2, unique=True),
    st.lists(SYMBOLIC_ROOTS, max_size=2, unique=True),
    st.lists(SYMBOLIC_ROOTS, max_size=2, unique=True),
    RAISED,
    st.tuples(LEADS, LEADS),
)
# an exponent of l_1 here outgrows a packing sized by the numerator's
# degree plus one per form and raised form
@example(
    terms=[((0, 5), 1, 1)],
    r_roots=[(Fraction(0), -1), (Fraction(0), 0)],
    s_roots=[(Fraction(0), -1), (Fraction(0), 1)],
    t_roots=[(Fraction(1), -1), (Fraction(-2), 0)],
    raised=[((1, 0), Fraction(0), -1), ((1, 0), Fraction(0), -2)],
    leads=(1, Fraction(3, 2)),
)
@settings(max_examples=100, deadline=None)
def test_two_variable_backends_agree_at_symbolic_roots(
    terms, r_roots, s_roots, t_roots, raised, leads
):
    # a root carrying l_1 raises its exponent at every substitution into
    # the numerator and with every form the sum's denominator gains, which
    # numeric roots never do: the pole sum's one packing must hold it all
    l1 = lamvar(1)
    num = Polynomial.zero()
    for (a, n), b, c in terms:
        num = num + Polynomial.term(c, [(Z1, a), (Z2, n - a), (l1, b)])
    r_lead, t_lead = leads
    forms = [form((r_lead, Z1), (-sigma, l1), constant=-r) for r, sigma in r_roots]
    forms += [form((1, Z2), (-sigma, l1), constant=-s) for s, sigma in s_roots]
    forms += [form((t_lead, Z2), (-1, Z1), (-sigma, l1), constant=-t) for t, sigma in t_roots]
    factors = [(f, 1) for f in forms]
    factors += [(form((a, Z1), (b, Z2), constant=r), m) for (a, b), r, m in raised]
    problem = ResidueProblem(num, factors, variables=(Z1, Z2))
    try:
        by_poles = residue_by_pole_sum(problem)
    except CoincidentPoleError:
        assume(False)
    assert by_poles == iterated_residue(problem)


# denominator forms of a multiplicity-2 problem: topped by z2 (with z1 or
# l_1 in the rest) or by z1, leads 1, 2 and -3/2
DOUBLE_POOL = [
    form((1, Z2), (-1, Z1)),
    form((2, Z2), (1, lamvar(1)), constant=-1),
    form((1, Z2), constant=3),
    form((1, Z1), (-1, lamvar(1))),
    form((Fraction(-3, 2), Z1), constant=2),
]


@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)),
        min_size=1, max_size=3,
    ),
    st.lists(st.tuples(st.sampled_from(DOUBLE_POOL), st.integers(1, 2)), min_size=1, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_double_factors_match_the_expanded_product(terms, factors):
    # the pole sum takes simple poles only, so the reference for a factor
    # at multiplicity 2 is the product of the numerator with each factor's
    # series, squared, read off at 1/(z1 z2) (d = 2, so no sign).  With
    # numerator z-degree D, a series power past D cannot reach the slice:
    # z2's factors use powers summing to at most D, which leave z1 at most
    # D, and z1's factors then use powers summing to at most D.
    assume(any(m == 2 for _, m in factors))
    num = Polynomial.zero()
    for a, b, c in terms:
        num = num + Polynomial.term(c, [(Z1, a), (Z2, b)])
    assume(not num.is_zero())
    problem = ResidueProblem(num, factors, variables=(Z1, Z2))
    got = iterated_residue(problem)

    depth = max(sum(e for _, e in mono) for mono in num.term_map())
    product = num
    for f, m in factors:
        product = product * expand_inverse_factor(f, depth) ** m
    expected = Polynomial.zero()
    for mono, c in product.term_map().items():
        exps = dict(mono)
        if exps.get(Z1) == -1 and exps.get(Z2) == -1:
            expected = expected + Polynomial.term(c, [(v, e) for v, e in mono if v not in (Z1, Z2)])
    assert got == expected


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
    packing = ExponentPacking([Z1, Z2], 2)
    kept = _monic(packing.terms(z1, biased=True), [packing.terms(f.as_polynomial())])
    zero = _monic({}, [packing.terms(g.as_polynomial())])
    # f is monic: its pairs are its one monic form
    monic_f = tuple(sorted(packing.terms(f.as_polynomial()).items()))
    expected = (packing.terms(z1, biased=True), Counter([monic_f]))
    assert _add(kept, zero) == expected
    assert _add(zero, kept) == expected
    assert fraction_sum([(z1 * f.as_polynomial(), [f]), (Polynomial.zero(), [g])]) == z1


def test_fraction_sum_names_a_zero_form():
    with pytest.raises(ValueError, match="zero form 0"):
        fraction_sum([(Polynomial.one(), [LinearForm(0)])])
    with pytest.raises(ValueError, match="fraction 1 divides by the zero form"):
        fraction_sum(
            [(Polynomial.one(), [form((1, Z1))]), (Polynomial.one(), [form((1, Z2)), LinearForm(0)])]
        )


def test_fraction_sum_rejects_a_proper_fraction():
    with pytest.raises(NonDivisibleError):
        fraction_sum([(Polynomial.one(), [form((1, Z1), (-1, Z2))])])


# -- degree bookkeeping ------------------------------------------------


def test_deg_in_subset():
    p = Polynomial.term(1, [(Z1, 2), (Z2, 1)]) + Polynomial.term(1, [(Z2, 4)])
    assert deg_in_subset(p, [2]) == 4
    assert deg_in_subset(p, [1, 2]) == 4
    assert deg_in_subset(p, [1]) == 2
    # every other symbol is a constant, so z_1 - z_2 has degree 1 in both
    # variables, not the degree of t - t
    cancel = Polynomial.term(1, [(Z1, 1)]) - Polynomial.term(1, [(Z2, 1)])
    assert deg_in_subset(cancel, [1]) == 1
    assert deg_in_subset(cancel, [1, 2]) == 1
    assert deg_in_subset(Polynomial.zero(), [1]) == float("-inf")


def test_criterion_counts_each_form_with_a_subset_variable_once():
    # at position 2 of z_1, z_2, z_3 the tail is {z_2, z_3}, and two
    # divisions by z_3 sit right at the tail clause's bound: one more
    # denominator form with a z in the tail passes it, one more numerator
    # form with a z in the tail keeps it from passing
    lam1 = lamvar(1)
    cases = [
        (form((1, Z2)), True),
        (form((1, Z2), (-1, Z3)), True),
        (form((1, Z1), (-1, Z2), (1, lam1)), True),
        (form((1, Z1), (-1, Z3)), True),
        (form((1, Z1)), False),
        (form((1, Z1), (1, lam1)), False),
    ]
    two_z3 = (form((1, Z3)), 2)
    for f, in_tail in cases:
        over = ResidueProblem(Polynomial.one(), (two_z3, (f, 1)), variables=(Z1, Z2, Z3))
        assert vanishing_criterion(over, 2) == in_tail, f.to_text()
        raised = ResidueProblem(
            Polynomial.one(), ((form((1, Z3)), 3), (f, -1)), variables=(Z1, Z2, Z3)
        )
        assert vanishing_criterion(raised, 2) != in_tail, f.to_text()


def test_single_clause_needs_every_factor_with_z_l_topped_by_it():
    # the tail {z_1, z_2} has room (2 + 2 is not below 4), so z_1 alone decides
    num = Polynomial.term(1, [(Z2, 2)])
    topped = ((form((1, Z1)), 2), (form((1, Z2)), 2))
    problem = ResidueProblem(num, topped, variables=(Z1, Z2))
    assert vanishing_criterion(problem, 1)
    assert iterated_residue(problem).is_zero()
    # z_1 + z_2 is topped by z_2, so z_1's count no longer settles it
    mixed = ((form((1, Z1)), 1), (form((1, Z1), (1, Z2)), 1), (form((1, Z2)), 2))
    problem = ResidueProblem(num, mixed, variables=(Z1, Z2))
    assert not vanishing_criterion(problem, 1)
    assert iterated_residue(problem) == Polynomial.one()


def test_criterion_refuses_a_vandermonde_form_in_the_subset():
    # (z_1 - z_2) / (z_1 z_2^2) has residue -1, whether z_1 - z_2 is a
    # numerator form or part of the numerator polynomial; z_1 - z_2 sent
    # to t - t would read as degree -inf and certify it
    vform = form((1, Z1), (-1, Z2))
    poles = ((form((1, Z1)), 1), (form((1, Z2)), 2))
    for problem in (
        ResidueProblem(Polynomial.one(), ((vform, -1),) + poles, variables=(Z1, Z2)),
        ResidueProblem(vform.as_polynomial(), poles, variables=(Z1, Z2)),
    ):
        assert iterated_residue(problem) == Polynomial.constant(-1)
        assert not vanishing_criterion(problem, 1)
        assert not vanishing_criterion(problem, 2)


def test_criterion_positions_follow_the_variable_indices():
    # over z_1, z_3 position 2 is z_3, however the variables are listed
    factors = ((form((1, Z1)), 1), (form((1, Z3)), 3))
    for variables in ((Z1, Z3), (Z3, Z1)):
        problem = ResidueProblem(Polynomial.one(), factors, variables=variables)
        assert vanishing_criterion(problem, 2)
        assert iterated_residue(problem).is_zero()
        for l in (0, 3):
            with pytest.raises(ValueError):
                vanishing_criterion(problem, l)
    series = ResidueProblem(
        Polynomial.one(), per_variable_series={Z1: Polynomial.variable(cvar(1))}, variables=(Z1,)
    )
    with pytest.raises(ValueError, match="per-variable series"):
        vanishing_criterion(series, 1)


FACTOR_POOL = [
    form((1, Z1)),
    form((1, Z2)),
    form((1, Z1), (1, Z2)),
    form((2, Z1), (1, Z2)),
    form((1, Z1), (2, Z2)),
]

RAISED_POOL = [
    form((1, Z1), (-1, Z2)),
    form((1, Z2), constant=1),
    form((1, Z1), (1, Z2)),
    form((1, Z1), constant=-1),
]


@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.lists(
        st.tuples(st.sampled_from(FACTOR_POOL), st.integers(1, 2)),
        min_size=1,
        max_size=3,
    ),
    st.lists(
        st.tuples(st.sampled_from(RAISED_POOL), st.integers(-2, -1)),
        max_size=2,
    ),
)
@example(0, 0, [(FACTOR_POOL[0], 1), (FACTOR_POOL[1], 2)], [(RAISED_POOL[0], -1)])
@settings(max_examples=60, deadline=None)
def test_certified_vanishing_is_sound(a, b, factors, raised):
    # whenever the certificate fires at some position, the residue is zero
    num = Polynomial.term(1, [(Z1, a), (Z2, b)])
    problem = ResidueProblem(num, tuple(factors + raised), variables=(Z1, Z2))
    if not any(vanishing_criterion(problem, l) for l in (1, 2)):
        return
    assert iterated_residue(problem).is_zero()
