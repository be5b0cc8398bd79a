"""Multidegree routes: staircase counts and lex degeneration."""

import importlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from thomcalc import (
    InfiniteStaircaseError,
    LinearForm,
    MonomialIdeal,
    PolynomialIdeal,
    Polynomial,
    SPairBudgetError,
    WeightInhomogeneityError,
    WeightedRing,
    basic_relations,
    basic_relations_ideal,
    buchberger_lex,
    deg_qhat,
    derive_qhat,
    etavar,
    initial_ideal,
    linear_form,
    multidegree,
    multidegree_monomial,
    qhat,
    subspace_multiplicity,
    toric_localization_example,
    yvar,
    zvar,
)
from thomcalc.multidegree import _lex_basis, _reduce, _s_polynomial
from thomcalc.packed import Divisor, ExponentPacking

Y = [None] + [Polynomial.variable(yvar(i)) for i in range(1, 5)]
E = [None] + [Polynomial.variable(etavar(i)) for i in range(1, 5)]


def ring(n):
    return WeightedRing(tuple(linear_form((1, etavar(i))) for i in range(1, n + 1)))


def sorted_items(gen):
    return tuple(sorted(gen.items()))


def test_euler_class_is_weight_product():
    # the origin's multidegree is its Euler class
    assert multidegree(PolynomialIdeal.of([Y[1], Y[2], Y[3]]), ring(3)) == E[1] * E[2] * E[3]


# -- monomial ideals and staircases ------------------------------------


def test_minimal_generators():
    ideal = MonomialIdeal([{1: 2}, {1: 2, 2: 1}, {2: 3}], [1, 2])
    assert ideal.generators == ({1: 2}, {2: 3}) or set(
        map(tuple, (g.items() for g in ideal.generators))
    ) == {((1, 2),), ((2, 3),)}


def test_fat_point_multiplicity():
    ideal = MonomialIdeal([{1: 2}, {2: 3}, {3: 1}], [1, 2, 3])
    assert subspace_multiplicity(ideal, {1, 2, 3}) == 6
    assert subspace_multiplicity(ideal, {3}) == 0  # unit after restriction


def test_infinite_staircase_detected():
    ideal = MonomialIdeal([{1: 2}], [1, 2])
    with pytest.raises(InfiniteStaircaseError):
        subspace_multiplicity(ideal, {1, 2})


def test_monomial_multidegree_hypersurface():
    ideal = MonomialIdeal([{1: 1, 2: 1}], [1, 2])
    assert multidegree_monomial(ideal, ring(2)) == E[1] + E[2]


def test_monomial_multidegree_unit():
    ideal = MonomialIdeal([{}], [1, 2])
    assert ideal.is_unit()
    assert multidegree_monomial(ideal, ring(2)).is_zero()


@given(st.permutations([{1: 2}, {2: 3}, {3: 1}]))
@settings(max_examples=10, deadline=None)
def test_generator_order_is_irrelevant(gens):
    base = multidegree_monomial(MonomialIdeal(gens, [1, 2, 3]), ring(3))
    assert base == 6 * E[1] * E[2] * E[3]


def test_redundant_generators_are_dropped():
    lean = MonomialIdeal([{1: 1, 2: 1}], [1, 2])
    fat = MonomialIdeal([{1: 1, 2: 1}, {1: 2, 2: 1}], [1, 2])
    assert multidegree_monomial(lean, ring(2)) == multidegree_monomial(fat, ring(2))


def _oracle_count(gens, subset):
    """The standard monomials of gens with the coordinates outside subset set
    to 1, counted point by point in a box one past the largest exponent;
    None when one of them reaches the box's far side (infinitely many)."""
    axes = sorted(subset)
    restricted = [{t: e for t, e in g.items() if t in subset} for g in gens]
    side = max((e for g in gens for e in g.values()), default=0)
    count = 0
    for point in itertools.product(range(side + 1), repeat=len(axes)):
        exps = dict(zip(axes, point))
        if any(all(exps[t] >= e for t, e in g.items()) for g in restricted):
            continue
        if side in point:
            return None
        count += 1
    return count


def _oracle_multidegree(gens, weights):
    """Sum of count times weight product over every coordinate subset of the
    least size that meets the support of each generator."""
    coords = range(1, len(weights) + 1)
    for size in range(len(weights) + 1):
        subsets = [
            s for s in itertools.combinations(coords, size) if all(set(g) & set(s) for g in gens)
        ]
        if subsets:
            break
    total = Polynomial.zero()
    for subset in subsets:
        product = Polynomial.one()
        for t in subset:
            product = product * weights[t - 1].as_polynomial()
        total = total + _oracle_count(gens, subset) * product
    return total


def _random_staircase(rng):
    n = rng.randint(1, 4)
    gens = []
    for _ in range(rng.randint(0, 5)):
        support = rng.sample(range(1, n + 1), rng.randint(1, n))
        gens.append({t: rng.randint(0 if len(support) > 1 else 1, 3) for t in support})
    if gens and rng.random() < 0.3:
        gens.append(dict(rng.choice(gens)))  # repeated
    if gens and rng.random() < 0.3:
        base = rng.choice(gens)
        gens.append({t: base.get(t, 0) + rng.randint(0, 2) for t in range(1, n + 1)})
    if rng.random() < 0.05:
        gens.append({})  # the unit ideal
    symbols = [etavar(i) for i in range(1, 4)]
    coeffs = [0, 1, -1, 2, Fraction(1, 2)]
    weights = tuple(
        LinearForm(rng.choice([0, 0, 1, -2]), {s: rng.choice(coeffs) for s in symbols})
        for _ in range(n)
    )
    return n, gens, weights


def test_staircase_against_a_brute_force_oracle():
    seen = set()
    for seed in range(80):
        n, gens, weights = _random_staircase(random.Random(seed))
        positive = [{t: e for t, e in g.items() if e} for g in gens]
        ideal = MonomialIdeal(gens, range(1, n + 1))
        for size in range(n + 1):
            for subset in itertools.combinations(range(1, n + 1), size):
                expected = _oracle_count(positive, subset)
                if expected is None:
                    seen.add("infinite")
                    with pytest.raises(InfiniteStaircaseError):
                        subspace_multiplicity(ideal, subset)
                else:
                    seen.add("zero" if expected == 0 else "count")
                    assert subspace_multiplicity(ideal, frozenset(subset)) == expected
        assert multidegree_monomial(ideal, WeightedRing(weights)) == _oracle_multidegree(
            positive, weights
        ), seed
        if {} in positive:
            seen.add("unit")
        if len(positive) != len(ideal.generators):
            seen.add("dropped")
    assert seen == {"infinite", "zero", "count", "unit", "dropped"}


def _wide_staircase(rng):
    # one generator on each block of a random split of 5 or 6 coordinates,
    # then a few on 2 or 3 coordinates: a minimum cover takes a coordinate
    # from each block, so the covers are many and share prefixes
    n = rng.randint(5, 6)
    coords = rng.sample(range(1, n + 1), n)
    cuts = [0] + sorted(rng.sample(range(1, n), rng.randint(2, 3))) + [n]
    gens = [{t: rng.randint(1, 2) for t in coords[i:j]} for i, j in zip(cuts, cuts[1:])]
    for _ in range(rng.randint(0, 8 - len(gens))):
        gens.append({t: rng.randint(1, 2) for t in rng.sample(range(1, n + 1), rng.randint(2, 3))})
    symbols = [etavar(i) for i in range(1, 4)]
    coeffs = [0, 1, -1, 2, Fraction(1, 2)]
    weights = tuple(
        LinearForm(rng.choice([0, 0, 1, -2]), {s: rng.choice(coeffs) for s in symbols})
        for _ in range(n)
    )
    return n, gens, weights


def test_wide_staircases_against_the_oracle():
    shared = {1: 0, 2: 0}  # ideals with two minimal subsets sharing a prefix of this length
    for seed in range(30):
        n, gens, weights = _wide_staircase(random.Random(seed))
        ideal = MonomialIdeal(gens, range(1, n + 1))
        coords = range(1, n + 1)
        for size in coords:
            same_size = list(itertools.combinations(coords, size))
            minimal = [s for s in same_size if all(set(g) & set(s) for g in gens)]
            if minimal:
                break
        # every subset of the least size: the minimal ones count, the others are 0
        for subset in same_size:
            assert subspace_multiplicity(ideal, subset) == _oracle_count(gens, subset), seed
        assert multidegree_monomial(ideal, WeightedRing(weights)) == _oracle_multidegree(
            gens, weights
        ), seed
        for length in shared:
            pairs = itertools.combinations(minimal, 2)
            shared[length] += size > length and any(a[:length] == b[:length] for a, b in pairs)
    assert shared[1] >= 20 and shared[2] >= 8


def test_relabelled_coordinates_give_the_same_multidegree():
    # the trie's order and its ties follow the coordinates' labels, the sum must not
    for seed in range(40):
        rng = random.Random(seed)
        n, gens, weights = (_wide_staircase if seed % 2 else _random_staircase)(rng)
        label = rng.sample(range(1, n + 1), n)
        relabelled = [{label[t - 1]: e for t, e in g.items()} for g in gens]
        moved = [None] * n
        for t, w in enumerate(weights):
            moved[label[t] - 1] = w
        coords = range(1, n + 1)
        expected = multidegree_monomial(MonomialIdeal(gens, coords), WeightedRing(weights))
        relabelled_ideal = MonomialIdeal(relabelled, coords)
        assert multidegree_monomial(relabelled_ideal, WeightedRing(tuple(moved))) == expected, seed


def test_staircase_edge_cases():
    # repeated and non-minimal generators leave the count and the class alone
    lean = MonomialIdeal([{1: 2}, {2: 1, 3: 1}, {3: 2}], [1, 2, 3])
    fat = MonomialIdeal(
        [{1: 2}, {2: 1, 3: 1}, {1: 2}, {1: 3, 2: 1}, {3: 2}, {2: 2, 3: 1}], [1, 2, 3]
    )
    for subset in ({1, 3}, {2, 3}, {1}, set()):
        assert subspace_multiplicity(fat, subset) == subspace_multiplicity(lean, subset)
    assert subspace_multiplicity(fat, {1, 3}) == 2
    assert multidegree_monomial(fat, ring(3)) == multidegree_monomial(lean, ring(3))
    # the unit ideal, also written with zero exponents, counts 0 on every subset
    for unit in (MonomialIdeal([{}], [1, 2]), MonomialIdeal([{1: 0}, {2: 1}], [1, 2])):
        assert unit.is_unit()
        assert [subspace_multiplicity(unit, s) for s in (set(), {1}, {1, 2})] == [0, 0, 0]
        assert multidegree_monomial(unit, ring(2)).is_zero()
    # a generator that misses the subset makes the restriction the unit ideal
    assert subspace_multiplicity(lean, {1}) == 0
    # the zero ideal has one standard monomial on the empty subset, 1
    assert subspace_multiplicity(MonomialIdeal([], [1, 2]), set()) == 1


def test_large_pure_powers_are_counted_by_slices():
    # a box of 10^18 points; counted by slices it is one product
    a = 10**6
    ideal = MonomialIdeal([{1: a}, {2: a}, {3: a}], [1, 2, 3])
    assert subspace_multiplicity(ideal, {1, 2, 3}) == a**3
    assert multidegree_monomial(ideal, ring(3)).to_text() == "1000000000000000000*e_1*e_2*e_3"


def test_infinite_staircase_names_the_coordinate():
    ideal = MonomialIdeal([{1: 2}, {1: 1, 2: 1}, {3: 1}], [1, 2, 3])
    with pytest.raises(InfiniteStaircaseError) as caught:
        subspace_multiplicity(ideal, [3, 2, 1])
    message = "no pure power of y_2 in the restricted ideal, staircase is infinite"
    assert str(caught.value) == message
    with pytest.raises(InfiniteStaircaseError) as caught:
        subspace_multiplicity(MonomialIdeal([], [1, 2]), {2})
    assert str(caught.value) == message
    # the last axis, met only on the slice at 0 of every axis before it
    with pytest.raises(InfiniteStaircaseError) as caught:
        subspace_multiplicity(MonomialIdeal([{1: 1}, {2: 1}], [1, 2, 3]), {1, 2, 3})
    assert str(caught.value) == message.replace("y_2", "y_3")


# -- Groebner route ----------------------------------------------------


def test_buchberger_on_a_principal_ideal():
    ideal = PolynomialIdeal.of([Y[1] * Y[2]])
    basis = buchberger_lex(ideal)
    assert len(basis) == 1


def test_initial_ideal_of_the_cone():
    ideal = PolynomialIdeal.of([Y[1] * Y[3] - Y[2] * Y[4]])
    init = initial_ideal(ideal)
    assert multidegree_monomial(init, ring(4)) is not None


def test_multidegree_fat_point_route():
    # y1 - y2 is weight-homogeneous only when both coordinates share a weight
    ideal = PolynomialIdeal.of([Y[1] - Y[2], Y[2] ** 2])
    equal = WeightedRing((linear_form((1, etavar(1))), linear_form((1, etavar(1)))))
    assert multidegree(ideal, equal) == 2 * E[1] ** 2


def test_multidegree_trivial_cases():
    assert multidegree(PolynomialIdeal.of([]), ring(2)) == Polynomial.one()
    unit = PolynomialIdeal.of([Polynomial.one()], order=[yvar(1)])
    assert multidegree(unit, ring(1)).is_zero()


def test_weight_homogeneity_enforced():
    mixed = PolynomialIdeal.of([Y[1] + Y[2] ** 2])
    with pytest.raises(WeightInhomogeneityError):
        multidegree(mixed, ring(2))


def _laurent(*terms):
    # the sum of c * y_1^e_1 * y_2^e_2 * y_3^e_3 over the (c, (e_1, e_2, e_3))
    return sum(
        (Polynomial.term(c, [(yvar(i), e) for i, e in enumerate(exps, 1)]) for c, exps in terms),
        Polynomial.zero(),
    )


@pytest.mark.parametrize(
    "gens",
    [
        [
            _laurent((-1, (2, 1, 2)), (1, (2, 2, -1))),
            _laurent((1, (2, -2, 1)), (-1, (2, -1, -1))),
        ],
        [_laurent((1, (1, -1, 0)), (-1, (0, 0, 1))), _laurent((1, (1, 0, 0)), (-1, (0, 1, 0)))],
    ],
    ids=["fields-grow-forever", "silently-wrong"],
)
def test_polynomial_ideal_refuses_a_negative_exponent(gens):
    with pytest.raises(ValueError, match="negative exponent"):
        PolynomialIdeal.of(gens)


@pytest.mark.parametrize(
    "gen", [{1: 1.7}, {1.9: 2}, {1: True}, {1: -1, 2: 1}], ids=["float", "index", "bool", "negative"]
)
def test_monomial_ideal_refuses_what_it_used_to_round_or_drop(gen):
    with pytest.raises(ValueError):
        MonomialIdeal([gen], [1, 2])


def test_weight_inhomogeneity_names_the_generator():
    mixed = PolynomialIdeal.of([Y[1] * Y[2], Y[1] + Y[2] ** 2])
    with pytest.raises(WeightInhomogeneityError) as caught:
        multidegree(mixed, ring(2))
    assert str(caught.value) == "generator 2 (y_2^2 + y_1) is not weight-homogeneous"


def test_weight_homogeneity_compares_every_monomial_of_a_generator():
    # y_1 and y_2 weigh eta_1, y_3 weighs eta_2
    weighted = WeightedRing(tuple(linear_form((1, etavar(i))) for i in (1, 1, 2)))
    late = Y[1] * Y[2] + Y[1] ** 2 + Y[3]  # the first two weights agree, the third differs
    assert len(late) == 3
    with pytest.raises(WeightInhomogeneityError) as caught:
        multidegree(PolynomialIdeal.of([Y[1], late]), weighted)
    assert str(caught.value) == "generator 2 (y_1^2 + y_1*y_2 + y_3) is not weight-homogeneous"
    homogeneous = Y[1] * Y[2] + Y[1] ** 2 + Y[2] ** 2
    assert multidegree(PolynomialIdeal.of([homogeneous]), weighted) == 2 * Polynomial.variable(
        etavar(1)
    )


def test_pair_budget():
    gens = [Y[1] * Y[3] - Y[2] ** 2, Y[2] * Y[4] - Y[3] ** 2, Y[1] * Y[4] - Y[2] * Y[3]]
    with pytest.raises(SPairBudgetError):
        buchberger_lex(PolynomialIdeal.of(gens), pair_budget=1)
    assert buchberger_lex(PolynomialIdeal.of(gens)) is not None


def test_pair_budget_error_names_the_counters_reached():
    gens = [Y[1] * Y[3] - Y[2] ** 2, Y[2] * Y[4] - Y[3] ** 2, Y[1] * Y[4] - Y[2] * Y[3]]
    with pytest.raises(SPairBudgetError) as caught:
        buchberger_lex(PolynomialIdeal.of(gens), pair_budget=2)
    err = caught.value
    assert err.budget == 2
    # a pair is counted when it is formed: the second generator forms the
    # coprime pair (y1*y3, y2*y4), and the third one pair within the budget
    # and one past it, before any pair is reduced
    assert err.counts == {"taken": 2, "reduced": 0, "coprime": 1, "chain": 0, "basis": 3}
    assert str(err) == (
        "more than 2 S-pairs: 2 taken, 0 reduced, 1 skipped as coprime, "
        "0 skipped by the chain criterion, basis size 3"
    )


def test_chain_criterion_skips_a_pair_and_keeps_the_initial_ideal():
    # leads y1*y2, y2*y3, y1*y3: once (y1y2, y2y3) and (y1y2, y1y3) are
    # taken, y1*y2 divides lcm(y2*y3, y1*y3) and that pair is skipped
    y = [None] + [Polynomial.variable(yvar(i)) for i in range(1, 7)]
    ideal = PolynomialIdeal.of(
        [y[1] * y[2] - y[4] ** 2, y[2] * y[3] - y[5] ** 2, y[1] * y[3] - y[6] ** 2]
    )
    _, counts = _lex_basis(ideal, 10_000)
    assert counts["chain"] > 0
    # the lex leading monomials of the reduced basis (checked against sympy)
    expected = [{1: 1, 2: 1}, {1: 1, 3: 1}, {1: 1, 5: 2}, {2: 1, 3: 1}, {2: 1, 6: 2}, {3: 2, 4: 2}]
    assert sorted(map(sorted_items, initial_ideal(ideal).generators)) == sorted(
        map(sorted_items, expected)
    )


def test_level7_ideal_stops_at_the_pair_budget():
    # pairs count as they are formed, so a level-7 run stops at the budget
    # after a few hundred reductions instead of after thousands
    with pytest.raises(SPairBudgetError) as caught:
        multidegree(*basic_relations_ideal(7))
    err = caught.value
    assert err.counts["taken"] == err.budget == 10_000
    assert err.counts["reduced"] + err.counts["coprime"] + err.counts["chain"] <= err.budget


@pytest.mark.parametrize("d", [4, 5, 6])
def test_every_s_pair_of_the_basis_reduces_to_zero(d):
    # Buchberger's criterion over all pairs of the returned basis, those the
    # pair update dropped included
    ideal, _ = basic_relations_ideal(d)
    basis, counts = _lex_basis(ideal, 10_000)
    # each pair formed is reduced or dropped, once
    assert counts["taken"] == counts["reduced"] + counts["coprime"] + counts["chain"]
    top = max(e for g in basis for _, e in g.exponent_pairs())
    # a key past fields this wide raises OverflowError, which fails the test
    packing = ExponentPacking(ideal.order, 2 * top, lex=True)
    divisors = [Divisor(packing.terms(g)) for g in basis]
    # exponent lists over the order compare as lex
    leads = [max([dict(m).get(v, 0) for v in ideal.order] for m in g.term_map()) for g in basis]
    for i, j in itertools.combinations(range(len(basis)), 2):
        exps = [(v, max(a, b)) for v, a, b in zip(ideal.order, leads[i], leads[j]) if a or b]
        (key,) = packing.terms(Polynomial.term(1, exps))
        s_pair = _s_polynomial(divisors[i], divisors[j], key, packing.bias)
        assert not _reduce(s_pair, divisors), (i, j)


SMALL_MONOMIALS = [m for m in itertools.product(range(3), repeat=4) if sum(m) <= 2]


@given(
    st.lists(
        st.dictionaries(
            st.sampled_from(SMALL_MONOMIALS),
            st.integers(-3, 3).filter(bool),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=100, deadline=None)
def test_initial_ideal_matches_sympy_on_small_ideals(generators):
    # generators as {exponents over y1..y4: coefficient}; sympy's Buchberger
    # (the one sympy.groebner runs) on its own ring elements gives the
    # reduced lex basis.  Cubes are left out: a cubic term lets a lex basis
    # of four generators grow to seconds, on either side.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.groebnertools import groebner

    ring_, *_ = sympy.ring("y1:5", sympy.QQ, sympy.lex)
    leads = [
        {i + 1: e for i, e in enumerate(g.LM) if e}
        for g in groebner([ring_.from_dict(g) for g in generators], ring_)
    ]
    order = [yvar(i) for i in range(1, 5)]
    polys = [
        sum(
            (Polynomial.term(c, [(v, e) for v, e in zip(order, m) if e]) for m, c in g.items()),
            Polynomial.zero(),
        )
        for g in generators
    ]
    ours = initial_ideal(PolynomialIdeal.of(polys, order)).generators
    assert sorted(map(sorted_items, ours)) == sorted(map(sorted_items, leads))


@pytest.mark.parametrize("d", [4, 5, 6])
def test_initial_ideal_is_the_minimal_lex_leads_of_the_basis(d):
    ideal, _ = basic_relations_ideal(d)
    position = {v: i for i, v in enumerate(ideal.order)}

    def lead(g):
        # the lex maximum: exponent vectors over the order, first entry largest
        vectors = []
        for mono in g.term_map():
            exps = [0] * len(ideal.order)
            for v, e in mono:
                exps[position[v]] = e
            vectors.append(exps)
        return {ideal.order[i].index: e for i, e in enumerate(max(vectors)) if e}

    leads = [lead(g) for g in buchberger_lex(ideal)]
    minimal = {
        sorted_items(a)
        for a in leads
        if not any(b != a and all(a.get(t, 0) >= e for t, e in b.items()) for b in leads)
    }
    assert sorted(map(sorted_items, initial_ideal(ideal).generators)) == sorted(minimal)


def test_basis_outgrowing_the_generators_fields(monkeypatch):
    # by hand: lex y1 > y2 gives y1 - y2^3 and y2^9 - y2; the generators'
    # fields hold total degree up to 3, so y2^9 is found on wider fields
    runs = spy_buchberger(monkeypatch)
    ideal = PolynomialIdeal.of([Y[1] ** 3 - Y[2], Y[2] ** 3 - Y[1]])
    basis = buchberger_lex(ideal)
    assert Y[2] ** 9 - Y[2] in basis
    assert len(runs) == 2  # the overflow retry
    assert sorted(map(sorted_items, initial_ideal(ideal).generators)) == [((1, 1),), ((2, 9),)]


def spy_buchberger(monkeypatch):
    module = importlib.import_module("thomcalc.multidegree")
    real, runs = module._buchberger, []
    monkeypatch.setattr(module, "_buchberger", lambda *args: runs.append(args) or real(*args))
    return runs


@pytest.mark.parametrize("d", [4, 5, 6])
def test_multidegree_runs_one_groebner_loop_per_level(monkeypatch, d):
    # the fields first hold the generators' largest total degree, which at
    # level 6 is wide enough for the whole basis
    ideal, weights = basic_relations_ideal(d)
    runs = spy_buchberger(monkeypatch)
    multidegree(ideal, weights)
    assert len(runs) == 1


def test_lead_coefficient_three_divides_exactly():
    # the S-polynomial of y2 - y1*y3 and 3*y1 - y2 is y1*y3 - y2 minus
    # y3*(y1 - y2/3); a float 1/3 would come back as a binary fraction
    gens = [Y[2] - Y[1] * Y[3], 3 * Y[1] - Y[2]]
    basis = buchberger_lex(PolynomialIdeal.of(gens))
    assert basis == gens + [Polynomial.term(Fraction(1, 3), [(yvar(2), 1), (yvar(3), 1)]) - Y[2]]


def test_multidegree_goes_through_the_traced_layers(monkeypatch):
    # the benchmark times buchberger_lex and multidegree_monomial by name;
    # a route around either would read as zero calls, not as an error
    module = importlib.import_module("thomcalc.multidegree")
    called = []

    def spy(name, real):
        return lambda *args: called.append(name) or real(*args)

    for name in ("buchberger_lex", "multidegree_monomial"):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    multidegree(*basic_relations_ideal(4))
    assert called == ["buchberger_lex", "multidegree_monomial"]


def test_staircase_goes_through_subspace_multiplicity(monkeypatch):
    # the benchmark times subspace_multiplicity by name as well
    module = importlib.import_module("thomcalc.multidegree")
    real = module.subspace_multiplicity
    subsets = []

    def spy(ideal, subset):
        subsets.append(subset)
        return real(ideal, subset)

    monkeypatch.setattr(module, "subspace_multiplicity", spy)
    multidegree(*basic_relations_ideal(4))
    assert subsets


def test_ideal_validation():
    with pytest.raises(ValueError):
        PolynomialIdeal.of([Y[1]], order=[etavar(1)])
    with pytest.raises(ValueError):
        PolynomialIdeal((Y[2],), (yvar(1),))


def test_ideal_refuses_any_symbol_outside_the_order():
    with pytest.raises(ValueError, match="generator uses z_3, not in the order list"):
        PolynomialIdeal.of([Y[1] * Polynomial.variable(zvar(3))])


def test_a_coordinate_without_a_weight_is_named():
    with pytest.raises(ValueError, match="no weight for y_2 in a ring of 1 coordinates"):
        ring(1).weight_of(2)
    with pytest.raises(ValueError, match="no weight for y_0"):
        ring(1).weight_of(0)
    with pytest.raises(ValueError, match="no weight for y_2"):
        multidegree(PolynomialIdeal.of([Y[1] * Y[2] * Y[3]]), ring(1))


# -- the toric cross-check ---------------------------------------------


def test_toric_example_report_fields():
    report = toric_localization_example()
    assert report.agree
    assert report.expected == E[1] + E[3]


# -- the ideals of basic relations -------------------------------------


def permuted(ideal, perm):
    return PolynomialIdeal.of([ideal.generators[i] for i in perm], ideal.order)


@given(st.permutations(range(len(basic_relations(5)))))
@settings(max_examples=12, deadline=None)
def test_level5_multidegree_ignores_generator_order(perm):
    ideal, weights = basic_relations_ideal(5)
    assert multidegree(permuted(ideal, perm), weights) == qhat(5)


def test_level6_multidegree_under_two_generator_orders():
    count = len(basic_relations(6))
    shuffled = list(range(count))
    random.Random(6).shuffle(shuffled)
    ideal, weights = basic_relations_ideal(6)
    results = [
        multidegree(permuted(ideal, perm), weights)
        for perm in (list(reversed(range(count))), shuffled)
    ]
    assert results[0] == results[1]
    assert len(results[0]) == 395
    degree = deg_qhat(6)
    assert all(sum(e for _, e in mono) == degree for mono in results[0].term_map())


def test_level6_staircase_counts_each_minimal_subspace_once(monkeypatch):
    # traced mdeg-level6 reads 64 subspace_multiplicity calls on levels 4 to 6,
    # because multidegree degenerates in its own order; in the ideal's given
    # order, as here, level 6 takes 46: one per minimal subspace, none repeated
    module = importlib.import_module("thomcalc.multidegree")
    real = module.subspace_multiplicity
    counts = {}

    def spy(ideal, subset):
        key = frozenset(subset)
        assert key not in counts
        counts[key] = real(ideal, subset)
        return counts[key]

    expected = derive_qhat(6)
    ideal, weights = basic_relations_ideal(6)
    init = initial_ideal(ideal)
    monkeypatch.setattr(module, "subspace_multiplicity", spy)
    result = multidegree_monomial(init, weights)
    assert len(counts) == 46
    assert {len(s) for s in counts} == {7}
    assert set(counts.values()) == {1, 2, 3}
    supports = [set(g) for g in init.generators]
    assert all(all(s & g for g in supports) for s in counts)
    assert result == expected
    assert len(result) == 395


def test_initial_ideal_matches_sympy_at_level5():
    sympy = pytest.importorskip("sympy")
    ideal, _ = basic_relations_ideal(5)
    symbols = sympy.symbols(f"y1:{len(ideal.order) + 1}")
    by_variable = dict(zip(ideal.order, symbols))
    exprs = [
        sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(by_variable[v] ** e for v, e in mono))
            for mono, c in g.term_map().items()
        )
        for g in ideal.generators
    ]
    reduced = sympy.groebner(exprs, *symbols, order="lex")
    leads = [
        {i + 1: e for i, e in enumerate(sympy.Poly(g, *symbols).monoms(order="lex")[0]) if e}
        for g in reduced.exprs
    ]
    ours = initial_ideal(ideal).generators
    assert sorted(map(sorted_items, ours)) == sorted(map(sorted_items, leads))


# -- the degeneration order of multidegree ------------------------------

# y1, y2 weigh eta_1 and y3, y4 weigh eta_2: a generator is weight-homogeneous
# when its monomials share one bidegree, so it is homogeneous in the standard
# degree as well
BIGRADED = WeightedRing(tuple(linear_form((1, etavar(1 + i // 2))) for i in range(4)))


def bidegree(m):
    return (m[0] + m[1], m[2] + m[3])


def bihomogeneous_generator():
    return st.sampled_from(sorted({bidegree(m) for m in SMALL_MONOMIALS if any(m)})).flatmap(
        lambda deg: st.dictionaries(
            st.sampled_from([m for m in SMALL_MONOMIALS if bidegree(m) == deg]),
            st.integers(-3, 3).filter(bool),
            min_size=1,
            max_size=3,
        )
    )


@given(
    st.lists(bihomogeneous_generator(), min_size=1, max_size=3),
    st.permutations([yvar(i) for i in range(1, 5)]),
)
@settings(max_examples=100, deadline=None)
def test_multidegree_is_the_initial_ideals_under_the_given_order(generators, order):
    # at most 3 generators of degree at most 2 in y1..y4 keep every basis small
    polys = [
        sum(
            (Polynomial.term(c, [(yvar(i + 1), e) for i, e in enumerate(m) if e]) for m, c in g.items()),
            Polynomial.zero(),
        )
        for g in generators
    ]
    ideal = PolynomialIdeal.of(polys, order)
    assert multidegree(ideal, BIGRADED) == multidegree_monomial(initial_ideal(ideal), BIGRADED)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_multidegree_ignores_the_ideals_order(d):
    ideal, weights = basic_relations_ideal(d)
    shuffled = list(ideal.order)
    random.Random(d).shuffle(shuffled)
    expected = multidegree(ideal, weights)
    for order in (ideal.order[::-1], shuffled):
        assert multidegree(PolynomialIdeal.of(ideal.generators, order), weights) == expected


def test_multidegree_degenerates_with_the_rarest_coordinates_first(monkeypatch):
    module = importlib.import_module("thomcalc.multidegree")
    real = module.buchberger_lex
    passed = []
    monkeypatch.setattr(module, "buchberger_lex", lambda ideal: passed.append(ideal) or real(ideal))
    ideal, weights = basic_relations_ideal(6)
    multidegree(ideal, weights)
    (used,) = passed
    assert used.generators == ideal.generators
    assert set(used.order) == set(ideal.order) and used.order != ideal.order
    users = [sum(v in g.variables() for g in ideal.generators) for v in used.order]
    position = [ideal.order.index(v) for v in used.order]
    # fewest users first; among equal counts, the ideal's own order
    assert sorted(zip(users, position)) == list(zip(users, position))
    assert [v.index for v in used.order] == [
        8, 14, 15, 4, 9, 16, 19, 10, 12, 22, 2, 5, 7, 17, 20, 6, 11, 21, 13, 1, 3, 18
    ]
    _, counts = _lex_basis(used, 10_000)
    assert (counts["taken"], counts["reduced"], counts["basis"]) == (253, 73, 23)
    assert len(initial_ideal(used).generators) == 22


def test_level6_trie_puts_the_most_used_coordinates_at_the_root(monkeypatch):
    module = importlib.import_module("thomcalc.multidegree")
    real, products = module.packed_mul, []
    monkeypatch.setattr(module, "packed_mul", lambda a, b: products.append(1) or real(a, b))
    ideal, weights = basic_relations_ideal(6)
    assert len(multidegree(ideal, weights)) == 395
    # with each subspace's coordinates in index order the trie takes 237
    assert len(products) <= 166
