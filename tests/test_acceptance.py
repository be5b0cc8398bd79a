"""The acceptance gate: fifteen numbered criteria, one test each.

Each test's docstring first line labels the criterion in the terminal
summary printed by conftest.  Tests run in numeric order; closed classes
computed early stay memoized, so later criteria reuse them.
"""

from fractions import Fraction

from thomcalc import (
    AdmissibleSequence,
    Partition,
    PolynomialIdeal,
    Polynomial,
    WeightedRing,
    apply_right_action,
    basic_relations,
    cvar,
    deg_qhat,
    dim_normal_model,
    enumerate_admissible,
    etavar,
    expansion_relation,
    linear_form,
    multidegree,
    nondistinguished_vanishing,
    partitions_up_to,
    pole_sum_class,
    positivity_expansion,
    qhat,
    qhat5_derivation_steps,
    relation_weight,
    ronga_reference,
    sampled_class_agreement,
    shift_check,
    stored_quartic_relation,
    substitute_chern,
    thom_polynomial,
    toric_localization_example,
    tp_positivity,
    uhat_reference_value,
    yvar,
    zvar,
)


def c_term(coeff, *pairs):
    return Polynomial.term(coeff, [(cvar(i), e) for i, e in pairs])


def eta_ring(n: int) -> WeightedRing:
    return WeightedRing(tuple(linear_form((1, etavar(i))) for i in range(1, n + 1)))


def test_criterion_01_rank_one_base_cases():
    """order 1 classes are single Chern symbols"""
    for j in range(5):
        assert thom_polynomial(1, j).body == Polynomial.variable(cvar(j + 1))


def test_criterion_02_order_two_closed_form():
    """order 2 matches the doubling closed form through codim 3"""
    for j in range(4):
        assert thom_polynomial(2, j).body == ronga_reference(j).body


def test_criterion_03_order_four_class():
    """order 4 codim 0 equals the recorded class"""
    tp = thom_polynomial(4, 0)
    expected = (
        c_term(1, (1, 4))
        + c_term(6, (0, 1), (1, 2), (2, 1))
        + c_term(2, (0, 2), (2, 2))
        + c_term(9, (0, 2), (1, 1), (3, 1))
        + c_term(6, (0, 3), (4, 1))
    )
    assert tp.body == expected
    assert tp.to_text() == "c1^4 + 6*c1^2*c2 + 2*c2^2 + 9*c1*c3 + 6*c4"


def test_criterion_04_shift_property():
    """dropping background monomials shifts codim down by one"""
    for d in (1, 2, 3, 4):
        for j in (1, 2):
            assert shift_check(d, j), f"order {d} codim {j}"


def test_criterion_05_structural_invariants():
    """every monomial has d factors of weighted degree d*(codim+1)"""
    for d in range(1, 6):
        for j in range(3):
            tp = thom_polynomial(d, j)
            for mono, coeff in tp.body.terms():
                assert all(v.family == "c" for v, _ in mono)
                assert sum(e for _, e in mono) == d
                assert sum(v.index * e for v, e in mono) == d * (j + 1)
                assert coeff != 0


def test_criterion_06_multidegree_golden_triple():
    """the three worked monomial-ideal multidegrees"""
    y = [None] + [Polynomial.variable(yvar(i)) for i in range(1, 4)]
    e = [None] + [Polynomial.variable(etavar(i)) for i in range(1, 4)]
    ring = eta_ring(3)

    fat_point = PolynomialIdeal.of([y[1] ** 2, y[2] ** 3, y[3]])
    assert multidegree(fat_point, ring) == 6 * e[1] * e[2] * e[3]

    hypersurface = PolynomialIdeal.of([y[1] ** 2 * y[2] ** 3 * y[3]])
    assert multidegree(hypersurface, ring) == 2 * e[1] + 3 * e[2] + e[3]

    three_lines = PolynomialIdeal.of([y[1] * y[2], y[2] * y[3], y[1] * y[3]])
    assert multidegree(three_lines, ring) == e[1] * e[2] + e[2] * e[3] + e[1] * e[3]


def test_criterion_07_toric_example_routes_agree():
    """quadric cone multidegree via three independent routes"""
    report = toric_localization_example()
    expected = Polynomial.variable(etavar(1)) + Polynomial.variable(etavar(3))
    assert report.expected == expected
    assert report.groebner_route == expected
    assert report.localization_sum == expected
    assert report.two_term_sum == expected
    assert report.agree


def test_criterion_08_dimension_table():
    """model dimension and numerator degree for orders 1..6"""
    table = [(dim_normal_model(d), deg_qhat(d)) for d in range(1, 7)]
    assert table == [(0, 0), (1, 0), (3, 0), (7, 1), (13, 3), (22, 7)]


def test_criterion_09_depth_three_census():
    """eight admissible sequences, six of them complete"""
    def seq(*entries):
        return AdmissibleSequence(tuple(Partition(e) for e in entries))

    admissible = enumerate_admissible(3)
    expected = {
        seq((1,), (2,), (3,)),
        seq((1,), (2,), (1, 2)),
        seq((1,), (2,), (1, 1, 1)),
        seq((1,), (2,), (1, 1)),
        seq((1,), (1, 1), (3,)),
        seq((1,), (1, 1), (1, 2)),
        seq((1,), (1, 1), (1, 1, 1)),
        seq((1,), (1, 1), (2,)),
    }
    assert set(admissible) == expected
    assert len(admissible) == 8

    complete = enumerate_admissible(3, complete_only=True)
    incomplete = {seq((1,), (2,), (1, 1, 1)), seq((1,), (1, 1), (1, 2))}
    assert set(complete) == expected - incomplete
    assert len(complete) == 6
    assert Partition((1, 2)) in seq((1,), (1, 1), (1, 2)).entries  # sanity on builder


def test_criterion_10_order_five_numerator_derivation():
    """rebuilding the level-5 numerator from the stored relations"""
    steps = qhat5_derivation_steps()
    z = [None] + [Polynomial.variable(zvar(i)) for i in range(1, 6)]
    quadratic = (
        2 * z[1] ** 2 + 3 * z[1] * z[2] - 2 * z[1] * z[5] + 2 * z[2] * z[3]
        - z[2] * z[4] - z[2] * z[5] - z[3] * z[4] + z[4] * z[5]
    )
    assert steps.toric_quotient == quadratic
    assert steps.weight_factor == 2 * z[1] + z[2] - z[5]
    assert steps.result == qhat(5)


def test_criterion_11_localization_matches_classes():
    """fixed-point sums agree with substituted classes at seeded points"""
    for d, n, k in ((2, 2, 2), (2, 2, 3), (3, 3, 3), (3, 3, 4)):
        assert sampled_class_agreement(d, n, k, samples=5), f"({d},{n},{k})"


def test_criterion_12_nondistinguished_terms_vanish():
    """non-distinguished residue terms are zero at five roots"""
    counts = {2: 1, 3: 5}
    for d in (2, 3):
        evidence = nondistinguished_vanishing(d, 5, 5)
        assert len(evidence) == counts[d]
        for ev in evidence:
            assert ev.criterion_position is not None, ev.term.sequence.to_text()
            assert ev.expansion_zero, ev.term.sequence.to_text()
            assert ev.sampled_zero, ev.term.sequence.to_text()
            assert ev.vanishes


def test_criterion_13_positivity():
    """class coefficients and series coefficients stay nonnegative"""
    for d in range(1, 6):
        for j in range(3):
            assert tp_positivity(d, j), f"order {d} codim {j}"
    for d in (2, 3, 4):
        report = positivity_expansion(d, 12)
        assert report.nonnegative, f"order {d}: {report.minimum} at {report.witness}"
    # order 5 is an open conjecture: the truncated expansion is reported,
    # not asserted (its recorded minimum is -1 at a1*a2*a3^2*a4)
    probe = positivity_expansion(5, 12)
    assert probe.term_count > 0
    assert isinstance(probe.minimum, Fraction)


def test_criterion_14_relation_calculus():
    """the right action kills expansion relations; stored relations check out"""
    swept = 0
    for d in (2, 3, 4):
        for rho in enumerate_admissible(d):
            for tau in partitions_up_to(4):
                rel = expansion_relation(rho, tau)
                for m in range(1, d + 2):
                    assert apply_right_action(rel, m).is_zero(), (
                        f"depth {d}, rho {rho.to_text()}, tau {tau.to_text()}, m {m}"
                    )
                swept += 1
    assert swept > 500

    for d in (3, 4, 5):
        for rel in basic_relations(d):
            assert uhat_reference_value(rel.polynomial) == 0, rel.label()
            rel.weight()  # raises on an inhomogeneous relation

    assert relation_weight(stored_quartic_relation()) == linear_form(
        (2, zvar(1)), (3, zvar(2)), (3, zvar(3)),
        (-2, zvar(4)), (-1, zvar(5)), (-1, zvar(6)),
    )


def test_criterion_15_engine_robustness():
    """the pole sum at symbolic Chern roots reproduces tp(d, j) for d <= 2, j <= 2"""
    for d in (1, 2):
        for j in range(3):
            expected = substitute_chern(thom_polynomial(d, j), d, d + j)
            assert pole_sum_class(d, j) == expected, f"order {d} codim {j}"
