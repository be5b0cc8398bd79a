"""Registry plumbing, class assembly, closed formulas, localization checks,
and the positivity expansion."""

import json
import time
from fractions import Fraction

import pytest

from thomcalc import (
    Polynomial,
    QhatRegistry,
    ThomPolynomial,
    chern_classes,
    default_registry,
    denominator_forms,
    derive_qhat,
    distinguished_residue_value,
    enumerate_admissible,
    fixed_point_sum,
    fixed_point_terms,
    flag_residue_identity,
    linear_form,
    nondistinguished_vanishing,
    pole_sum_class,
    porteous_localization_sum,
    positivity_expansion,
    qhat,
    qhat5_derivation,
    qhat5_derivation_steps,
    residue_problem_for,
    residue_term_value,
    ronga_reference,
    sampled_class_agreement,
    shift_check,
    substitute_chern,
    thom_polynomial,
    thom_series_view,
    tp_positivity,
    vandermonde,
)
from thomcalc import thom
from thomcalc.errors import (
    CodimensionMismatchError,
    CoincidentPoleError,
    DerivationError,
    MissingQhatError,
    QhatFormatError,
)
from thomcalc.partitions import deg_qhat
from thomcalc.poly import avar, cvar, lamvar, thvar, zvar


def zmono(coeff, *pairs):
    return Polynomial.term(coeff, [(zvar(i), e) for i, e in pairs])


# -- numerator registry ------------------------------------------------


def test_builtin_orders_and_low_values():
    reg = QhatRegistry()
    assert reg.known_orders() == [1, 2, 3, 4, 5]
    for d in (1, 2, 3):
        assert qhat(d, reg) == Polynomial.one()
    assert qhat(4, reg) == zmono(2, (1, 1)) + zmono(1, (2, 1)) - zmono(1, (4, 1))


def test_order_five_factors():
    lead = zmono(2, (1, 1)) + zmono(1, (2, 1)) - zmono(1, (5, 1))
    tail = (
        zmono(2, (1, 2))
        + zmono(3, (1, 1), (2, 1))
        - zmono(2, (1, 1), (5, 1))
        + zmono(2, (2, 1), (3, 1))
        - zmono(1, (2, 1), (4, 1))
        - zmono(1, (2, 1), (5, 1))
        - zmono(1, (3, 1), (4, 1))
        + zmono(1, (4, 1), (5, 1))
    )
    assert qhat(5) == lead * tail
    assert deg_qhat(5) == 3


def test_missing_order_reports_known_ones():
    with pytest.raises(MissingQhatError, match="1, 2, 3, 4, 5"):
        qhat(9)


def test_missing_numerator_fails_before_assembly():
    # the registry lookup must precede the Vandermonde expansion, or this
    # would grind through a huge polynomial before erroring
    start = time.monotonic()
    with pytest.raises(MissingQhatError):
        thom_polynomial(9, 0)
    assert time.monotonic() - start < 5.0


def test_register_rejects_malformed_numerators():
    reg = QhatRegistry()
    with pytest.raises(QhatFormatError):
        reg.register(0, Polynomial.one())
    with pytest.raises(QhatFormatError):
        reg.register(4, Polynomial.zero())
    with pytest.raises(QhatFormatError):
        reg.register(4, Polynomial.variable(cvar(1)))
    with pytest.raises(QhatFormatError):
        reg.register(4, Polynomial.variable(zvar(5)))
    with pytest.raises(QhatFormatError):
        reg.register(4, Polynomial.variable(zvar(1), exponent=-1))
    with pytest.raises(QhatFormatError):
        reg.register(4, zmono(1, (1, 2)))  # degree 2, expected deg 1


def test_register_overwrites_and_layers():
    replacement = zmono(7, (3, 1))
    reg = QhatRegistry({4: replacement})
    assert qhat(4, reg) == replacement
    assert qhat(5, reg) == qhat(5)  # untouched orders keep the builtins
    reg.register(4, zmono(1, (1, 1)))
    assert qhat(4, reg) == zmono(1, (1, 1))


def test_load_file_variants(tmp_path):
    reg = QhatRegistry()
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(qhat(4).to_json_dict()))
    assert reg.load_file(str(bare)) == 4

    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"d": 3, "polynomial": Polynomial.one().to_json_dict()}))
    assert reg.load_file(str(wrapped)) == 3

    constant = tmp_path / "constant.json"
    constant.write_text(json.dumps(Polynomial.one().to_json_dict()))
    with pytest.raises(QhatFormatError, match="explicit order"):
        reg.load_file(str(constant))

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(QhatFormatError):
        reg.load_file(str(broken))

    with pytest.raises(QhatFormatError):
        reg.load_file(str(tmp_path / "absent.json"))


def test_directory_discovery_is_cached(monkeypatch, tmp_path):
    plugin = zmono(1, (1, 1))
    (tmp_path / "qhat_4.json").write_text(
        json.dumps({"d": 4, "polynomial": plugin.to_json_dict()})
    )
    monkeypatch.setenv("THOMCALC_QHAT_DIR", str(tmp_path))
    reg = default_registry()
    assert qhat(4, reg) == plugin
    assert default_registry() is reg
    monkeypatch.delenv("THOMCALC_QHAT_DIR")
    assert qhat(4, default_registry()) == qhat(4)


def test_rewritten_plugin_is_not_served_stale(monkeypatch, tmp_path):
    # same directory, same file name: only the contents change between calls
    path = tmp_path / "qhat_4.json"
    monkeypatch.setenv("THOMCALC_QHAT_DIR", str(tmp_path))
    results = []
    for plugin in (zmono(1, (1, 1)), zmono(1, (2, 1))):
        path.write_text(json.dumps({"d": 4, "polynomial": plugin.to_json_dict()}))
        assert qhat(4) == plugin
        results.append(thom_polynomial(4, 0))
        assert results[-1] == thom_polynomial(4, 0, QhatRegistry({4: plugin}))
    assert results[0] != results[1]


# -- residue problem assembly ------------------------------------------


def test_denominator_forms_low_orders():
    assert denominator_forms(2) == [linear_form((2, zvar(1)), (-1, zvar(2)))]
    assert denominator_forms(3) == [
        linear_form((2, zvar(1)), (-1, zvar(2))),
        linear_form((2, zvar(1)), (-1, zvar(3))),
        linear_form((1, zvar(1)), (1, zvar(2)), (-1, zvar(3))),
    ]


def test_vandermonde_expansion():
    product = (
        (zmono(1, (1, 1)) - zmono(1, (2, 1)))
        * (zmono(1, (1, 1)) - zmono(1, (3, 1)))
        * (zmono(1, (2, 1)) - zmono(1, (3, 1)))
    )
    assert vandermonde(3) == product


def test_problem_assembly_shape():
    problem = residue_problem_for(2, 1)
    assert problem.variables == (zvar(1), zvar(2))
    assert problem.denominator_factors == (
        (linear_form((2, zvar(1)), (-1, zvar(2))), 1),
    )
    assert problem.numerator == vandermonde(2)
    # truncated Chern tail: c_i rides at exponent codim - i down to the cap
    for l in (1, 2):
        series = problem.per_variable_series[zvar(l)]
        assert series.exponent_range(zvar(l)) == (-3, 1)
        for i in range(5):
            slice_ = series.coefficient_slice(zvar(l), 1 - i)
            assert slice_ == Polynomial.variable(cvar(i))


def test_problem_assembly_guards():
    with pytest.raises(ValueError):
        residue_problem_for(0, 0)
    with pytest.raises(ValueError):
        residue_problem_for(2, -1)


# -- assembled classes -------------------------------------------------


def test_class_cache_returns_same_object():
    assert thom_polynomial(2, 0) is thom_polynomial(2, 0)
    fresh = thom_polynomial(2, 0, registry=QhatRegistry())
    assert fresh is not thom_polynomial(2, 0)
    assert fresh.body == thom_polynomial(2, 0).body


def test_order_five_display():
    tp = thom_polynomial(5, 0)
    assert tp.display_body().to_text() == (
        "c1^5 + 10*c1^3*c2 + 10*c1*c2^2 + 25*c1^2*c3"
        " + 12*c2*c3 + 38*c1*c4 + 24*c5"
    )


def test_body_weight_validation():
    good = thom_polynomial(2, 0)
    with pytest.raises(ValueError):
        ThomPolynomial(d=2, codim=0, body=Polynomial.variable(cvar(1)))
    with pytest.raises(ValueError):
        ThomPolynomial(d=2, codim=1, body=good.body)  # weights off by codim
    with pytest.raises(ValueError):
        ThomPolynomial(d=2, codim=0, body=Polynomial.variable(zvar(1)) ** 2)


def test_series_view_display():
    view = thom_series_view(thom_polynomial(2, 1))
    assert view.to_text() == "a0^2 + a(-1)*a1 + 2*a(-2)*a2"


def test_closed_formula_guards():
    with pytest.raises(ValueError):
        ronga_reference(-1)
    with pytest.raises(ValueError):
        shift_check(2, 0)


# -- Chern data and the Porteous cross-check ---------------------------


def test_rank_one_chern_values():
    assign = chern_classes(1, 1, 3)
    l1, t1 = Polynomial.variable(lamvar(1)), Polynomial.variable(thvar(1))
    assert assign.values[0] == Polynomial.one()
    assert assign.values[1] == t1 - l1
    assert assign.values[2] == l1 * l1 - l1 * t1
    assert assign.values[3] == l1 * l1 * t1 - l1 ** 3


def test_zero_source_chern_truncates():
    assign = chern_classes(0, 1, 2)
    assert assign.values[1] == Polynomial.variable(thvar(1))
    assert assign.values[2] == Polynomial.zero()


def test_chern_generating_identity():
    # (sum c_m t^m) * prod(1 + lam_i t) agrees with prod(1 + th_j t)
    # through the truncation order
    assign = chern_classes(2, 2, 4)
    t = Polynomial.variable(zvar(1))
    lhs = Polynomial.zero()
    for m, value in assign.values.items():
        lhs = lhs + value * t ** m
    for i in (1, 2):
        lhs = lhs * (Polynomial.one() + Polynomial.variable(lamvar(i)) * t)
    rhs = Polynomial.one()
    for j in (1, 2):
        rhs = rhs * (Polynomial.one() + Polynomial.variable(thvar(j)) * t)
    difference = lhs - rhs
    for power in range(5):
        assert len(difference.coefficient_slice(zvar(1), power)) == 0


def test_substituted_rank_one_class():
    l1, t1 = Polynomial.variable(lamvar(1)), Polynomial.variable(thvar(1))
    expected = (t1 - l1) * (t1 - 2 * l1)
    assert substitute_chern(thom_polynomial(2, 0), 1, 1) == expected
    with pytest.raises(CodimensionMismatchError):
        substitute_chern(thom_polynomial(2, 0), 1, 2)


def test_porteous_sample_value():
    total = porteous_localization_sum(2, 2).evaluate((1, 2), (3, 5))
    substituted = substitute_chern(thom_polynomial(1, 0), 2, 2)
    direct = substituted.evaluate(
        {lamvar(1): 1, lamvar(2): 2, thvar(1): 3, thvar(2): 5}
    )
    assert total == direct == Fraction(5)
    with pytest.raises(CoincidentPoleError):
        porteous_localization_sum(2, 2).evaluate((1, 1), (3, 5))
    with pytest.raises(ValueError):
        porteous_localization_sum(0, 2)


def test_pole_sum_tells_a_wrong_class_apart():
    doubled = QhatRegistry({2: Polynomial.constant(2)})
    wrong = substitute_chern(thom_polynomial(2, 0, doubled), 2, 2)
    assert pole_sum_class(2, 0) != wrong
    assert pole_sum_class(2, 0, doubled) == wrong
    with pytest.raises(CoincidentPoleError):
        pole_sum_class(3, 0)  # some poles coincide structurally from order 3 on


def test_flag_identity_and_guards():
    q = zmono(1, (1, 2), (2, 1)) + Polynomial.one()
    assert flag_residue_identity(q, 3, 2, samples=2, seed=11)
    with pytest.raises(ValueError):
        flag_residue_identity(q, 1, 2)
    with pytest.raises(ValueError):
        flag_residue_identity(Polynomial.variable(cvar(1)), 3, 2)


# -- fixed-point terms and their residues ------------------------------


def test_depth_two_term_table():
    terms = fixed_point_terms(2)
    assert [t.distinguished for t in terms] == [True, False]
    assert [t.shifts for t in terms] == [
        (linear_form((1, zvar(1))), linear_form((1, zvar(2)))),
        (linear_form((1, zvar(1))), linear_form((2, zvar(1)))),
    ]
    assert terms[0].chart_factors == (linear_form((2, zvar(1)), (-1, zvar(2))),)
    assert terms[1].chart_factors == (linear_form((1, zvar(2)), (-2, zvar(1))),)


def test_depth_three_term_table():
    terms = fixed_point_terms(3)
    assert len(terms) == 6
    assert sum(1 for t in terms if t.distinguished) == 1
    for term in terms:
        assert len(term.shifts) == 3
        assert len(term.chart_factors) == 3
    sequences = {term.sequence for term in terms}
    assert sequences == set(enumerate_admissible(3, complete_only=True))
    with pytest.raises(ValueError):
        fixed_point_terms(4)


def test_localization_sum_guards():
    with pytest.raises(ValueError):
        fixed_point_sum(3, 2, 2)
    total = fixed_point_sum(2, 2, 2)
    with pytest.raises(ValueError):
        total.evaluate((1,), (3, 5))
    with pytest.raises(CoincidentPoleError):
        total.evaluate((1, 1), (3, 5))
    with pytest.raises(CoincidentPoleError, match="chart weight"):
        total.evaluate((1, 2), (3, 5))  # 2*z_1 - z_2 dies on this sample


def test_depth_one_sum_is_the_rank_one_class():
    (term,) = fixed_point_terms(1)
    assert term.distinguished
    assert term.shifts == (linear_form((1, zvar(1))),)
    assert term.chart_factors == ()
    for n, k in ((1, 1), (1, 3), (2, 3)):
        assert sampled_class_agreement(1, n, k), (n, k)


def test_distinguished_term_carries_the_class():
    lam, theta = (1, 5), (3, 7)
    value = distinguished_residue_value(2, lam, theta)
    substituted = substitute_chern(thom_polynomial(2, 0), 2, 2)
    direct = substituted.evaluate(
        {lamvar(1): 1, lamvar(2): 5, thvar(1): 3, thvar(2): 7}
    )
    assert value == direct == Fraction(8)
    assert fixed_point_sum(2, 2, 2).evaluate(lam, theta) == value


def test_depth_three_distinguished_value():
    lam = (Fraction(1), Fraction(5), Fraction(17, 2))
    theta = (Fraction(3), Fraction(7), Fraction(23, 3))
    value = distinguished_residue_value(3, lam, theta)
    substituted = substitute_chern(thom_polynomial(3, 0), 3, 3)
    assignment = {lamvar(i + 1): lam[i] for i in range(3)}
    assignment.update({thvar(j + 1): theta[j] for j in range(3)})
    assert value == substituted.evaluate(assignment) == Fraction(-82, 27)


def test_nondistinguished_term_contributes_nothing():
    other = [t for t in fixed_point_terms(2) if not t.distinguished][0]
    assert residue_term_value(other, (1, 5), (3, 7)) == 0
    evidence = nondistinguished_vanishing(2, 5, 5, samples=1, seed=3)
    assert len(evidence) == 1
    assert evidence[0].criterion_position is not None
    assert evidence[0].expansion_zero
    assert evidence[0].sampled_zero
    assert evidence[0].vanishes


def test_longer_series_window_changes_no_compressed_residue(monkeypatch):
    cases = [
        (term, n, k)
        for d in (2, 3)
        for term in fixed_point_terms(d)
        for n, k in ((5, 5), (3, 3), (4, 2), (6, 4))
    ]
    exact = [thom._compressed_term_residue(*case) for case in cases]
    assert any(not residue.is_zero() for residue in exact)
    cap = thom._series_cap
    monkeypatch.setattr(thom, "_series_cap", lambda *args: cap(*args) + 3)
    assert [thom._compressed_term_residue(*case) for case in cases] == exact


def test_vanishing_guards():
    with pytest.raises(ValueError):
        nondistinguished_vanishing(3, 2, 2)
    with pytest.raises(ValueError):
        nondistinguished_vanishing(2, 2, 0)


# -- the order-five numerator derivation -------------------------------


def test_numerators_are_multidegrees_of_the_basic_relations():
    for d in range(1, 6):
        assert derive_qhat(d) == qhat(d), d
    with pytest.raises(ValueError):
        derive_qhat(0)


def test_derivation_steps_cohere():
    steps = qhat5_derivation_steps()
    assert steps.result == steps.weight_factor * steps.toric_quotient
    assert steps.result == qhat(5)
    assert qhat5_derivation() == qhat(5)


def test_derivation_detects_corrupted_registry():
    # degree 3 keeps the override structurally valid, so only the final
    # comparison can catch it
    fake = QhatRegistry({5: zmono(1, (1, 3))})
    with pytest.raises(DerivationError):
        qhat5_derivation(fake)


# -- positivity --------------------------------------------------------


def test_positivity_report_shapes():
    trivial = positivity_expansion(1, 5)
    assert (trivial.term_count, trivial.minimum, trivial.witness) == (1, Fraction(1), "1")
    head = positivity_expansion(2, 0)
    assert (head.term_count, head.minimum) == (1, Fraction(1))
    report = positivity_expansion(2, 4)
    assert report.term_count == 5
    assert report.minimum == Fraction(1)
    assert report.nonnegative


def test_positivity_guards():
    with pytest.raises(ValueError):
        positivity_expansion(0, 3)
    with pytest.raises(ValueError):
        positivity_expansion(2, -1)


def test_class_coefficients_positive():
    assert tp_positivity(3, 1)
