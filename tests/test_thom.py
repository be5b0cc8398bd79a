"""Registry plumbing, class assembly, closed formulas, localization checks,
and the positivity expansion."""

import json
import random
import time
from fractions import Fraction
from functools import cache
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from thomcalc import (
    LinearForm,
    Polynomial,
    PositivityReport,
    QhatRegistry,
    ThomPolynomial,
    chern_classes,
    default_registry,
    denominator_forms,
    derive_qhat,
    enumerate_admissible,
    fixed_point_sum,
    fixed_point_terms,
    flag_residue_identity,
    iterated_residue,
    linear_form,
    nondistinguished_vanishing,
    pole_sum_class,
    positivity_expansion,
    qhat,
    qhat5_derivation_steps,
    residue_by_pole_sum,
    residue_problem_for,
    ronga_reference,
    sampled_class_agreement,
    shift_check,
    substitute_chern,
    thom_polynomial,
    thom_series_view,
    tp_positivity,
    vandermonde,
    vanishing_criterion,
)
from thomcalc import thom
from thomcalc.errors import (
    CodimensionMismatchError,
    CoincidentPoleError,
    DerivationError,
    MissingQhatError,
    QhatFormatError,
)
from thomcalc.packed import ExponentPacking, divide_by_form, packed_product
from thomcalc.partitions import deg_qhat, uhat_index_triples
from thomcalc.poly import Monomial, avar, cvar, lamvar, thvar, zvar
from thomcalc.residue import deg_in_subset


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

    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"d": 4.5, "polynomial": qhat(4).to_json_dict()}))
    with pytest.raises(QhatFormatError, match="integer"):
        reg.load_file(str(fractional))

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


def test_one_plugin_scan_per_uncached_class(monkeypatch, tmp_path):
    (tmp_path / "qhat_4.json").write_text(
        json.dumps({"d": 4, "polynomial": qhat(4).to_json_dict()})
    )
    monkeypatch.setenv("THOMCALC_QHAT_DIR", str(tmp_path))
    default_registry()  # loads the plugin
    scans = []
    files = thom._plugin_files
    monkeypatch.setattr(thom, "_plugin_files", lambda env: scans.append(env) or files(env))
    thom_polynomial(4, 1)
    assert scans == [str(tmp_path)]


def test_default_registry_changed_by_register_is_not_served_stale(monkeypatch, tmp_path):
    # a plugin directory of its own, so the shared default is left alone
    monkeypatch.setenv("THOMCALC_QHAT_DIR", str(tmp_path))
    before = thom_polynomial(4, 0)
    default_registry().register(4, 3 * qhat(4))
    assert thom_polynomial(4, 0).body == 3 * before.body
    assert positivity_expansion(4, 4).minimum == 3 * positivity_expansion(4, 4, QhatRegistry()).minimum


def test_explicit_registry_is_not_served_the_default_numerator():
    default = thom_polynomial(2, 0)  # fills the memos of the default registry
    doubled = thom_polynomial(2, 0, QhatRegistry({2: 2 * qhat(2)}))
    assert doubled.body == 2 * default.body


def test_registry_changed_by_register_gives_the_new_class():
    registry = QhatRegistry()
    before = thom_polynomial(4, 0, registry)
    registry.register(4, 3 * qhat(4))
    assert thom_polynomial(4, 0, registry).body == 3 * before.body


# -- residue problem assembly ------------------------------------------


def test_chern_windows_are_the_series_through_the_weighted_degree():
    for d in range(1, 6):
        for j in range(3):
            series = residue_problem_for(d, j).per_variable_series
            assert list(series) == [zvar(l) for l in range(1, d + 1)]
            for z, window in series.items():
                expected = Polynomial.zero()
                for i in range(d * (j + 1) + 1):
                    expected = expected + Polynomial.term(1, [(cvar(i), 1), (z, j - i)])
                # the same terms in the same order
                assert list(window.term_map().items()) == list(expected.term_map().items())


def test_denominator_forms_low_orders():
    assert denominator_forms(2) == [linear_form((2, zvar(1)), (-1, zvar(2)))]
    assert denominator_forms(3) == [
        linear_form((2, zvar(1)), (-1, zvar(2))),
        linear_form((2, zvar(1)), (-1, zvar(3))),
        linear_form((1, zvar(1)), (1, zvar(2)), (-1, zvar(3))),
    ]


def test_denominator_forms_are_the_triple_weights_through_order_7():
    # z_m + z_r - z_l built here, one per index triple; m = r counts twice
    for d in range(1, 8):
        expected = []
        for m, r, l in uhat_index_triples(d):
            coeffs = {}
            for i, sign in ((m, 1), (r, 1), (l, -1)):
                coeffs[zvar(i)] = coeffs.get(zvar(i), 0) + sign
            expected.append(LinearForm(0, coeffs))
        assert denominator_forms(d) == expected, f"order {d}"


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
    # V_2 stays a factor, at multiplicity -1, ahead of the denominator form
    assert problem.denominator_factors == (
        (linear_form((1, zvar(1)), (-1, zvar(2))), -1),
        (linear_form((2, zvar(1)), (-1, zvar(2))), 1),
    )
    assert problem.numerator == Polynomial.one()
    # truncated Chern tail: c_i rides at exponent codim - i down to the cap
    for l in (1, 2):
        window = sum(
            (Polynomial.term(1, [(cvar(i), 1), (zvar(l), 1 - i)]) for i in range(5)),
            Polynomial.zero(),
        )
        assert problem.per_variable_series[zvar(l)] == window


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


def test_order_six_class_from_the_derived_numerator():
    registry = QhatRegistry({6: derive_qhat(6)})
    assert thom_polynomial(6, 0, registry).to_text() == (
        "c1^6 + 15*c1^4*c2 + 30*c1^2*c2^2 + 55*c1^3*c3 + 5*c2^3"
        " + 79*c1*c2*c3 + 141*c1^2*c4 + 17*c3^2 + 55*c2*c4 + 202*c1*c5 + 120*c6"
    )


def test_class_path_never_expands_the_vandermonde(monkeypatch):
    registry = QhatRegistry({6: derive_qhat(6)})
    calls = []
    expand = thom.vandermonde
    monkeypatch.setattr(thom, "vandermonde", lambda d: calls.append(d) or expand(d))
    for codim in (0, 1):
        # Q_6 alone: its 395 terms, not the 25,691 of V_6 * Q_6
        assert len(residue_problem_for(6, codim, registry).numerator) == 395
        thom_polynomial(6, codim, registry)
    pole_sum_class(2, 2)
    assert flag_residue_identity(zmono(1, (1, 2), (2, 1)), 4, 3, samples=1)
    assert positivity_expansion(6, 8, registry).term_count == 210
    # each depth-3 term residue takes its envelopes as linear factors too:
    # every numerator is the 1 term, not the up to 336 of their product
    sizes = []
    residue = thom.iterated_residue
    monkeypatch.setattr(
        thom, "iterated_residue", lambda p: sizes.append(len(p.numerator)) or residue(p)
    )
    assert all(ev.vanishes for ev in nondistinguished_vanishing(3, 5, 5, samples=1))
    assert sizes == [1] * 10
    assert calls == []


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
    values = chern_classes(1, 1, 3)
    l1, t1 = Polynomial.variable(lamvar(1)), Polynomial.variable(thvar(1))
    assert values[0] == Polynomial.one()
    assert values[1] == t1 - l1
    assert values[2] == l1 * l1 - l1 * t1
    assert values[3] == l1 * l1 * t1 - l1 ** 3


def test_zero_source_chern_truncates():
    values = chern_classes(0, 1, 2)
    assert values[1] == Polynomial.variable(thvar(1))
    assert values[2] == Polynomial.zero()


def test_chern_generating_identity():
    # (sum c_m t^m) * prod(1 + lam_i t) agrees with prod(1 + th_j t)
    # through the truncation order
    t = Polynomial.variable(zvar(1))
    lhs = Polynomial.zero()
    for m, value in chern_classes(2, 2, 4).items():
        lhs = lhs + value * t ** m
    for i in (1, 2):
        lhs = lhs * (Polynomial.one() + Polynomial.variable(lamvar(i)) * t)
    rhs = Polynomial.one()
    for j in (1, 2):
        rhs = rhs * (Polynomial.one() + Polynomial.variable(thvar(j)) * t)
    difference = lhs - rhs
    assert all(dict(mono).get(zvar(1), 0) > 4 for mono in difference.term_map())


@pytest.mark.parametrize("n, k, t", [(0, 1, 2), (1, 1, 3), (2, 3, 4), (3, 4, 8)])
def test_numeric_chern_values_are_the_classes_at_the_roots(n, k, t):
    rng = random.Random(n * 100 + k * 10 + t)
    lam = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(n)]
    theta = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(k)]
    assignment = {lamvar(i + 1): x for i, x in enumerate(lam)}
    assignment.update({thvar(j + 1): x for j, x in enumerate(theta)})
    values = thom._chern_values(lam, theta, t, Fraction(1))
    classes = chern_classes(n, k, t)
    assert len(values) == len(classes) == t + 1
    assert values == [classes[m].evaluate(assignment) for m in range(t + 1)]
    assert all(type(value) is Fraction for value in values)


def test_substituted_rank_one_class():
    l1, t1 = Polynomial.variable(lamvar(1)), Polynomial.variable(thvar(1))
    expected = (t1 - l1) * (t1 - 2 * l1)
    assert substitute_chern(thom_polynomial(2, 0), 1, 1) == expected
    with pytest.raises(CodimensionMismatchError):
        substitute_chern(thom_polynomial(2, 0), 1, 2)


def test_porteous_sample_value():
    total = fixed_point_sum(1, (1, 2), (3, 5))
    substituted = substitute_chern(thom_polynomial(1, 0), 2, 2)
    direct = substituted.evaluate(
        {lamvar(1): 1, lamvar(2): 2, thvar(1): 3, thvar(2): 5}
    )
    assert total == direct == Fraction(5)
    with pytest.raises(CoincidentPoleError):
        fixed_point_sum(1, (1, 1), (3, 5))
    with pytest.raises(ValueError):
        fixed_point_sum(1, (), (3, 5))


def test_pole_sum_tells_a_wrong_class_apart():
    # from order 3 on as well: the level sum meets no coincident poles
    for d in (2, 3):
        doubled = QhatRegistry({d: Polynomial.constant(2)})
        right = substitute_chern(thom_polynomial(d, 0), d, d)
        wrong = substitute_chern(thom_polynomial(d, 0, doubled), d, d)
        assert pole_sum_class(d, 0) == right != wrong
        assert pole_sum_class(d, 0, doubled) == wrong


def test_pole_sum_class_takes_orders_one_to_three():
    # symbolic roots stop paying at d = 4: that order is refused, not run
    for d in (0, 4, 5):
        with pytest.raises(ValueError, match="orders 1 to 3 only"):
            pole_sum_class(d, 0)


def test_flag_identity_and_guards():
    q = zmono(1, (1, 2), (2, 1)) + Polynomial.one()
    assert flag_residue_identity(q, 3, 2, samples=2, seed=11)
    with pytest.raises(ValueError):
        flag_residue_identity(q, 1, 2)
    with pytest.raises(ValueError):
        flag_residue_identity(Polynomial.variable(cvar(1)), 3, 2)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            flag_residue_identity(q, 3, 2, samples=samples)


# -- fixed-point terms and their residues ------------------------------


def at_roots(form, theta):
    """form with each theta_j replaced by the number theta[j - 1]."""
    values = {thvar(j): t for j, t in enumerate(theta, start=1)}
    constant = form.constant + sum(q * values[v] for v, q in form.items if v in values)
    return LinearForm(constant, {v: q for v, q in form.items if v not in values})


def residue_term_value(term, lam, theta):
    """One term's iterated residue at a fully numeric root sample: the
    term's factors are _term_integrand's, with every theta form
    theta_j - s_l taken at the numbers theta."""
    numerator, factors = thom._term_integrand(term, len(theta))
    integrand = numerator, tuple((at_roots(form, theta), mult) for form, mult in factors)
    roots = [LinearForm(x) for x in lam]
    return iterated_residue(thom._with_root_poles(integrand, term.sequence.depth, roots)).evaluate({})


def elementary_envelope(shift, k):
    """prod_j (theta_j - s) as sum_t a_t (-s)^(k - t), a_0 = 1, by Horner's
    rule in Polynomial arithmetic: the reference for _term_integrand's
    factored envelopes once a_t is e_t(theta_1, ..., theta_k)."""
    minus_s = -shift.as_polynomial()
    out = Polynomial.one()
    for t in range(1, k + 1):
        out = out * minus_s + Polynomial.variable(avar(t))
    return out


def elementary_at_theta(k):
    """a_t -> e_t(theta_1, ..., theta_k) for t = 1..k."""
    elementary = [Polynomial.one()]
    for j in range(1, k + 1):
        theta = Polynomial.variable(thvar(j))
        elementary = [a + theta * b for a, b in zip(elementary + [0], [0] + elementary)]
    return {avar(t): elementary[t] for t in range(1, k + 1)}


def reference_integrand(term, k):
    """A term's integrand with its envelopes multiplied out in the a_t, as
    sum_t a_t (-s)^(k - t): V_d's forms at -1 and the charts at 1."""
    envelopes = [elementary_envelope(shift, k) for shift in term.shifts]
    factors = tuple((form, -1) for form in thom._vandermonde_forms(term.sequence.depth))
    factors += tuple((form, 1) for form in term.chart_factors)
    return packed_product(*envelopes), factors


def term_problem(term, n, k):
    """One term's integrand over the symbolic poles lambda_i - z_l, as the
    vanishing criterion reads it."""
    roots = [linear_form((1, lamvar(i))) for i in range(1, n + 1)]
    return thom._with_root_poles(thom._term_integrand(term, k), term.sequence.depth, roots)


def test_term_problem_is_vandermonde_charts_then_root_poles():
    # V_d's forms at -1, theta_j - s at -1 per shift s and j, the charts,
    # then lambda_i - z_l with l outermost, each simple; the numerator is 1
    n, k = 5, 2
    at = elementary_at_theta(k)
    for d in (1, 2, 3):
        zs = tuple(zvar(l) for l in range(1, d + 1))
        for term in fixed_point_terms(d):
            thetas = [
                linear_form((1, thvar(j)), *((-q, v) for v, q in shift.items))
                for shift in term.shifts
                for j in range(1, k + 1)
            ]
            poles = [
                linear_form((1, lamvar(i)), (-1, zvar(l)))
                for l in range(1, d + 1)
                for i in range(1, n + 1)
            ]
            expected = tuple((form, -1) for form in (*thom._vandermonde_forms(d), *thetas))
            expected += tuple((form, 1) for form in (*term.chart_factors, *poles))
            problem = term_problem(term, n, k)
            assert problem.denominator_factors == expected, term
            assert problem.variables == zs
            assert problem.numerator == Polynomial.one()
            # a shift's k theta forms multiply out to its envelope
            for l, shift in enumerate(term.shifts):
                envelope = packed_product(*(f.as_polynomial() for f in thetas[l * k : (l + 1) * k]))
                assert envelope == elementary_envelope(shift, k).substitute(at), (term, shift)


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


# {sequence: (shifts, chart factors sorted as text, distinguished)} per depth
PINNED_TERMS = {
    1: {"([1])": (("z_1",), (), True)},
    2: {
        "([1],[2])": (("z_1", "z_2"), ("2*z_1 - z_2",), True),
        "([1],[1,1])": (("z_1", "2*z_1"), ("-2*z_1 + z_2",), False),
    },
    3: {
        "([1],[2],[3])": (
            ("z_1", "z_2", "z_3"),
            ("2*z_1 - z_2", "2*z_1 - z_3", "z_1 + z_2 - z_3"),
            True,
        ),
        "([1],[2],[1,2])": (
            ("z_1", "z_2", "z_1 + z_2"),
            ("-z_1 - z_2 + z_3", "2*z_1 - z_2", "z_1 - z_2"),
            False,
        ),
        "([1],[2],[1,1])": (
            ("z_1", "z_2", "2*z_1"),
            ("-2*z_1 + z_3", "-z_1 + z_2", "2*z_1 - z_2"),
            False,
        ),
        "([1],[1,1],[3])": (
            ("z_1", "2*z_1", "z_3"),
            ("-2*z_1 + z_2", "3*z_1 - z_3", "z_2 - z_3"),
            False,
        ),
        "([1],[1,1],[1,1,1])": (
            ("z_1", "2*z_1", "3*z_1"),
            ("-2*z_1 + z_2", "-3*z_1 + z_2", "-3*z_1 + z_3"),
            False,
        ),
        "([1],[1,1],[2])": (
            ("z_1", "2*z_1", "z_2"),
            ("-2*z_1 + z_2", "-z_2 + z_3", "3*z_1 - z_2"),
            False,
        ),
    },
}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fixed_point_terms_match_the_pinned_tables(d):
    got = {}
    for term in fixed_point_terms(d):
        got[term.sequence.to_text()] = (
            tuple(s.to_text() for s in term.shifts),
            tuple(sorted(c.to_text() for c in term.chart_factors)),
            term.distinguished,
        )
    assert len(got) == len(fixed_point_terms(d))
    assert got == PINNED_TERMS[d]


def test_localization_sum_guards():
    with pytest.raises(ValueError, match="need d <= n <= k"):
        fixed_point_sum(3, (1, 2), (3, 5))
    with pytest.raises(ValueError, match="need d <= n <= k"):
        fixed_point_sum(2, (1,), (3, 5))
    with pytest.raises(ValueError, match="need d <= n <= k"):
        fixed_point_sum(2, (1, 2, 4), (3, 5))
    with pytest.raises(CoincidentPoleError):
        fixed_point_sum(2, (1, 1), (3, 5))
    with pytest.raises(CoincidentPoleError, match="chart weight"):
        fixed_point_sum(2, (1, 2), (3, 5))  # 2*z_1 - z_2 dies on this sample
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            sampled_class_agreement(2, 2, 3, samples=samples)


def test_class_agreement_gives_up_past_a_dead_chart(monkeypatch):
    # every draw puts the source roots at (1, 2), where 2*z_1 - z_2 dies
    monkeypatch.setattr(thom, "_distinct_roots", lambda rng, count: (1, 2))
    with pytest.raises(CoincidentPoleError, match="cannot draw enough generic root samples"):
        sampled_class_agreement(2, 2, 3, samples=2)


def test_distinct_roots_are_distinct_ints_in_range():
    rng = random.Random(5)
    for count in (1, 3, 8):
        roots = thom._distinct_roots(rng, count)
        assert len(set(roots)) == len(roots) == count
        assert all(type(x) is int and -720 <= x <= 720 for x in roots)


@cache
def substituted_class(d, n, k):
    return substitute_chern(thom_polynomial(d, k - n), n, k)


@st.composite
def localization_samples(draw):
    # int roots, as the seeded checks draw, and Fractions with denominators
    # up to 12, so the sum runs in either ring or in a mix of the two
    root = st.integers(-60, 60) | st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, 5))
    k = draw(st.integers(n, 5))
    return d, draw(st.lists(root, min_size=n, max_size=n)), draw(
        st.lists(root, min_size=k, max_size=k)
    )


@given(localization_samples())
@settings(max_examples=60, deadline=None)
def test_fixed_point_sum_is_the_substituted_class(sample):
    d, lam, theta = sample
    assume(len(set(lam)) == len(lam))
    try:
        total = fixed_point_sum(d, lam, theta)
    except CoincidentPoleError:
        assume(False)
    assignment = {lamvar(i): x for i, x in enumerate(lam, start=1)}
    assignment.update({thvar(j): t for j, t in enumerate(theta, start=1)})
    assert total == substituted_class(d, len(lam), len(theta)).evaluate(assignment)


def test_depth_one_sum_is_the_rank_one_class():
    (term,) = fixed_point_terms(1)
    assert term.distinguished
    assert term.shifts == (linear_form((1, zvar(1))),)
    assert term.chart_factors == ()
    for n, k in ((1, 1), (1, 3), (2, 3)):
        assert sampled_class_agreement(1, n, k), (n, k)


def test_distinguished_term_carries_the_class():
    lam, theta = (1, 5), (3, 7)
    (term,) = [t for t in fixed_point_terms(2) if t.distinguished]
    value = residue_term_value(term, lam, theta)
    substituted = substitute_chern(thom_polynomial(2, 0), 2, 2)
    direct = substituted.evaluate(
        {lamvar(1): 1, lamvar(2): 5, thvar(1): 3, thvar(2): 7}
    )
    assert value == direct == Fraction(8)
    assert fixed_point_sum(2, lam, theta) == value


def test_depth_three_distinguished_value():
    lam = (Fraction(1), Fraction(5), Fraction(17, 2))
    theta = (Fraction(3), Fraction(7), Fraction(23, 3))
    (term,) = [t for t in fixed_point_terms(3) if t.distinguished]
    value = residue_term_value(term, lam, theta)
    substituted = substitute_chern(thom_polynomial(3, 0), 3, 3)
    assignment = {lamvar(i + 1): lam[i] for i in range(3)}
    assignment.update({thvar(j + 1): theta[j] for j in range(3)})
    assert value == substituted.evaluate(assignment) == Fraction(-82, 27)


@pytest.mark.parametrize(
    "lam, theta, expected",
    [
        ((1, 5), (3, 7), Fraction(8)),
        ((1, 5, Fraction(17, 2)), (3, 7, Fraction(23, 3)), Fraction(-82, 27)),
    ],
)
def test_packed_samples_keep_the_distinguished_value(lam, theta, expected):
    # the witness can still fail: on the problems the vanishing check
    # builds from one term integrand, the distinguished term keeps the class
    # values pinned above, the target roots entering as the symbols theta_j
    (term,) = [t for t in fixed_point_terms(len(lam)) if t.distinguished]
    d = n = len(lam)
    integrand = thom._term_integrand(term, len(theta))
    roots = [LinearForm(Fraction(x)) for x in lam]
    value = iterated_residue(thom._with_root_poles(integrand, d, roots))
    assert not value.is_zero()
    assert not iterated_residue(thom._chern_window_problem(*integrand, d, -n)).is_zero()
    assert value.variables() <= {thvar(j) for j in range(1, len(theta) + 1)}
    assert value.evaluate({thvar(j): t for j, t in enumerate(theta, start=1)}) == expected


def test_nondistinguished_term_contributes_nothing():
    other = [t for t in fixed_point_terms(2) if not t.distinguished][0]
    assert residue_term_value(other, (1, 5), (3, 7)) == 0
    evidence = nondistinguished_vanishing(2, 5, 5, samples=1, seed=3)
    assert len(evidence) == 1
    assert evidence[0].criterion_position is not None
    assert evidence[0].expansion_zero
    assert evidence[0].sampled_zero
    assert evidence[0].vanishes


def test_criterion_positions_are_pinned():
    got = {
        (d, ev.term.sequence.to_text()): ev.criterion_position
        for d in (2, 3)
        for ev in nondistinguished_vanishing(d, 5, 5, samples=1)
    }
    assert got == {
        (2, "([1],[1,1])"): 2,
        (3, "([1],[2],[1,1])"): 2,
        (3, "([1],[2],[1,2])"): 3,
        (3, "([1],[1,1],[2])"): 2,
        (3, "([1],[1,1],[3])"): 2,
        (3, "([1],[1,1],[1,1,1])"): 2,
    }


@pytest.mark.parametrize("d, n, k", [(2, 5, 5), (2, 3, 2), (3, 3, 2), (3, 5, 5)])
def test_criterion_never_certifies_the_distinguished_term(d, n, k):
    # the distinguished term carries the class, so its residue is not zero
    # and no position may certify that it vanishes
    (term,) = [t for t in fixed_point_terms(d) if t.distinguished]
    problem = term_problem(term, n, k)
    assert not iterated_residue(problem).is_zero()
    assert not any(vanishing_criterion(problem, l) for l in range(1, d + 1))


def test_subset_degree_of_a_term_numerator_adds_over_its_factors():
    # with every symbol outside the subset held constant the degrees live
    # in a polynomial ring, a domain, so the degree of the numerator times
    # its forms at -1 is the sum over V_d's forms and the theta forms, and
    # a shift's theta forms add up to its envelope's degree
    k = 5
    for d in (2, 3):
        vandermonde_factors = [
            linear_form((1, zvar(m)), (-1, zvar(l))).as_polynomial()
            for m in range(1, d + 1)
            for l in range(m + 1, d + 1)
        ]
        subsets = [
            [i for i in range(1, d + 1) if mask >> (i - 1) & 1]
            for mask in range(1, 2 ** d)
        ]
        for term in fixed_point_terms(d):
            if term.distinguished:
                continue
            numerator, factors = thom._term_integrand(term, k)
            assert numerator == Polynomial.one()
            raised = [form.as_polynomial() for form, mult in factors if mult == -1]
            assert raised[: len(vandermonde_factors)] == vandermonde_factors
            thetas = raised[len(vandermonde_factors) :]
            assert len(thetas) == k * len(term.shifts)
            envelopes = [elementary_envelope(shift, k) for shift in term.shifts]
            expanded = packed_product(numerator, *raised)
            for subset in subsets:
                summed = sum(deg_in_subset(f, subset) for f in raised)
                assert deg_in_subset(expanded, subset) == summed, (term, subset)
                enveloped = sum(deg_in_subset(f, subset) for f in envelopes)
                assert sum(deg_in_subset(f, subset) for f in thetas) == enveloped, (term, subset)
            # z_1 - z_2 has degree 1 on {z_1, z_2}: it is not t - t = 0
            assert deg_in_subset(vandermonde_factors[0], [1, 2]) == 1
            # every V_d form has z_1 or z_2, and a shift's k theta forms
            # have degree k when the shift does
            reached = [s for s in term.shifts if s.coefficient(zvar(1)) or s.coefficient(zvar(2))]
            assert deg_in_subset(expanded, [1, 2]) == len(vandermonde_factors) + k * len(reached)


def test_class_agreement_refuses_a_wrong_class(monkeypatch):
    right = thom_polynomial(3, 1)
    mono, _ = next(right.body.terms())
    wrong = ThomPolynomial(
        d=3, codim=1, body=right.body + Polynomial({mono: 1})
    )
    assert sampled_class_agreement(3, 3, 4, samples=2)
    monkeypatch.setattr(thom, "thom_polynomial", lambda d, codim: wrong)
    assert not sampled_class_agreement(3, 3, 4, samples=2)


def test_longer_series_window_changes_no_compressed_residue(monkeypatch):
    cases = [
        (term, n, k)
        for d in (2, 3)
        for term in fixed_point_terms(d)
        for n, k in ((5, 5), (3, 3), (4, 2), (6, 4))
    ]

    def compressed(term, n, k):
        integrand = thom._term_integrand(term, k)
        return iterated_residue(thom._chern_window_problem(*integrand, term.sequence.depth, -n))

    exact = [compressed(*case) for case in cases]
    assert any(not residue.is_zero() for residue in exact)
    cap = thom._series_cap
    monkeypatch.setattr(thom, "_series_cap", lambda *args: cap(*args) + 3)
    assert [compressed(*case) for case in cases] == exact


def test_factored_envelopes_keep_the_compressed_residue():
    # the theta forms at -1 give the residue of the multiplied-out
    # envelopes sum_t a_t (-s)^(k - t) with a_t replaced by e_t(theta), the
    # distinguished terms included; theirs are nonzero unless k < n, where
    # the class, of codimension k - n, is 0
    for d in (2, 3):
        for term in fixed_point_terms(d):
            for n, k in ((5, 5), (3, 3), (4, 2), (6, 4)):
                factored = thom._chern_window_problem(*thom._term_integrand(term, k), d, -n)
                reference = thom._chern_window_problem(*reference_integrand(term, k), d, -n)
                residue = iterated_residue(factored)
                expected = iterated_residue(reference).substitute(elementary_at_theta(k))
                assert residue == expected, (term, n, k)
                assert residue.is_zero() == (not term.distinguished or k < n), (term, n, k)


def test_term_integrand_pole_sum_matches_the_series_kernel():
    # both routes read the factored envelopes, at seeded numeric roots
    rng = random.Random(thom.DEFAULT_SEED)
    lam = [LinearForm(x) for x in thom._distinct_roots(rng, 5)]
    sizes = []
    for term in fixed_point_terms(2):
        problem = thom._with_root_poles(thom._term_integrand(term, 5), 2, lam)
        residue = iterated_residue(problem)
        assert residue_by_pole_sum(problem) == residue, term
        sizes.append(len(residue))
    assert sizes == [21, 0]


def test_vanishing_witnesses_go_through_iterated_residue(monkeypatch):
    # the benchmark times iterated_residue by name: per non-distinguished
    # term, the compressed window and one residue per sample go through it
    calls = []
    residue = thom.iterated_residue
    monkeypatch.setattr(thom, "iterated_residue", lambda p: calls.append(p) or residue(p))
    evidence = nondistinguished_vanishing(3, 5, 5, samples=2)
    assert len(evidence) == 5
    assert all(ev.vanishes for ev in evidence)
    assert len(calls) == 5 * (1 + 2)


def test_vanishing_guards():
    with pytest.raises(ValueError):
        nondistinguished_vanishing(3, 2, 2)
    with pytest.raises(ValueError):
        nondistinguished_vanishing(2, 2, 0)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            nondistinguished_vanishing(2, 5, 5, samples=samples)


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


def test_derivation_detects_corrupted_registry():
    # degree 3 keeps the override structurally valid, so only the final
    # comparison can catch it
    fake = QhatRegistry({5: zmono(1, (1, 3))})
    with pytest.raises(DerivationError):
        qhat5_derivation_steps(fake)


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


@pytest.mark.parametrize(
    "d, order, minimum, witness, term_count",
    [
        (1, 12, 1, "1", 1),
        (2, 12, 1, "1", 13),
        (3, 12, 1, "1", 79),
        (4, 12, 1, "1", 305),
        (5, 8, -1, "a1*a2*a3^2*a4", 155),
        (5, 12, -1, "a1*a2*a3^2*a4", 687),
        (5, 16, -3, "a1^2*a2^2*a3^6*a4^5", 2143),
    ],
)
def test_positivity_reports_pinned(d, order, minimum, witness, term_count):
    report = positivity_expansion(d, order)
    assert (report.minimum, report.witness, report.term_count) == (minimum, witness, term_count)


@cache
def _order_six() -> QhatRegistry:
    return QhatRegistry({6: derive_qhat(6)})


@pytest.mark.parametrize(
    "order, minimum, witness, term_count",
    [
        (8, -1, "a1*a2*a3^2*a4", 210),
        (12, -2, "a1*a2*a3^4*a4^3*a5^2", 1205),
        (16, -4, "a1*a2*a3^5*a4^4*a5^3", 4859),
    ],
)
def test_positivity_reports_pinned_at_order_six(order, minimum, witness, term_count):
    report = positivity_expansion(6, order, _order_six())
    assert (report.minimum, report.witness, report.term_count) == (minimum, witness, term_count)


def _expanded_positivity(d, total_order, registry=None):
    """The probe as it stood before it took the kernel's schedule: V_d Q_d
    multiplied out, divided by the forms in _integrand's order, and every
    kept term read back as a monomial."""
    numerator, factors = thom._integrand(d, registry or default_registry())
    numerator = packed_product(numerator, vandermonde(d))
    reach = deg_qhat(d) + d * (d - 1) // 2
    forms = [form for form, mult in factors if mult > 0]
    zs = [zvar(l) for l in range(1, d + 1)]
    weights = {z: d - z.index for z in zs}
    leads = [-weights[form.top_z_variable()[0]] for form in forms]
    lowest = min(sum(e * weights[v] for v, e in mono) for mono in numerator.term_map())
    slack = max(0, total_order - lowest - sum(leads))
    packing = ExponentPacking(zs, d * (reach + len(forms) * (2 * slack + 1)), weights)
    mask, half, dshift = packing.mask, packing.half, packing.degree_shift
    rest = sum(leads)
    current = {
        key: (-1) ** d * coeff
        for key, coeff in packing.terms(numerator, biased=True).items()
        if (key >> dshift & mask) - half + rest <= total_order
    }
    for form, lead in zip(forms, leads):
        rest -= lead
        cut = total_order - rest + half
        current = divide_by_form(
            current, packing, form, 0, lambda key: (key >> dshift & mask) <= cut
        )
    kept: dict[Monomial, Fraction] = {}
    for key, coeff in current.items():
        exps = accumulate((key >> packing.shift[z] & mask) - half for z in zs[:-1])
        kept[tuple((avar(t), e) for t, e in enumerate(exps, 1) if e)] = Fraction(coeff)
    minimum, witness = Fraction(0), ""
    if kept:
        worst = min(kept, key=lambda mono: (kept[mono], [(v.key, e) for v, e in mono]))
        minimum, witness = kept[worst], Polynomial.term(1, worst).to_text()
    return PositivityReport(
        d=d, order=total_order, minimum=minimum, witness=witness, term_count=len(kept)
    )


@pytest.mark.parametrize("d, orders", [(d, range(17)) for d in range(1, 6)] + [(6, [8])])
def test_positivity_matches_the_expanded_reference(d, orders):
    # the pinned reports already tie 2 to 45 terms at the minimum, so the
    # witness's tie-break is compared too
    registry = _order_six() if d == 6 else None
    for order in orders:
        assert positivity_expansion(d, order, registry) == _expanded_positivity(d, order, registry)


def test_positivity_report_of_an_empty_expansion():
    # with Q_4 = z_1 every term of F_4 has ratio degree above 2
    registry = QhatRegistry({4: zmono(1, (1, 1))})
    for order in range(3):
        empty = PositivityReport(d=4, order=order, minimum=Fraction(0), witness="", term_count=0)
        assert positivity_expansion(4, order, registry) == empty


def test_positivity_honours_an_explicit_registry():
    positivity_expansion(5, 8)  # runs on the default registry first
    doubled = positivity_expansion(5, 8, QhatRegistry({5: 2 * qhat(5)}))
    assert (doubled.minimum, doubled.witness, doubled.term_count) == (-2, "a1*a2*a3^2*a4", 155)


def test_positivity_is_the_integrand_in_ratio_coordinates():
    # with Q_2 = -1, F_2 = -(z1 - z2) / (2 z1 - z2) at z1 = a1, z2 = 1 is
    # -(1 - a1) / (1 - 2 a1) = -(1 + a1 + 2 a1^2 + 4 a1^3 + ...)
    report = positivity_expansion(2, 3, QhatRegistry({2: Polynomial.constant(-1)}))
    assert (report.minimum, report.witness, report.term_count) == (-4, "a1^3", 4)


def test_positivity_guards():
    with pytest.raises(ValueError):
        positivity_expansion(0, 3)
    with pytest.raises(ValueError):
        positivity_expansion(2, -1)


def test_class_coefficients_positive():
    assert tp_positivity(3, 1)
