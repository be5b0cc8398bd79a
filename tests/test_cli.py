"""End-to-end checks of the command-line surface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from thomcalc import (
    Polynomial,
    ResidueProblem,
    linear_form,
    qhat,
    residue_problem_for,
    thom_polynomial,
    zvar,
)
from thomcalc.cli import (
    MAX_CODIM,
    MAX_CODIM_D6,
    MAX_ORDER,
    MAX_POSITIVITY_ORDER,
    MAX_POSITIVITY_ORDER_D6,
    main,
)
from thomcalc.poly import cvar, etavar, yvar


@pytest.fixture()
def runner():
    return CliRunner()


def test_tp_text(runner):
    result = runner.invoke(main, ["tp", "--d", "4", "--codim", "0"])
    assert result.exit_code == 0
    assert result.output == "c1^4 + 6*c1^2*c2 + 2*c2^2 + 9*c1*c3 + 6*c4\n"


def test_tp_json_round_trip(runner):
    result = runner.invoke(main, ["tp", "--d", "2", "--codim", "0", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["d"] == 2
    assert payload["codim"] == 0
    assert payload["basis"] == "chern"
    # JSON keeps the background symbol the text display suppresses
    body = Polynomial.from_json_dict(payload["polynomial"])
    assert body == thom_polynomial(2, 0).body
    assert body.term_map()[((cvar(0), 1), (cvar(2), 1))] == 1


def test_tp_series_basis(runner):
    result = runner.invoke(
        main, ["tp", "--d", "2", "--codim", "1", "--basis", "thom-series"]
    )
    assert result.exit_code == 0
    assert result.output == "a0^2 + a(-1)*a1 + 2*a(-2)*a2\n"


def test_tp_missing_numerator(runner, monkeypatch, tmp_path):
    monkeypatch.setenv("THOMCALC_QHAT_DIR", str(tmp_path / "missing"))
    result = runner.invoke(main, ["tp", "--d", "6", "--codim", "0"])
    assert result.exit_code == 1
    assert "Error" in result.output


def test_tp_usage_errors(runner):
    assert runner.invoke(main, ["tp", "--d", "0", "--codim", "0"]).exit_code == 2
    assert runner.invoke(main, ["tp", "--d", "2"]).exit_code == 2
    assert runner.invoke(main, ["tp", "--d", "2", "--codim", "-1"]).exit_code == 2


def test_tp_refuses_codim_past_the_limit(runner):
    # refused up front: d = 2 would be cheap, the limit is on codim alone
    result = runner.invoke(main, ["tp", "--d", "2", "--codim", str(MAX_CODIM + 1)])
    assert result.exit_code == 2
    assert f"between 0 and {MAX_CODIM}" in result.output
    help_text = runner.invoke(main, ["tp", "--help"]).output
    assert f"0 to {MAX_CODIM}" in help_text


def test_tp_refuses_codim_past_the_d6_limit(runner, tmp_path):
    # the missing plugin file would fail with exit 1 once read, so exit 2
    # shows the codim was refused first
    missing = str(tmp_path / "missing.json")
    args = ["tp", "--d", "6", "--codim", str(MAX_CODIM_D6 + 1), "--qhat-file", missing]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"between 0 and {MAX_CODIM_D6}" in result.output
    # past d = 6 the order bound refuses first
    args = ["tp", "--d", "7", "--codim", str(MAX_CODIM_D6 + 1), "--qhat-file", missing]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"--d must be between 1 and {MAX_ORDER}" in result.output
    args = ["tp", "--d", "6", "--codim", str(MAX_CODIM_D6), "--qhat-file", missing]
    assert runner.invoke(main, args).exit_code == 1
    help_text = runner.invoke(main, ["tp", "--help"]).output
    assert f"0 to {MAX_CODIM_D6}" in help_text


def test_tp_refuses_d_past_the_order_bound(runner, tmp_path):
    # the missing plugin file would fail with exit 1 once read, so exit 2
    # shows the order was refused first
    missing = str(tmp_path / "missing.json")
    args = ["tp", "--d", str(MAX_ORDER + 1), "--codim", "0", "--qhat-file", missing]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"--d must be between 1 and {MAX_ORDER}" in result.output
    help_text = runner.invoke(main, ["tp", "--help"]).output
    assert f"1 to {MAX_ORDER}" in help_text


def test_tp_refuses_a_huge_plugin_order_at_once(runner, tmp_path):
    # the plugin's degree is checked against a count of the normal model,
    # not a list of its ~d^3/12 weights
    plugin = tmp_path / "huge.json"
    z1_twice = Polynomial.term(2, [(zvar(1), 1)])
    plugin.write_text(json.dumps({"d": 10**30, "polynomial": z1_twice.to_json_dict()}))
    start = time.perf_counter()
    result = runner.invoke(main, ["tp", "--d", "4", "--codim", "0", "--qhat-file", str(plugin)])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 1
    assert "homogeneous of degree" in result.output


def test_tp_numerator_plugin(runner, tmp_path):
    plugin = tmp_path / "qhat4.json"
    plugin.write_text(json.dumps({"d": 4, "polynomial": qhat(4).to_json_dict()}))
    result = runner.invoke(
        main, ["tp", "--d", "4", "--codim", "0", "--qhat-file", str(plugin)]
    )
    assert result.exit_code == 0
    assert result.output == "c1^4 + 6*c1^2*c2 + 2*c2^2 + 9*c1*c3 + 6*c4\n"

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"d": 4, "polynomial": (Polynomial.variable(cvar(1))).to_json_dict()})
    )
    result = runner.invoke(
        main, ["tp", "--d", "4", "--codim", "0", "--qhat-file", str(bad)]
    )
    assert result.exit_code == 1


MALFORMED_NUMERATORS = (
    "row-too-long",
    "row-too-short",
    "fractional-exponent",
    "repeated-variable",
    "float-coefficient",
    "fractional-variable-index",
    "fractional-order",
)


def _malformed_numerator(case):
    # Q_4 = 2*z1 + z2 - z4 with one entry malformed
    poly = qhat(4).to_json_dict()
    rows = [term["exps"] for term in poly["terms"]]
    if case == "row-too-long":
        rows[0].append(3)
    elif case == "row-too-short":
        rows[1].pop()
    elif case == "fractional-exponent":
        rows[2][-1] = 1.9
    elif case == "repeated-variable":
        poly["vars"].append(poly["vars"][-1])
        for row in rows:
            row.append(0)
    elif case == "float-coefficient":
        poly["terms"][0]["coeff"] = 2.0
    elif case == "fractional-variable-index":
        poly["vars"][-1]["index"] = 4.0
    return {"d": 4.5 if case == "fractional-order" else 4, "polynomial": poly}


@pytest.mark.parametrize("case", MALFORMED_NUMERATORS)
def test_tp_refuses_a_malformed_numerator_file(runner, tmp_path, case):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_malformed_numerator(case)))
    result = runner.invoke(
        main, ["tp", "--d", "4", "--codim", "0", "--qhat-file", str(bad)]
    )
    assert result.exit_code == 1
    assert f"{bad}: malformed numerator file" in result.output


def test_tp_refuses_a_repeated_key_in_a_numerator_file(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 4, "d": 4, "polynomial": %s}' % json.dumps(qhat(4).to_json_dict()))
    result = runner.invoke(
        main, ["tp", "--d", "4", "--codim", "0", "--qhat-file", str(bad)]
    )
    assert result.exit_code == 1
    assert f"cannot read numerator file {bad}: repeated key 'd'" in result.output


@pytest.mark.parametrize(
    "field, value",
    [("mult", 1.8), ("constant", 0.5), ("coeffs", {"z_1": 1.0}), ("coeffs", [1])],
)
def test_residue_refuses_a_malformed_problem_file(runner, tmp_path, field, value):
    obj = residue_problem_for(2, 0).to_json_dict()
    obj["denominator_factors"][0][field] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, ["residue", "--problem", str(path)])
    assert result.exit_code == 1
    assert f"cannot read problem file {path}" in result.output


def test_residue_refuses_a_list_of_series(runner, tmp_path):
    obj = residue_problem_for(2, 0).to_json_dict()
    obj["per_variable_series"] = []
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, ["residue", "--problem", str(path)])
    assert result.exit_code == 1
    assert f"cannot read problem file {path}: expected an object, got []" in result.output


def test_residue_refuses_a_repeated_key(runner, tmp_path):
    text = json.dumps(residue_problem_for(2, 0).to_json_dict())
    text = text.replace('"coeffs": {', '"coeffs": {"z_1": "1/1", ', 1)
    path = tmp_path / "problem.json"
    path.write_text(text)
    result = runner.invoke(main, ["residue", "--problem", str(path)])
    assert result.exit_code == 1
    assert f"cannot read problem file {path}: repeated key 'z_1'" in result.output


def test_residue_from_file(runner, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(residue_problem_for(2, 0).to_json_dict()))
    result = runner.invoke(main, ["residue", "--problem", str(path)])
    assert result.exit_code == 0
    assert result.output == "c1^2 + c2\n"

    result = runner.invoke(main, ["residue", "--problem", str(path), "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert Polynomial.from_json_dict(payload["residue"]) == thom_polynomial(2, 0).body

    result = runner.invoke(
        main, ["residue", "--problem", str(path), "--order", "12"]
    )
    assert result.exit_code == 0
    assert result.output == "c1^2 + c2\n"


def test_residue_of_a_negative_multiplicity_is_the_expanded_product(runner, tmp_path):
    # tp(2, 1)'s problem carries V_2 = z_1 - z_2 as a factor at -1
    signed = residue_problem_for(2, 1)
    (vandermonde, mult), *dividing = signed.denominator_factors
    assert mult == -1
    expanded = ResidueProblem(
        signed.numerator * vandermonde.as_polynomial(),
        dividing,
        signed.per_variable_series,
        signed.variables,
    )
    outputs = []
    for name, problem in (("signed", signed), ("expanded", expanded)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(problem.to_json_dict()))
        outputs.append([
            runner.invoke(main, ["residue", "--problem", str(path), *fmt]).output
            for fmt in ([], ["--format", "json"])
        ])
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == thom_polynomial(2, 1).to_text() + "\n"
    back = ResidueProblem.from_json_dict(json.loads((tmp_path / "signed.json").read_text()))
    assert back.denominator_factors == signed.denominator_factors


def _deep_slice_problem(tmp_path):
    # z1^-11 z2^10 / (z1 + z2): the z2-slice needs power 10 of the factor
    z1, z2 = zvar(1), zvar(2)
    problem = ResidueProblem(
        Polynomial.term(1, [(z1, -11), (z2, 10)]),
        ((linear_form((1, z1), (1, z2)), 1),),
        variables=(z1, z2),
    )
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(problem.to_json_dict()))
    return str(path)


def test_residue_without_order_is_exact(runner, tmp_path):
    path = _deep_slice_problem(tmp_path)
    result = runner.invoke(main, ["residue", "--problem", path])
    assert result.exit_code == 0
    assert result.output == "1\n"

    result = runner.invoke(main, ["residue", "--problem", path, "--order", "9"])
    assert result.exit_code == 1
    assert "z_2 needs power 10" in result.output and "budget 9" in result.output


def test_residue_rejects_negative_order(runner, tmp_path):
    path = _deep_slice_problem(tmp_path)
    result = runner.invoke(main, ["residue", "--problem", path, "--order", "-1"])
    assert result.exit_code == 2
    assert "--order" in result.output


def test_residue_rejects_unreadable_file(runner, tmp_path):
    result = runner.invoke(main, ["residue", "--problem", str(tmp_path / "nope.json")])
    assert result.exit_code == 1
    assert "cannot read problem file" in result.output


def test_mdeg_worked_example(runner):
    result = runner.invoke(main, ["mdeg", "--example", "toric"])
    assert result.exit_code == 0
    assert "expected: e_1 + e_3" in result.output
    assert "agree: true" in result.output

    result = runner.invoke(main, ["mdeg", "--example", "toric", "--format", "json"])
    payload = json.loads(result.output)
    assert payload["agree"] is True
    assert payload["expected"] == "e_1 + e_3"


def test_mdeg_ideal_file(runner, tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(
        json.dumps(
            {
                "generators": [
                    (Polynomial.variable(yvar(1)) ** 2).to_json_dict(),
                    Polynomial.variable(yvar(2)).to_json_dict(),
                ],
                "weights": [
                    linear_form((1, etavar(1))).to_json_dict(),
                    linear_form((1, etavar(2))).to_json_dict(),
                ],
            }
        )
    )
    result = runner.invoke(main, ["mdeg", "--ideal-file", str(path)])
    assert result.exit_code == 0
    assert result.output == "2*e_1*e_2\n"


def test_mdeg_ideal_file_with_large_pure_powers(runner, tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(
        json.dumps(
            {
                "generators": [
                    Polynomial.variable(yvar(i), 10**6).to_json_dict() for i in (1, 2, 3)
                ],
                "weights": [linear_form((1, etavar(i))).to_json_dict() for i in (1, 2, 3)],
            }
        )
    )
    result = runner.invoke(main, ["mdeg", "--ideal-file", str(path)])
    assert result.exit_code == 0
    assert result.output == "1000000000000000000*e_1*e_2*e_3\n"


def test_mdeg_refuses_a_fractional_variable_order(runner, tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(
        json.dumps(
            {
                "generators": [Polynomial.variable(yvar(1)).to_json_dict()],
                "weights": [linear_form((1, etavar(1))).to_json_dict()],
                "order": [1.5],
            }
        )
    )
    result = runner.invoke(main, ["mdeg", "--ideal-file", str(path)])
    assert result.exit_code == 1
    assert f"cannot read ideal file {path}" in result.output


@pytest.mark.parametrize(
    "order, reason",
    [
        ([2], "generator uses y_1, not in the order list"),
        ([1, 1], "repeated variable in the order list"),
    ],
)
def test_mdeg_refuses_an_order_that_does_not_list_the_coordinates(
    runner, tmp_path, order, reason
):
    path = tmp_path / "ideal.json"
    path.write_text(
        json.dumps(
            {
                "generators": [Polynomial.variable(yvar(1)).to_json_dict()],
                "weights": [linear_form((1, etavar(1))).to_json_dict()],
                "order": order,
            }
        )
    )
    result = runner.invoke(main, ["mdeg", "--ideal-file", str(path)])
    assert result.exit_code == 1
    assert f"cannot read ideal file {path}: {reason}" in result.output


def test_mdeg_refuses_a_repeated_key(runner, tmp_path):
    weights = json.dumps([linear_form((1, etavar(1))).to_json_dict()])
    generators = json.dumps([Polynomial.variable(yvar(1)).to_json_dict()])
    path = tmp_path / "ideal.json"
    path.write_text(
        f'{{"generators": {generators}, "weights": {weights}, "weights": {weights}}}'
    )
    result = runner.invoke(main, ["mdeg", "--ideal-file", str(path)])
    assert result.exit_code == 1
    assert f"cannot read ideal file {path}: repeated key 'weights'" in result.output


def test_mdeg_requires_one_source(runner, tmp_path):
    assert runner.invoke(main, ["mdeg"]).exit_code == 2
    result = runner.invoke(
        main, ["mdeg", "--example", "toric", "--ideal-file", str(tmp_path / "x.json")]
    )
    assert result.exit_code == 2
    assert "exactly one" in result.output


def _refused(result, path):
    # a refusal that names the file, not a crash
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert str(path) in result.output
    assert "Traceback" not in result.output


def test_residue_refuses_a_zero_denominator(runner, tmp_path):
    obj = residue_problem_for(2, 0).to_json_dict()
    obj["denominator_factors"][0]["constant"] = "1/0"
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, ["residue", "--problem", str(path)])
    _refused(result, path)
    assert "zero denominator in '1/0'" in result.output


def test_residue_refuses_a_variable_name_that_is_not_a_string(runner, tmp_path):
    obj = residue_problem_for(2, 0).to_json_dict()
    obj["variables"] = [5]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    result = runner.invoke(main, ["residue", "--problem", str(path)])
    _refused(result, path)
    assert "expected a variable name, got 5" in result.output


def _ideal_file(tmp_path, generator, weights):
    path = tmp_path / "ideal.json"
    path.write_text(
        json.dumps({"generators": [generator.to_json_dict()], "weights": weights})
    )
    return path


def test_mdeg_refuses_a_zero_denominator(runner, tmp_path):
    path = _ideal_file(tmp_path, Polynomial.variable(yvar(1)), [{"constant": "1/0"}])
    result = runner.invoke(main, ["mdeg", "--ideal-file", str(path)])
    _refused(result, path)
    assert "zero denominator in '1/0'" in result.output


def test_mdeg_refuses_a_generator_symbol_outside_the_order(runner, tmp_path):
    generator = Polynomial.term(1, [(yvar(1), 1), (zvar(3), 1)])
    path = _ideal_file(tmp_path, generator, [linear_form((1, etavar(1))).to_json_dict()])
    result = runner.invoke(main, ["mdeg", "--ideal-file", str(path)])
    _refused(result, path)
    assert "generator uses z_3, not in the order list" in result.output


def test_mdeg_refuses_a_coordinate_without_a_weight(runner, tmp_path):
    generator = Polynomial.term(1, [(yvar(1), 1), (yvar(2), 1), (yvar(3), 1)])
    path = _ideal_file(tmp_path, generator, [linear_form((1, etavar(1))).to_json_dict()])
    result = runner.invoke(main, ["mdeg", "--ideal-file", str(path)])
    _refused(result, path)
    assert "no weight for y_2" in result.output


def test_mdeg_names_an_inhomogeneous_generator(runner, tmp_path):
    y = [None] + [Polynomial.variable(yvar(i)) for i in (1, 2)]
    path = tmp_path / "ideal.json"
    path.write_text(
        json.dumps(
            {
                "generators": [(y[1] * y[2]).to_json_dict(), (y[1] + y[2] ** 2).to_json_dict()],
                "weights": [linear_form((1, etavar(i))).to_json_dict() for i in (1, 2)],
            }
        )
    )
    result = runner.invoke(main, ["mdeg", "--ideal-file", str(path)])
    assert result.exit_code == 1
    assert result.output == "Error: generator 2 (y_2^2 + y_1) is not weight-homogeneous\n"


def _laurent(*terms):
    # the sum of c * y_1^e_1 * y_2^e_2 * y_3^e_3 over the (c, (e_1, e_2, e_3))
    return sum(
        (Polynomial.term(c, [(yvar(i), e) for i, e in enumerate(exps, 1)]) for c, exps in terms),
        Polynomial.zero(),
    )


@pytest.mark.parametrize(
    "generators",
    [
        [
            _laurent((-1, (2, 1, 2)), (1, (2, 2, -1))),
            _laurent((1, (2, -2, 1)), (-1, (2, -1, -1))),
        ],
        [_laurent((1, (1, -1, 0)), (-1, (0, 0, 1))), _laurent((1, (1, 0, 0)), (-1, (0, 1, 0)))],
    ],
    ids=["fields-grow-forever", "silently-wrong"],
)
def test_mdeg_refuses_a_negative_exponent(runner, tmp_path, generators):
    path = tmp_path / "ideal.json"
    path.write_text(
        json.dumps(
            {
                "generators": [g.to_json_dict() for g in generators],
                "weights": [linear_form((1, etavar(i))).to_json_dict() for i in (1, 2, 3)],
            }
        )
    )
    result = runner.invoke(main, ["mdeg", "--ideal-file", str(path)])
    _refused(result, path)
    assert f"cannot read ideal file {path}: generator" in result.output
    assert "has a negative exponent" in result.output


def _zero_denominator_numerator(path):
    poly = qhat(4).to_json_dict()
    poly["terms"][0]["coeff"] = "1/0"
    path.write_text(json.dumps({"d": 4, "polynomial": poly}))


def test_tp_refuses_a_zero_denominator_in_a_numerator_file(runner, tmp_path):
    path = tmp_path / "bad.json"
    _zero_denominator_numerator(path)
    result = runner.invoke(main, ["tp", "--d", "4", "--codim", "0", "--qhat-file", str(path)])
    _refused(result, path)
    assert "zero denominator in '1/0'" in result.output


def test_tp_refuses_a_zero_denominator_in_a_plugin(runner, monkeypatch, tmp_path):
    path = tmp_path / "qhat4.json"
    _zero_denominator_numerator(path)
    monkeypatch.setenv("THOMCALC_QHAT_DIR", str(tmp_path))
    result = runner.invoke(main, ["tp", "--d", "2", "--codim", "0"])
    _refused(result, path)
    assert "zero denominator in '1/0'" in result.output


def test_partitions_text(runner):
    result = runner.invoke(main, ["partitions", "--d", "3"])
    assert result.exit_code == 0
    assert result.output.startswith("depth 3: 8 admissible sequences\n")
    assert "  ([1],[2],[3])\n" in result.output
    assert "orbit dimension 3, model dimension 3, numerator degree 0" in result.output


def test_partitions_refuses_depth_past_the_limit(runner):
    result = runner.invoke(main, ["partitions", "--d", str(MAX_ORDER + 1)])
    assert result.exit_code == 2
    assert f"between 1 and {MAX_ORDER}" in result.output
    help_text = runner.invoke(main, ["partitions", "--help"]).output
    assert f"1 to {MAX_ORDER}" in help_text


def test_partitions_json(runner):
    result = runner.invoke(
        main, ["partitions", "--d", "2", "--complete-only", "--format", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["d"] == 2
    assert payload["complete_only"] is True
    assert payload["count"] == 2
    assert set(payload["sequences"]) == {"([1],[2])", "([1],[1,1])"}


def test_verify_suite(runner):
    result = runner.invoke(main, ["verify", "--suite", "relations"])
    assert result.exit_code == 0
    assert "PASS" in result.output

    result = runner.invoke(
        main, ["verify", "--suite", "relations", "--format", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["suite"] == "relations"
    assert payload["all_passed"] is True
    assert all(check["passed"] for check in payload["checks"])

    assert runner.invoke(main, ["verify", "--suite", "bogus"]).exit_code == 2


def test_verify_fresh_entropy_seed(runner):
    result = runner.invoke(main, ["verify", "--suite", "relations", "--seed", "0"])
    assert result.exit_code == 0


def test_positivity_text(runner):
    result = runner.invoke(main, ["positivity", "--d", "2", "--order", "4"])
    assert result.exit_code == 0
    assert result.output == (
        "order-2 expansion to total degree 4\n"
        "minimum coefficient: 1 (witness 1)\n"
        "terms: 5\n"
        "nonnegative: true\n"
    )


def test_positivity_json(runner):
    result = runner.invoke(
        main, ["positivity", "--d", "5", "--order", "8", "--format", "json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["minimum"] == "-1/1"
    assert payload["witness"] == "a1*a2*a3^2*a4"
    assert payload["term_count"] == 155
    assert payload["nonnegative"] is False


def test_positivity_refuses_order_past_the_limit(runner):
    # refused up front: d = 1 would be cheap, the limit is on the order alone
    result = runner.invoke(
        main, ["positivity", "--d", "1", "--order", str(MAX_POSITIVITY_ORDER + 1)]
    )
    assert result.exit_code == 2
    assert f"between 0 and {MAX_POSITIVITY_ORDER}" in result.output
    assert runner.invoke(main, ["positivity", "--d", "2", "--order", "-1"]).exit_code == 2
    help_text = runner.invoke(main, ["positivity", "--help"]).output
    assert f"0 to {MAX_POSITIVITY_ORDER}" in help_text


def test_positivity_refuses_order_past_the_d6_limit(runner, monkeypatch, tmp_path):
    # an unreadable plugin directory fails with exit 1 once plugins load, so
    # exit 2 shows the order was refused first
    monkeypatch.setenv("THOMCALC_QHAT_DIR", str(tmp_path / "missing"))
    result = runner.invoke(
        main, ["positivity", "--d", "6", "--order", str(MAX_POSITIVITY_ORDER_D6 + 1)]
    )
    assert result.exit_code == 2
    assert f"between 0 and {MAX_POSITIVITY_ORDER_D6}" in result.output
    assert runner.invoke(main, ["positivity", "--d", "6", "--order", "0"]).exit_code == 1
    help_text = runner.invoke(main, ["positivity", "--help"]).output
    assert f"0 to {MAX_POSITIVITY_ORDER_D6} at --d 6" in help_text


def test_positivity_refuses_d_past_the_limit(runner, monkeypatch, tmp_path):
    monkeypatch.setenv("THOMCALC_QHAT_DIR", str(tmp_path / "missing"))
    result = runner.invoke(
        main, ["positivity", "--d", str(MAX_ORDER + 1), "--order", "0"]
    )
    assert result.exit_code == 2
    assert f"between 1 and {MAX_ORDER}" in result.output
    assert runner.invoke(main, ["positivity", "--d", "0"]).exit_code == 2
    help_text = runner.invoke(main, ["positivity", "--help"]).output
    assert f"1 to {MAX_ORDER}" in help_text


def test_repeat_runs_are_identical(runner):
    first = runner.invoke(main, ["partitions", "--d", "4", "--format", "json"])
    second = runner.invoke(main, ["partitions", "--d", "4", "--format", "json"])
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--suite", "all", "--format", "json", "--seed", "1729"],
        ["tp", "--d", "5", "--codim", "2", "--format", "json"],
    ],
    ids=["verify-all", "tp-5-2"],
)
def test_output_does_not_depend_on_hash_order(args):
    # variables hash by identity, and strings by PYTHONHASHSEED: no output
    # may follow the iteration order of a set
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-m", "thomcalc.cli", *args],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
