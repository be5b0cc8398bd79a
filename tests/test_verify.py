from thomcalc.verify import SUITES, run_suite

import pytest


def test_suite_names():
    assert SUITES == ("classical", "localization", "relations", "positivity")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("spectral", 1)


def test_relations_suite_passes():
    report = run_suite("relations", 1729)
    assert report.all_passed
    assert report.suite == "relations"
    text = report.to_text()
    assert text.startswith("suite: relations\n")
    assert text.endswith(f"result: PASS ({len(report.results)}/{len(report.results)})")
    payload = report.to_json_dict()
    assert payload["all_passed"] is True
    assert payload["seed"] == 1729
    assert {check["id"] for check in payload["checks"]} == {
        check.check_id for check in report.results
    }


def test_classical_suite_passes():
    report = run_suite("classical")
    assert [(check.check_id, check.passed) for check in report.results] == [
        ("classical.order1", True),
        ("classical.order2", True),
        ("classical.order3", True),
        ("classical.order4", True),
        ("classical.shift", True),
        ("classical.structure", True),
        ("classical.pole-sum", True),
    ]
