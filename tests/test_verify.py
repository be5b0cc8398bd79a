import json

import pytest

from thomcalc import Polynomial, QhatRegistry, qhat, zvar
from thomcalc.verify import SUITES, run_suite


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


def test_all_suites_pass():
    report = run_suite("all")
    assert report.all_passed
    assert [check.check_id for check in report.results] == [
        "classical.order1",
        "classical.order2",
        "classical.order3",
        "classical.order4",
        "classical.shift",
        "classical.structure",
        "classical.pole-sum",
        "localization.porteous",
        "localization.flag",
        "localization.class-agreement",
        "localization.vanishing",
        "relations.annihilation",
        "relations.reference",
        "relations.homogeneity",
        "relations.quartic-weight",
        "relations.splitting",
        "relations.dimensions",
        "relations.census",
        "relations.qhat5-derivation",
        "relations.toric-multidegree",
        "positivity.series",
        "positivity.series-probe-order5",
        "positivity.classes",
    ]
    details = {check.check_id: check.detail for check in report.results}
    assert details["positivity.series-probe-order5"] == "minimum -1 at a1*a2*a3^2*a4"


def test_porteous_reads_the_depth_one_class(monkeypatch, tmp_path):
    # Q_1 = 2 doubles every depth-1 class; class agreement runs at depths 2
    # and 3 only, so the Porteous check alone sees it
    plugin = {"d": 1, "polynomial": Polynomial.constant(2).to_json_dict()}
    (tmp_path / "q1.json").write_text(json.dumps(plugin))
    monkeypatch.setenv("THOMCALC_QHAT_DIR", str(tmp_path))
    results = {r.check_id: r for r in run_suite("localization", 1729).results}
    assert not results["localization.porteous"].passed
    assert results["localization.porteous"].detail == "ranks (2,3)"
    assert results["localization.class-agreement"].passed


def test_a_bad_plugin_is_read_once_per_directory_state(monkeypatch, tmp_path):
    # Q_4 has degree 1, so a quadratic plugin for order 4 is refused
    path = tmp_path / "q4.json"
    wrong = Polynomial.variable(zvar(1)) ** 2
    path.write_text(json.dumps({"d": 4, "polynomial": wrong.to_json_dict()}))
    monkeypatch.setenv("THOMCALC_QHAT_DIR", str(tmp_path))
    loads = []
    load = QhatRegistry.load_file
    monkeypatch.setattr(QhatRegistry, "load_file", lambda self, p: loads.append(p) or load(self, p))
    report = run_suite("classical")
    assert len(loads) == 1
    # every check still reports the same error
    detail = "QhatFormatError: monomial of degree 2 in a numerator that must be homogeneous of degree 1"
    assert [(r.passed, r.detail) for r in report.results] == [(False, detail)] * 7
    # an edited file changes the directory's key, so it is read again
    path.write_text(json.dumps({"d": 4, "polynomial": qhat(4, QhatRegistry()).to_json_dict()}))
    assert run_suite("classical").all_passed
    assert len(loads) == 2
