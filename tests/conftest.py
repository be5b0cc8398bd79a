"""Shared fixtures and the acceptance-criteria terminal summary.

Every test in test_acceptance.py is named test_criterion_NN_<slug> and
carries a one-line docstring; the hook below collects their outcomes and
prints one PASS/FAIL line per criterion, with wall time, after the normal
pytest summary.
"""

import pytest

_ACCEPTANCE: list = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.path.name == "test_acceptance.py":
        _ACCEPTANCE.append((item, report))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for item, report in sorted(_ACCEPTANCE, key=lambda pair: pair[0].name):
        number = item.name.split("_")[2]
        doc = (item.function.__doc__ or "").strip().splitlines()
        label = doc[0] if doc else item.name
        status = "PASS" if report.passed else "FAIL"
        terminalreporter.write_line(
            "criterion %s %s (%.1fs) %s" % (number, status, report.duration, label)
        )
