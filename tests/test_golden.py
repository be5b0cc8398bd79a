"""Byte-identity of the computed classes, pole-sum classes, toric example,
positivity reports and verify report against tests/data/golden.json.

The file was written before a refactor of the residue kernel and is not
meant to change: a refactor that moves any of these outputs is a change of
results, not of design.  Regenerate it only on purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from thomcalc import (
    QhatRegistry,
    derive_qhat,
    pole_sum_class,
    positivity_expansion,
    thom_polynomial,
    toric_localization_example,
)
from thomcalc.verify import run_suite

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.json"

# the (d, order) pairs of test_positivity_reports_pinned
POSITIVITY_CASES = [(1, 12), (2, 12), (3, 12), (4, 12), (5, 8), (5, 12), (5, 16)]


def snapshot() -> dict:
    order_six = QhatRegistry({6: derive_qhat(6)})
    classes = [thom_polynomial(d, j).to_json_dict() for d in range(1, 6) for j in range(3)]
    classes += [thom_polynomial(6, j, order_six).to_json_dict() for j in range(3)]
    pole_sums = [pole_sum_class(d, j).to_json_dict() for d in (1, 2) for j in range(3)]
    toric = toric_localization_example()
    toric_polys = {
        name: getattr(toric, name).to_json_dict()
        for name in ("localization_sum", "two_term_sum", "groebner_route", "expected")
    }
    reports = []
    for d, order in POSITIVITY_CASES:
        report = positivity_expansion(d, order)
        reports.append(
            {
                "d": report.d,
                "order": report.order,
                "minimum": str(report.minimum),
                "witness": report.witness,
                "term_count": report.term_count,
            }
        )
    return {
        "classes": classes,
        "pole_sums": pole_sums,
        "toric": toric_polys,
        "positivity": reports,
        "verify": run_suite("all", 1729).to_json_dict(),
    }


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def test_outputs_match_the_golden_file():
    assert _dump(snapshot()) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump(snapshot()))
