"""Smoke runs of the scripts under scripts/, in process, with small arguments."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "name, args, expected",
    [
        ("compute_thom_table.py", ["--max-d", "2", "--max-codim", "1"], "d=2 codim=1"),
        ("positivity_scan.py", ["--max-d", "3", "--order", "4"], "-- order 3"),
        ("qhat5_walkthrough.py", [], "matches the registry entry for order five"),
    ],
)
def test_script_runs(name, args, expected, monkeypatch, capsys):
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    assert expected in capsys.readouterr().out
