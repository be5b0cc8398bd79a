"""Smoke runs of the scripts under scripts/, in process, with small arguments."""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_positivity_scan_runs(monkeypatch, capsys):
    path = SCRIPTS / "positivity_scan.py"
    monkeypatch.setattr(sys, "argv", [str(path), "--max-d", "3", "--order", "4"])
    runpy.run_path(str(path), run_name="__main__")
    assert "-- order 3" in capsys.readouterr().out


def test_bench_writes_end_to_end_and_per_layer_figures(tmp_path, monkeypatch):
    path = SCRIPTS / "bench.py"
    args = ["--label", "smoke", "--workload", "tp-table-small", "--seconds", "1",
            "--out-dir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(path), run_name="__main__")
    assert done.value.code == 0
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["seed"] == 1 and record["seconds"] == 1
    assert {"git_head", "platform", "cpu_count", "python", "pythondontwritebytecode"} <= set(record)
    workload = record["workloads"]["tp-table-small"]
    assert set(workload["end_to_end"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert workload["per_layer"]["residue.iterated_residue.calls"] > 0
    assert workload["failed"] == 0
