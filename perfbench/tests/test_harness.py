"""Harness tests on small inputs; standard library only.

    python3 -m unittest discover -s perfbench/tests

Most tests run perfbench/run.py as a subprocess, as the benchmark is run,
on the small workloads: the class table for d <= 3, the level-4 and level-5
ideals, and the relations suite.  The rest call the harness's output
checks and span arithmetic directly.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SMALL = ("tp-table-small", "checks-relations", "mdeg-level5")
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]


def run(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def copy_checkout(target, with_sources=True):
    """The files a benchmark checkout holds, without build or run leftovers."""
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    shutil.copytree(ROOT / "perfbench", target / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", target / "src", ignore=ignore)


class EndToEnd(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        spec = benchmark_spec()
        for workload in SMALL:
            with self.subTest(workload=workload):
                done = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
                self.assertEqual(done.returncode, 0, done.stderr)
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                for metric in spec["end_to_end"]:
                    reported = result["metrics"][metric["name"]]
                    self.assertEqual(reported["unit"], metric["unit"])
                    self.assertGreater(reported["value"], 0)
                    self.assertIn(f"{workload} {metric['name']} ", done.stdout)
                self.assertEqual(len(result["metrics"]), len(spec["end_to_end"]))
                self.assertIn(f"{workload} failed_frac 0 ratio", done.stdout)


class Traced(unittest.TestCase):
    def test_layer_metrics_and_their_counts_repeat(self):
        spec = benchmark_spec()
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for workload in ("tp-table-small", "mdeg-level5"):
            with self.subTest(workload=workload):
                reports = []
                for _ in range(2):
                    done = run("--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "1")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    reports.append(json.loads(done.stdout.strip().splitlines()[-1])["metrics"])
                self.assertEqual({k: v["unit"] for k, v in reports[0].items()}, units)
                counts = [k for k, unit in units.items() if unit == "count"]
                self.assertEqual(
                    {k: reports[0][k]["value"] for k in counts},
                    {k: reports[1][k]["value"] for k in counts},
                )
                self.assertTrue(any(reports[0][k]["value"] for k in counts))


class Failures(unittest.TestCase):
    def corrupted_run(self, workload, expected_file, corrupt):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            copy_checkout(root)
            path = root / "perfbench" / "expected" / expected_file
            data = json.loads(path.read_text(encoding="utf-8"))
            corrupt(data)
            path.write_text(json.dumps(data), encoding="utf-8")
            return run("--workload", workload, "--seed", "5", "--seconds", "1", root=root)

    def assert_failed(self, done):
        self.assertEqual(done.returncode, 1, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        frac = [line for line in done.stdout.splitlines() if " failed_frac " in line]
        self.assertEqual(len(frac), 1)
        self.assertGreater(float(frac[0].split()[2]), 0)

    def test_a_wrong_published_class_fails_the_table(self):
        def corrupt(data):
            data["codim0"]["3"] = "c1^3 + 3*c1*c2 + 3*c3"

        self.assert_failed(self.corrupted_run("tp-table-small", "classes.json", corrupt))

    def test_a_dropped_check_fails_the_suite(self):
        def corrupt(data):
            data["relations"].append("relations.not-run")

        self.assert_failed(self.corrupted_run("checks-relations", "checks.json", corrupt))

    def test_a_suite_without_a_report_fails_each_expected_check_once(self):
        from workloads import WORKLOADS

        checks = WORKLOADS["checks-relations"]
        argvs = checks.inputs(random.Random(1))
        attempted, failures = checks.check(argvs, [("RuntimeError: no report", "")])
        self.assertGreater(attempted, 0)
        self.assertEqual(len(failures), attempted)
        self.assertTrue(all("RuntimeError: no report" in f for f in failures))

    def test_without_sources_it_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            copy_checkout(root, with_sources=False)
            done = run("--workload", "tp-table", "--seed", "1", "--seconds", "10", root=root)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn("{", done.stdout)


class Spans(unittest.TestCase):
    def test_self_time_leaves_out_the_tracers_own_cost(self):
        from spans import Tracer

        tracer = Tracer("synthetic")
        # (name, parent, wrapper entry, start, end, wrapper exit)
        for name, parent, *times in (
            ("thom.thom_polynomial", -1, 0.0, 1.0, 9.0, 10.0),
            ("thom.residue_problem_for", 0, 2.0, 3.0, 4.0, 5.0),
        ):
            tracer.name_ids.append(tracer.names.index(name))
            tracer.parents.append(parent)
            for column, value in zip(
                (tracer.entered, tracer.starts, tracer.ends, tracer.left), times
            ):
                column.append(value)
        layers = tracer.layer_metrics()
        self.assertEqual(layers["thom.thom_polynomial.self_s"], 5.0)
        self.assertEqual(layers["thom.residue_problem_for.self_s"], 1.0)
        self.assertEqual(layers["thom.thom_polynomial.cache_hits"], 0)


class HostSpeed(unittest.TestCase):
    def test_each_stretch_is_scaled_by_the_probe_that_ends_it(self):
        from hostspeed import REFERENCE_S, SpeedProbe

        probe = SpeedProbe()
        # a probe at half the reference speed, then one at the reference speed
        probe.marks = [(1.0, 1.0 + 2 * REFERENCE_S), (3.0, 3.0 + REFERENCE_S)]
        # 1 s at half speed counts 0.5 s; the probes' own time is left out
        self.assertAlmostEqual(probe.scaled(0.0, 2.5), 0.5 + 1.5 - 2 * REFERENCE_S)
        self.assertAlmostEqual(probe.scaled(1.5, 2.5), 1.0)

    def test_a_probed_loop_gets_a_scaled_time(self):
        import time
        from hostspeed import INTERVAL_S, SpeedProbe

        probe = SpeedProbe()
        probe.start()
        begin = time.monotonic()
        while time.monotonic() - begin < 10 * INTERVAL_S:
            pass
        end = time.monotonic()
        probe.stop()
        self.assertGreater(len(probe.marks), 1)
        self.assertGreater(probe.scaled(begin, end), 0)


class Spec(unittest.TestCase):
    def test_benchmark_json_names_what_the_harness_reports(self):
        from run import BENCHMARK_WORKLOADS, END_TO_END
        from spans import metric_names

        spec = benchmark_spec()
        self.assertEqual(
            set(spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), BENCHMARK_WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], metric_names())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(END_TO_END))
        self.assertIn("setup_s", {m["name"] for m in spec["end_to_end"]})
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
