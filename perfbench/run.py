"""thomcalc benchmark: end-to-end metrics per workload, or per-layer ones with --trace 1.

    python3 perfbench/run.py --workload tp-table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Every pass runs the workload once in a fresh worker process (worker.py),
one worker at a time.  With --trace 0 the run first starts SETUP_SAMPLES
workers that only set up, then runs passes while the next pass is expected
to end within --seconds (at least one), and reports medians:

  wall_s       first call of the job to its last result, in a fresh worker
  setup_s      worker spawn until thomcalc and thomcalc.cli are imported,
               default_registry() is built and the inputs are generated
  peak_rss_mb  the worker's maximum resident set size

wall_s and setup_s are times at the host's reference speed: the shared VM
runs the same work up to twice as fast or as slow for minutes at a time,
so the worker probes the host's speed while it runs and scales each
stretch of time by it (hostspeed.py).  The clock readings as they are
print as raw_wall_s and raw_setup_s, outside the result line.

With --trace 1 the run makes one untraced and one traced pass and reports
the per-layer metrics of spans.py, and the tracing overhead.  failed_frac
(outputs that raised or failed their check over outputs attempted) is
printed with the other metrics; the JSON result carries it as `attempted`
and `failed`.  Any failed output makes the exit code 1.  The last line of
output is one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
HASH_SEED = "0"  # Variable hashes depend on string hashing
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every run ends well within 180 s

sys.path.insert(0, str(HERE))
from spans import metric_names  # noqa: E402

WORKLOADS = ("tp-table", "checks", "mdeg-level6", "tp-table-small", "checks-relations", "mdeg-level5")
BENCHMARK_WORKLOADS = WORKLOADS[:3]
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class HarnessError(Exception):
    """A worker that could not report: the run has no result."""


def spawn(workload, seed, mode, deadline, trace_out=None):
    """Run one worker to completion and return its report."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=HASH_SEED)
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    if trace_out:
        command += ["--trace-out", str(trace_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError(f"no time left for a {mode} worker")
    spawned = time.monotonic()
    try:
        done = subprocess.run(
            command + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} worker for {workload} passed the {RUN_LIMIT_S} s limit")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise HarnessError(
            f"{mode} worker for {workload} exited {done.returncode}: {done.stderr.strip()}"
        )
    report = json.loads(lines[-1])
    report["elapsed_s"] = time.monotonic() - spawned
    return report


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics: medians over the passes and set-up samples."""
    start = time.monotonic()
    setups = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    passes = []
    while True:
        passes.append(spawn(workload, seed, "run", deadline))
        longest = max(p["elapsed_s"] for p in passes)
        if time.monotonic() - start + longest > seconds:
            break
    setups += passes
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    info = {"passes": len(passes), "setup_samples": len(setups),
            "wall_s_each": [round(p["wall_s"], 4) for p in passes],
            "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
            "raw_setup_s": statistics.median(p["raw_setup_s"] for p in setups)}
    return metrics, dict(END_TO_END), passes, info


def trace(workload, seed, deadline):
    """Per-layer metrics from one traced pass, next to one untraced pass."""
    OUT.mkdir(exist_ok=True)
    trace_out = OUT / f"trace-{workload}-seed{seed}.tsv"
    plain = spawn(workload, seed, "run", deadline)
    traced = spawn(workload, seed, "trace", deadline, trace_out)
    metrics = dict(traced["layers"])
    metrics["python.startup_s"] = plain["startup_s"]
    metrics["python.import_s"] = plain["import_s"]
    metrics["trace.overhead_s"] = traced["raw_wall_s"] - plain["raw_wall_s"]
    info = {"spans": traced["spans"], "trace_file": str(trace_out.relative_to(ROOT)),
            "untraced_raw_wall_s": round(plain["raw_wall_s"], 4),
            "traced_raw_wall_s": round(traced["raw_wall_s"], 4)}
    return metrics, dict(metric_names()), [plain, traced], info


def run_one(workload, seed, seconds, traced):
    """Measure one workload; returns (result object, failure messages, info)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if traced:
        metrics, units, passes, info = trace(workload, seed, deadline)
    else:
        metrics, units, passes, info = measure(workload, seed, seconds, deadline)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    info.update(workload=workload, seed=seed, pythonhashseed=HASH_SEED,
                failed_frac=len(failures) / attempted)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, failures, info


def print_summary(result, failures, info):
    workload = info["workload"]
    for failure in failures:
        print(f"{workload} FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    for name in ("raw_wall_s", "raw_setup_s"):
        if name in info:
            print(f"{workload} {name} {info[name]:.6g} s (clock as read, not scaled)")
    print(f"{workload} failed_frac {info['failed_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} outputs)")
    print(f"{workload} info {json.dumps(info, sort_keys=True)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thomcalc" / "__init__.py").is_file():
        print(f"error: no thomcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, failures, info = run_one(name, args.seed, args.seconds, bool(args.trace))
            print_summary(result, failures, info)
            results[name] = result
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
