"""Record the benchmark's end-to-end and per-layer figures in BENCH_<label>.json.

    python3 scripts/bench.py --label baseline
    python3 scripts/bench.py --label quick --workload tp-table-small --seconds 1 --out-dir /tmp

Runs `perfbench/run.py --workload W` and `perfbench/run.py --workload W
--trace 1` as subprocesses from the checkout this script sits in, and
writes their result lines together with the commit, the host and the
settings the figures depend on.  A speedup counts when it is recorded in
such a file.  Exit code 0 when both runs report and every output passed
its check, 1 when an output failed (the file is still written), 2 when a
run gave no result.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNNER = ROOT / "perfbench" / "run.py"


def run(workload, seed, seconds, trace):
    """One perfbench run; returns its exit code and its result per workload."""
    command = [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(command[1:])} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    result = json.loads(lines[-1])
    return done.returncode, (result if workload == "all" else {workload: result})


def git_head():
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def figures(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--workload", default="all", help="a perfbench workload, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30,
                        help="perfbench's time per workload for the end-to-end run")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    try:
        plain_code, plain = run(args.workload, args.seed, args.seconds, 0)
        traced_code, traced = run(args.workload, args.seed, args.seconds, 1)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    record = {
        "label": args.label,
        "git_head": git_head(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "workloads": {
            name: {
                "end_to_end": figures(plain[name]),
                "per_layer": figures(traced[name]),
                "attempted": plain[name]["attempted"] + traced[name]["attempted"],
                "failed": plain[name]["failed"] + traced[name]["failed"],
            }
            for name in plain
        },
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(path)
    return max(plain_code, traced_code)


if __name__ == "__main__":
    sys.exit(main())
