"""One benchmark worker: set up, run one workload once, check it, report.

Started by run.py as a fresh process for every pass, with PYTHONPATH set
to the checkout's src and PYTHONHASHSEED pinned.  Prints one JSON object
on its last line of output.  Times are CLOCK_MONOTONIC readings, which are
comparable with the parent's spawn time.

In setup and run mode the host speed probe (hostspeed.py) runs from the
worker's first line to the end of the job, and `setup_s` and `wall_s` are
scaled to the reference speed; `raw_setup_s` and `raw_wall_s` are the
clock readings as they are.  In trace mode the probe stops before the
tracer is installed, so that no span holds probe time.

    python3 perfbench/worker.py --workload W --seed N --spawned T --mode setup|run|trace
"""

import time

STARTED = time.monotonic()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from hostspeed import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()
PROBE.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    if args.mode == "trace":
        PROBE.stop()

    importing = time.monotonic()
    import thomcalc
    import thomcalc.cli

    if Path(thomcalc.__file__).resolve().parent != SRC / "thomcalc":
        raise SystemExit(f"imported thomcalc from {thomcalc.__file__}, not from {SRC}")
    imported = time.monotonic()

    from spans import Tracer
    from workloads import WORKLOADS, make_inputs

    tracer = None
    if args.mode == "trace":
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
    thomcalc.default_registry()
    inputs = make_inputs(args.workload, args.seed)
    ready = time.monotonic()
    report = {
        "startup_s": STARTED - args.spawned,
        "import_s": imported - importing,
        "raw_setup_s": ready - args.spawned,
    }
    if args.mode == "setup":
        PROBE.stop()
        report["setup_s"] = PROBE.scaled(args.spawned, ready)
        print(json.dumps(report))
        return 0

    workload = WORKLOADS[args.workload]
    start = time.monotonic()
    results = workload.run(inputs)
    end = time.monotonic()
    report["raw_wall_s"] = end - start
    if tracer is not None:
        tracer.uninstall()
    else:
        PROBE.stop()
        report["setup_s"] = PROBE.scaled(args.spawned, ready)
        report["wall_s"] = PROBE.scaled(start, end)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["attempted"], report["failures"] = workload.check(inputs, results)
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["spans"] = len(tracer)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
