"""Run one benchmark workload for one seed and print its metrics.

    python3 bench/run_bench.py --workload desk --seed 1 --seconds 20 --trace 0

``--trace 0`` times the campaign pipeline untraced and prints the end-to-end
metrics; ``--trace 1`` runs the traced repetition and prints the per-layer
metrics (see bench/README.md). The next-to-last line of standard output
records the environment, the workload and the campaign digest; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The package is imported from the ``src/`` directory beside this
one, never from an installed copy; without it the run exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

# Pool workers per workload; the config document holds everything else.
WORKERS = {"desk": 1, "dense480": 1, "nomlr120": 2}

# Fresh interpreters timed for setup_s, after one untimed one that may compile bytecode.
SETUP_PROBES = 5
# The probe prints the system-wide monotonic clock once the workload is parsed.
SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import iabsim; "
    "iabsim.parse_config(sys.argv[2]); print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="iabsim campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", required=True, type=int, help="master seed of the campaign (>= 0)")
    parser.add_argument("--seconds", required=True, type=float, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_package() -> bool:
    """Import iabsim from ROOT/src; False when that source tree is missing."""
    if not (SRC / "iabsim" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import iabsim

    return Path(iabsim.__file__).resolve().parent == SRC / "iabsim"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "iabsim_src_lines": sum(
            len(p.read_text().splitlines()) for p in (SRC / "iabsim").rglob("*.py")
        ),
    }


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest child (a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(doc_path: Path) -> float:
    """Median time from spawning a fresh interpreter to iabsim imported and the workload parsed.

    The end is stamped by the probe itself: timing ``subprocess.run`` from
    outside would add its polling wait, which rounds up to 50 ms steps.
    """
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(doc_path)]
    times = []
    for probe in range(SETUP_PROBES + 1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        ready = subprocess.run(cmd, check=True, timeout=60, capture_output=True, text=True).stdout
        if probe:
            times.append(float(ready) - start)
    return statistics.median(times)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not _import_package():
        print(f"error: no iabsim source tree at {SRC}", file=sys.stderr)
        return 2
    doc_path = BENCH_DIR / "workloads" / f"{args.workload}.json"
    doc = json.loads(doc_path.read_text())
    doc["run"]["master_seed"] = args.seed
    workers = WORKERS[args.workload]

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        # Imported here, after the package: the untraced run needs only its public API.
        if args.trace:
            from layers import traced_run

            run = traced_run(doc, workers, args.seconds, work)
            metrics = run.pop("metrics")
        else:
            from campaign import timed_run

            run = timed_run(doc, workers, args.seconds, work)
            rates = run["reps_per_s"]
            if not rates:
                print("error: no campaign completed", file=sys.stderr)
                return 1
            metrics = {
                "reps_per_s": (statistics.median(rates), "1/s"),
                "peak_rss_mib": (peak_rss_mib(), "MiB"),
                # Measured last, so that RUSAGE_CHILDREN above holds only pool workers.
                "setup_s": (setup_seconds(doc_path), "s"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it

    for problem in run["problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "workers": workers,
        "environment": environment(),
        "config": doc,
        **run,
    }
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
