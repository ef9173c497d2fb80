"""End-to-end benchmark of the repro package over its public entry points.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train_k1 --seed 1 --seconds 15 --trace 0

Each run starts fresh interpreters (``worker.py``): ``SETUP_SAMPLES - 1``
of them only set the workload up, to sample set-up time, and the last one
sets up and measures.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer breakdown.  The
line before it holds run details (environment, outcomes, failed checks).

The workers get an environment of their own: the BLAS pool pinned to one
thread, ``src`` of this checkout as the only ``PYTHONPATH`` entry, and no
``REPRO_*`` variables from the caller's shell.  The script exits non-zero,
without a result line, if any worker fails or the run would exceed its time
limit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("train_k1", "train_k64", "sweep_k6", "serve_overload")
#: Fresh interpreters whose set-up time is sampled; the median is reported.
SETUP_SAMPLES = 3
#: Wall-clock limit of the whole run, workers included.
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def worker_env() -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key not in ("PYTHONPATH", "PYTHONHOME")
    }
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: argparse.Namespace, extra: List[str], deadline: float) -> List[str]:
    """Run one worker; returns its stdout lines, or raises on any failure."""
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(time.monotonic()),
        *extra,
    ]
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if completed.returncode != 0:
        raise RuntimeError(f"worker exited with code {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed nothing")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        setups = [
            json.loads(run_worker(args, ["--setup-only"], deadline)[-1])
            for _ in range(SETUP_SAMPLES - 1)
        ]
        lines = run_worker(args, [], deadline)
        details = json.loads(lines[-2])
        result = json.loads(lines[-1])
        setups.append(
            {key: result.pop(key) for key in ("setup_s", "setup_host_s")}
        )
        samples = [setup["setup_s"] for setup in setups]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as error:
        print(f"perfbench: {type(error).__name__}: {error}", file=sys.stderr)
        return 1

    details["setup_s_samples"] = samples
    details["setup_host_s_samples"] = [setup["setup_host_s"] for setup in setups]
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(samples), "unit": "s",
        }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
