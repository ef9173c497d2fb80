"""One benchmark process: set up a workload, then measure it.

``run.py`` starts this script in a fresh interpreter with the BLAS pool
pinned to one thread and ``src`` on ``PYTHONPATH``.  With ``--setup-only``
it stops once the workload is built and prints the set-up time (host and
reference seconds, see ``calibrate.py``); otherwise
it runs the workload and prints two JSON lines: run details (environment,
outcomes, failed checks), then the result.

Measurement:

1. A traced warm-up call counts the lane transitions, records which lane
   cores ran and gives the reference outcomes.
2. Timed calls repeat until ``--seconds`` is used up.  Untraced, every call
   is bare and follows one run of the calibration kernel (``calibrate.py``);
   the rates are total work over total call time in reference seconds.
   Traced, untraced and traced calls alternate; per-layer figures are means
   per traced call, in host seconds, and ``trace.overhead`` compares the
   two medians.

Every call must reproduce the warm-up's outcomes exactly (determinism, and
with tracing on, no feedback from the probe into the simulation).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

#: Rounds of timed calls per run, at least, whatever ``--seconds`` says.
MIN_CALLS = 3

PER_LAYER_UNITS = {
    "agents.select_s": "s",
    "agents.select_calls": "count",
    "agents.observe_s": "s",
    "agents.update_s": "s",
    "agents.update_calls": "count",
    "agents.updates": "count",
    "agents.update_useful_ratio": "ratio",
    "agents.replay_sample_s": "s",
    "nn.forward_s": "s",
    "nn.forward_calls": "count",
    "nn.grad_step_s": "s",
    "core.soa.step_s": "s",
    "core.soa.step_ms_p50": "ms",
    "core.soa.step_ms_p99": "ms",
    "core.soa.masks_s": "s",
    "core.soa.reset_s": "s",
    "core.steps": "count",
    "core.ref.step_s": "s",
    "core.ref.masks_s": "s",
    "core.ref.reset_s": "s",
    "core.encode_s": "s",
    "core.make_vec_env_s": "s",
    "baselines.select_s": "s",
    "baselines.tier0.place_s": "s",
    "baselines.tier1.place_s": "s",
    "baselines.tier0.win_ratio": "ratio",
    "baselines.tier1.win_ratio": "ratio",
    "serving.admit_s": "s",
    "serving.admit_ratio": "ratio",
    "serving.decide_s": "s",
    "serving.decide_calls": "count",
    "serving.decide_ms_p50": "ms",
    "serving.decide_ms_p99": "ms",
    "serving.retry_attempts": "count",
    "serving.retry_success_ratio": "ratio",
    "nfv.is_feasible_s": "s",
    "nfv.is_feasible_calls": "count",
    "nfv.commit_s": "s",
    "nfv.release_s": "s",
    "loop.other_s": "s",
    "trace.attributed_share": "ratio",
    "trace.overhead": "ratio",
    "outcome.mean_reward": "reward",
    "outcome.shed_ratio": "ratio",
    "outcome.lost_ratio": "ratio",
}

#: Spans reported as ``<span>_s`` (inclusive seconds per traced call).
TIMED_SPANS = (
    "agents.select", "agents.observe", "agents.update", "agents.replay_sample",
    "nn.forward", "nn.grad_step",
    "core.soa.step", "core.soa.masks", "core.soa.reset",
    "core.ref.step", "core.ref.masks", "core.ref.reset",
    "core.encode", "core.make_vec_env",
    "baselines.select", "baselines.tier0.place", "baselines.tier1.place",
    "serving.admit", "serving.decide",
    "nfv.is_feasible", "nfv.commit", "nfv.release",
)
#: Lane-core class behind each core span prefix.
LANE_CORES = {"core.soa": "SoAVecPlacementEnv", "core.ref": "VecPlacementEnv"}
#: Spans whose call count is reported as ``<span>_calls``.
COUNTED_SPANS = (
    "agents.select", "agents.update", "nn.forward", "serving.decide",
    "nfv.is_feasible",
)


def blas_threads() -> Optional[int]:
    """Threads of numpy's bundled OpenBLAS pool, or ``None`` if not found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads"
        ):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def environment(lane_cores: List[str]) -> Dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "lane_cores": lane_cores,
        "machine": platform.machine(),
    }


def quantile_ms(samples: List[float], q: int) -> float:
    """The ``q``-th percentile of per-call seconds, in milliseconds."""
    if len(samples) < 2:
        return 1e3 * samples[0] if samples else 0.0
    return 1e3 * statistics.quantiles(samples, n=100)[q - 1]


def per_layer(tracer, traced: List[float], untraced: List[float], rep) -> Dict[str, float]:
    """Per-layer metrics, per traced call, from one tracer spanning them all."""
    from tracing import lane_steps

    calls = len(traced)
    span = tracer.span
    metrics: Dict[str, float] = {}
    for name in TIMED_SPANS:
        metrics[f"{name}_s"] = span(name).seconds / calls
    for name in COUNTED_SPANS:
        metrics[f"{name}_calls"] = span(name).calls / calls
    updates = span("agents.replay_sample").calls
    update_calls = span("agents.update").calls
    metrics["agents.updates"] = updates / calls
    metrics["agents.update_useful_ratio"] = updates / update_calls if update_calls else 0.0
    steps = span("core.soa.step").samples
    metrics["core.soa.step_ms_p50"] = quantile_ms(steps, 50)
    metrics["core.soa.step_ms_p99"] = quantile_ms(steps, 99)
    metrics["core.steps"] = lane_steps(tracer) / calls
    decides = span("serving.decide").samples
    metrics["serving.decide_ms_p50"] = quantile_ms(decides, 50)
    metrics["serving.decide_ms_p99"] = quantile_ms(decides, 99)
    admits = span("serving.admit")
    metrics["serving.admit_ratio"] = admits.items / admits.calls if admits.calls else 0.0

    outcome = rep.outcome
    wins = outcome.get("tier_wins", {})
    for index in (0, 1):
        consulted = span(f"baselines.tier{index}.place").calls
        won = sum(v for k, v in wins.items() if k.startswith(f"{index}:"))
        metrics[f"baselines.tier{index}.win_ratio"] = (
            won * calls / consulted if consulted else 0.0
        )
    retries = outcome.get("retry_attempts", 0)
    metrics["serving.retry_attempts"] = retries
    metrics["serving.retry_success_ratio"] = (
        outcome.get("replaced", 0) / retries if retries else 0.0
    )

    wall = sum(traced)
    metrics["loop.other_s"] = (wall - tracer.top_level_s) / calls
    metrics["trace.attributed_share"] = tracer.top_level_s / wall
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["outcome.mean_reward"] = rep.metrics.get("mean_reward", 0.0)
    metrics["outcome.shed_ratio"] = rep.metrics.get("shed_ratio", 0.0)
    metrics["outcome.lost_ratio"] = rep.metrics.get("lost_ratio", 0.0)
    return metrics


class Measurement:
    """Runs calls, checks each against the reference, tallies failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: List[str] = []
        self.reference = None

    def call(self, tracer=None):
        """One entry-point call; returns the Rep, or ``None`` if it raised."""
        self.attempted += 1
        try:
            rep = self.workload.call(tracer)
        except Exception:  # a failed call is reported, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"call{self.attempted}: raised")
            return None
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        problems = list(rep.failures)
        if self.reference is None:
            self.reference = rep
        elif rep.outcome != self.reference.outcome:
            problems.append("outcome_differs" + ("_traced" if tracer else ""))
        if problems:
            self.failures.append(f"call{self.attempted}: " + ",".join(problems))
            return None
        return rep

    @property
    def failed(self) -> int:
        return len(self.failures)


def measure(name: str, workload, seconds: float, traced_mode: bool) -> Tuple[dict, dict]:
    from calibrate import kernel_seconds, reference_seconds
    from tracing import Tracer, lane_steps, wrap_common

    run = Measurement(workload)
    warm_tracer = Tracer()
    wrap_common(warm_tracer)
    warm = run.call(warm_tracer)
    lane_cores = [
        cls for span, cls in LANE_CORES.items() if warm_tracer.span(f"{span}.step").calls
    ]
    if warm is not None:
        problems = workload.check_trace(warm_tracer)
        if problems:
            run.failures.append("warmup: " + ",".join(problems))
    steps = None
    if warm is not None:
        steps = warm.steps if warm.steps is not None else lane_steps(warm_tracer)

    untraced: List[float] = []
    #: Untraced call times in reference seconds (see calibrate.py).
    untraced_ref: List[float] = []
    kernel: List[float] = []
    traced: List[float] = []
    work = {"steps": 0, "arrivals": 0}
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while warm is not None:
        started = time.perf_counter()
        if not traced_mode:
            kernel.append(kernel_seconds())
        rep = run.call()
        if rep is not None:
            untraced.append(rep.seconds)
            if not traced_mode:
                untraced_ref.append(reference_seconds(rep.seconds, kernel[-1]))
            work["steps"] += rep.steps if rep.steps is not None else steps
            work["arrivals"] += rep.arrivals
        if traced_mode:
            wrap_common(tracer)
            rep = run.call(tracer)
            if rep is not None:
                traced.append(rep.seconds)
        rounds += 1
        finish = time.perf_counter()
        if rounds >= MIN_CALLS and 2 * finish - started > deadline:
            break

    reference = run.reference
    details = {
        "workload": name,
        "environment": environment(lane_cores),
        "calls": {"untraced": len(untraced), "traced": len(traced)},
        "steps_per_call": steps,
        "outcomes": reference.metrics if reference else {},
        "failures": run.failures,
    }
    metrics: Dict[str, Tuple[float, str]] = {}
    if traced_mode and traced and untraced:
        for key, value in per_layer(tracer, traced, untraced, reference).items():
            metrics[key] = (value, PER_LAYER_UNITS[key])
    elif not traced_mode and untraced:
        # Work over time across all calls, not a median of per-call rates:
        # host speed on a shared machine is often bimodal, and a median
        # snaps to one mode where the ratio of totals averages over both.
        # Times are in reference seconds, so host drift divides out.
        busy = sum(untraced_ref)
        metrics["steps_per_s"] = (work["steps"] / busy, "1/s")
        metrics["arrivals_per_s"] = (work["arrivals"] / busy, "1/s")
        details["host_seconds"] = {
            "steps_per_s": work["steps"] / sum(untraced),
            "arrivals_per_s": work["arrivals"] / sum(untraced),
            "kernel_s_median": statistics.median(kernel),
        }
        metrics["acceptance_ratio"] = (reference.metrics["acceptance_ratio"], "ratio")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not traced_mode:
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--t0", type=float, required=True,
        help="time.monotonic() when the parent started this interpreter",
    )
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro

    # Measure this checkout's sources, never an installed copy.
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    if os.path.commonpath([os.path.realpath(repro.__file__), src]) != src:
        print(f"repro imported from {repro.__file__}, not from {src}", file=sys.stderr)
        return 1
    from workloads import build

    workload = build(args.workload, args.seed)
    setup_host_s = time.monotonic() - args.t0
    from calibrate import kernel_seconds, reference_seconds

    setup = {"setup_host_s": setup_host_s}
    setup["setup_s"] = reference_seconds(setup_host_s, kernel_seconds())
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    details, result = measure(args.workload, workload, args.seconds, bool(args.trace))
    result.update(setup)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
