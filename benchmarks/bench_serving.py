"""Soak benchmark of the online serving loop (`repro.serving`).

Replays an MMPP trace with a sustained 4x-overload phase through a two-tier
budgeted fallback chain (slow learned-stand-in -> fast greedy) with
correlated fault-domain chaos injected mid-stream, and checks the robustness
contract end to end:

* the decision queue stays bounded at the admission high watermark,
* shed rate rises under the overload phase and *recovers* (hysteresis:
  shedding mode is both entered and exited),
* the fallback chain preempts over-budget decisions — some requests are won
  by the fallback tier — and decision latency never exceeds the summed tier
  budgets (p99 is checked against the budget at histogram-bin resolution),
* chains disrupted by an injected domain failure are re-placed or declared
  lost/expired within the bounded retry budget (every disruption resolves),
* the soak is memory-flat: the full run streams the trace lazily and traced
  heap growth between the early and late phase of the run stays bounded.

Decision latencies are synthetic (a deterministic per-request latency model
on each tier) so the timeout/fallback machinery is exercised reproducibly
and the full soak's wall-clock stays dominated by real placement work.

Run standalone::

    PYTHONPATH=src:. python benchmarks/bench_serving.py            # full soak
    PYTHONPATH=src:. python benchmarks/bench_serving.py --smoke    # seconds
    PYTHONPATH=src:. python benchmarks/bench_serving.py --requests 200000

Raw numbers are persisted to ``benchmarks/results/serving.json``.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Dict, Iterable, Iterator, List, Optional

from repro.baselines import GreedyLeastLoadedPolicy, GreedyNearestPolicy
from repro.core.timeout import BudgetedPolicy
from repro.nfv.sfc import SFCRequest
from repro.serving import (
    AdmissionConfig,
    FallbackChain,
    OnlinePlacementService,
    ServingConfig,
    ServingReport,
)
from repro.sim.arrivals import MMPPProcess
from repro.sim.failures import (
    DomainFailureConfig,
    DomainFailureInjector,
    fault_domains_from_network,
)
from repro.utils.rng import derive_seed
from repro.workloads.scenarios import reference_scenario

SEED = 20260808

#: Histogram bins are geometric at 20/decade, so a quantile read from a bin
#: upper edge can exceed the true value by at most 10^(1/20) ~ 1.122x.
HISTOGRAM_BIN_TOLERANCE = 1.125

#: Primary tier: 12 ms typical, 80 ms (over its 50 ms budget) on every 4th
#: request — a stand-in for a learned policy with a heavy-tail forward pass.
PRIMARY_BUDGET_S = 0.05
FALLBACK_BUDGET_S = 0.02


def primary_latency(request: SFCRequest) -> float:
    return 0.08 if request.request_id % 4 == 0 else 0.012


def fallback_latency(request: SFCRequest) -> float:
    return 0.004


def build_chain() -> FallbackChain:
    """The two-tier budgeted chain every mode of this benchmark serves with."""
    primary = BudgetedPolicy(
        GreedyLeastLoadedPolicy(),
        budget_s=PRIMARY_BUDGET_S,
        latency_model=primary_latency,
    )
    fallback = BudgetedPolicy(
        GreedyNearestPolicy(),
        budget_s=FALLBACK_BUDGET_S,
        latency_model=fallback_latency,
    )
    return FallbackChain([primary, fallback])


def build_service(
    horizon: float, queue_high: int = 24, queue_low: int = 6
) -> OnlinePlacementService:
    """Service over the reference topology with domain chaos injected.

    ``decision_time_scale=10`` maps the ~24 ms mean charged decision into
    ~0.24 virtual seconds of server occupancy, i.e. a decision-server
    capacity of ~4 req/s — which the MMPP high phase (16 req/s) overloads 4x.
    """
    scenario = reference_scenario(seed=SEED)
    network = scenario.build_network()
    chaos = DomainFailureInjector(
        fault_domains_from_network(network),
        DomainFailureConfig(
            mean_time_to_failure=250.0,
            mean_time_to_repair=60.0,
            seed=derive_seed(SEED, "chaos"),
        ),
    )
    config = ServingConfig(
        horizon=horizon,
        decision_time_scale=10.0,
        monitoring_interval=10.0,
        retry_base_delay=2.0,
        retry_backoff=2.0,
        retry_max_attempts=4,
        admission=AdmissionConfig(
            tokens_per_second=6.0,
            bucket_capacity=12.0,
            queue_high_watermark=queue_high,
            queue_low_watermark=queue_low,
        ),
    )
    return OnlinePlacementService(network, build_chain(), config, chaos=chaos)


def overload_trace(horizon: float) -> Iterator[SFCRequest]:
    """Stream an MMPP trace whose high phase runs at 4x service capacity."""
    scenario = reference_scenario(seed=SEED)
    generator = scenario.build_generator()
    process = MMPPProcess(
        low_rate=2.0,
        high_rate=16.0,
        mean_low_duration=120.0,
        mean_high_duration=60.0,
        seed=derive_seed(SEED, "arrivals"),
    )
    return generator.iter_trace(arrival_process=process, horizon=horizon)


def check_degradation(report: ServingReport, queue_high: int) -> List[str]:
    """The graceful-degradation contract; returns the assertion labels checked."""
    chain_budget = PRIMARY_BUDGET_S + FALLBACK_BUDGET_S
    latency = report.decision_latency
    admission = report.admission or {}
    assert report.arrivals > 0 and report.accepted > 0
    assert report.max_queue_depth <= queue_high, (
        f"queue depth {report.max_queue_depth} exceeded the admission "
        f"high watermark {queue_high}"
    )
    assert report.shed > 0, "overload phase never triggered shedding"
    assert admission.get("shed_mode_entries", 0) >= 1, "shedding mode never entered"
    assert admission.get("shed_mode_exits", 0) >= 1, (
        "shedding mode never exited — shed rate did not recover with hysteresis"
    )
    assert latency.max <= chain_budget + 1e-9, (
        f"decision latency {latency.max:.4f}s exceeded the summed tier "
        f"budgets {chain_budget:.4f}s"
    )
    # Gate on the unclamped bin edge: clamping to the observed max must not
    # make this check any easier to pass.
    p99_edge = latency.bin_upper_edge(0.99)
    assert p99_edge <= chain_budget * HISTOGRAM_BIN_TOLERANCE, (
        f"p99 decision latency {p99_edge:.4f}s is over the "
        f"chain budget {chain_budget:.4f}s (bin tolerance included)"
    )
    timeouts = sum(report.tier_timeouts.values())
    assert timeouts > 0, "no tier ever blew its budget — fallback path untested"
    fallback_wins = report.tier_wins.get("1:greedy_nearest", 0)
    assert fallback_wins > 0, "the fallback tier never won a request"
    assert report.disrupted > 0, "domain chaos never disrupted a running chain"
    resolved = report.replaced + report.lost + report.expired
    assert resolved == report.disrupted, (
        f"{report.disrupted} disruptions but only {resolved} resolved "
        "(replaced + lost + expired) within the retry budget"
    )
    return [
        "queue_bounded",
        "shed_rises_and_recovers",
        "p99_under_budget",
        "fallback_fires",
        "disruptions_resolved",
    ]


def run_smoke() -> Dict[str, object]:
    """Seconds-fast serving smoke: short trace, every robustness path fires."""
    horizon = 600.0
    queue_high, queue_low = 24, 6
    service = build_service(horizon, queue_high, queue_low)
    start = time.perf_counter()
    report = service.run(overload_trace(horizon))
    elapsed = time.perf_counter() - start
    checked = check_degradation(report, queue_high)
    return {
        "mode": "smoke",
        "config": _config_dict(horizon),
        "report": report.as_dict(),
        "assertions": checked,
        "wall_clock_s": elapsed,
        "arrivals_per_s": report.arrivals / elapsed if elapsed > 0 else 0.0,
    }


class _MemorySampler:
    """Samples traced heap size every ``stride`` requests of a stream."""

    def __init__(self, stride: int) -> None:
        self.stride = stride
        self.samples: List[int] = []

    def wrap(self, stream: Iterable[SFCRequest]) -> Iterator[SFCRequest]:
        for count, request in enumerate(stream):
            if count % self.stride == 0:
                self.samples.append(tracemalloc.get_traced_memory()[0])
            yield request


def run_soak(target_requests: int = 1_000_000) -> Dict[str, object]:
    """The full soak: >= ``target_requests`` served memory-flat.

    The MMPP mean rate is ~8.7 req/s, so the horizon is sized from the
    target; memory flatness is asserted on traced-heap samples taken every
    2% of the stream (late-run samples must not drift above the early-run
    level by more than 20% + 4 MB slack).
    """
    mean_rate = (2.0 * 120.0 + 16.0 * 60.0) / (120.0 + 60.0)
    horizon = target_requests / mean_rate
    queue_high, queue_low = 24, 6
    service = build_service(horizon, queue_high, queue_low)
    sampler = _MemorySampler(stride=max(1, target_requests // 50))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = service.run(sampler.wrap(overload_trace(horizon)))
        elapsed = time.perf_counter() - start
    finally:
        tracemalloc.stop()
    checked = check_degradation(report, queue_high)
    assert report.arrivals >= target_requests * 0.9, (
        f"soak produced only {report.arrivals} arrivals "
        f"(target {target_requests})"
    )
    samples = sampler.samples
    # Skip the warm-up samples (imports, first allocations); compare the
    # median of the second quarter against the maximum of the last quarter.
    quarter = max(1, len(samples) // 4)
    early = sorted(samples[quarter : 2 * quarter])[quarter // 2]
    late = max(samples[-quarter:])
    flat = late <= early * 1.2 + 4 * 1024 * 1024
    assert flat, (
        f"traced heap grew from {early / 1e6:.1f} MB (early) to "
        f"{late / 1e6:.1f} MB (late) over the soak — not memory-flat"
    )
    return {
        "mode": "soak",
        "config": _config_dict(horizon),
        "report": report.as_dict(),
        "assertions": checked + ["memory_flat"],
        "wall_clock_s": elapsed,
        "arrivals_per_s": report.arrivals / elapsed if elapsed > 0 else 0.0,
        "memory": {
            "samples_bytes": samples,
            "early_bytes": early,
            "late_bytes": late,
        },
    }


def _config_dict(horizon: float) -> Dict[str, object]:
    return {
        "seed": SEED,
        "horizon": horizon,
        "tier_budgets_s": [PRIMARY_BUDGET_S, FALLBACK_BUDGET_S],
        "decision_time_scale": 10.0,
        "mmpp": {
            "low_rate": 2.0,
            "high_rate": 16.0,
            "mean_low_duration": 120.0,
            "mean_high_duration": 60.0,
        },
        "admission": {
            "tokens_per_second": 6.0,
            "bucket_capacity": 12.0,
            "queue_high_watermark": 24,
            "queue_low_watermark": 6,
        },
        "chaos": {"mean_time_to_failure": 250.0, "mean_time_to_repair": 60.0},
        "retry": {"base_delay": 2.0, "backoff": 2.0, "max_attempts": 4},
    }


def _save(section: str, results: Dict[str, object]) -> None:
    """Update one section of ``serving.json``, preserving the other.

    The committed artifact carries both the CI-asserted smoke run and the
    full >= 1M-request soak; each mode refreshes only its own section.
    """
    import json

    from benchmarks.common import RESULTS_DIR
    from repro.utils.serialization import save_json

    path = RESULTS_DIR / "serving.json"
    payload: Dict[str, object] = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            payload = {}
    payload[section] = results
    save_json(payload, path)


def bench_serving(benchmark) -> None:
    """pytest-benchmark entry point matching the other engineering benches."""
    results = benchmark.pedantic(
        run_soak, args=(200_000,), rounds=1, iterations=1, warmup_rounds=0
    )
    _save("soak", results)


def main() -> None:
    import sys

    if "--smoke" in sys.argv:
        results = run_smoke()
        _save("smoke", results)
        report = results["report"]
        print(
            f"serving smoke: {report['arrivals']} arrivals, "
            f"shed {report['shed_ratio']:.0%}, "
            f"accepted {report['accepted']}, "
            f"p99 decision {report['decision_latency_s']['p99'] * 1e3:.1f} ms "
            f"(budget {(PRIMARY_BUDGET_S + FALLBACK_BUDGET_S) * 1e3:.0f} ms), "
            f"disrupted {report['disrupted']} -> "
            f"replaced {report['replaced']} / lost {report['lost']} / "
            f"expired {report['expired']}; "
            f"assertions: {', '.join(results['assertions'])}"
        )
        return
    target = 1_000_000
    if "--requests" in sys.argv:
        target = int(sys.argv[sys.argv.index("--requests") + 1])
    results = run_soak(target)
    _save("soak", results)
    report = results["report"]
    print(
        f"serving soak: {report['arrivals']} arrivals in "
        f"{results['wall_clock_s']:.1f}s "
        f"({results['arrivals_per_s']:.0f} arrivals/s), "
        f"shed {report['shed_ratio']:.0%}, accepted {report['accepted']}, "
        f"max queue {report['max_queue_depth']}, "
        f"p99 decision {report['decision_latency_s']['p99'] * 1e3:.1f} ms, "
        f"disrupted {report['disrupted']} -> replaced {report['replaced']} / "
        f"lost {report['lost']} / expired {report['expired']}"
    )
    memory = results["memory"]
    print(
        f"memory: early {memory['early_bytes'] / 1e6:.1f} MB, "
        f"late {memory['late_bytes'] / 1e6:.1f} MB (flat)"
    )


if __name__ == "__main__":
    main()
