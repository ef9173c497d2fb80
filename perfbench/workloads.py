"""The four benchmark workloads, each driving one public entry point.

A workload is built once from the seed (set-up: construction and input
generation) and then called repeatedly.  Every call repeats the same
deterministic unit of work from the same seed, so its simulated outcomes
must be identical on every call, traced or not.  ``call`` times only the
entry point itself and returns a :class:`Rep`.

Work units are sized so that one call takes roughly one to two seconds on a
2-core x86-64 host with one BLAS thread.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.agents.dqn import DQNConfig
from repro.baselines import GreedyLeastLoadedPolicy, GreedyNearestPolicy
from repro.core.manager import ManagerConfig, VNFManager
from repro.core.soa import SoAVecPlacementEnv
from repro.core.timeout import BudgetedPolicy
from repro.core.training import TrainingConfig
from repro.core.vecenv import VecPlacementEnv
from repro.experiments.runner import (
    evaluate_agent_across_scenarios,
    evaluate_baseline_across_scenarios,
)
from repro.nfv.sfc import SFCRequest
from repro.serving import (
    AdmissionConfig,
    FallbackChain,
    OnlinePlacementService,
    ServingConfig,
)
from repro.sim.arrivals import MMPPProcess
from repro.sim.failures import (
    DomainFailureConfig,
    DomainFailureInjector,
    fault_domains_from_network,
)
from repro.utils.rng import derive_seed
from repro.workloads.scenarios import reference_scenario, scenario_grid

from tracing import (
    Tracer,
    lane_steps,
    wrap_agent,
    wrap_core_classes,
    wrap_core_instance,
    wrap_service,
)

#: Requests per training/evaluation episode (the ``EnvConfig`` default).
REQUESTS_PER_EPISODE = 50
#: The Fig. 2 arrival-rate sweep.
SWEEP_RATES = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2)
#: Seed of the inputs that define a workload rather than sample it: the
#: sweep's untrained DQN, and the serving trace's MMPP phases and chaos
#: schedule.  ``--seed`` varies the topology and the request streams.  A
#: per-seed network, overload pattern or failure count would swing the
#: outcomes and the retry load (hence the cost per arrival) far more than
#: the host does.
FIXED_SEED = 20260808


@dataclass
class Rep:
    """One timed entry-point call."""

    seconds: float
    #: Simulated outcomes; compared exactly between calls.
    outcome: Dict[str, Any]
    #: End-to-end outcome metrics derived from ``outcome``.
    metrics: Dict[str, float]
    #: Requests handled by the call.
    arrivals: int
    #: Decisions made by the call; ``None`` when only a trace can count them.
    steps: Optional[int] = None
    #: Labels of the output checks that failed.
    failures: List[str] = field(default_factory=list)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _finite(values) -> bool:
    return all(math.isfinite(value) for value in values)


class TrainWorkload:
    """``VNFManager.train()`` over ``lanes`` training lanes, closed loop.

    The DQN keeps its reference configuration except ``min_replay_size``,
    lowered to the batch size so that a short call spends its time in the
    steady one-update-per-decision-step regime of a long training run.
    """

    def __init__(
        self,
        seed: int,
        lanes: int,
        episodes: int,
        evaluation_interval: int,
        evaluation_episodes: int,
        core: type,
    ) -> None:
        self.scenario = reference_scenario(seed=seed)
        self.seed = seed
        self.core = core
        self.config = ManagerConfig(
            training=TrainingConfig(
                num_episodes=episodes,
                evaluation_interval=evaluation_interval,
                evaluation_episodes=evaluation_episodes,
            ),
            dqn=DQNConfig(min_replay_size=64),
            training_lanes=lanes,
            env_workers=1,
        )
        self._manager = self._build()

    def _build(self) -> VNFManager:
        return VNFManager(self.scenario, config=self.config, seed=self.seed)

    def call(self, tracer: Optional[Tracer] = None) -> Rep:
        manager = self._manager
        if tracer is not None:
            wrap_agent(tracer, manager.agent)
            wrap_core_instance(tracer, manager.trainer.venv)
        history, seconds = _timed(manager.train)
        manager.close()
        # The next call trains a fresh manager from the same seed.
        self._manager = self._build()

        training = self.config.training
        failures = []
        if len(history.episode_rewards) != training.num_episodes:
            failures.append("train.episode_count")
        if not (
            _finite(history.episode_rewards)
            and _finite(history.episode_losses)
            and _finite(history.evaluation_rewards)
        ):
            failures.append("train.finite")
        episodes = len(history.episode_rewards) + (
            len(history.evaluation_rewards) * training.evaluation_episodes
        )
        acceptance = history.episode_acceptance
        return Rep(
            seconds=seconds,
            outcome=history.as_dict(),
            metrics={
                "acceptance_ratio": sum(acceptance) / max(1, len(acceptance)),
                "mean_reward": sum(history.episode_rewards)
                / max(1, len(history.episode_rewards)),
            },
            arrivals=episodes * REQUESTS_PER_EPISODE,
            failures=failures,
        )

    def check_trace(self, tracer: Tracer) -> List[str]:
        """The trainer's lanes ran on the expected lane core."""
        expected = "core.soa" if self.core is SoAVecPlacementEnv else "core.ref"
        return [] if tracer.span(f"{expected}.step").calls else ["train.lane_core"]


class SweepWorkload:
    """Fig. 2 sweep: an untrained DQN and a greedy baseline over six loads.

    Two ``evaluate_*`` passes over the same six-lane batch: the DQN pass
    (SoA core, observe on) and the ``greedy_least_loaded`` pass (reference
    core, observe off).  No learning: the DQN is untrained, from a fixed
    seed, which is deterministic and keeps training time out of set-up.
    """

    def __init__(self, seed: int, episodes_per_scenario: int) -> None:
        base = reference_scenario(seed=seed)
        self.scenarios = scenario_grid(base, arrival_rates=SWEEP_RATES)
        self.agent = VNFManager(base, seed=FIXED_SEED).agent
        self.baseline = GreedyLeastLoadedPolicy()
        self.episodes = episodes_per_scenario
        self.seed = derive_seed(seed, "sweep")

    def call(self, tracer: Optional[Tracer] = None) -> Rep:
        if tracer is not None:
            wrap_agent(tracer, self.agent)
            # bind_lanes() drops instance attributes named select_actions,
            # so the baseline's batched kernel is wrapped on its class.
            tracer.wrap(type(self.baseline), "select_actions", "baselines.select")
            wrap_core_classes(tracer)
        agent_results, agent_s = _timed(
            evaluate_agent_across_scenarios,
            self.agent, self.scenarios,
            episodes_per_scenario=self.episodes, seed=self.seed, env_workers=1,
        )
        baseline_results, baseline_s = _timed(
            evaluate_baseline_across_scenarios,
            self.baseline, self.scenarios,
            episodes_per_scenario=self.episodes, seed=self.seed, env_workers=1,
        )
        results = agent_results + baseline_results
        failures = []
        if len(agent_results) != len(self.scenarios) or len(
            baseline_results
        ) != len(self.scenarios):
            failures.append("sweep.result_count")
        if not all(0.0 <= r.mean_acceptance <= 1.0 for r in results):
            failures.append("sweep.ratio_range")
        if not _finite(r.mean_reward for r in results):
            failures.append("sweep.finite")
        episodes = sum(r.episodes for r in results)
        return Rep(
            seconds=agent_s + baseline_s,
            outcome={
                "agent": [r.as_dict() for r in agent_results],
                "baseline": [r.as_dict() for r in baseline_results],
            },
            metrics={
                "acceptance_ratio": sum(r.mean_acceptance for r in results)
                / len(results),
                "mean_reward": sum(r.mean_reward for r in results) / len(results),
            },
            arrivals=episodes * REQUESTS_PER_EPISODE,
            failures=failures,
        )

    def check_trace(self, tracer: Tracer) -> List[str]:
        """The agent pass ran on the SoA core, the baseline pass on the reference."""
        failures = []
        if not tracer.span("core.soa.step").calls:
            failures.append("sweep.agent_core")
        if not tracer.span("core.ref.step").calls:
            failures.append("sweep.baseline_core")
        return failures


# ---------------------------------------------------------------------- #
# serve_overload: the configuration of the serving soak
# ---------------------------------------------------------------------- #
#: Tier budgets; the primary's latency model exceeds its budget on every
#: fourth request, so the fallback tier is exercised deterministically.
PRIMARY_BUDGET_S = 0.05
FALLBACK_BUDGET_S = 0.02
QUEUE_HIGH, QUEUE_LOW = 24, 6


def primary_latency(request: SFCRequest) -> float:
    return 0.08 if request.request_id % 4 == 0 else 0.012


def fallback_latency(request: SFCRequest) -> float:
    return 0.004


class ServeWorkload:
    """``OnlinePlacementService.run`` on an MMPP overload trace under chaos.

    MMPP arrivals alternate 2 and 16 req/s; ``decision_time_scale=10`` gives
    the decision server a capacity of about 4 req/s, so the high phase
    overloads it 4x.  The MMPP phases and the chaos schedule come from a
    fixed seed; ``--seed`` varies the topology and the request mix.  Two
    budgeted tiers (``greedy_least_loaded`` then
    ``greedy_nearest``) decide under deterministic latency models, so host
    time never feeds back into simulated outcomes.  The trace is generated
    during set-up and replayed as fast as the host allows (open loop in
    simulated time).
    """

    def __init__(self, seed: int, horizon: float) -> None:
        scenario = reference_scenario(seed=seed)
        network = scenario.build_network()
        chain = FallbackChain(
            [
                BudgetedPolicy(
                    GreedyLeastLoadedPolicy(),
                    budget_s=PRIMARY_BUDGET_S,
                    latency_model=primary_latency,
                ),
                BudgetedPolicy(
                    GreedyNearestPolicy(),
                    budget_s=FALLBACK_BUDGET_S,
                    latency_model=fallback_latency,
                ),
            ]
        )
        chaos = DomainFailureInjector(
            fault_domains_from_network(network),
            DomainFailureConfig(
                mean_time_to_failure=250.0,
                mean_time_to_repair=60.0,
                seed=derive_seed(FIXED_SEED, "chaos"),
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
                queue_high_watermark=QUEUE_HIGH,
                queue_low_watermark=QUEUE_LOW,
            ),
        )
        self.service = OnlinePlacementService(network, chain, config, chaos=chaos)
        arrivals = MMPPProcess(
            low_rate=2.0,
            high_rate=16.0,
            mean_low_duration=120.0,
            mean_high_duration=60.0,
            seed=derive_seed(FIXED_SEED, "arrivals"),
        )
        self.trace = list(
            scenario.build_generator().iter_trace(
                arrival_process=arrivals, horizon=horizon
            )
        )

    def call(self, tracer: Optional[Tracer] = None) -> Rep:
        if tracer is not None:
            wrap_service(tracer, self.service)
        report, seconds = _timed(self.service.run, iter(self.trace))
        failures = []
        if report.arrivals != len(self.trace):
            failures.append("serve.arrivals")
        if report.arrivals != (
            report.shed + report.accepted + report.rejected + report.commit_failed
        ):
            failures.append("serve.arrival_conservation")
        if report.disrupted != report.replaced + report.lost + report.expired:
            failures.append("serve.disruption_conservation")
        if report.max_queue_depth > QUEUE_HIGH:
            failures.append("serve.queue_bound")
        decisions = report.arrivals - report.shed + report.retry_attempts
        return Rep(
            seconds=seconds,
            outcome=report.as_dict(),
            metrics={
                "acceptance_ratio": report.acceptance_ratio,
                "shed_ratio": report.shed_ratio,
                "lost_ratio": report.lost / max(1, report.disrupted),
            },
            arrivals=report.arrivals,
            steps=decisions,
            failures=failures,
        )

    def check_trace(self, tracer: Tracer) -> List[str]:
        """The serving path runs no lane core."""
        return ["serve.lane_core"] if lane_steps(tracer) else []


def build(name: str, seed: int):
    """Set up workload ``name`` from ``seed``."""
    if name == "train_k1":
        return TrainWorkload(
            seed, lanes=1, episodes=6, evaluation_interval=3,
            evaluation_episodes=1, core=VecPlacementEnv,
        )
    if name == "train_k64":
        return TrainWorkload(
            seed, lanes=64, episodes=64, evaluation_interval=64,
            evaluation_episodes=64, core=SoAVecPlacementEnv,
        )
    if name == "sweep_k6":
        return SweepWorkload(seed, episodes_per_scenario=8)
    if name == "serve_overload":
        return ServeWorkload(seed, horizon=600.0)
    raise ValueError(f"unknown workload {name!r}")
