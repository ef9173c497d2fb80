"""Synchronous vectorized placement environments.

:class:`VecPlacementEnv` steps K independent :class:`VNFPlacementEnv` lanes
behind one batched interface::

    lane 0:  [env] --state--+                          +--action--> [env]
    lane 1:  [env] --state--+--> (K, S) states --+     +--action--> [env]
      ...                   |                    |agent|    ...
    lane K-1:[env] --state--+    (K, A) masks ---+     +--action--> [env]

* :meth:`reset` returns a ``(K, state_dim)`` state batch;
* :meth:`step` applies one action per lane and returns batched
  ``(states, rewards, dones, infos)``, auto-resetting every lane whose
  episode finished (the pre-reset terminal observation is preserved in
  ``infos[i]["terminal_state"]``);
* :meth:`valid_action_masks` stacks the per-lane validity masks into a
  ``(K, num_actions)`` boolean array.

Lanes are plain environments stepped in order, so a K-lane vectorized run
with fixed per-lane seeds is *bitwise identical* to K serial runs — the
speedup comes from the agent side, where one batched forward pass serves all
K lanes (see ``Agent.select_actions``).  Lanes may be built from one scenario
(replicated with derived per-lane workload seeds) or from *different*
scenarios (e.g. a :func:`~repro.workloads.scenarios.scenario_grid` load
sweep), as long as every lane agrees on ``state_dim`` and ``num_actions``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from dataclasses import dataclass, replace as dataclass_replace

from repro.core.env import EnvConfig, EpisodeStats, VNFPlacementEnv
from repro.core.reward import RewardConfig
from repro.core.state import EncoderConfig
from repro.sim.failures import FailureConfig
from repro.utils.rng import RandomState, derive_seed
from repro.workloads.scenarios import Scenario

#: Step outcomes shared by every vectorized backend, encoded as one byte per
#: lane in the lean-step protocol (and through subprocess shared memory).
#: Index 0 is "no outcome" and is never observed after a completed step.
OUTCOMES = (
    "",
    "rejected",
    "placed",
    "accepted",
    "no_route",
    "infeasible",
    "commit_failed",
)
OUTCOME_CODE = {name: code for code, name in enumerate(OUTCOMES)}

#: One lane's row in the reference backend's decision-context gather: active
#: flag, anchor row, extra latency, latency budget, holding time and the
#: next VNF's demand (3).  Lanes without a request in flight take this row.
_IDLE_LANE = (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)


class LaneDecisionContext:
    """Batched arrays describing every lane's pending placement decision.

    Built once per decision step by
    :meth:`VecPlacementEnv.lane_decision_context` (for topology-shared dense
    lanes) and shared between the batched mask kernel and the vectorized
    baseline-policy kernels, so the per-lane Python gather happens once per
    step however many consumers read it.  All arrays are read-only by
    convention; rows of inactive lanes (no request in flight) hold neutral
    filler values and must be masked with :attr:`active`.
    """

    __slots__ = (
        "active",
        "anchor_rows",
        "demands",
        "extras",
        "budgets",
        "holding",
        "used",
        "capacity_plus_tol",
        "free_tol",
        "latency",
        "_constant_stack",
    )

    def __init__(
        self,
        active: np.ndarray,
        anchor_rows: np.ndarray,
        demands: np.ndarray,
        extras: np.ndarray,
        budgets: np.ndarray,
        holding: np.ndarray,
        used: np.ndarray,
        capacity_plus_tol: np.ndarray,
        latency: np.ndarray,
        constant_stack,
    ) -> None:
        self.active = active
        self.anchor_rows = anchor_rows
        self.demands = demands
        self.extras = extras
        self.budgets = budgets
        self.holding = holding
        self.used = used
        self.capacity_plus_tol = capacity_plus_tol
        # Same expression as SubstrateLedger.can_host_all, stacked over lanes.
        self.free_tol = capacity_plus_tol - used
        self.latency = latency
        #: Provider of cross-step-cached stacks of constant ledger matrices
        #: (VecPlacementEnv._stacked_constant); capacities and unit costs do
        #: not change between steps, so contexts share one stack per ledger
        #: set instead of rebuilding it every decision step.
        self._constant_stack = constant_stack

    @property
    def capacity(self) -> np.ndarray:
        """Stacked ``(K, N, 3)`` node capacities (cached across steps)."""
        return self._constant_stack("node_capacity")

    @property
    def capacity_safe(self) -> np.ndarray:
        """Stacked zero-safe capacities for utilization ratios (cached)."""
        return self._constant_stack("node_capacity_safe")

    @property
    def cost_per_unit(self) -> np.ndarray:
        """Stacked ``(K, N, 3)`` per-unit node costs (cached across steps)."""
        return self._constant_stack("node_cost_per_unit")


def lane_workload_seed(seed: RandomState, lane_index: int, scenario_name: str) -> int:
    """The derived workload seed of lane ``lane_index``.

    Exposed so tests (and anyone reconstructing a lane serially) can build an
    environment that reproduces a vectorized lane's request stream exactly.
    """
    return derive_seed(seed, "vec_lane", lane_index, scenario_name)


def lane_failure_seed(seed: RandomState, lane_index: int, scenario_name: str) -> int:
    """The derived failure-schedule seed of lane ``lane_index``.

    Mirrors :func:`lane_workload_seed` for fault-injected lanes, so a lane's
    failure pattern can be reproduced serially as well.
    """
    return derive_seed(seed, "vec_lane_failures", lane_index, scenario_name)


@dataclass
class LaneSpec:
    """Everything needed to (re)build one environment lane.

    This is the construction kernel of the vectorized environments: the sync
    :class:`VecPlacementEnv` builds all K lanes from specs in-process, while
    :class:`~repro.core.subproc.SubprocVecPlacementEnv` ships each worker its
    shard of specs and lets the worker build the very same lanes locally —
    live environments never cross a process boundary.
    """

    scenario: Scenario
    workload_seed: int
    name: str
    env_config: Optional[EnvConfig] = None
    reward_config: Optional[RewardConfig] = None
    encoder_config: Optional[EncoderConfig] = None
    failure_config: Optional[FailureConfig] = None

    def build(self) -> VNFPlacementEnv:
        """Build this lane: own network copy, own request stream."""
        return make_lane_env(
            self.scenario,
            self.workload_seed,
            env_config=self.env_config,
            reward_config=self.reward_config,
            encoder_config=self.encoder_config,
            failure_config=self.failure_config,
        )


def lane_specs_from_scenarios(
    scenarios: Sequence[Scenario],
    seed: RandomState = 0,
    env_config: Optional[EnvConfig] = None,
    reward_config: Optional[RewardConfig] = None,
    encoder_config: Optional[EncoderConfig] = None,
    derive_lane_seeds: bool = True,
    failure_config: Optional[FailureConfig] = None,
) -> List[LaneSpec]:
    """One :class:`LaneSpec` per scenario, with derived per-lane seeds.

    The seed-derivation rules are exactly those of
    :meth:`VecPlacementEnv.from_scenarios` (workload seeds via
    :func:`lane_workload_seed`, failure seeds via :func:`lane_failure_seed`),
    so lanes built from these specs — in-process or in worker processes —
    reproduce the same request and failure streams.
    """
    return [
        LaneSpec(
            scenario=scenario,
            workload_seed=(
                lane_workload_seed(seed, index, scenario.name)
                if derive_lane_seeds
                else scenario.workload_config.seed
            ),
            name=scenario.name,
            env_config=env_config,
            reward_config=reward_config,
            encoder_config=encoder_config,
            failure_config=(
                None
                if failure_config is None
                else dataclass_replace(
                    failure_config,
                    seed=lane_failure_seed(seed, index, scenario.name),
                )
            ),
        )
        for index, scenario in enumerate(scenarios)
    ]


def make_lane_env(
    scenario: Scenario,
    workload_seed: RandomState,
    env_config: Optional[EnvConfig] = None,
    reward_config: Optional[RewardConfig] = None,
    encoder_config: Optional[EncoderConfig] = None,
    failure_config: Optional[FailureConfig] = None,
) -> VNFPlacementEnv:
    """Build one environment lane: own network copy, own request stream."""
    lane_scenario = scenario.with_workload_seed(workload_seed)
    network = lane_scenario.build_network()
    generator = lane_scenario.build_generator(network)
    return VNFPlacementEnv(
        network=network,
        generator=generator,
        catalog=lane_scenario.catalog,
        reward_config=reward_config,
        encoder_config=encoder_config,
        config=env_config,
        failure_config=failure_config,
    )


class VecPlacementEnv:
    """K independent placement environments behind one batched interface."""

    def __init__(
        self,
        envs: Sequence[VNFPlacementEnv],
        auto_reset: bool = True,
        lane_names: Optional[Sequence[str]] = None,
    ) -> None:
        if not envs:
            raise ValueError("VecPlacementEnv needs at least one lane")
        self.envs: List[VNFPlacementEnv] = list(envs)
        reference = self.envs[0]
        for index, env in enumerate(self.envs):
            if (
                env.state_dim != reference.state_dim
                or env.num_actions != reference.num_actions
            ):
                raise ValueError(
                    f"lane {index} has (state_dim, num_actions)="
                    f"({env.state_dim}, {env.num_actions}) but lane 0 has "
                    f"({reference.state_dim}, {reference.num_actions}); all "
                    "lanes must share one observation and action space"
                )
        self.auto_reset = auto_reset
        if lane_names is not None and len(lane_names) != len(self.envs):
            raise ValueError(
                f"{len(lane_names)} lane names for {len(self.envs)} lanes"
            )
        self.lane_names: List[str] = (
            list(lane_names)
            if lane_names is not None
            else [f"lane{i}" for i in range(len(self.envs))]
        )
        #: Total episodes completed across all lanes since construction.
        self.episodes_completed = 0
        self._mask_kernel = self._detect_mask_kernel()
        #: Bumped whenever any lane advances; memoizes the decision context.
        self._decision_version = 0
        self._context: Optional[LaneDecisionContext] = None
        self._context_version = -1
        #: (K, N, 3) node_used rows of the last decision-context gather and
        #: the (ledger, node version) each row was copied from.
        self._used_stack = np.zeros((len(self.envs), self.num_actions - 1, 3))
        self._used_keys: List[tuple] = [(None, -1)] * len(self.envs)
        self._reject_column = np.ones((len(self.envs), 1), dtype=bool)
        #: Lanes with failed nodes at the last decision-context gather.
        self._failed_lanes: List[int] = []
        #: attr -> ((attr, ledger ids), stacked matrix) for constant stacks.
        self._const_stack_cache: Dict[str, Tuple[tuple, np.ndarray]] = {}
        # Lean-step outcome arrays (see the accessors below): the reference
        # backend records them from the per-lane info dicts it builds anyway,
        # so the lean protocol is a contract here, not an optimization.
        num_lanes = len(self.envs)
        self._last_outcomes = np.zeros(num_lanes, dtype=np.int8)
        self._last_request_done = np.zeros(num_lanes, dtype=bool)
        self._last_request_ids = np.zeros(num_lanes, dtype=np.int64)
        self._last_finished_stats: Dict[int, Dict[str, float]] = {}

    # ------------------------------------------------------------------ #
    # Construction from scenarios
    # ------------------------------------------------------------------ #
    @classmethod
    def from_scenario(
        cls,
        scenario: Scenario,
        num_lanes: int,
        seed: RandomState = 0,
        env_config: Optional[EnvConfig] = None,
        reward_config: Optional[RewardConfig] = None,
        encoder_config: Optional[EncoderConfig] = None,
        auto_reset: bool = True,
        failure_config: Optional[FailureConfig] = None,
    ) -> "VecPlacementEnv":
        """K lanes of one scenario with independent derived workload seeds."""
        if num_lanes <= 0:
            raise ValueError(f"num_lanes must be positive, got {num_lanes}")
        return cls.from_scenarios(
            [scenario] * num_lanes,
            seed=seed,
            env_config=env_config,
            reward_config=reward_config,
            encoder_config=encoder_config,
            auto_reset=auto_reset,
            failure_config=failure_config,
        )

    @classmethod
    def from_scenarios(
        cls,
        scenarios: Sequence[Scenario],
        seed: RandomState = 0,
        env_config: Optional[EnvConfig] = None,
        reward_config: Optional[RewardConfig] = None,
        encoder_config: Optional[EncoderConfig] = None,
        auto_reset: bool = True,
        derive_lane_seeds: bool = True,
        failure_config: Optional[FailureConfig] = None,
    ) -> "VecPlacementEnv":
        """One lane per scenario — a scenario-diverse vectorized environment.

        By default every lane gets a workload seed derived from ``(seed, lane
        index, scenario name)``, so two lanes of the same scenario still see
        independent request streams while remaining individually
        reproducible.  Pass ``derive_lane_seeds=False`` to keep each
        scenario's own workload seed instead (e.g. to reproduce the exact
        request streams of a :func:`~repro.workloads.scenarios.scenario_grid`
        consumed elsewhere) — the scenarios must then be distinct, or lanes
        will duplicate one another's streams.

        With a ``failure_config`` every lane injects node failures from its
        own derived schedule seed (:func:`lane_failure_seed`), making the
        batch a fault-diverse availability sweep.
        """
        specs = lane_specs_from_scenarios(
            scenarios,
            seed=seed,
            env_config=env_config,
            reward_config=reward_config,
            encoder_config=encoder_config,
            derive_lane_seeds=derive_lane_seeds,
            failure_config=failure_config,
        )
        return cls.from_specs(specs, auto_reset=auto_reset)

    @classmethod
    def from_specs(
        cls, specs: Sequence[LaneSpec], auto_reset: bool = True
    ) -> "VecPlacementEnv":
        """Build one lane per :class:`LaneSpec` (the shard-construction path)."""
        return cls(
            [spec.build() for spec in specs],
            auto_reset=auto_reset,
            lane_names=[spec.name for spec in specs],
        )

    # ------------------------------------------------------------------ #
    # Dimensions
    # ------------------------------------------------------------------ #
    @property
    def num_lanes(self) -> int:
        """Number of environment lanes (K)."""
        return len(self.envs)

    @property
    def state_dim(self) -> int:
        """Width of each lane's observation vector."""
        return self.envs[0].state_dim

    @property
    def num_actions(self) -> int:
        """Number of discrete actions (shared by all lanes)."""
        return self.envs[0].num_actions

    @property
    def backend(self) -> str:
        """Backend tag of this vectorized environment."""
        return "reference"

    # ------------------------------------------------------------------ #
    # Episode lifecycle
    # ------------------------------------------------------------------ #
    def reset(self, observe: bool = True) -> np.ndarray:
        """Reset every lane; returns the ``(K, state_dim)`` state batch.

        ``observe=False`` skips per-lane state encoding (zero batch).
        """
        self._decision_version += 1
        return np.stack([env.reset(observe=observe) for env in self.envs])

    def reset_lane(self, lane: int) -> np.ndarray:
        """Reset a single lane; returns its fresh state vector."""
        self._decision_version += 1
        return self.envs[lane].reset()

    def _detect_mask_kernel(self) -> bool:
        """Whether the batched mask kernel applies to this lane set.

        The kernel requires every lane to route densely over the *same*
        topology (identical node order, ledger row order and latency matrix)
        and to share one ``latency_mask_check`` setting — the common case for
        lanes built from one scenario family.  Anything else falls back to
        the per-lane reference path.
        """
        reference = self.envs[0]
        if reference.network.routing != "dense":
            return False
        ref_order = reference.encoder.node_order
        ref_matrix = reference.network.latency_matrix
        ref_latency_check = reference.config.latency_mask_check
        for env in self.envs:
            if env.network.routing != "dense":
                return False
            if env.config.latency_mask_check != ref_latency_check:
                return False
            if env.encoder.node_order != ref_order:
                return False
            if env.encoder.node_order != list(env.network.ledger.node_ids):
                return False
            if env is not reference and not np.array_equal(
                env.network.latency_matrix, ref_matrix
            ):
                return False
        return True

    def lane_decision_context(self) -> Optional[LaneDecisionContext]:
        """The batched decision context of the current step (memoized).

        ``None`` when the lane set does not support the batched kernel
        (mixed topologies or non-dense routing).  The context is rebuilt
        lazily after every :meth:`step` / :meth:`reset` / :meth:`reset_lane`
        and shared by the mask kernel and any bound baseline-policy kernels.
        """
        if not self._mask_kernel:
            return None
        if self._context is not None and self._context_version == self._decision_version:
            return self._context
        envs = self.envs
        num_lanes = len(envs)
        # Per-lane values accumulate in one flat Python list and convert to
        # one array in one shot: at K=16 the gather's cost is the number of
        # numpy calls, not the arithmetic.  Row layout: _IDLE_LANE.
        values = []
        ledgers = []
        failed = []
        # node_used rows persist across steps: only lanes whose ledger changed
        # since the last gather (another ledger object or a bumped node
        # version) are copied in, and the context gets a copy of the stack.
        used = self._used_stack
        used_keys = self._used_keys
        dense_index = envs[0].network.dense_routing.index
        for lane, env in enumerate(envs):
            ledger = env.network.ledger
            ledgers.append(ledger)
            key = used_keys[lane]
            if key[0] is not ledger or key[1] != ledger._node_version:
                used[lane] = ledger.node_used
                used_keys[lane] = (ledger, ledger._node_version)
            if env._failed_nodes:
                failed.append(lane)
            request = env._current_request
            if request is None:
                values += _IDLE_LANE
                continue
            chain = request.chain
            bandwidth = chain.bandwidth_mbps
            next_vnf = chain.vnf_types[env._vnf_index]
            cpu, memory, storage, cpu_mbps, memory_mbps, storage_mbps = (
                next_vnf.demand_terms
            )
            partial = env._partial_assignment
            values += (
                1.0,
                dense_index[partial[-1] if partial else request.source_node_id],
                next_vnf.processing_delay_ms + env._partial_latency,
                request.sla.max_latency_ms,
                request.holding_time,
                # demand_array_for's base + per_mbps * bandwidth, per dimension.
                cpu + cpu_mbps * bandwidth,
                memory + memory_mbps * bandwidth,
                storage + storage_mbps * bandwidth,
            )
        table = np.array(values, dtype=float).reshape(num_lanes, len(_IDLE_LANE))
        columns = table.T
        anchor_index = columns[1].astype(np.int64)
        self._failed_lanes = failed
        context = LaneDecisionContext(
            active=columns[0] > 0.0,
            anchor_rows=anchor_index,
            demands=table[:, 5:],
            extras=columns[2],
            budgets=columns[3],
            holding=columns[4],
            used=used.copy(),
            capacity_plus_tol=self._stacked_constant("_capacity_plus_tol", ledgers),
            latency=envs[0].network.latency_matrix[anchor_index],
            constant_stack=self._stacked_constant,
        )
        self._context = context
        self._context_version = self._decision_version
        return context

    def _stacked_constant(self, attr: str, ledgers: Optional[List] = None) -> np.ndarray:
        """Stacked per-lane ledger matrices constant between allocations.

        Capacities and unit costs change only when a lane's ledger object is
        rebuilt (topology mutation), so each requested attribute is stacked
        once per ledger set and shared by every decision step's context.
        """
        if ledgers is None:
            ledgers = [env.network.ledger for env in self.envs]
        # The cache keys on the ledger *objects* (held strongly, compared by
        # identity) rather than their id()s: a rebuilt ledger could land on
        # a freed ledger's recycled id and inherit a stale stack (RPL103).
        # Ledgers define no __eq__, so tuple equality is identity per item.
        ledgers = tuple(ledgers)
        cached = self._const_stack_cache.get(attr)
        if cached is None or cached[0] != ledgers:
            cached = (
                ledgers,
                np.stack([getattr(l, attr) for l in ledgers]),
            )
            self._const_stack_cache[attr] = cached
        return cached[1]

    def valid_action_masks(self) -> np.ndarray:
        """Stacked ``(K, num_actions)`` boolean validity masks.

        For topology-shared dense lanes the whole batch is computed by one
        array kernel over the shared :meth:`lane_decision_context` — stacked
        ledger columns, one latency-matrix gather and a single ``(K, N)``
        comparison chain — bitwise identical to stacking the per-lane
        :meth:`~repro.core.env.VNFPlacementEnv.valid_action_mask` calls (the
        reference path, used whenever lanes differ structurally).
        """
        context = self.lane_decision_context()
        if context is None:
            return np.stack([env.valid_action_mask() for env in self.envs])
        envs = self.envs
        fits = context.demands[:, None, :] <= context.free_tol
        # fits.all(axis=2) over the three resource dimensions, spelled out:
        # at K=16 a reduction over a length-3 axis costs more than the
        # comparison itself.
        valid = fits[:, :, 0] & fits[:, :, 1]
        valid &= fits[:, :, 2]
        if envs[0].config.latency_mask_check:
            valid &= (
                context.latency + context.extras[:, None]
                <= context.budgets[:, None]
            )
        valid &= context.active[:, None]
        for lane in self._failed_lanes:
            env = envs[lane]
            for node_id in env._failed_nodes:
                valid[lane, env._node_action[node_id]] = False
        # Reject, the last action, is always valid.
        return np.concatenate((valid, self._reject_column), axis=1)

    def worker_metadata(self) -> Dict[str, object]:
        """Shard-compatibility metadata for the subprocess worker handshake.

        Every backend a worker can host exposes the same keys; the parent
        compares them across shards to decide whether the cross-shard
        batched decision context applies.
        """
        reference = self.envs[0]
        kernel_ok = self._mask_kernel
        return {
            "state_dim": self.state_dim,
            "num_actions": self.num_actions,
            "num_nodes": self.num_actions - 1,
            "kernel_ok": kernel_ok,
            "node_order": list(reference.encoder.node_order),
            "latency_check": bool(reference.config.latency_mask_check),
            "latency_matrix": (
                np.asarray(reference.network.latency_matrix) if kernel_ok else None
            ),
        }

    def constant_stacks(self) -> Dict[str, np.ndarray]:
        """Per-lane ``(K, N, 3)`` stacks of the constant ledger matrices."""
        ledgers = [env.network.ledger for env in self.envs]
        return {
            name: self._stacked_constant(name, ledgers)
            for name in (
                "node_capacity",
                "node_capacity_safe",
                "node_cost_per_unit",
                "_capacity_plus_tol",
            )
        }

    def lane_stats(self) -> List[EpisodeStats]:
        """The per-lane statistics of the episodes currently in progress."""
        return [env.stats for env in self.envs]

    def lane_failed_nodes(self) -> List[List[int]]:
        """Per-lane node ids currently fenced by an injected failure."""
        return [env.failed_nodes for env in self.envs]

    # ------------------------------------------------------------------ #
    # Lean-step accessors (valid after the most recent step())
    # ------------------------------------------------------------------ #
    def last_outcome_codes(self) -> np.ndarray:
        """Per-lane outcome codes of the most recent step (into OUTCOMES).

        Part of the lean-step protocol: with ``step(..., info=False)`` no
        info dicts are built, and callers that need outcomes read this
        ``(K,)`` int8 array instead.  The returned array is owned by the
        environment and overwritten by the next step.
        """
        return self._last_outcomes

    def last_request_done(self) -> np.ndarray:
        """Per-lane "request finished this step" flags of the last step."""
        return self._last_request_done

    def last_request_ids(self) -> np.ndarray:
        """Per-lane ids of the request each lane acted on last step."""
        return self._last_request_ids

    def last_episode_stats(self, lane: int) -> Dict[str, float]:
        """Finished-episode statistics of a lane whose episode ended.

        Only valid for lanes with ``dones[lane]`` true in the most recent
        step; the payload equals the ``episode_stats`` info entry of the
        full-step protocol.
        """
        try:
            return self._last_finished_stats[lane]
        except KeyError:
            raise KeyError(
                f"lane {lane} did not finish an episode in the last step"
            ) from None

    def close(self) -> None:
        """Release lane resources (a no-op for the in-process lane set).

        Part of the shared vectorized-environment surface: callers close
        whatever :func:`~repro.core.subproc.make_vec_env` handed them without
        caring whether worker processes back it.
        """

    def __enter__(self) -> "VecPlacementEnv":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def step(
        self, actions: Sequence[int], observe: bool = True, info: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[List[Dict[str, object]]]]:
        """Apply one action per lane.

        Returns ``(states, rewards, dones, infos)`` with shapes
        ``(K, state_dim)``, ``(K,)``, ``(K,)`` and a list of K info dicts.
        ``dones[i]`` marks the end of lane i's *episode*; with ``auto_reset``
        the lane is reset immediately and ``states[i]`` is the first state of
        its next episode, while ``infos[i]["terminal_state"]`` keeps the true
        terminal observation and ``infos[i]["episode_stats"]`` the finished
        episode's statistics.  Every info dict also carries its ``lane`` index
        and ``lane_name``.  With ``observe=False`` next-state encoding is
        skipped lane-by-lane and the state batch is all zeros — the fast path
        for batched placement policies that read the live lane substrate.

        ``info=False`` selects the **lean-step protocol**: the infos element
        of the return tuple is ``None`` and callers read the per-lane outcome
        arrays through :meth:`last_outcome_codes` / :meth:`last_request_done`
        / :meth:`last_request_ids` / :meth:`last_episode_stats` instead.  The
        lean path changes only what is *returned*, never what happens — the
        trajectory (rewards, dones, outcomes, stats) is bitwise identical to
        the full protocol (``tests/differential.py`` enforces this).
        """
        actions = np.asarray(actions, dtype=int).ravel()
        if actions.shape[0] != self.num_lanes:
            raise ValueError(
                f"got {actions.shape[0]} actions for {self.num_lanes} lanes"
            )
        self._decision_version += 1
        states = np.empty((self.num_lanes, self.state_dim), dtype=float)
        rewards = np.empty(self.num_lanes, dtype=float)
        dones = np.empty(self.num_lanes, dtype=bool)
        infos: Optional[List[Dict[str, object]]] = [] if info else None
        outcomes = self._last_outcomes
        request_done = self._last_request_done
        request_ids = self._last_request_ids
        self._last_finished_stats.clear()
        for lane, env in enumerate(self.envs):
            state, reward, done, lane_info = env.step(
                int(actions[lane]), observe=observe
            )
            outcomes[lane] = OUTCOME_CODE[lane_info["outcome"]]
            request_done[lane] = lane_info["request_done"]
            request_ids[lane] = lane_info["request_id"]
            if done:
                self.episodes_completed += 1
                self._last_finished_stats[lane] = lane_info["episode_stats"]
                if info:
                    lane_info["terminal_state"] = state
                if self.auto_reset:
                    state = env.reset(observe=observe)
            states[lane] = state
            rewards[lane] = reward
            dones[lane] = done
            if info:
                lane_info["lane"] = lane
                lane_info["lane_name"] = self.lane_names[lane]
                infos.append(lane_info)
        return states, rewards, dones, infos
