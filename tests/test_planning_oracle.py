"""Per-request planning over ledger rows against the object-walking oracle.

The oracle planners below are the single-score heuristics as they were
written over substrate objects: ``ComputeNode.can_host`` candidates in pool
order, then ``min(..., key=...)`` over them.  Production plans the same
requests over ``SubstrateLedger`` rows (one can-host row and one masked
first-minimum per VNF); every assignment must match, ``NoRouteError``
included, under every routing mode.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.baselines.common import (
    can_host_row,
    first_minimum,
    first_valid_actions,
    masked_score_actions,
)
from repro.baselines.fit import (
    BestFitPolicy,
    CloudOnlyPolicy,
    EdgeOnlyPolicy,
    FirstFitPolicy,
)
from repro.baselines.greedy import (
    GreedyCheapestPolicy,
    GreedyLeastLoadedPolicy,
    GreedyNearestPolicy,
)
from repro.core.timeout import BudgetedPolicy
from repro.nfv.catalog import default_catalog
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
    refresh_node_fence,
)
from repro.substrate.geo import GeoPoint
from repro.substrate.ledger import CAPACITY_TOL
from repro.substrate.network import ROUTING_MODES, NoRouteError, SubstrateNetwork
from repro.substrate.node import make_edge_node
from repro.substrate.resources import ResourceVector
from repro.substrate.topology import (
    TopologyConfig,
    linear_chain_topology,
    metro_edge_cloud_topology,
)
from repro.utils.rng import derive_seed
from repro.workloads.scenarios import reference_scenario
from tests.conftest import build_request


# --------------------------------------------------------------------------- #
# The oracle: object-walking planners
# --------------------------------------------------------------------------- #
def oracle_hosting_candidates(request, vnf_index, network, node_ids=None) -> List[int]:
    demand = request.chain.vnf_at(vnf_index).demand_for(request.bandwidth_mbps)
    pool = list(node_ids) if node_ids is not None else network.node_ids
    return [node_id for node_id in pool if network.node(node_id).can_host(demand)]


def oracle_greedy_nearest(request, network) -> Optional[Tuple[int, ...]]:
    assignment = []
    anchor = request.source_node_id
    for vnf_index in range(request.num_vnfs):
        candidates = oracle_hosting_candidates(request, vnf_index, network)
        if not candidates:
            return None
        best = min(
            candidates,
            key=lambda node_id: network.latency_between(anchor, node_id),
        )
        assignment.append(best)
        anchor = best
    return tuple(assignment)


def oracle_greedy_least_loaded(request, network) -> Optional[Tuple[int, ...]]:
    assignment = []
    for vnf_index in range(request.num_vnfs):
        candidates = oracle_hosting_candidates(request, vnf_index, network)
        if not candidates:
            return None
        best = min(
            candidates,
            key=lambda node_id: network.node(node_id).max_utilization(),
        )
        assignment.append(best)
    return tuple(assignment)


def oracle_greedy_cheapest(request, network) -> Optional[Tuple[int, ...]]:
    assignment = []
    for vnf_index in range(request.num_vnfs):
        candidates = oracle_hosting_candidates(request, vnf_index, network)
        if not candidates:
            return None
        vnf = request.chain.vnf_at(vnf_index)
        demand = vnf.demand_for(request.bandwidth_mbps)
        best = min(
            candidates,
            key=lambda node_id: network.node(node_id).hosting_cost(
                demand, request.holding_time
            ),
        )
        assignment.append(best)
    return tuple(assignment)


def oracle_first_fit(request, network) -> Optional[Tuple[int, ...]]:
    assignment: List[int] = []
    for vnf_index in range(request.num_vnfs):
        candidates = oracle_hosting_candidates(request, vnf_index, network)
        if not candidates:
            return None
        assignment.append(candidates[0])
    return tuple(assignment)


def oracle_best_fit(request, network) -> Optional[Tuple[int, ...]]:
    assignment: List[int] = []
    for vnf_index in range(request.num_vnfs):
        candidates = oracle_hosting_candidates(request, vnf_index, network)
        if not candidates:
            return None
        demand = request.chain.vnf_at(vnf_index).demand_for(request.bandwidth_mbps)

        def remaining_slack(node_id: int) -> float:
            node = network.node(node_id)
            return (node.available - demand).total()

        assignment.append(min(candidates, key=remaining_slack))
    return tuple(assignment)


def oracle_cloud_only(request, network) -> Optional[Tuple[int, ...]]:
    cloud_ids = network.cloud_node_ids
    if not cloud_ids:
        return None
    assignment: List[int] = []
    for vnf_index in range(request.num_vnfs):
        candidates = oracle_hosting_candidates(request, vnf_index, network, cloud_ids)
        if not candidates:
            return None
        assignment.append(candidates[0])
    return tuple(assignment)


def oracle_edge_only(request, network) -> Optional[Tuple[int, ...]]:
    edge_ids = network.edge_node_ids
    if not edge_ids:
        return None
    assignment: List[int] = []
    anchor = request.source_node_id
    for vnf_index in range(request.num_vnfs):
        candidates = oracle_hosting_candidates(request, vnf_index, network, edge_ids)
        if not candidates:
            return None
        best = min(
            candidates,
            key=lambda node_id: network.latency_between(anchor, node_id),
        )
        assignment.append(best)
        anchor = best
    return tuple(assignment)


#: (production policy class, oracle planner) for every single-score policy.
PAIRS = [
    (GreedyNearestPolicy, oracle_greedy_nearest),
    (GreedyLeastLoadedPolicy, oracle_greedy_least_loaded),
    (GreedyCheapestPolicy, oracle_greedy_cheapest),
    (FirstFitPolicy, oracle_first_fit),
    (BestFitPolicy, oracle_best_fit),
    (CloudOnlyPolicy, oracle_cloud_only),
    (EdgeOnlyPolicy, oracle_edge_only),
]


def oracle_policy(policy_cls, planner):
    """A production policy whose planning is replaced by the oracle."""

    class Oracle(policy_cls):
        def plan_assignment(self, request, network):
            return planner(request, network)

    return Oracle()


def outcome(plan, request, network):
    """A planned assignment, or the name of the routing error it raised."""
    try:
        return plan(request, network)
    except NoRouteError:
        return "NoRouteError"


# --------------------------------------------------------------------------- #
# Seeded substrate states
# --------------------------------------------------------------------------- #
CHAINS = (
    ("firewall", "nat"),
    ("firewall", "ids", "load_balancer"),
    ("transcoder",),
    ("nat", "monitor", "wan_optimizer"),
)


def boundary_usage(capacity: np.ndarray, demand: np.ndarray, ulps: int) -> np.ndarray:
    """Usage putting ``used + demand`` within ``ulps`` of ``cap + tol``."""
    usage = (capacity + CAPACITY_TOL) - demand
    direction = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        usage = np.nextafter(usage, direction)
    return usage


def seeded_state(seed: int, routing: str):
    """A loaded, partly fenced substrate plus requests to plan on it.

    Every third seed uses a uniform-latency line (equidistant neighbours tie
    on latency); the rest use metro/cloud topologies.  Twins with identical
    capacity and usage tie on utilization, cost and slack; a few nodes sit on
    a VNF's capacity boundary up to a couple of ulps either way.
    """
    rng = np.random.default_rng(seed)
    catalog = default_catalog()
    if seed % 3 == 0:
        network = linear_chain_topology(num_edge_nodes=6, seed=seed)
    else:
        network = metro_edge_cloud_topology(
            TopologyConfig(num_edge_nodes=8, num_metros=2, seed=seed)
        )
    network.routing = routing
    node_ids = network.node_ids
    requests = [
        build_request(
            catalog,
            vnf_names=CHAINS[int(rng.integers(len(CHAINS)))],
            bandwidth=float(rng.uniform(5.0, 400.0)),
            source=int(rng.choice(node_ids)),
            holding=float(rng.uniform(1.0, 100.0)),
        )
        for _ in range(6)
    ]
    shuffled = [int(n) for n in rng.permutation(node_ids)]
    boundary, twins, loaded = shuffled[:3], shuffled[3:5], shuffled[5:]
    for k, node_id in enumerate(boundary):
        request = requests[k]
        vnf_index = int(rng.integers(request.num_vnfs))
        demand = request.chain.vnf_at(vnf_index).demand_array_for(
            request.bandwidth_mbps
        )
        node = network.node(node_id)
        usage = boundary_usage(node._capacity_arr, demand, int(rng.integers(-2, 3)))
        usage = np.clip(usage, 0.0, node._capacity_arr)
        node.allocate(f"boundary:{k}", ResourceVector(*usage))
    twin_usage = rng.uniform(0.0, 0.5) * network.node(twins[0])._capacity_arr
    for node_id in twins:
        node = network.node(node_id)
        if node.can_host(ResourceVector(*twin_usage)):
            node.allocate("twin", ResourceVector(*twin_usage))
    for k in range(int(rng.integers(0, 2 * len(loaded)))):
        node = network.node(loaded[int(rng.integers(len(loaded)))])
        share = rng.uniform(0.0, 0.7, size=3) * node.available.as_array()
        node.allocate(f"load:{k}", ResourceVector(*share))
    for node_id in rng.choice(node_ids, size=int(rng.integers(0, 3)), replace=False):
        refresh_node_fence(network, int(node_id))
    return network, requests


SEEDS = range(36)


class TestPlanningOracle:
    @pytest.mark.parametrize("routing", ROUTING_MODES)
    def test_assignments_match_oracle(self, routing):
        boundary_disagreements = 0
        for seed in SEEDS:
            network, requests = seeded_state(seed, routing)
            ledger = network.ledger
            for request in requests:
                for vnf_index in range(request.num_vnfs):
                    demand_vec = request.chain.vnf_at(vnf_index).demand_for(
                        request.bandwidth_mbps
                    )
                    row = can_host_row(request, vnf_index, network)
                    expected = [
                        network.node(node_id).can_host(demand_vec)
                        for node_id in ledger.node_ids
                    ]
                    assert row.tolist() == expected
                    boundary_disagreements += int(
                        (ledger.can_host_all(demand_vec.as_array()) != row).sum()
                    )
                for policy_cls, planner in PAIRS:
                    production = outcome(policy_cls().plan_assignment, request, network)
                    oracle = outcome(planner, request, network)
                    assert production == oracle, (
                        f"{policy_cls.name} seed {seed} request "
                        f"{request.request_id}: {production} != {oracle}"
                    )
        # The boundary states must really sit where the two feasibility
        # expressions disagree, or they test nothing.
        assert boundary_disagreements > 0

    @pytest.mark.parametrize("routing", ROUTING_MODES)
    def test_ties_resolve_to_first_candidate(self, routing):
        # Node 2 of a uniform 2 ms line is fenced: its neighbours 1 and 3
        # tie on latency, utilization, cost and slack.
        catalog = default_catalog()
        network = linear_chain_topology(num_edge_nodes=5, seed=0)
        network.routing = routing
        refresh_node_fence(network, 2)
        request = build_request(catalog, vnf_names=("firewall",), source=2)
        for policy_cls, planner in PAIRS:
            assert outcome(policy_cls().plan_assignment, request, network) == outcome(
                planner, request, network
            )
        assert GreedyNearestPolicy().plan_assignment(request, network) == (1,)
        assert GreedyLeastLoadedPolicy().plan_assignment(request, network) == (0,)

    @pytest.mark.parametrize("routing", ROUTING_MODES)
    def test_unreachable_candidate_raises_on_both_sides(self, routing):
        catalog = default_catalog()
        network = linear_chain_topology(num_edge_nodes=4, seed=0)
        # An isolated edge node: it can host, but no route reaches it.
        network.add_node(make_edge_node(9, GeoPoint(10.0, 10.0)))
        network.routing = routing
        request = build_request(catalog, source=0)
        for policy_cls, planner in PAIRS:
            production = outcome(policy_cls().plan_assignment, request, network)
            assert production == outcome(planner, request, network)
            if policy_cls in (GreedyNearestPolicy, EdgeOnlyPolicy):
                assert production == "NoRouteError"
        # Fenced, the isolated node is no candidate and the latency key is
        # never asked for it.
        refresh_node_fence(network, 9)
        for policy_cls, planner in PAIRS:
            production = outcome(policy_cls().plan_assignment, request, network)
            assert production == outcome(planner, request, network)
            assert production != "NoRouteError"


def oracle_first_minimum(valid, scores):
    """``min()`` over the ordered candidate list, as the object planners did."""
    candidates = [index for index, ok in enumerate(valid) if ok]
    return min(candidates, key=lambda index: scores[index]) if candidates else None


class TestFirstMinimum:
    """The one tie rule shared by the planner and the lane kernels."""

    @staticmethod
    def random_rows(seed: int, lanes: int = 8, nodes: int = 7):
        rng = np.random.default_rng(seed)
        valid = rng.random((lanes, nodes)) < 0.5
        # Few distinct values, so ties are common, plus infinite scores.
        scores = rng.choice([0.0, 1.0, 2.0, np.inf, -np.inf], size=(lanes, nodes))
        valid[0] = False  # a lane with no valid node
        scores[1] = np.inf  # a lane whose valid scores are all infinite
        valid[1, 3] = True
        return valid, scores

    def test_rows_and_batches_match_min(self):
        for seed in range(30):
            valid, scores = self.random_rows(seed)
            batch = first_minimum(valid, scores)
            for lane in range(len(valid)):
                expected = oracle_first_minimum(valid[lane], scores[lane])
                if expected is None:
                    continue
                assert first_minimum(valid[lane], scores[lane]) == expected
                assert batch[lane] == expected

    def test_lane_kernels_match_min(self):
        for seed in range(30):
            valid, scores = self.random_rows(seed)
            lanes, nodes = valid.shape
            masks = np.concatenate([valid, np.ones((lanes, 1), dtype=bool)], axis=1)
            active = np.random.default_rng(seed).random(lanes) < 0.8
            scored = masked_score_actions(masks, scores, active)
            first = first_valid_actions(masks, active)
            for lane in range(lanes):
                best = oracle_first_minimum(valid[lane], scores[lane])
                firsts = np.flatnonzero(valid[lane])
                if not active[lane] or best is None:
                    assert scored[lane] == first[lane] == nodes
                else:
                    assert scored[lane] == best
                    assert first[lane] == firsts[0]


class TestCanHostAllBoundary:
    def test_pinned_ulp_counterexample(self):
        # used + demand rounds down onto cap + tol while (cap + tol) - used
        # rounds below demand: can_host says yes, can_host_all says no.
        network = SubstrateNetwork()
        node = make_edge_node(0, GeoPoint(0.0, 0.0), cpu=1.0, memory=1.0, storage=1.0)
        network.add_node(node)
        used, demand = 0.3, 0.7000000010000001
        node.allocate("load", ResourceVector(used, 0.0, 0.0))
        vector = ResourceVector(demand, 0.0, 0.0)
        assert used + demand <= 1.0 + CAPACITY_TOL
        assert demand > (1.0 + CAPACITY_TOL) - used
        assert node.can_host(vector)
        assert not network.ledger.can_host_all(vector.as_array())[0]


# --------------------------------------------------------------------------- #
# Serving differential: oracle-planned tiers vs production tiers
# --------------------------------------------------------------------------- #
def serve_overload_service(seed: int, horizon: float, oracle: bool):
    """The ``serve_overload`` serving configuration on the seed's topology.

    Two budgeted tiers (least-loaded, then nearest) under deterministic
    latency models, MMPP arrivals at 2/16 req/s against a ~4 req/s decision
    server, and correlated fault-domain chaos.
    """
    scenario = reference_scenario(seed=seed)
    network = scenario.build_network()
    primary, fallback = GreedyLeastLoadedPolicy(), GreedyNearestPolicy()
    if oracle:
        primary = oracle_policy(GreedyLeastLoadedPolicy, oracle_greedy_least_loaded)
        fallback = oracle_policy(GreedyNearestPolicy, oracle_greedy_nearest)
    chain = FallbackChain(
        [
            BudgetedPolicy(
                primary,
                budget_s=0.05,
                latency_model=lambda r: 0.08 if r.request_id % 4 == 0 else 0.012,
            ),
            BudgetedPolicy(fallback, budget_s=0.02, latency_model=lambda r: 0.004),
        ]
    )
    chaos = DomainFailureInjector(
        fault_domains_from_network(network),
        DomainFailureConfig(
            mean_time_to_failure=250.0,
            mean_time_to_repair=60.0,
            seed=derive_seed(seed, "chaos"),
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
            queue_high_watermark=24,
            queue_low_watermark=6,
        ),
    )
    return OnlinePlacementService(network, chain, config, chaos=chaos)


def overload_trace(seed: int, horizon: float):
    """The seed's MMPP overload trace.

    Request ids are process-unique, so both sides of a differential replay
    one trace instead of generating two.
    """
    arrivals = MMPPProcess(
        low_rate=2.0,
        high_rate=16.0,
        mean_low_duration=120.0,
        mean_high_duration=60.0,
        seed=derive_seed(seed, "arrivals"),
    )
    generator = reference_scenario(seed=seed).build_generator()
    return list(generator.iter_trace(arrival_process=arrivals, horizon=horizon))


class TestServingDifferential:
    def test_reports_equal_under_domain_chaos(self):
        disrupted = 0
        for seed in (1, 2, 3, 4, 5):
            trace = overload_trace(seed, 150.0)
            reports = [
                serve_overload_service(seed, 150.0, oracle).run(iter(trace)).as_dict()
                for oracle in (True, False)
            ]
            assert reports[0] == reports[1], f"seed {seed}"
            assert reports[1]["accepted"] > 0
            disrupted += reports[1]["disrupted"]
        assert disrupted > 0, "chaos never disrupted a chain"
