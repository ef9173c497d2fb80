"""Tests for the online serving loop: budgets, admission, fallback, retry.

Every timing-sensitive path uses ``latency_model`` on :class:`BudgetedPolicy`
so decision latencies are deterministic — no test here sleeps or depends on
wall-clock speed.
"""

import copy

import numpy as np
import pytest

from repro.baselines.greedy import GreedyLeastLoadedPolicy, GreedyNearestPolicy
from repro.core.timeout import BudgetedPolicy
from repro.nfv.catalog import default_catalog
from repro.nfv.placement import Placement
from repro.serving.admission import AdmissionConfig, AdmissionController
from repro.serving.report import BoundedTrajectory, ServingReport, StreamingHistogram
from repro.serving.service import (
    ChainDecision,
    FallbackChain,
    OnlinePlacementService,
    ServingConfig,
)
from repro.sim.failures import (
    ChaosEvent,
    DomainFailureConfig,
    DomainFailureInjector,
    fault_domains_from_network,
    placement_traverses_link,
)
from repro.experiments.runner import run_serving_soak
from repro.substrate.link import canonical_endpoints
from repro.substrate.topology import TopologyConfig, linear_chain_topology
from repro.workloads.scenarios import reference_scenario
from tests.conftest import build_request
from tests.test_simulation import AcceptFirstNodePolicy, RejectAllPolicy


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def budgeted(policy, budget_s=0.05, latency_s=0.001):
    """A BudgetedPolicy with a fixed deterministic latency model."""
    return BudgetedPolicy(
        policy, budget_s=budget_s, latency_model=lambda request: latency_s
    )


def make_requests(catalog, times, holding=30.0, source=0):
    return [
        build_request(catalog, arrival=t, holding=holding, source=source)
        for t in times
    ]


class FixedChaos:
    """Chaos stub replaying a fixed schedule (duck-types DomainFailureInjector)."""

    def __init__(self, events):
        self._events = list(events)

    def schedule(self, network, horizon):
        return [event for event in self._events if event.time <= horizon]


# --------------------------------------------------------------------------- #
# BudgetedPolicy
# --------------------------------------------------------------------------- #
class TestBudgetedPolicy:
    def test_under_budget_keeps_placement_and_charges_elapsed(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        tier = budgeted(AcceptFirstNodePolicy(0), budget_s=0.05, latency_s=0.01)
        outcome = tier.decide(build_request(catalog), network)
        assert not outcome.timed_out
        assert outcome.placement is not None
        assert outcome.elapsed_s == pytest.approx(0.01)
        assert outcome.charged_s == pytest.approx(0.01)
        assert tier.calls == 1 and tier.timeouts == 0

    def test_over_budget_preempts_and_caps_charge(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        tier = budgeted(AcceptFirstNodePolicy(0), budget_s=0.05, latency_s=0.2)
        outcome = tier.decide(build_request(catalog), network)
        assert outcome.timed_out
        assert outcome.placement is None, "late answer must be discarded"
        assert outcome.elapsed_s == pytest.approx(0.2)
        assert outcome.charged_s == pytest.approx(0.05), "charge capped at budget"
        assert tier.timeouts == 1 and tier.timeout_ratio == 1.0

    def test_measured_clock_path(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        ticks = iter([0.0, 0.004])
        tier = BudgetedPolicy(
            AcceptFirstNodePolicy(0), budget_s=0.05, clock=lambda: next(ticks)
        )
        outcome = tier.decide(build_request(catalog), network)
        assert outcome.elapsed_s == pytest.approx(0.004)
        assert not outcome.timed_out

    def test_reset_clears_counters(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        tier = budgeted(AcceptFirstNodePolicy(0))
        tier.decide(build_request(catalog), network)
        tier.reset()
        assert tier.calls == 0 and tier.timeouts == 0
        assert tier.total_charged_s == 0.0

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            BudgetedPolicy(AcceptFirstNodePolicy(0), budget_s=0.0)


# --------------------------------------------------------------------------- #
# AdmissionController
# --------------------------------------------------------------------------- #
class TestAdmissionController:
    def test_token_bucket_depletes_and_refills(self):
        controller = AdmissionController(
            AdmissionConfig(
                tokens_per_second=1.0,
                bucket_capacity=2.0,
                queue_high_watermark=100,
                queue_low_watermark=1,
            )
        )
        assert controller.admit(0.0, 0)
        assert controller.admit(0.0, 0)
        assert not controller.admit(0.0, 0), "bucket empty at t=0"
        assert controller.shed_rate_limited == 1
        assert controller.admit(1.5, 0), "refilled after 1.5 virtual seconds"

    def test_queue_hysteresis_band(self):
        controller = AdmissionController(
            AdmissionConfig(
                tokens_per_second=1000.0,
                bucket_capacity=1000.0,
                queue_high_watermark=8,
                queue_low_watermark=2,
            )
        )
        assert controller.admit(0.0, 7)
        assert not controller.admit(0.0, 8), "high watermark starts shedding"
        assert not controller.admit(0.0, 5), "inside the band: still shedding"
        assert controller.shedding
        assert controller.admit(0.0, 2), "low watermark stops shedding"
        assert controller.shed_mode_entries == 1
        assert controller.shed_mode_exits == 1
        assert controller.shed == controller.shed_overload == 2

    def test_as_dict_and_reset(self):
        controller = AdmissionController()
        controller.admit(0.0, 0)
        snapshot = controller.as_dict()
        assert snapshot["admitted"] == 1 and snapshot["shed"] == 0
        controller.reset()
        assert controller.admitted == 0 and not controller.shedding

    def test_watermark_band_must_exist(self):
        with pytest.raises(ValueError, match="hysteresis band"):
            AdmissionConfig(queue_high_watermark=4, queue_low_watermark=4)


# --------------------------------------------------------------------------- #
# StreamingHistogram / BoundedTrajectory
# --------------------------------------------------------------------------- #
class TestStreamingHistogram:
    def test_quantiles_bounded_by_bin_resolution(self):
        histogram = StreamingHistogram(lo=1e-6, hi=100.0, bins_per_decade=20)
        for _ in range(1000):
            histogram.record(0.01)
        # Bin upper edge overshoots by at most one bin width: 10**(1/20).
        overshoot = 10 ** (1 / 20)
        for q in (0.5, 0.99):
            assert 0.01 <= histogram.quantile(q) <= 0.01 * overshoot * 1.001

    def test_mean_and_max_are_exact(self):
        histogram = StreamingHistogram()
        for value in (0.01, 0.02, 0.06):
            histogram.record(value)
        assert histogram.mean == pytest.approx(0.03)
        assert histogram.max == pytest.approx(0.06)
        assert len(histogram) == 3

    def test_empty_histogram(self):
        histogram = StreamingHistogram()
        assert histogram.quantile(0.99) == 0.0
        assert histogram.mean == 0.0
        assert histogram.as_dict()["count"] == 0

    def test_clamps_out_of_range(self):
        histogram = StreamingHistogram(lo=1e-3, hi=1.0)
        histogram.record(0.0)
        histogram.record(50.0)
        assert len(histogram) == 2
        assert histogram.max == pytest.approx(50.0)

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            StreamingHistogram().quantile(1.5)

    def test_quantile_never_exceeds_observed_max(self):
        # 0.054 s sits inside the bin whose upper edge is 10**-1.25 ~ 0.0562 s.
        histogram = StreamingHistogram(lo=1e-6, hi=100.0, bins_per_decade=20)
        for _ in range(95):
            histogram.record(0.012)
        for _ in range(5):
            histogram.record(0.054)
        assert histogram.bin_upper_edge(0.99) == pytest.approx(10 ** -1.25)
        assert histogram.quantile(0.99) == histogram.max == 0.054
        assert histogram.as_dict()["p99"] <= histogram.as_dict()["max"]
        assert histogram.quantile(0.5) == histogram.bin_upper_edge(0.5) < 0.054


class TestBoundedTrajectory:
    def test_memory_bounded_by_decimation(self):
        trajectory = BoundedTrajectory(max_points=16)
        for i in range(10_000):
            trajectory.offer(float(i), float(i))
        data = trajectory.as_dict()
        assert len(data["t"]) <= 16
        assert data["t"] == sorted(data["t"])
        # The sketch still spans the full horizon, start included.
        assert data["t"][0] == 0.0
        assert data["t"][-1] >= 10_000 / 2

    def test_small_series_kept_verbatim(self):
        trajectory = BoundedTrajectory(max_points=512)
        for i in range(5):
            trajectory.offer(float(i), float(i * 2))
        assert trajectory.as_dict() == {
            "t": [0.0, 1.0, 2.0, 3.0, 4.0],
            "v": [0.0, 2.0, 4.0, 6.0, 8.0],
        }


# --------------------------------------------------------------------------- #
# FallbackChain
# --------------------------------------------------------------------------- #
class TestFallbackChain:
    def test_validation(self):
        with pytest.raises(ValueError):
            FallbackChain([])
        with pytest.raises(TypeError):
            FallbackChain([GreedyNearestPolicy()])

    def test_fall_through_on_timeout_charges_both_tiers(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        slow = budgeted(AcceptFirstNodePolicy(0), budget_s=0.05, latency_s=0.2)
        fast = budgeted(AcceptFirstNodePolicy(1), budget_s=0.02, latency_s=0.005)
        chain = FallbackChain([slow, fast])
        decision = chain.decide(build_request(catalog), network)
        assert decision.tier_index == 1
        assert decision.placement is not None
        # Charged latency accumulates: capped tier-0 budget + tier-1 elapsed.
        assert decision.charged_s == pytest.approx(0.05 + 0.005)
        assert chain.timeouts[chain.tier_names[0]] == 1
        assert chain.wins[chain.tier_names[1]] == 1
        assert chain.total_budget_s == pytest.approx(0.07)

    def test_all_tiers_decline(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        chain = FallbackChain([budgeted(RejectAllPolicy())])
        decision = chain.decide(build_request(catalog), network)
        assert decision.placement is None and decision.tier_index is None
        assert chain.rejections[chain.tier_names[0]] == 1

    def test_charged_latency_never_exceeds_total_budget(self, catalog):
        network = linear_chain_topology(num_edge_nodes=3, seed=0)
        tiers = [
            budgeted(RejectAllPolicy(), budget_s=0.03, latency_s=9.9),
            budgeted(RejectAllPolicy(), budget_s=0.01, latency_s=9.9),
        ]
        chain = FallbackChain(tiers)
        decision = chain.decide(build_request(catalog), network)
        assert decision.charged_s <= chain.total_budget_s + 1e-12


# --------------------------------------------------------------------------- #
# OnlinePlacementService
# --------------------------------------------------------------------------- #
class TestOnlinePlacementService:
    def make_service(self, config=None, chaos=None, tiers=None):
        network = linear_chain_topology(num_edge_nodes=4, seed=0)
        chain = FallbackChain(
            tiers or [budgeted(AcceptFirstNodePolicy(0), latency_s=0.001)]
        )
        return OnlinePlacementService(
            network,
            chain,
            config
            or ServingConfig(
                horizon=100.0,
                decision_time_scale=1.0,
                monitoring_interval=10.0,
                admission=AdmissionConfig(
                    tokens_per_second=100.0,
                    bucket_capacity=100.0,
                    queue_high_watermark=8,
                    queue_low_watermark=2,
                ),
            ),
            chaos=chaos,
        )

    def test_accept_and_release_conserves_capacity(self, catalog):
        service = self.make_service()
        # Spaced arrivals: each chain departs before the next arrives, so
        # node-0 capacity is never the binding constraint.
        requests = make_requests(catalog, times=[1.0, 10.0, 20.0], holding=5.0)
        report = service.run(requests)
        assert report.arrivals == 3
        assert report.accepted == 3
        assert report.shed == 0 and report.rejected == 0
        assert not service._active, "all placements released at departure"
        node = service.network.node(0)
        assert node.available.as_array() == pytest.approx(
            node._capacity_arr
        ), "capacity fully restored after departures"

    def test_rejection_accounted_separately_from_shed(self, catalog):
        service = self.make_service(tiers=[budgeted(RejectAllPolicy())])
        report = service.run(make_requests(catalog, times=[1.0, 2.0]))
        assert report.rejected == 2 and report.shed == 0 and report.accepted == 0

    def test_overload_sheds_and_bounds_queue(self, catalog):
        # Each decision occupies the server for 1.0 virtual seconds while
        # arrivals come every 0.01s: the queue hits the high watermark and
        # admission must shed the excess.
        config = ServingConfig(
            horizon=100.0,
            decision_time_scale=100.0,  # 0.01 s charged -> 1.0 virtual seconds
            monitoring_interval=10.0,
            admission=AdmissionConfig(
                tokens_per_second=1000.0,
                bucket_capacity=1000.0,
                queue_high_watermark=4,
                queue_low_watermark=1,
            ),
        )
        service = self.make_service(
            config=config,
            tiers=[budgeted(AcceptFirstNodePolicy(0), latency_s=0.01, budget_s=0.05)],
        )
        times = [0.01 * i for i in range(1, 61)]
        report = service.run(make_requests(catalog, times=times, holding=1000.0))
        assert report.shed > 0
        assert report.max_queue_depth <= 4
        assert report.admission["shed_mode_entries"] >= 1
        assert report.arrivals == report.shed + report.accepted + report.rejected

    def test_decision_latency_recorded_and_bounded(self, catalog):
        service = self.make_service()
        report = service.run(make_requests(catalog, times=[1.0, 2.0]))
        stats = report.decision_latency.as_dict()
        assert stats["count"] == 2
        assert stats["max"] <= service.chain.total_budget_s

    def test_node_failure_disrupts_and_retry_replaces(self, catalog):
        # Tier 0 places on node 0, which fails at t=5; the retry (t=7, after
        # retry_base_delay=2) falls through to tier 1 and lands on node 1.
        chaos = FixedChaos([ChaosEvent(time=5.0, kind="node_failure", node_id=0)])
        tiers = [
            budgeted(AcceptFirstNodePolicy(0), latency_s=0.001),
            budgeted(AcceptFirstNodePolicy(1), latency_s=0.001),
        ]
        service = self.make_service(chaos=chaos, tiers=tiers)
        report = service.run(make_requests(catalog, times=[1.0], holding=50.0))
        assert report.accepted == 1
        assert report.disrupted == 1
        assert report.replaced == 1
        assert report.lost == 0 and report.expired == 0
        # The re-placement's departure still fires and releases capacity.
        node = service.network.node(1)
        assert node.available.as_array() == pytest.approx(node._capacity_arr)

    def test_retry_budget_exhaustion_declares_lost(self, catalog):
        # The only placement target fails and never recovers: retries back
        # off exponentially and the chain is declared lost.
        chaos = FixedChaos([ChaosEvent(time=5.0, kind="node_failure", node_id=0)])
        service = self.make_service(chaos=chaos)
        report = service.run(make_requests(catalog, times=[1.0], holding=500.0))
        assert report.disrupted == 1
        assert report.lost == 1
        assert report.replaced == 0
        assert report.retry_attempts == service.config.retry_max_attempts

    def test_retry_after_departure_time_expires(self, catalog):
        # Disruption right before the chain would have departed: the first
        # retry fires after departure_time and must be accounted as expired.
        chaos = FixedChaos([ChaosEvent(time=5.5, kind="node_failure", node_id=0)])
        service = self.make_service(chaos=chaos)
        report = service.run(make_requests(catalog, times=[1.0], holding=5.0))
        assert report.disrupted == 1
        assert report.expired == 1
        assert report.lost == 0 and report.replaced == 0

    def test_disruption_taxonomy_closes(self, catalog):
        chaos = FixedChaos(
            [
                ChaosEvent(time=4.0, kind="node_failure", node_id=0),
                ChaosEvent(time=20.0, kind="node_recovery", node_id=0),
            ]
        )
        tiers = [
            budgeted(AcceptFirstNodePolicy(0), latency_s=0.001),
            budgeted(AcceptFirstNodePolicy(1), latency_s=0.001),
        ]
        service = self.make_service(chaos=chaos, tiers=tiers)
        report = service.run(
            make_requests(catalog, times=[1.0, 2.0, 3.0], holding=40.0)
        )
        assert report.disrupted == report.replaced + report.lost + report.expired

    def test_run_is_repeatable(self, catalog):
        service = self.make_service()
        times = [1.0, 2.0, 3.0]
        first = service.run(make_requests(catalog, times=times)).as_dict()
        second = service.run(make_requests(catalog, times=times)).as_dict()
        assert first == second

    def test_report_as_dict_schema(self, catalog):
        service = self.make_service()
        report = service.run(make_requests(catalog, times=[1.0]))
        data = report.as_dict()
        for key in (
            "arrivals",
            "shed",
            "accepted",
            "rejected",
            "commit_failed",
            "disrupted",
            "replaced",
            "lost",
            "expired",
            "tier_wins",
            "decision_latency_s",
            "trajectories",
            "admission",
        ):
            assert key in data
        assert set(data["trajectories"]) == {
            "queue_depth",
            "shed_rate",
            "sla_violation_rate",
        }


# --------------------------------------------------------------------------- #
# Chaos robustness
# --------------------------------------------------------------------------- #
class CommitAuditService(OnlinePlacementService):
    """Records every committed placement with the failed sets it met."""

    def _try_commit(self, placement):
        committed = super()._try_commit(placement)
        if committed:
            self.commits.append(
                (
                    self.engine.now,
                    placement,
                    frozenset(self._failed_nodes),
                    frozenset(self._failed_links),
                )
            )
        return committed


def audit_service(network, chaos, horizon):
    chain = FallbackChain(
        [
            budgeted(GreedyLeastLoadedPolicy(), latency_s=0.002),
            budgeted(GreedyNearestPolicy(), latency_s=0.001),
        ]
    )
    service = CommitAuditService(
        network,
        chain,
        ServingConfig(horizon=horizon, monitoring_interval=10.0),
        chaos=chaos,
    )
    service.commits = []
    return service


def all_domains_down(network, domains, fail_at, recover_at):
    """Every domain and its incident links fail at once, then recover."""
    events = []
    for time, suffix in ((fail_at, "failure"), (recover_at, "recovery")):
        for domain in domains:
            members = set(domain.node_ids)
            events.extend(
                ChaosEvent(time=time, kind=f"node_{suffix}", node_id=node_id)
                for node_id in domain.node_ids
            )
            events.extend(
                ChaosEvent(time=time, kind=f"link_{suffix}", endpoints=link.endpoints)
                for link in network.links()
                if members & set(link.endpoints)
            )
    return FixedChaos(events)


class TestChaosRobustness:
    @pytest.mark.parametrize("edge_only", [True, False])
    def test_every_fault_domain_down_at_once(self, edge_only):
        scenario = reference_scenario(
            arrival_rate=3.0, num_edge_nodes=8, horizon=150.0, seed=11
        )
        network = scenario.build_network()
        domains = fault_domains_from_network(network, edge_only=edge_only)
        fail_at, recover_at = 40.0, 90.0
        chaos = all_domains_down(network, domains, fail_at, recover_at)
        service = audit_service(network, chaos, horizon=150.0)
        report = service.run(scenario.iter_requests())

        down = {node_id for domain in domains for node_id in domain.node_ids}
        times = []
        for time, placement, failed_nodes, failed_links in service.commits:
            assert not set(placement.node_assignment) & failed_nodes
            assert not placement.traversed_links & failed_links
            if fail_at <= time < recover_at:
                assert failed_nodes == down
            times.append(time)
        assert min(times) < fail_at and max(times) >= recover_at
        assert report.disrupted > 0
        assert report.arrivals == (
            report.shed + report.accepted + report.rejected + report.commit_failed
        )
        assert report.disrupted == report.replaced + report.lost + report.expired
        # Every allocation and reservation is gone; usage is back to zero up
        # to the release path's subtract-and-clamp rounding (~1e-12 here).
        ledger = network.ledger
        assert not service._active
        assert not ledger.node_alloc_count.any()
        assert not any(link._reservations for link in network.links())
        np.testing.assert_allclose(ledger.node_used, 0.0, atol=1e-9)
        np.testing.assert_allclose(ledger.link_used, 0.0, atol=1e-9)

    def test_traversed_links_match_segment_paths(self):
        scenario = reference_scenario(
            arrival_rate=3.0, num_edge_nodes=8, horizon=150.0, seed=5
        )
        network = scenario.build_network()
        chaos = DomainFailureInjector(
            fault_domains_from_network(network),
            DomainFailureConfig(
                mean_time_to_failure=40.0,
                mean_time_to_repair=10.0,
                link_mean_time_to_failure=80.0,
                link_mean_time_to_repair=10.0,
                seed=5,
            ),
        )
        service = audit_service(network, chaos, horizon=150.0)
        report = service.run(scenario.iter_requests())
        assert report.disrupted > 0 and report.replaced > 0
        links = [link.endpoints for link in network.links()]
        for _, placement, _, _ in service.commits:
            for u, v in links:
                for endpoints in ((u, v), (v, u)):
                    key = canonical_endpoints(*endpoints)
                    expected = any(
                        key in segment.path.links() for segment in placement.segments
                    )
                    assert placement_traverses_link(placement, endpoints) == expected

    def test_traversed_links_leave_placement_equality_alone(self):
        network = linear_chain_topology(num_edge_nodes=4, seed=0)
        request = build_request(default_catalog(), source=0)
        queried = Placement.build(request, (1, 3), network)
        twin = copy.copy(queried)
        assert queried.traversed_links == {
            link for segment in twin.segments for link in segment.path.links()
        }
        assert queried == twin


# --------------------------------------------------------------------------- #
# Runner integration
# --------------------------------------------------------------------------- #
class TestServingSoakRunner:
    def test_run_serving_soak_with_chaos(self):
        scenario = reference_scenario(
            arrival_rate=0.5, num_edge_nodes=8, horizon=120.0, seed=7
        )
        chain = FallbackChain(
            [
                budgeted(GreedyLeastLoadedPolicy(), latency_s=0.002),
                budgeted(GreedyNearestPolicy(), latency_s=0.001),
            ]
        )
        config = ServingConfig(horizon=120.0, monitoring_interval=20.0)
        report = run_serving_soak(
            scenario,
            chain,
            config,
            domain_config=DomainFailureConfig(
                mean_time_to_failure=60.0, mean_time_to_repair=15.0, seed=3
            ),
        )
        assert report.arrivals > 0
        assert report.accepted > 0
        assert report.disrupted == report.replaced + report.lost + report.expired
        assert report.horizon == 120.0

    def test_iter_requests_matches_generate_requests(self):
        scenario = reference_scenario(
            arrival_rate=0.5, num_edge_nodes=8, horizon=60.0, seed=7
        )
        eager = scenario.generate_requests()
        lazy = list(scenario.iter_requests())
        assert len(eager) == len(lazy)
        for a, b in zip(eager, lazy):
            assert a.arrival_time == b.arrival_time
            assert a.source_node_id == b.source_node_id
            assert a.chain.bandwidth_mbps == b.chain.bandwidth_mbps
