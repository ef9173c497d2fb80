"""Unit tests for workload generation and scenarios."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.agents.exploration import ConstantSchedule, EpsilonGreedy
from repro.substrate.geo import GeoPoint
from repro.substrate.node import make_edge_node
from repro.workloads.generator import RequestGenerator, WorkloadConfig
from repro.workloads.scenarios import (
    diurnal_scenario,
    hotspot_scenario,
    reference_scenario,
    scalability_scenario,
)


class TestRequestGenerator:
    def test_sampled_requests_are_valid(self, generator, edge_cloud_network):
        for _ in range(20):
            request = generator.sample_request(arrival_time=1.0)
            assert request.source_node_id in edge_cloud_network.edge_node_ids
            assert request.bandwidth_mbps > 0
            assert request.sla.max_latency_ms > 0
            assert request.holding_time >= 1.0
            assert request.num_vnfs >= 1

    def test_trace_is_time_ordered(self, generator):
        trace = generator.generate_trace(horizon=50.0)
        times = [r.arrival_time for r in trace]
        assert times == sorted(times)
        assert all(t <= 50.0 for t in times)

    def test_batch_count_and_rate(self, generator):
        batch = generator.generate_batch(30)
        assert len(batch) == 30
        times = [r.arrival_time for r in batch]
        assert times == sorted(times)
        # Mean inter-arrival should be near 1/arrival_rate = 2.0.
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert 0.5 < sum(gaps) / len(gaps) < 5.0

    def test_class_mix_roughly_matches_weights(self, edge_cloud_network, catalog, templates):
        generator = RequestGenerator(
            edge_cloud_network,
            catalog,
            templates,
            WorkloadConfig(arrival_rate=1.0, horizon=100.0, seed=1),
        )
        requests = [generator.sample_request() for _ in range(600)]
        mix = generator.class_mix(requests)
        assert mix["web_service"] > mix["ar_vr_offload"]
        assert abs(mix["web_service"] - 0.30) < 0.10

    def test_hotspot_skew(self, edge_cloud_network, catalog, templates):
        hotspots = tuple(edge_cloud_network.edge_node_ids[:2])
        generator = RequestGenerator(
            edge_cloud_network,
            catalog,
            templates,
            WorkloadConfig(
                arrival_rate=1.0,
                horizon=100.0,
                hotspot_fraction=0.9,
                hotspot_nodes=hotspots,
                seed=2,
            ),
        )
        sources = [generator.sample_source_node() for _ in range(300)]
        hotspot_fraction = sum(1 for s in sources if s in hotspots) / len(sources)
        assert hotspot_fraction > 0.7

    def test_non_edge_hotspot_nodes_rejected(self, edge_cloud_network, catalog, templates):
        non_edge = [
            n
            for n in edge_cloud_network.node_ids
            if n not in edge_cloud_network.edge_node_ids
        ]
        assert non_edge, "fixture network needs at least one non-edge node"
        with pytest.raises(ValueError, match="not edge nodes"):
            RequestGenerator(
                edge_cloud_network,
                catalog,
                templates,
                WorkloadConfig(
                    hotspot_fraction=0.5,
                    hotspot_nodes=(edge_cloud_network.edge_node_ids[0], non_edge[0]),
                ),
            )

    def test_inactive_non_edge_hotspots_warn_only(
        self, edge_cloud_network, catalog, templates
    ):
        non_edge = [
            n
            for n in edge_cloud_network.node_ids
            if n not in edge_cloud_network.edge_node_ids
        ]
        with pytest.warns(UserWarning, match="inert"):
            generator = RequestGenerator(
                edge_cloud_network,
                catalog,
                templates,
                WorkloadConfig(hotspot_fraction=0.0, hotspot_nodes=(non_edge[0],)),
            )
        # the inert set never influences ingress
        assert generator.sample_source_node() in edge_cloud_network.edge_node_ids

    def test_hotspot_fraction_without_hotspots_rejected(
        self, edge_cloud_network, catalog, templates
    ):
        with pytest.raises(ValueError, match="empty hotspot_nodes"):
            RequestGenerator(
                edge_cloud_network,
                catalog,
                templates,
                WorkloadConfig(hotspot_fraction=0.4, hotspot_nodes=()),
            )

    def test_sla_scale_stretches_budgets(self, edge_cloud_network, catalog, templates):
        tight = RequestGenerator(
            edge_cloud_network, catalog, templates,
            WorkloadConfig(arrival_rate=1.0, sla_scale=0.5, seed=3),
        )
        loose = RequestGenerator(
            edge_cloud_network, catalog, templates,
            WorkloadConfig(arrival_rate=1.0, sla_scale=2.0, seed=3),
        )
        tight_mean = sum(tight.sample_request().sla.max_latency_ms for _ in range(100)) / 100
        loose_mean = sum(loose.sample_request().sla.max_latency_ms for _ in range(100)) / 100
        assert loose_mean > 2.5 * tight_mean

    def test_deterministic_with_seed(self, edge_cloud_network, catalog, templates):
        def build():
            return RequestGenerator(
                edge_cloud_network, catalog, templates,
                WorkloadConfig(arrival_rate=0.5, horizon=50.0, seed=7),
            ).generate_trace()

        first, second = build(), build()
        assert [r.bandwidth_mbps for r in first] == [r.bandwidth_mbps for r in second]
        assert [r.source_node_id for r in first] == [r.source_node_id for r in second]

    def test_network_without_edges_rejected(self, catalog, templates):
        from repro.substrate.network import SubstrateNetwork
        from repro.substrate.node import make_cloud_node
        from repro.substrate.geo import GeoPoint

        network = SubstrateNetwork()
        network.add_node(make_cloud_node(0, GeoPoint(0, 0)))
        with pytest.raises(ValueError):
            RequestGenerator(network, catalog, templates, WorkloadConfig(arrival_rate=1.0))


class TestScenarios:
    def test_reference_scenario_builds(self):
        scenario = reference_scenario(arrival_rate=0.5, num_edge_nodes=6, horizon=100.0, seed=1)
        network = scenario.build_network()
        assert len(network.edge_node_ids) == 6
        requests = scenario.generate_requests()
        assert len(requests) > 0

    def test_reference_scenario_topology_reproducible(self):
        scenario = reference_scenario(seed=4, num_edge_nodes=6)
        a, b = scenario.build_network(), scenario.build_network()
        assert [n.capacity.as_tuple() for n in a.nodes()] == [
            n.capacity.as_tuple() for n in b.nodes()
        ]

    def test_with_arrival_rate_copy(self):
        scenario = reference_scenario(arrival_rate=0.5, num_edge_nodes=6)
        faster = scenario.with_arrival_rate(2.0)
        assert faster.workload_config.arrival_rate == 2.0
        assert scenario.workload_config.arrival_rate == 0.5

    def test_with_sla_scale_copy(self):
        scenario = reference_scenario(num_edge_nodes=6)
        strict = scenario.with_sla_scale(0.5)
        assert strict.workload_config.sla_scale == 0.5

    def test_scalability_scenario_load_scales_with_size(self):
        small = scalability_scenario(8, arrival_rate_per_node=0.05)
        large = scalability_scenario(24, arrival_rate_per_node=0.05)
        assert large.workload_config.arrival_rate == pytest.approx(
            3 * small.workload_config.arrival_rate
        )
        assert len(large.build_network().edge_node_ids) == 24

    def test_hotspot_scenario_sets_hotspots(self):
        scenario = hotspot_scenario(num_edge_nodes=8, seed=2)
        assert scenario.workload_config.hotspot_fraction > 0
        assert len(scenario.workload_config.hotspot_nodes) >= 1

    def test_diurnal_scenario_kind(self):
        scenario = diurnal_scenario(num_edge_nodes=6)
        assert scenario.arrival_kind == "diurnal"
        process = scenario.build_arrival_process()
        assert process.mean_rate() > 0

    def test_unknown_arrival_kind_rejected(self):
        from dataclasses import replace

        scenario = replace(reference_scenario(num_edge_nodes=6), arrival_kind="weibull")
        with pytest.raises(ValueError):
            scenario.build_arrival_process()


def _stream_digest(requests) -> str:
    """Hash every sampled field of a request stream, bit for bit."""
    digest = hashlib.sha256()
    for request in requests:
        fields = (
            request.service_class,
            float(request.bandwidth_mbps).hex(),
            float(request.sla.max_latency_ms).hex(),
            float(request.holding_time).hex(),
            int(request.source_node_id),
            float(request.arrival_time).hex(),
        )
        digest.update(repr(fields).encode())
    return digest.hexdigest()[:16]


#: (scenario, seed) -> (digest of ``generate_batch(200)``, digest of
#: ``iter_requests(horizon=250)``).  Captured from the ``Generator.choice``
#: sampler; a sampler edit that shifts, reorders or adds a draw breaks them.
PINNED_STREAMS = {
    ("reference", 0): ("b9b64ee1e289d101", "d01b250371a60df1"),
    ("reference", 1): ("4dc7501bb4164bf1", "da4d65b07aa3dcac"),
    ("reference", 7): ("113fbf4c20269aca", "189fd0324212fcb3"),
    ("hotspot", 0): ("7996dd60a353ca7a", "35bfc5bd1fb4f738"),
    ("hotspot", 1): ("34c93ef38afc41c2", "34ace4c16da9189e"),
    ("hotspot", 7): ("01289493589c5946", "f9502f50cb2402b6"),
}


class TestPinnedRequestStreams:
    @pytest.mark.parametrize("name, seed", sorted(PINNED_STREAMS))
    def test_stream_matches_pinned_digest(self, name, seed):
        factory = {"reference": reference_scenario, "hotspot": hotspot_scenario}[name]
        scenario = factory(seed=seed)
        batch = _stream_digest(scenario.build_generator().generate_batch(200))
        trace = _stream_digest(scenario.iter_requests(horizon=250.0))
        assert (batch, trace) == PINNED_STREAMS[(name, seed)]


class TestTwinRngEquivalence:
    """The sampler's draws against the ``Generator.choice`` calls they replace.

    Each case runs the generator and a plain ``Generator`` from the same seed
    side by side; the picks and the final bit-generator states must agree.
    """

    def test_template_cdf_matches_weighted_choice(self, edge_cloud_network, catalog, templates):
        weights = (5.0, 0.01, 2.0, 0.7, 1.3)
        skewed = [replace(t, weight=w) for t, w in zip(templates, weights)]
        probabilities = np.asarray(weights) / sum(weights)
        for seed in range(30):
            ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            generator = RequestGenerator(
                edge_cloud_network, catalog, skewed, WorkloadConfig(seed=ours)
            )
            for _ in range(50):
                expected = skewed[int(reference.choice(len(skewed), p=probabilities))]
                assert generator.sample_template() is expected
            assert ours.bit_generator.state == reference.bit_generator.state

    def test_integer_index_matches_sequence_choice(self, edge_cloud_network, catalog, templates):
        edge_ids = list(edge_cloud_network.edge_node_ids)
        hotspots = edge_ids[:3]
        config_of = {
            "uniform": lambda rng: WorkloadConfig(seed=rng),
            "hotspot": lambda rng: WorkloadConfig(
                seed=rng, hotspot_fraction=0.5, hotspot_nodes=tuple(hotspots)
            ),
        }
        for kind, make_config in config_of.items():
            for seed in range(30):
                ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
                generator = RequestGenerator(
                    edge_cloud_network, catalog, templates, make_config(ours)
                )
                for _ in range(50):
                    pool = edge_ids
                    if kind == "hotspot" and reference.uniform() < 0.5:
                        pool = hotspots
                    assert generator.sample_source_node() == int(reference.choice(pool))
                assert ours.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
    def test_epsilon_greedy_index_matches_ndarray_choice(self, epsilon):
        """``EpsilonGreedy.select`` against ``Generator.choice`` on its candidates.

        Candidates are index arrays (``flatnonzero`` output); integer-valued
        Q-values give multi-way ties, continuous ones give length-1 tie sets.
        """
        for seed in range(30):
            ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            explorer = EpsilonGreedy(ConstantSchedule(epsilon), seed=ours)
            inputs = np.random.default_rng(1000 + seed)
            tie_set_sizes = set()
            for step in range(60):
                q_values = inputs.normal(size=7)
                if step % 2:
                    q_values = np.round(q_values)
                mask = inputs.random(7) < 0.7
                mask[inputs.integers(7)] = True
                valid = np.flatnonzero(mask)
                if reference.uniform() < epsilon:
                    expected = int(reference.choice(valid))
                else:
                    masked_q = np.where(mask, q_values, -np.inf)
                    best = np.flatnonzero(masked_q == masked_q.max())
                    tie_set_sizes.add(min(best.size, 2))
                    expected = int(reference.choice(best))
                assert explorer.select(q_values, step, mask=mask) == expected
            assert ours.bit_generator.state == reference.bit_generator.state
            if epsilon < 1.0:
                assert tie_set_sizes == {1, 2}


class TestEdgeIdCache:
    def test_topology_mutations_refresh_edge_ids_and_ingress(
        self, edge_cloud_network, catalog, templates
    ):
        network = edge_cloud_network
        before = network.edge_node_ids
        existing = RequestGenerator(network, catalog, templates, WorkloadConfig(seed=5))
        new_id = max(network.node_ids) + 1
        network.add_node(make_edge_node(new_id, GeoPoint(40.0, -74.0)))
        assert network.edge_node_ids == before + (new_id,)
        network.add_link(new_id, before[0], 1000.0)
        assert network.edge_node_ids == before + (new_id,)
        fresh = RequestGenerator(network, catalog, templates, WorkloadConfig(seed=5))
        for generator in (existing, fresh):
            sources = {generator.sample_source_node() for _ in range(400)}
            assert new_id in sources
