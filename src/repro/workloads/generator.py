"""Request/workload generation.

The :class:`RequestGenerator` draws SFC requests from the chain-template mix:
service class (weighted), bandwidth, latency SLA and holding time are sampled
per request; the ingress node is a random edge node (optionally skewed
towards "hotspot" metros).  Combined with an arrival process it produces the
full request trace one simulation run consumes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.nfv.catalog import (
    ChainTemplate,
    VNFCatalog,
    default_catalog,
    default_chain_templates,
    validate_templates,
)
from repro.nfv.sfc import SFCRequest, ServiceFunctionChain
from repro.nfv.sla import ServiceLevelAgreement
from repro.sim.arrivals import ArrivalProcess, PoissonProcess
from repro.substrate.network import SubstrateNetwork
from repro.utils.rng import RandomState, derive_seed, new_rng
from repro.utils.validation import check_positive, check_probability


@dataclass
class WorkloadConfig:
    """Configuration of the request generator."""

    arrival_rate: float = 0.5
    horizon: float = 1000.0
    hotspot_fraction: float = 0.0
    hotspot_nodes: Sequence[int] = field(default_factory=tuple)
    mean_holding_time_scale: float = 1.0
    sla_scale: float = 1.0
    seed: RandomState = None

    def __post_init__(self) -> None:
        check_positive(self.arrival_rate, "arrival_rate")
        check_positive(self.horizon, "horizon")
        check_probability(self.hotspot_fraction, "hotspot_fraction")
        check_positive(self.mean_holding_time_scale, "mean_holding_time_scale")
        check_positive(self.sla_scale, "sla_scale")


class RequestGenerator:
    """Samples :class:`SFCRequest` objects for a given substrate network."""

    def __init__(
        self,
        network: SubstrateNetwork,
        catalog: Optional[VNFCatalog] = None,
        templates: Optional[Sequence[ChainTemplate]] = None,
        config: Optional[WorkloadConfig] = None,
    ) -> None:
        self.network = network
        self.catalog = catalog or default_catalog()
        self.templates = list(templates or default_chain_templates())
        validate_templates(self.templates, self.catalog)
        self.config = config or WorkloadConfig()
        self._rng = new_rng(self.config.seed)
        weights = np.array([t.weight for t in self.templates], dtype=float)
        # The cdf ``Generator.choice(n, p=p)`` rebuilds on every call; built
        # once here, one ``random()`` draw plus a search picks the same index.
        cdf = (weights / weights.sum()).cumsum()
        self._template_cdf = cdf / cdf[-1]
        self._template_vnf_types = [
            tuple(self.catalog.get(name) for name in t.vnf_sequence)
            for t in self.templates
        ]
        if not network.edge_node_ids:
            raise ValueError("the substrate network has no edge nodes for ingress")
        # Validate the hotspot configuration against this network up front:
        # silently dropping non-edge hotspots (or skewing towards an empty
        # hotspot set) would degrade to uniform ingress without any signal.
        # With the skew inactive (hotspot_fraction == 0) stale ids cannot
        # distort anything, so they only warrant a warning — configs carrying
        # hotspot sets are commonly re-pointed at other topologies.
        edge_ids = set(network.edge_node_ids)
        non_edge = [n for n in self.config.hotspot_nodes if n not in edge_ids]
        if non_edge and self.config.hotspot_fraction > 0:
            raise ValueError(
                f"hotspot_nodes {sorted(non_edge)} are not edge nodes of this "
                f"network (edge nodes: {sorted(edge_ids)}); hotspot ingress "
                "skew only applies to edge nodes"
            )
        if non_edge:
            warnings.warn(
                f"hotspot_nodes {sorted(non_edge)} are not edge nodes of this "
                "network; they are inert while hotspot_fraction=0",
                stacklevel=2,
            )
        if self.config.hotspot_fraction > 0 and not self.config.hotspot_nodes:
            raise ValueError(
                f"hotspot_fraction={self.config.hotspot_fraction} with an "
                "empty hotspot_nodes set would silently degrade to uniform "
                "ingress; configure hotspot_nodes or set hotspot_fraction=0"
            )
        self._hotspots: List[int] = list(self.config.hotspot_nodes)

    # ------------------------------------------------------------------ #
    # Single-request sampling
    #
    # The draws below are a bitwise contract: each one makes exactly the RNG
    # calls ``Generator.choice`` made (``random()`` for a weighted pick,
    # ``integers(0, n)`` for a uniform one), in the same order, so every
    # seeded request stream is unchanged.  Reordering or batching draws is a
    # semantic change to every trace and simulated outcome.
    # ------------------------------------------------------------------ #
    def _sample_template_index(self) -> int:
        return int(self._template_cdf.searchsorted(self._rng.random(), side="right"))

    def _pick(self, seq: Sequence[int]) -> int:
        return int(seq[int(self._rng.integers(0, len(seq)))])

    def sample_template(self) -> ChainTemplate:
        """Draw a service class according to the template weights."""
        return self.templates[self._sample_template_index()]

    def sample_source_node(self) -> int:
        """Draw an ingress edge node, honouring the hotspot skew."""
        if self._hotspots and self._rng.uniform() < self.config.hotspot_fraction:
            return self._pick(self._hotspots)
        return self._pick(self.network.edge_node_ids)

    def sample_request(self, arrival_time: float = 0.0) -> SFCRequest:
        """Sample one complete request arriving at ``arrival_time``."""
        index = self._sample_template_index()
        template = self.templates[index]
        bandwidth = float(self._rng.uniform(*template.bandwidth_range))
        sla_latency = float(
            self._rng.uniform(*template.latency_sla_range_ms) * self.config.sla_scale
        )
        holding_time = float(
            self._rng.exponential(
                template.mean_holding_time * self.config.mean_holding_time_scale
            )
        )
        holding_time = max(1.0, holding_time)
        chain = ServiceFunctionChain(
            vnf_types=self._template_vnf_types[index],
            bandwidth_mbps=bandwidth,
            service_class=template.name,
        )
        return SFCRequest(
            chain=chain,
            source_node_id=self.sample_source_node(),
            sla=ServiceLevelAgreement(max_latency_ms=sla_latency),
            arrival_time=arrival_time,
            holding_time=holding_time,
        )

    # ------------------------------------------------------------------ #
    # Trace generation
    # ------------------------------------------------------------------ #
    def generate_trace(
        self,
        arrival_process: Optional[ArrivalProcess] = None,
        horizon: Optional[float] = None,
    ) -> List[SFCRequest]:
        """Generate a full arrival-ordered request trace.

        When no arrival process is supplied a Poisson process at the
        configured ``arrival_rate`` is used, seeded from the workload seed so
        traces are reproducible.
        """
        horizon = horizon if horizon is not None else self.config.horizon
        process = arrival_process or PoissonProcess(
            self.config.arrival_rate, seed=derive_seed(self.config.seed, "arrivals")
        )
        return [
            self.sample_request(arrival_time=time)
            for time in process.arrival_times(horizon)
        ]

    def iter_trace(
        self,
        arrival_process: Optional[ArrivalProcess] = None,
        horizon: Optional[float] = None,
    ) -> Iterator[SFCRequest]:
        """Stream an arrival-ordered request trace lazily.

        Identical sampling to :meth:`generate_trace` (same process, same
        seed → same trace) but yields one request at a time, so multi-day
        soak traces with millions of requests never materialize in memory.
        """
        horizon = horizon if horizon is not None else self.config.horizon
        process = arrival_process or PoissonProcess(
            self.config.arrival_rate, seed=derive_seed(self.config.seed, "arrivals")
        )
        for time in process.arrival_times(horizon):
            yield self.sample_request(arrival_time=time)

    def generate_batch(self, count: int) -> List[SFCRequest]:
        """Generate ``count`` requests following the configured arrival rate.

        Used by the RL environment: inter-arrival times are exponential with
        the workload's ``arrival_rate`` so that the load the agent trains
        under matches the load the online simulator evaluates it under.
        """
        check_positive(count, "count")
        gaps = self._rng.exponential(1.0 / self.config.arrival_rate, size=count)
        times = np.cumsum(gaps)
        return [self.sample_request(arrival_time=float(t)) for t in times]

    def class_mix(self, requests: Sequence[SFCRequest]) -> Dict[str, float]:
        """Fraction of requests per service class (diagnostics)."""
        counts: Dict[str, int] = {}
        for request in requests:
            counts[request.service_class] = counts.get(request.service_class, 0) + 1
        total = max(1, len(requests))
        return {name: counts.get(name, 0) / total for name in sorted(counts)}
