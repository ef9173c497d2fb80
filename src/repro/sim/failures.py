"""Failure injection for availability / fault-tolerance evaluation.

The base :class:`~repro.sim.simulation.NFVSimulation` assumes a fault-free
substrate.  This module adds the failure models used by availability
experiments and the online serving harness:

* :class:`FailureConfig` / :class:`FailureInjector` — generate a reproducible
  *independent per-node* failure/recovery schedule (exponential time to
  failure and time to repair),
* :class:`FaultDomain` / :class:`DomainFailureConfig` /
  :class:`DomainFailureInjector` — *correlated* failures: a whole rack/metro/
  region domain of nodes fails together, optionally taking its incident links
  down with it, plus independent link failures, and
* :class:`FaultyNFVSimulation` — an :class:`NFVSimulation` subclass that
  injects those events into the run: when a node (or link) fails, every active
  placement touching it is torn down and counted as *disrupted*, and the
  component is fenced off (its remaining capacity/bandwidth is reserved under
  a failure handle) so no policy can place onto it until it recovers.

The fencing primitives (:func:`refresh_node_fence`, :func:`refresh_link_fence`
and their release counterparts) are module-level so other consumers — notably
the :mod:`repro.serving` online loop — apply the exact same capacity-fencing
semantics without subclassing the simulation.

Disruptions are reported separately from rejections: a disrupted request was
admitted and then lost service, which is the quantity availability SLAs care
about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.nfv.placement import Placement
from repro.sim.events import Event, EventType
from repro.sim.simulation import NFVSimulation, PlacementPolicy, SimulationConfig, SimulationResult
from repro.substrate.link import canonical_endpoints
from repro.substrate.network import SubstrateNetwork
from repro.utils.rng import RandomState, derive_seed, new_rng
from repro.utils.validation import check_positive


# --------------------------------------------------------------------------- #
# Capacity fencing primitives
# --------------------------------------------------------------------------- #
_NODE_FENCE_PREFIX = "fence:node:"
_LINK_FENCE_PREFIX = "fence:link:"


def node_fence_handle(node_id: int) -> str:
    """The allocation handle a failed node's fence reserves capacity under."""
    return f"{_NODE_FENCE_PREFIX}{node_id}"


def link_fence_handle(endpoints: Tuple[int, int]) -> str:
    """The reservation handle a failed link's fence reserves bandwidth under."""
    u, v = canonical_endpoints(*endpoints)
    return f"{_LINK_FENCE_PREFIX}{u}:{v}"


def refresh_node_fence(network: SubstrateNetwork, node_id: int) -> None:
    """(Re)size a node's failure fence to consume all of its free capacity.

    Idempotent: releases any existing fence first, then reserves whatever is
    free.  Keeps the invariant "a failed node has zero available capacity"
    even when capacity is freed on an already-fenced node.
    """
    node = network.node(node_id)
    handle = node_fence_handle(node_id)
    if node.holds(handle):
        node.release(handle)
    remaining = node.available
    if not remaining.is_zero():
        node.allocate(handle, remaining)


def release_node_fence(network: SubstrateNetwork, node_id: int) -> None:
    """Drop a node's failure fence (no-op when the node holds none)."""
    node = network.node(node_id)
    handle = node_fence_handle(node_id)
    if node.holds(handle):
        node.release(handle)


def refresh_link_fence(network: SubstrateNetwork, endpoints: Tuple[int, int]) -> None:
    """(Re)size a link's failure fence to consume all of its free bandwidth.

    The bandwidth analogue of :func:`refresh_node_fence`: a failed link must
    never offer placeable bandwidth, even when reservations on it are released
    mid-failure.
    """
    link = network.link(*endpoints)
    handle = link_fence_handle(endpoints)
    if link.holds(handle):
        link.release(handle)
    remaining = link.available_bandwidth
    if remaining > 0.0:
        link.reserve(handle, remaining)


def release_link_fence(network: SubstrateNetwork, endpoints: Tuple[int, int]) -> None:
    """Drop a link's failure fence (no-op when the link holds none)."""
    link = network.link(*endpoints)
    handle = link_fence_handle(endpoints)
    if link.holds(handle):
        link.release(handle)


def placement_traverses_link(
    placement: Placement, endpoints: Tuple[int, int]
) -> bool:
    """True when any routed segment of ``placement`` crosses ``endpoints``."""
    return canonical_endpoints(*endpoints) in placement.traversed_links


@dataclass(frozen=True)
class FailureConfig:
    """Parameters of the per-node failure/repair process.

    Each node fails independently with exponentially distributed time to
    failure and time to repair, i.e. a two-state Markov availability model
    with steady-state availability ``MTTF / (MTTF + MTTR)``.
    """

    mean_time_to_failure: float = 500.0
    mean_time_to_repair: float = 25.0
    edge_only: bool = True
    seed: RandomState = None

    def __post_init__(self) -> None:
        check_positive(self.mean_time_to_failure, "mean_time_to_failure")
        check_positive(self.mean_time_to_repair, "mean_time_to_repair")

    @property
    def steady_state_availability(self) -> float:
        """Long-run fraction of time a node is up under this model."""
        return self.mean_time_to_failure / (
            self.mean_time_to_failure + self.mean_time_to_repair
        )


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled failure or recovery of a node."""

    time: float
    node_id: int
    is_failure: bool


class FailureInjector:
    """Generates a reproducible failure/recovery schedule for a substrate."""

    def __init__(self, config: Optional[FailureConfig] = None) -> None:
        self.config = config or FailureConfig()

    def schedule(
        self, network: SubstrateNetwork, horizon: float
    ) -> List[FailureEvent]:
        """Alternating failure/recovery events per node up to ``horizon``.

        Events for each node alternate FAIL → RECOVER → FAIL → ...; the whole
        schedule is returned time-sorted.
        """
        check_positive(horizon, "horizon")
        rng = new_rng(self.config.seed)
        node_ids = (
            network.edge_node_ids if self.config.edge_only else network.node_ids
        )
        events: List[FailureEvent] = []
        for node_id in node_ids:
            time = 0.0
            while True:
                time += float(rng.exponential(self.config.mean_time_to_failure))
                if time > horizon:
                    break
                events.append(FailureEvent(time=time, node_id=node_id, is_failure=True))
                time += float(rng.exponential(self.config.mean_time_to_repair))
                if time > horizon:
                    break
                events.append(FailureEvent(time=time, node_id=node_id, is_failure=False))
        events.sort(key=lambda e: e.time)
        return events


# --------------------------------------------------------------------------- #
# Correlated fault domains and link failures
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultDomain:
    """A set of substrate nodes that fails (and recovers) together.

    A domain models shared infrastructure — a rack PDU, a metro aggregation
    site, a regional power grid.  The member nodes go down simultaneously;
    their incident links can optionally be taken down with them (configured on
    :class:`DomainFailureConfig`).
    """

    name: str
    node_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.node_ids:
            raise ValueError(f"fault domain {self.name!r} has no member nodes")
        object.__setattr__(self, "node_ids", tuple(self.node_ids))


def fault_domains_from_network(
    network: SubstrateNetwork, edge_only: bool = True
) -> List[FaultDomain]:
    """Derive fault domains from a substrate's node names.

    Nodes generated by the topology builders carry names like
    ``new_york-edge-3`` / ``denver-cloud-0``; everything before the tier
    marker is the metro/site the node lives in, which is exactly the blast
    radius a correlated infrastructure failure has.  Nodes without a
    recognizable site prefix each form a singleton domain (independent
    failure), so the derivation degrades gracefully on hand-built topologies.
    """
    groups: Dict[str, List[int]] = {}
    node_ids = network.edge_node_ids if edge_only else network.node_ids
    for node_id in node_ids:
        name = network.node(node_id).name or ""
        site = name
        for marker in ("-edge-", "-cloud-"):
            if marker in name:
                site = name.split(marker)[0]
                break
        else:
            site = f"node-{node_id}"
        groups.setdefault(site, []).append(node_id)
    return [
        FaultDomain(name=site, node_ids=tuple(members))
        for site, members in sorted(groups.items())
    ]


@dataclass(frozen=True)
class DomainFailureConfig:
    """Parameters of the correlated domain + link failure process.

    Each fault domain fails independently of the others with exponential time
    to failure / time to repair — but *within* a domain, every member node
    (and, with ``fail_incident_links``, every link touching a member) goes
    down and comes back at the same instant.  Optionally, individual links
    also fail independently (``link_mean_time_to_failure``), modelling fibre
    cuts that take out a span without touching any compute.
    """

    mean_time_to_failure: float = 2000.0
    mean_time_to_repair: float = 50.0
    fail_incident_links: bool = True
    link_mean_time_to_failure: Optional[float] = None
    link_mean_time_to_repair: float = 25.0
    seed: RandomState = None

    def __post_init__(self) -> None:
        check_positive(self.mean_time_to_failure, "mean_time_to_failure")
        check_positive(self.mean_time_to_repair, "mean_time_to_repair")
        if self.link_mean_time_to_failure is not None:
            check_positive(self.link_mean_time_to_failure, "link_mean_time_to_failure")
        check_positive(self.link_mean_time_to_repair, "link_mean_time_to_repair")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled component failure or recovery.

    ``kind`` is one of ``node_failure`` / ``node_recovery`` /
    ``link_failure`` / ``link_recovery``; node events carry ``node_id``, link
    events carry the canonical ``endpoints`` pair.  ``domain`` names the fault
    domain that caused a correlated event (``None`` for independent link
    failures).
    """

    time: float
    kind: str
    node_id: Optional[int] = None
    endpoints: Optional[Tuple[int, int]] = None
    domain: Optional[str] = None

    def to_engine_event(self) -> Event:
        """The :class:`~repro.sim.events.Event` this chaos event injects."""
        if self.kind == "node_failure":
            return Event.create(self.time, EventType.NODE_FAILURE, payload=self.node_id)
        if self.kind == "node_recovery":
            return Event.create(self.time, EventType.NODE_RECOVERY, payload=self.node_id)
        if self.kind == "link_failure":
            return Event.create(self.time, EventType.LINK_FAILURE, payload=self.endpoints)
        if self.kind == "link_recovery":
            return Event.create(self.time, EventType.LINK_RECOVERY, payload=self.endpoints)
        raise ValueError(f"unknown chaos event kind {self.kind!r}")


class DomainFailureInjector:
    """Generates correlated domain + link failure/recovery schedules.

    Every domain alternates FAIL → RECOVER with exponential dwell times; a
    domain failure expands into simultaneous node failures for all members
    plus (optionally) link failures for every link incident to a member, and
    the matching recovery restores them all at once.  Independent link
    failures, when configured, follow their own per-link alternating process.
    The whole schedule is returned time-sorted and is a pure function of
    ``(config.seed, domains, horizon)``.
    """

    def __init__(
        self,
        domains: Sequence[FaultDomain],
        config: Optional[DomainFailureConfig] = None,
    ) -> None:
        if not domains:
            raise ValueError("DomainFailureInjector needs at least one fault domain")
        names = [domain.name for domain in domains]
        if len(set(names)) != len(names):
            raise ValueError(f"fault domain names must be unique, got {sorted(names)}")
        self.domains = list(domains)
        self.config = config or DomainFailureConfig()

    def _incident_links(
        self, network: SubstrateNetwork, domain: FaultDomain
    ) -> List[Tuple[int, int]]:
        members = set(domain.node_ids)
        return sorted(
            link.endpoints
            for link in network.links()
            if members & set(link.endpoints)
        )

    def schedule(
        self, network: SubstrateNetwork, horizon: float
    ) -> List[ChaosEvent]:
        """The time-sorted chaos schedule up to ``horizon``."""
        check_positive(horizon, "horizon")
        config = self.config
        events: List[ChaosEvent] = []
        for domain in self.domains:
            unknown = [n for n in domain.node_ids if n not in set(network.node_ids)]
            if unknown:
                raise ValueError(
                    f"fault domain {domain.name!r} references unknown nodes {unknown}"
                )
            rng = new_rng(derive_seed(config.seed, "domain", domain.name))
            links = (
                self._incident_links(network, domain)
                if config.fail_incident_links
                else []
            )
            time = 0.0
            while True:
                time += float(rng.exponential(config.mean_time_to_failure))
                if time > horizon:
                    break
                events.extend(self._domain_events(domain, links, time, failed=True))
                time += float(rng.exponential(config.mean_time_to_repair))
                if time > horizon:
                    break
                events.extend(self._domain_events(domain, links, time, failed=False))
        if config.link_mean_time_to_failure is not None:
            for link in network.links():
                rng = new_rng(derive_seed(config.seed, "link", *link.endpoints))
                time = 0.0
                while True:
                    time += float(rng.exponential(config.link_mean_time_to_failure))
                    if time > horizon:
                        break
                    events.append(
                        ChaosEvent(time=time, kind="link_failure", endpoints=link.endpoints)
                    )
                    time += float(rng.exponential(config.link_mean_time_to_repair))
                    if time > horizon:
                        break
                    events.append(
                        ChaosEvent(time=time, kind="link_recovery", endpoints=link.endpoints)
                    )
        events.sort(key=lambda e: e.time)
        return events

    def _domain_events(
        self,
        domain: FaultDomain,
        links: Sequence[Tuple[int, int]],
        time: float,
        failed: bool,
    ) -> List[ChaosEvent]:
        suffix = "failure" if failed else "recovery"
        batch = [
            ChaosEvent(
                time=time, kind=f"node_{suffix}", node_id=node_id, domain=domain.name
            )
            for node_id in domain.node_ids
        ]
        batch.extend(
            ChaosEvent(
                time=time, kind=f"link_{suffix}", endpoints=endpoints, domain=domain.name
            )
            for endpoints in links
        )
        return batch


@dataclass
class DisruptionReport:
    """Fault-tolerance statistics of one faulty simulation run."""

    failure_events: int = 0
    recovery_events: int = 0
    link_failure_events: int = 0
    link_recovery_events: int = 0
    disrupted_requests: int = 0
    disrupted_request_ids: List[int] = field(default_factory=list)

    def disruption_ratio(self, accepted_requests: int) -> float:
        """Fraction of accepted requests whose service was disrupted."""
        if accepted_requests <= 0:
            return 0.0
        return self.disrupted_requests / accepted_requests

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view."""
        return {
            "failure_events": self.failure_events,
            "recovery_events": self.recovery_events,
            "link_failure_events": self.link_failure_events,
            "link_recovery_events": self.link_recovery_events,
            "disrupted_requests": self.disrupted_requests,
        }


class FaultyNFVSimulation(NFVSimulation):
    """An online simulation with node, link, and fault-domain failures.

    On failure, the component is *fenced*: its free capacity (node) or
    bandwidth (link) is reserved under a failure handle so no subsequent
    placement can use it, and every active placement hosting a VNF on the
    node — or routed across the link — is released and counted as disrupted.
    On recovery the fence is removed.

    Failure processes compose: ``failure_config`` drives independent per-node
    failures, ``domain_config`` drives correlated domain + link chaos.  When
    neither is given the historical default (independent node failures with
    :class:`FailureConfig` defaults) applies; passing only ``domain_config``
    runs pure correlated chaos without an extra independent-node process.
    """

    _FENCE_PREFIX = _NODE_FENCE_PREFIX

    def __init__(
        self,
        network: SubstrateNetwork,
        policy: PlacementPolicy,
        config: Optional[SimulationConfig] = None,
        failure_config: Optional[FailureConfig] = None,
        domain_config: Optional[DomainFailureConfig] = None,
        domains: Optional[Sequence[FaultDomain]] = None,
    ) -> None:
        super().__init__(network, policy, config)
        if failure_config is None and domain_config is None and domains is None:
            failure_config = FailureConfig()
        self.failure_config = failure_config
        self.injector = (
            FailureInjector(failure_config) if failure_config is not None else None
        )
        self.domain_injector: Optional[DomainFailureInjector] = None
        if domain_config is not None or domains is not None:
            resolved = (
                list(domains) if domains is not None
                else fault_domains_from_network(network)
            )
            self.domain_injector = DomainFailureInjector(resolved, domain_config)
        self.report = DisruptionReport()
        self._failed_nodes: set[int] = set()
        self._failed_links: set[Tuple[int, int]] = set()
        self.engine.on(EventType.NODE_FAILURE, self._handle_failure)
        self.engine.on(EventType.NODE_RECOVERY, self._handle_recovery)
        self.engine.on(EventType.LINK_FAILURE, self._handle_link_failure)
        self.engine.on(EventType.LINK_RECOVERY, self._handle_link_recovery)

    # ------------------------------------------------------------------ #
    # Failure handling
    # ------------------------------------------------------------------ #
    @property
    def failed_nodes(self) -> List[int]:
        """Node ids currently fenced due to failure."""
        return sorted(self._failed_nodes)

    @property
    def failed_links(self) -> List[Tuple[int, int]]:
        """Canonical endpoint pairs of links currently fenced due to failure."""
        return sorted(self._failed_links)

    def _fence_handle(self, node_id: int) -> str:
        return node_fence_handle(node_id)

    def _handle_failure(self, event: Event) -> None:
        node_id: int = event.payload
        if node_id in self._failed_nodes:
            return
        self._failed_nodes.add(node_id)
        self.report.failure_events += 1
        self._evict_placements_on(node_id)
        # Fence the node: consume whatever capacity remains so that placement
        # feasibility checks reject it until recovery.
        self._refresh_fence(node_id)

    def _handle_recovery(self, event: Event) -> None:
        node_id: int = event.payload
        if node_id not in self._failed_nodes:
            return
        self._failed_nodes.discard(node_id)
        self.report.recovery_events += 1
        release_node_fence(self.network, node_id)

    def _handle_link_failure(self, event: Event) -> None:
        endpoints = canonical_endpoints(*event.payload)
        if endpoints in self._failed_links or not self.network.has_link(*endpoints):
            return
        self._failed_links.add(endpoints)
        self.report.link_failure_events += 1
        self._evict_placements_traversing(endpoints)
        refresh_link_fence(self.network, endpoints)

    def _handle_link_recovery(self, event: Event) -> None:
        endpoints = canonical_endpoints(*event.payload)
        if endpoints not in self._failed_links:
            return
        self._failed_links.discard(endpoints)
        self.report.link_recovery_events += 1
        release_link_fence(self.network, endpoints)

    def _handle_departure(self, event: Event) -> None:
        # A departing placement should never still touch a fenced component
        # (its placements were torn down when the component failed), but if
        # any release does free capacity on a failed node or bandwidth on a
        # failed link, fold it back into the fence so a fenced component can
        # never regain placeable capacity mid-failure.
        placement = self._active_placements.get(event.payload)
        super()._handle_departure(event)
        if placement is None:
            return
        if self._failed_nodes:
            for node_id in set(placement.node_assignment) & self._failed_nodes:
                self._refresh_fence(node_id)
        if self._failed_links:
            for endpoints in self._failed_links:
                if placement_traverses_link(placement, endpoints):
                    refresh_link_fence(self.network, endpoints)

    def _refresh_fence(self, node_id: int) -> None:
        """(Re)size the failure fence to consume all free capacity of a node."""
        refresh_node_fence(self.network, node_id)

    def release_fences(self) -> None:
        """Release every failure fence and clear the failed-component sets.

        Called at the start of :meth:`run` so a rerun on a substrate that
        still carries fences from a previous (interrupted or horizon-ended)
        run starts from a conserved state; also usable by callers that want
        to reuse the network after a run that ended with components still
        down.
        """
        for node_id in sorted(self._failed_nodes):
            release_node_fence(self.network, node_id)
        self._failed_nodes.clear()
        for endpoints in sorted(self._failed_links):
            release_link_fence(self.network, endpoints)
        self._failed_links.clear()

    def _evict_placements_on(self, node_id: int) -> None:
        """Tear down every active placement hosting a VNF on ``node_id``."""
        self._evict(
            [
                (request_id, placement)
                for request_id, placement in self._active_placements.items()
                if node_id in placement.node_assignment
            ]
        )

    def _evict_placements_traversing(self, endpoints: Tuple[int, int]) -> None:
        """Tear down every active placement routed across ``endpoints``."""
        self._evict(
            [
                (request_id, placement)
                for request_id, placement in self._active_placements.items()
                if placement_traverses_link(placement, endpoints)
            ]
        )

    def _evict(self, victims: List[Tuple[int, Placement]]) -> None:
        for request_id, placement in victims:
            if placement.is_committed:
                placement.release(self.network)
            del self._active_placements[request_id]
            self.report.disrupted_requests += 1
            self.report.disrupted_request_ids.append(request_id)
            # The release may have freed capacity on components that failed
            # *earlier* and are already fenced — fold it back into the fences.
            for node_id in set(placement.node_assignment) & self._failed_nodes:
                refresh_node_fence(self.network, node_id)
            for endpoints in self._failed_links:
                if placement_traverses_link(placement, endpoints):
                    refresh_link_fence(self.network, endpoints)

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #
    def run(self, requests) -> SimulationResult:
        """Run the simulation with failure/recovery events injected."""
        # Pre-generate the failure schedules so that a fresh engine (reset in
        # the parent run()) can be populated before arrivals are processed.
        schedule: List[FailureEvent] = (
            self.injector.schedule(self.network, self.config.horizon)
            if self.injector is not None
            else []
        )
        chaos: List[ChaosEvent] = (
            self.domain_injector.schedule(self.network, self.config.horizon)
            if self.domain_injector is not None
            else []
        )
        self.report = DisruptionReport()
        # Fully release fences left by a previous run (the parent run() also
        # resets the whole network right after, but the explicit release keeps
        # fence bookkeeping and the failed-component sets consistent on their
        # own).
        self.release_fences()
        # The parent run() resets the engine before scheduling arrivals, so the
        # failure schedule is injected right after that reset by temporarily
        # wrapping the engine's reset method.
        original_reset = self.engine.reset

        def reset_and_inject() -> None:
            original_reset()
            for failure in schedule:
                self.engine.schedule(
                    Event.create(
                        failure.time,
                        EventType.NODE_FAILURE
                        if failure.is_failure
                        else EventType.NODE_RECOVERY,
                        payload=failure.node_id,
                    )
                )
            for chaos_event in chaos:
                self.engine.schedule(chaos_event.to_engine_event())

        self.engine.reset = reset_and_inject  # type: ignore[method-assign]
        try:
            result = super().run(requests)
        finally:
            self.engine.reset = original_reset  # type: ignore[method-assign]
        return result
