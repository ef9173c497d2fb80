"""The geo-distributed substrate network.

:class:`SubstrateNetwork` combines :class:`~repro.substrate.node.ComputeNode`
and :class:`~repro.substrate.link.Link` objects on top of a
:class:`networkx.Graph` and provides the operations that placement policies
and the discrete-event simulator need:

* latency-weighted shortest-path routing between any two nodes,
* feasibility-checked allocation/rollback of node resources and path
  bandwidth,
* utilization, cost and load-balance statistics, and
* cheap state snapshots used by the RL state encoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.substrate.geo import GeoPoint, propagation_latency_ms
from repro.substrate.ledger import SubstrateLedger
from repro.substrate.link import (
    InsufficientBandwidthError,
    Link,
    canonical_endpoints,
)
from repro.substrate.node import ComputeNode, InsufficientCapacityError, NodeTier
from repro.substrate.resources import ResourceVector


class UnknownNodeError(KeyError):
    """Raised when an operation references a node id not in the network."""


class NoRouteError(RuntimeError):
    """Raised when two nodes are not connected in the substrate graph."""


#: Routing backends of :class:`SubstrateNetwork`.
#:
#: * ``"dense"``     — precomputed all-pairs latency matrix + next-hop table;
#:                     lookups are O(1) array reads (the default).
#: * ``"cached"``    — per-pair networkx Dijkstra memoized under a canonical
#:                     ``(min, max)`` key (the seed's strategy).
#: * ``"per_query"`` — networkx Dijkstra on every call, no cache.  This is the
#:                     pre-change reference path kept for equivalence tests
#:                     and the ``bench_envstep`` baseline.
ROUTING_MODES = ("dense", "cached", "per_query")


class DenseRouting:
    """All-pairs latency matrix and next-hop table over a fixed topology.

    Built once per topology with a vectorized Floyd–Warshall sweep:
    ``latency[i, j]`` is the latency-shortest distance between the i-th and
    j-th node (``inf`` when disconnected) and ``next_hop[i, j]`` is the row
    index of the next node on that path (``-1`` when disconnected), so path
    reconstruction is a simple array walk with no graph traversal.
    """

    def __init__(self, network: "SubstrateNetwork") -> None:
        ids = list(network.node_ids)
        self.node_ids = ids
        self.index: Dict[int, int] = {node_id: i for i, node_id in enumerate(ids)}
        n = len(ids)
        latency = np.full((n, n), np.inf)
        next_hop = np.full((n, n), -1, dtype=np.int64)
        diag = np.arange(n)
        latency[diag, diag] = 0.0
        next_hop[diag, diag] = diag
        for link in network.links():
            u, v = link.endpoints
            i, j = self.index[u], self.index[v]
            if link.latency_ms < latency[i, j]:
                latency[i, j] = latency[j, i] = link.latency_ms
                next_hop[i, j] = j
                next_hop[j, i] = i
        # Vectorized Floyd–Warshall: one (n, n) relaxation per pivot.
        for k in range(n):
            via = latency[:, k, None] + latency[None, k, :]
            better = via < latency
            if better.any():
                latency = np.where(better, via, latency)
                next_hop = np.where(better, next_hop[:, k, None], next_hop)
        self.latency = latency
        self.next_hop = next_hop

    def walk(self, source: int, target: int) -> Tuple[int, ...]:
        """Reconstruct the node-id sequence of the shortest path."""
        i, j = self.index[source], self.index[target]
        if self.next_hop[i, j] < 0:
            raise NoRouteError(f"no route between {source} and {target}")
        hops = self.next_hop[:, j]
        sequence = [source]
        while i != j:
            i = int(hops[i])
            sequence.append(self.node_ids[i])
        return tuple(sequence)


@dataclass(frozen=True)
class PathInfo:
    """A routed path with its aggregate latency."""

    nodes: Tuple[int, ...]
    latency_ms: float

    @property
    def hop_count(self) -> int:
        """Number of links traversed."""
        return max(0, len(self.nodes) - 1)

    def links(self) -> List[Tuple[int, int]]:
        """Canonical endpoint pairs of the links along the path."""
        return [
            canonical_endpoints(self.nodes[i], self.nodes[i + 1])
            for i in range(len(self.nodes) - 1)
        ]


class SubstrateNetwork:
    """A capacitated, latency-weighted graph of edge and cloud nodes."""

    def __init__(self, routing: str = "dense") -> None:
        if routing not in ROUTING_MODES:
            raise ValueError(f"routing must be one of {ROUTING_MODES}, got {routing!r}")
        self._graph = nx.Graph()
        self._nodes: Dict[int, ComputeNode] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        #: Routed paths memoized under their canonical (min, max) id pair.
        self._path_cache: Dict[Tuple[int, int], PathInfo] = {}
        self._edge_node_ids: Optional[Tuple[int, ...]] = None
        self.routing = routing
        self._dense: Optional[DenseRouting] = None
        self._ledger: Optional[SubstrateLedger] = None

    def _invalidate_topology_caches(self) -> None:
        """Drop every derived structure after a topology mutation."""
        self._path_cache.clear()
        self._edge_node_ids = None
        self._dense = None
        if self._ledger is not None:
            # Detach the stale mirror so objects stop writing through to it.
            for row, node in enumerate(self._nodes.values()):
                if node._ledger is self._ledger:
                    node._ledger = None
            for link in self._links.values():
                if link._ledger is self._ledger:
                    link._ledger = None
            self._ledger = None

    @property
    def ledger(self) -> SubstrateLedger:
        """The array-backed resource ledger (built lazily, kept in sync)."""
        if self._ledger is None:
            self._ledger = SubstrateLedger(self)
        return self._ledger

    @property
    def dense_routing(self) -> DenseRouting:
        """The all-pairs latency matrix / next-hop table (built lazily)."""
        if self._dense is None:
            self._dense = DenseRouting(self)
        return self._dense

    @property
    def latency_matrix(self) -> np.ndarray:
        """All-pairs shortest-path latency matrix in ledger row order."""
        return self.dense_routing.latency

    def latency_row(self, node_id: int) -> np.ndarray:
        """Shortest-path latencies from ``node_id`` to every node (row view)."""
        dense = self.dense_routing
        try:
            return dense.latency[dense.index[node_id]]
        except KeyError as exc:
            raise UnknownNodeError(f"unknown node id {node_id}") from exc

    def prepare(self) -> "SubstrateNetwork":
        """Eagerly build the dense routing tables and the resource ledger.

        Topology generators call this once after construction so that the
        first ``env.step()`` does not pay the build cost.
        """
        self.dense_routing
        self.ledger
        return self

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: ComputeNode) -> None:
        """Register a compute node.  Node ids must be unique."""
        if node.node_id in self._nodes:
            raise ValueError(f"node id {node.node_id} already present")
        self._nodes[node.node_id] = node
        self._graph.add_node(node.node_id)
        self._invalidate_topology_caches()

    def add_link(
        self,
        u: int,
        v: int,
        bandwidth_capacity: float,
        latency_ms: Optional[float] = None,
        cost_per_mbps: float = 0.0005,
    ) -> Link:
        """Connect two registered nodes.

        When ``latency_ms`` is omitted it is derived from the geographic
        distance between the endpoints via the fibre propagation model.
        """
        for node_id in (u, v):
            if node_id not in self._nodes:
                raise UnknownNodeError(f"unknown node id {node_id}")
        key = canonical_endpoints(u, v)
        if key in self._links:
            raise ValueError(f"link {key} already present")
        if latency_ms is None:
            latency_ms = propagation_latency_ms(
                self._nodes[u].location, self._nodes[v].location
            )
        link = Link(
            endpoints=key,
            bandwidth_capacity=bandwidth_capacity,
            latency_ms=latency_ms,
            cost_per_mbps=cost_per_mbps,
        )
        self._links[key] = link
        self._graph.add_edge(*key, latency=latency_ms)
        self._invalidate_topology_caches()
        return link

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    @property
    def node_ids(self) -> List[int]:
        """All node ids in insertion order."""
        return list(self._nodes.keys())

    @property
    def edge_node_ids(self) -> Tuple[int, ...]:
        """Ids of edge-tier nodes in insertion order (cached per topology)."""
        if self._edge_node_ids is None:
            self._edge_node_ids = tuple(
                nid for nid, node in self._nodes.items() if node.is_edge
            )
        return self._edge_node_ids

    @property
    def cloud_node_ids(self) -> List[int]:
        """Ids of cloud-tier nodes."""
        return [nid for nid, node in self._nodes.items() if node.is_cloud]

    @property
    def num_nodes(self) -> int:
        """Total number of compute nodes."""
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        """Total number of links."""
        return len(self._links)

    def node(self, node_id: int) -> ComputeNode:
        """Return the node with ``node_id`` or raise :class:`UnknownNodeError`."""
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise UnknownNodeError(f"unknown node id {node_id}") from exc

    def nodes(self) -> Iterable[ComputeNode]:
        """Iterate over all compute nodes."""
        return self._nodes.values()

    def link(self, u: int, v: int) -> Link:
        """Return the link connecting ``u`` and ``v``."""
        key = canonical_endpoints(u, v)
        if key not in self._links:
            raise UnknownNodeError(f"no link between {u} and {v}")
        return self._links[key]

    def links(self) -> Iterable[Link]:
        """Iterate over all links."""
        return self._links.values()

    def has_link(self, u: int, v: int) -> bool:
        """True if nodes ``u`` and ``v`` are directly connected."""
        return canonical_endpoints(u, v) in self._links

    def neighbors(self, node_id: int) -> List[int]:
        """Node ids directly connected to ``node_id``."""
        if node_id not in self._nodes:
            raise UnknownNodeError(f"unknown node id {node_id}")
        return list(self._graph.neighbors(node_id))

    def is_connected(self) -> bool:
        """True when every node can reach every other node."""
        if self.num_nodes <= 1:
            return True
        return nx.is_connected(self._graph)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _nx_shortest_path(self, source: int, target: int) -> Tuple[Tuple[int, ...], float]:
        """Reference per-query routing: one networkx Dijkstra call."""
        try:
            nodes = nx.shortest_path(self._graph, source, target, weight="latency")
        except nx.NetworkXNoPath as exc:
            raise NoRouteError(f"no route between {source} and {target}") from exc
        return tuple(nodes), self.path_latency(nodes)

    def shortest_path(self, source: int, target: int) -> PathInfo:
        """Latency-shortest path between two nodes.

        In ``"dense"`` mode the path is reconstructed by walking the
        precomputed next-hop table; in ``"cached"`` mode it is computed with
        networkx Dijkstra; ``"per_query"`` recomputes on every call.  Routed
        paths are memoized under the canonical ``(min, max)`` id pair — the
        reverse orientation is a cheap tuple reversal, never a second cache
        entry.  Caches are invalidated whenever topology changes; bandwidth
        reservations do not change the latency metric so routing stays stable
        within an episode, matching the behaviour of latency-based routing in
        SDN controllers.
        """
        for node_id in (source, target):
            if node_id not in self._nodes:
                raise UnknownNodeError(f"unknown node id {node_id}")
        if source == target:
            return PathInfo(nodes=(source,), latency_ms=0.0)
        if self.routing == "per_query":
            nodes, latency = self._nx_shortest_path(source, target)
            return PathInfo(nodes=nodes, latency_ms=latency)
        key = canonical_endpoints(source, target)
        cached = self._path_cache.get(key)
        if cached is None:
            if self.routing == "dense":
                dense = self.dense_routing
                nodes = dense.walk(*key)
                latency = float(dense.latency[dense.index[key[0]], dense.index[key[1]]])
            else:
                nodes, latency = self._nx_shortest_path(*key)
            cached = PathInfo(nodes=nodes, latency_ms=latency)
            self._path_cache[key] = cached
        if source == key[0]:
            return cached
        return PathInfo(nodes=cached.nodes[::-1], latency_ms=cached.latency_ms)

    def path_latency(self, nodes: Sequence[int]) -> float:
        """Total latency along an explicit node sequence."""
        total = 0.0
        for i in range(len(nodes) - 1):
            total += self.link(nodes[i], nodes[i + 1]).latency_ms
        return total

    def latency_between(self, source: int, target: int) -> float:
        """Latency of the shortest path between two nodes.

        In ``"dense"`` mode this is a single O(1) matrix lookup.
        """
        if self.routing == "dense":
            dense = self.dense_routing
            try:
                value = dense.latency[dense.index[source], dense.index[target]]
            except KeyError as exc:
                raise UnknownNodeError(f"unknown node id {exc.args[0]}") from exc
            if value == np.inf:
                raise NoRouteError(f"no route between {source} and {target}")
            return float(value)
        return self.shortest_path(source, target).latency_ms

    def path_available_bandwidth(self, nodes: Sequence[int]) -> float:
        """Bottleneck free bandwidth along an explicit node sequence."""
        if len(nodes) <= 1:
            return float("inf")
        if self.routing == "dense":
            return self.ledger.path_available_bandwidth(nodes)
        return min(
            self.link(nodes[i], nodes[i + 1]).available_bandwidth
            for i in range(len(nodes) - 1)
        )

    def path_can_carry(self, nodes: Sequence[int], bandwidth: float) -> bool:
        """True when every link along the path can carry ``bandwidth``."""
        return self.path_available_bandwidth(nodes) + 1e-9 >= bandwidth

    # ------------------------------------------------------------------ #
    # Allocation (nodes + paths) with rollback on partial failure
    # ------------------------------------------------------------------ #
    def allocate_node(self, node_id: int, handle: str, demand: ResourceVector) -> None:
        """Reserve node resources under ``handle``."""
        self.node(node_id).allocate(handle, demand)

    def release_node(self, node_id: int, handle: str) -> None:
        """Free node resources stored under ``handle``."""
        self.node(node_id).release(handle)

    def allocate_path(
        self, nodes: Sequence[int], handle: str, bandwidth: float
    ) -> None:
        """Reserve ``bandwidth`` on every link of a path, atomically.

        If any link rejects the reservation, reservations already made under
        the same handle are rolled back before re-raising, so a failed
        allocation never leaks bandwidth.
        """
        reserved: List[Tuple[int, int]] = []
        try:
            for i in range(len(nodes) - 1):
                link = self.link(nodes[i], nodes[i + 1])
                link.reserve(handle, bandwidth)
                reserved.append(link.endpoints)
        except InsufficientBandwidthError:
            for endpoints in reserved:
                self._links[endpoints].release(handle)
            raise

    def release_path(self, nodes: Sequence[int], handle: str) -> None:
        """Free a path reservation made under ``handle``.

        Links that do not hold the handle are skipped so that rollback after
        partial allocation failures stays idempotent.
        """
        for i in range(len(nodes) - 1):
            link = self.link(nodes[i], nodes[i + 1])
            if link.holds(handle):
                link.release(handle)

    def reset(self) -> None:
        """Clear all allocations on every node and link."""
        for node in self._nodes.values():
            node.reset()
        for link in self._links.values():
            link.reset()

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #
    def _tier_mask(self, tier: Optional[NodeTier]) -> np.ndarray:
        ledger = self.ledger
        if tier is None:
            return np.ones(ledger.num_nodes, dtype=bool)
        return ledger.edge_tier_mask if tier is NodeTier.EDGE else ledger.cloud_tier_mask

    def total_capacity(self, tier: Optional[NodeTier] = None) -> ResourceVector:
        """Aggregate capacity, optionally restricted to one tier."""
        if not self._nodes:
            return ResourceVector.zero()
        ledger = self.ledger
        return ResourceVector.from_array(
            ledger.node_capacity[self._tier_mask(tier)].sum(axis=0)
        )

    def total_used(self, tier: Optional[NodeTier] = None) -> ResourceVector:
        """Aggregate used resources, optionally restricted to one tier."""
        if not self._nodes:
            return ResourceVector.zero()
        ledger = self.ledger
        return ResourceVector.from_array(
            ledger.node_used[self._tier_mask(tier)].sum(axis=0)
        )

    def mean_node_utilization(self, tier: Optional[NodeTier] = None) -> float:
        """Mean of per-node bottleneck utilizations."""
        if not self._nodes:
            return 0.0
        values = self.ledger.max_utilization()[self._tier_mask(tier)]
        return float(values.mean()) if values.size else 0.0

    def utilization_imbalance(self, tier: Optional[NodeTier] = None) -> float:
        """Standard deviation of per-node utilizations (load-balance metric)."""
        if not self._nodes:
            return 0.0
        values = self.ledger.max_utilization()[self._tier_mask(tier)]
        return float(values.std()) if values.size else 0.0

    def compute_cost_rate(self) -> float:
        """Instantaneous cost rate of all node and link allocations."""
        if not self._nodes:
            return 0.0
        return self.ledger.cost_rate()

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly summary of the whole substrate."""
        return {
            "num_nodes": self.num_nodes,
            "num_edge_nodes": len(self.edge_node_ids),
            "num_cloud_nodes": len(self.cloud_node_ids),
            "num_links": self.num_links,
            "mean_edge_utilization": self.mean_node_utilization(NodeTier.EDGE),
            "utilization_imbalance": self.utilization_imbalance(NodeTier.EDGE),
            "cost_rate": self.compute_cost_rate(),
            "nodes": [node.snapshot() for node in self._nodes.values()],
        }

    # ------------------------------------------------------------------ #
    # Geo helpers
    # ------------------------------------------------------------------ #
    def nearest_node(
        self, point: GeoPoint, tier: Optional[NodeTier] = None
    ) -> int:
        """Node id geographically closest to ``point``."""
        candidates = [
            node
            for node in self._nodes.values()
            if tier is None or node.tier is tier
        ]
        if not candidates:
            raise UnknownNodeError("network has no nodes of the requested tier")
        best = min(candidates, key=lambda node: point.distance_km(node.location))
        return best.node_id

    def nodes_sorted_by_latency_from(self, source: int) -> List[int]:
        """All node ids sorted by routed latency from ``source``."""
        if self.routing == "dense":
            dense = self.dense_routing
            order = np.argsort(self.latency_row(source), kind="stable")
            return [dense.node_ids[i] for i in order]
        return sorted(
            self.node_ids, key=lambda nid: self.latency_between(source, nid)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubstrateNetwork(nodes={self.num_nodes}, links={self.num_links}, "
            f"edges={len(self.edge_node_ids)}, clouds={len(self.cloud_node_ids)})"
        )
