"""Array-backed resource ledger for the substrate.

The :class:`SubstrateLedger` mirrors the per-object bookkeeping of
:class:`~repro.substrate.node.ComputeNode` and
:class:`~repro.substrate.link.Link` into contiguous numpy arrays:

* ``node_capacity`` / ``node_used`` — ``(num_nodes, 3)`` matrices in the
  canonical ``(cpu, memory, storage)`` dimension order,
* ``link_capacity`` / ``link_used`` / ``link_latency`` / ``link_cost`` —
  ``(num_links,)`` vectors addressed through ``edge_index``, a map from
  canonical link endpoints to array slot.

Nodes and links keep their object API (allocation handles, rollback,
snapshots) and *write through* to the ledger on every mutation, so the arrays
are always exact mirrors.  Hot paths — state encoding, action masking,
placement feasibility, utilization statistics — read whole columns at once
instead of looping node-by-node or link-by-link.

The ledger is built lazily by :attr:`SubstrateNetwork.ledger` and invalidated
only on topology mutation (``add_node`` / ``add_link``); allocations and
releases never invalidate it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.substrate.link import canonical_endpoints

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.substrate.network import SubstrateNetwork

#: Feasibility tolerance shared with the object-level checks.
CAPACITY_TOL = 1e-9


class SubstrateLedger:
    """Contiguous-array mirror of one substrate's nodes and links."""

    def __init__(self, network: "SubstrateNetwork") -> None:
        nodes = list(network.nodes())
        links = list(network.links())

        # --- node-side arrays ------------------------------------------- #
        self.node_ids: List[int] = [node.node_id for node in nodes]
        self.node_row: Dict[int, int] = {
            node_id: row for row, node_id in enumerate(self.node_ids)
        }
        self.node_capacity = (
            np.stack([node.capacity.as_array() for node in nodes])
            if nodes
            else np.zeros((0, 3))
        )
        # Zero-capacity dimensions report 0.0 utilization (x / inf == 0).
        self.node_capacity_safe = np.where(
            self.node_capacity > 0, self.node_capacity, np.inf
        )
        self.node_used = np.zeros_like(self.node_capacity)
        self.node_cost_per_unit = (
            np.stack([node.cost_per_unit.as_array() for node in nodes])
            if nodes
            else np.zeros((0, 3))
        )
        self.node_activation_cost = np.array(
            [node.activation_cost for node in nodes], dtype=float
        )
        self.node_alloc_count = np.zeros(len(nodes), dtype=np.int64)
        self.edge_tier_mask = np.array([node.is_edge for node in nodes], dtype=bool)
        self.cloud_tier_mask = ~self.edge_tier_mask

        # --- link-side arrays ------------------------------------------- #
        self.link_endpoints = (
            np.array([link.endpoints for link in links], dtype=np.int64)
            if links
            else np.zeros((0, 2), dtype=np.int64)
        )
        self.edge_index: Dict[Tuple[int, int], int] = {
            link.endpoints: slot for slot, link in enumerate(links)
        }
        self.link_capacity = np.array(
            [link.bandwidth_capacity for link in links], dtype=float
        )
        self.link_used = np.zeros(len(links), dtype=float)
        self.link_latency = np.array([link.latency_ms for link in links], dtype=float)
        self.link_cost = np.array([link.cost_per_mbps for link in links], dtype=float)

        #: Memo of path node-sequence -> link slot array (paths repeat a lot
        #: because routed paths are themselves cached per node pair).
        self._path_edge_cache: Dict[Tuple[int, ...], np.ndarray] = {}

        # Version counter bumped on every node mutation; derived matrices
        # (utilization, per-node max utilization) are memoized against it so
        # several reads between mutations share one computation.
        self._node_version = 0
        self._util_version = -1
        self._util_matrix: np.ndarray = np.zeros_like(self.node_capacity)
        self._max_util_version = -1
        self._max_util: np.ndarray = np.zeros(len(nodes))
        self._capacity_plus_tol = self.node_capacity + CAPACITY_TOL
        self._free_tol_version = -1
        self._free_tol: np.ndarray = np.zeros_like(self.node_capacity)
        # Single-entry memo for can_host_all: the encoder and the action mask
        # query the same demand in the same decision step.
        self._can_host_key: Tuple[int, bytes] = (-1, b"")
        self._can_host_result: np.ndarray = np.zeros(len(nodes), dtype=bool)

        # Bind write-through mirrors; binding copies current object state in.
        for row, node in enumerate(nodes):
            node._bind_ledger(self, row)
        for slot, link in enumerate(links):
            link._bind_ledger(self, slot)

    # ------------------------------------------------------------------ #
    # Write-through hooks (called by ComputeNode / Link on every mutation)
    # ------------------------------------------------------------------ #
    def sync_node(self, row: int, used: np.ndarray, alloc_count: int) -> None:
        """Mirror one node's usage vector and live-allocation count."""
        self.node_used[row] = used
        self.node_alloc_count[row] = alloc_count
        self._node_version += 1

    def sync_link(self, slot: int, used: float) -> None:
        """Mirror one link's reserved bandwidth."""
        self.link_used[slot] = used

    # ------------------------------------------------------------------ #
    # Vectorized node queries
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of mirrored compute nodes."""
        return len(self.node_ids)

    @property
    def num_links(self) -> int:
        """Number of mirrored links."""
        return len(self.link_capacity)

    def node_available(self) -> np.ndarray:
        """Free capacity per node, ``(num_nodes, 3)``, clamped at zero."""
        return np.maximum(self.node_capacity - self.node_used, 0.0)

    def can_host_all(self, demand: np.ndarray) -> np.ndarray:
        """Vectorized feasibility: which nodes can host ``demand``.

        ``demand`` is a ``(3,)`` array in canonical dimension order; the
        result is a boolean vector over ledger rows.  It evaluates
        ``demand <= (cap + tol) - used``, which is *not* equivalent to
        :meth:`ComputeNode.can_host`'s ``used + demand <= cap + tol``: the
        two round differently and disagree when a demand sits within an ulp
        or two of the free capacity.  The environment masks and the SoA
        differential contract are defined on this expression; per-request
        planning uses :func:`repro.baselines.common.can_host_row` instead.
        Treat the result as read-only: consecutive queries for the same
        demand (the encoder and the action mask of one decision) share one
        memoized computation.
        """
        key = (self._node_version, demand.tobytes())
        if key != self._can_host_key:
            if self._free_tol_version != self._node_version:
                np.subtract(self._capacity_plus_tol, self.node_used, out=self._free_tol)
                self._free_tol_version = self._node_version
            self._can_host_result = (demand <= self._free_tol).all(axis=1)
            self._can_host_key = key
        return self._can_host_result

    def utilization_matrix(self) -> np.ndarray:
        """Per-node, per-dimension utilization ratios, ``(num_nodes, 3)``.

        Memoized against the node mutation counter; treat as read-only.
        """
        if self._util_version != self._node_version:
            np.divide(self.node_used, self.node_capacity_safe, out=self._util_matrix)
            self._util_version = self._node_version
        return self._util_matrix

    def max_utilization(self) -> np.ndarray:
        """Per-node bottleneck (largest-dimension) utilization, ``(num_nodes,)``.

        Memoized against the node mutation counter; treat as read-only.
        """
        if self.num_nodes == 0:
            return np.zeros(0)
        if self._max_util_version != self._node_version:
            np.max(self.utilization_matrix(), axis=1, out=self._max_util)
            self._max_util_version = self._node_version
        return self._max_util

    def utilization_stats(self, edge_only: bool = True) -> Tuple[float, float]:
        """(mean, standard deviation) of per-node bottleneck utilizations."""
        values = self.max_utilization()
        if edge_only:
            values = values[self.edge_tier_mask]
        if values.size == 0:
            return 0.0, 0.0
        mean = float(values.mean())
        return mean, float(np.sqrt(np.mean((values - mean) ** 2)))

    def cost_rate(self) -> float:
        """Instantaneous cost rate of all node and link allocations."""
        node_cost = float(np.sum(self.node_used * self.node_cost_per_unit))
        node_cost += float(
            np.sum(self.node_activation_cost[self.node_alloc_count > 0])
        )
        link_cost = float(self.link_used @ self.link_cost)
        return node_cost + link_cost

    # ------------------------------------------------------------------ #
    # Vectorized link / path queries
    # ------------------------------------------------------------------ #
    def link_available(self) -> np.ndarray:
        """Free bandwidth per link, ``(num_links,)``, clamped at zero."""
        return np.maximum(self.link_capacity - self.link_used, 0.0)

    def _path_entry(self, nodes: Sequence[int]) -> Tuple[np.ndarray, float]:
        """Memoized (link slots, cost-per-Mbps sum) of an explicit path."""
        key = tuple(nodes)
        cached = self._path_edge_cache.get(key)
        if cached is None:
            slots = np.array(
                [
                    self.edge_index[canonical_endpoints(key[i], key[i + 1])]
                    for i in range(len(key) - 1)
                ],
                dtype=np.int64,
            )
            cost = float(self.link_cost[slots].sum()) if slots.size else 0.0
            cached = (slots, cost)
            self._path_edge_cache[key] = cached
        return cached

    def path_entry(self, nodes: Sequence[int]) -> Tuple[np.ndarray, float]:
        """(link slots, cost-per-Mbps sum) of an explicit path (memoized).

        One lookup serving consumers that need both halves — e.g. the SoA
        environment core's shared routed-path cache — without paying the memo
        probe twice.
        """
        return self._path_entry(nodes)

    def path_edge_indices(self, nodes: Sequence[int]) -> np.ndarray:
        """Ledger slots of the links along an explicit node sequence (memoized)."""
        return self._path_entry(nodes)[0]

    def path_cost_per_mbps(self, nodes: Sequence[int]) -> float:
        """Sum of per-Mbps link costs along an explicit node sequence (memoized)."""
        return self._path_entry(nodes)[1]

    def path_available_bandwidth(self, nodes: Sequence[int]) -> float:
        """Bottleneck free bandwidth along an explicit node sequence."""
        slots = self.path_edge_indices(nodes)
        if slots.size == 0:
            return float("inf")
        return float(np.min(self.link_capacity[slots] - self.link_used[slots]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubstrateLedger(nodes={self.num_nodes}, links={self.num_links})"
        )


class LedgerRowCache:
    """Maps a fixed node ordering to ledger row indices, surviving rebuilds.

    The state encoder and the action space iterate substrate nodes in one
    frozen order.  This cache translates that order into ledger rows once per
    ledger build and detects the common identity case (node order == ledger
    order), which lets consumers skip the fancy-indexing gathers entirely.
    """

    def __init__(self, node_order: Sequence[int]) -> None:
        self.node_order: List[int] = list(node_order)
        self.identity = False
        self._rows: np.ndarray = np.zeros(0, dtype=np.int64)
        self._ledger: "SubstrateLedger" = None  # type: ignore[assignment]

    def get(self, network: "SubstrateNetwork") -> Tuple["SubstrateLedger", np.ndarray]:
        """The network's current ledger and this ordering's row indices."""
        ledger = network.ledger
        if self._ledger is not ledger:
            self._rows = np.array(
                [ledger.node_row[node_id] for node_id in self.node_order],
                dtype=np.int64,
            )
            self.identity = len(self._rows) == ledger.num_nodes and bool(
                np.array_equal(self._rows, np.arange(len(self._rows)))
            )
            self._ledger = ledger
        return ledger, self._rows
