"""Shared helpers for the heuristic placement baselines.

Besides the per-request helpers (`build_if_feasible`, `can_host_row`,
`hosting_candidates`, `latency_of_partial`) this module provides the building
blocks of the batched policy protocol:

* :class:`AssignmentPolicy` — base class for heuristics that decide a node
  assignment per request (``plan_assignment`` is primary, ``place`` derived);
  its shared planner takes one :func:`first_minimum` per VNF over ledger rows,
* :func:`lane_masks` / :func:`masked_score_actions` / :func:`first_valid_actions`
  — array kernels that turn per-lane score rows plus ``(K, A)`` validity
  masks into one action per vectorized-environment lane, matching the
  per-request reference decisions bitwise (first-minimum tie-breaking in
  ledger node order, exactly like ``min()`` over ``hosting_candidates``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nfv.placement import Placement
from repro.nfv.sfc import SFCRequest
from repro.sim.simulation import PlacementPolicy
from repro.substrate.ledger import CAPACITY_TOL, SubstrateLedger
from repro.substrate.network import NoRouteError, SubstrateNetwork


def build_if_feasible(
    request: SFCRequest,
    assignment: Sequence[int],
    network: SubstrateNetwork,
) -> Optional[Placement]:
    """Route ``assignment`` and return the placement only if it is feasible."""
    try:
        placement = Placement.build(request, assignment, network)
    except NoRouteError:
        return None
    if not placement.is_feasible(network):
        return None
    return placement


def can_host_row(
    request: SFCRequest, vnf_index: int, network: SubstrateNetwork
) -> np.ndarray:
    """Which ledger rows can host VNF ``vnf_index`` of ``request``, ``(N,)``.

    :meth:`ComputeNode.can_host`'s exact expression, ``used + demand <= cap +
    tol``, applied elementwise.  :meth:`SubstrateLedger.can_host_all` computes
    ``demand <= (cap + tol) - used`` instead, which disagrees at ulp
    boundaries, so per-request planning does not use it.
    """
    ledger = network.ledger
    demand = request.chain.vnf_at(vnf_index).demand_array_for(request.bandwidth_mbps)
    return ((ledger.node_used + demand) <= ledger.node_capacity + CAPACITY_TOL).all(
        axis=1
    )


def hosting_candidates(
    request: SFCRequest, vnf_index: int, network: SubstrateNetwork
) -> List[int]:
    """Nodes with enough free capacity for VNF ``vnf_index``, in ledger order."""
    node_ids = network.ledger.node_ids
    rows = np.flatnonzero(can_host_row(request, vnf_index, network))
    return [node_ids[row] for row in rows.tolist()]


def anchor_latency_row(
    anchor: int, valid: np.ndarray, network: SubstrateNetwork
) -> np.ndarray:
    """Routed latency from ``anchor`` to every ``valid`` ledger row.

    Raises :class:`NoRouteError` when any valid row is unreachable, exactly
    when :meth:`SubstrateNetwork.latency_between` would for that candidate.
    Dense routing reads one matrix row; the other routing modes query
    ``latency_between`` per valid row and leave the rest at ``inf``.
    """
    node_ids = network.ledger.node_ids
    if network.routing != "dense":
        latency = np.full(len(node_ids), np.inf)
        for row in np.flatnonzero(valid).tolist():
            latency[row] = network.latency_between(anchor, node_ids[row])
        return latency
    latency = network.latency_row(anchor)
    unreachable = valid & (latency == np.inf)
    if unreachable.any():
        target = node_ids[int(unreachable.argmax())]
        raise NoRouteError(f"no route between {anchor} and {target}")
    return latency


def latency_of_partial(
    request: SFCRequest,
    assignment: Sequence[int],
    network: SubstrateNetwork,
) -> float:
    """End-to-end latency of a (possibly partial) assignment.

    Charges propagation plus processing along the placed prefix, and — once
    the assignment covers the whole chain — the egress segment to the
    request's destination node, matching
    :meth:`~repro.nfv.placement.Placement.end_to_end_latency_ms` exactly on
    complete assignments.  (Omitting the egress term underestimates full
    chains with an explicit destination, which lets pruning heuristics
    over-admit requests that the placement-level SLA check then rejects.)
    """
    total = 0.0
    anchor = request.source_node_id
    for index, node_id in enumerate(assignment):
        total += network.latency_between(anchor, node_id)
        total += request.chain.vnf_at(index).processing_delay_ms
        anchor = node_id
    if (
        len(assignment) == request.num_vnfs
        and request.destination_node_id is not None
    ):
        total += network.latency_between(anchor, request.destination_node_id)
    return total


class AssignmentPolicy(PlacementPolicy):
    """Base for heuristics whose primary decision is a node assignment.

    :meth:`place` is derived by routing and feasibility-checking the planned
    assignment.  This inverts the default
    :class:`~repro.sim.simulation.PlacementPolicy` orientation so the batched
    protocol's reference backend never builds placements it does not need.

    The shared :meth:`plan_assignment` plans one VNF at a time over ledger
    rows: the :func:`can_host_row` (AND the policy's :meth:`tier_mask`), then
    the :func:`first_minimum` of :meth:`score_row` over it — the same tie
    rule as ``min()`` over the ordered candidate list.  Policies that plan whole
    chains at once override :meth:`plan_assignment` instead.
    """

    def tier_mask(self, ledger: SubstrateLedger) -> Optional[np.ndarray]:
        """Ledger rows this policy may host on, or ``None`` for every row."""
        return None

    def score_row(
        self,
        request: SFCRequest,
        vnf_index: int,
        anchor: int,
        valid: np.ndarray,
        network: SubstrateNetwork,
    ) -> Optional[np.ndarray]:
        """``(N,)`` scores of hosting VNF ``vnf_index`` after ``anchor``.

        Only ``valid`` rows are compared; ``None`` takes the first valid row.
        """
        return None

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        """The node assignment this policy chooses, or ``None`` to reject."""
        ledger = network.ledger
        tier = self.tier_mask(ledger)
        assignment: List[int] = []
        anchor = request.source_node_id
        for vnf_index in range(request.num_vnfs):
            valid = can_host_row(request, vnf_index, network)
            if tier is not None:
                valid &= tier
            row = int(valid.argmax())
            if not valid[row]:
                return None
            scores = self.score_row(request, vnf_index, anchor, valid, network)
            if scores is not None:
                row = first_minimum(valid, scores, row)
            anchor = ledger.node_ids[row]
            assignment.append(anchor)
        return tuple(assignment)

    def place(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Placement]:
        assignment = self.plan_assignment(request, network)
        if assignment is None:
            return None
        return build_if_feasible(request, assignment, network)


def lane_masks(lanes: Sequence, masks: Optional[np.ndarray]) -> np.ndarray:
    """The ``(K, A)`` validity masks for ``lanes``, computing them if absent."""
    if masks is None:
        return np.stack([env.valid_action_mask() for env in lanes])
    masks = np.asarray(masks, dtype=bool)
    return masks if masks.ndim == 2 else np.atleast_2d(masks)


def first_minimum(
    valid: np.ndarray,
    scores: np.ndarray,
    first_valid: Union[int, np.ndarray, None] = None,
) -> Union[int, np.ndarray]:
    """First minimum of ``scores`` over the ``valid`` entries of the last axis.

    The tie rule of every planner and lane kernel, the same as ``min()``
    over an ordered candidate list: ties go to the lowest index, and where
    every valid score is infinite the first valid index wins.  Takes one
    ``(N,)`` row (returns an ``int``) or a ``(K, N)`` batch (returns ``(K,)``
    indices).  ``first_valid`` overrides that fallback index (by default
    ``valid.argmax(axis=-1)``); rows without a valid entry return it.
    """
    # repro-lint: readonly=valid,scores
    masked = np.where(valid, scores, np.inf)
    best = masked.argmin(axis=-1)
    if masked.ndim == 1:
        if masked[best] < np.inf:
            return int(best)
        return int(valid.argmax() if first_valid is None else first_valid)
    if first_valid is None:
        first_valid = valid.argmax(axis=-1)
    finite = masked[np.arange(len(masked)), best] < np.inf
    return np.where(finite, best, first_valid)


def masked_score_actions(
    masks: np.ndarray, scores: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Lowest-score valid node action per lane (reject when none is valid).

    ``scores`` is ``(K, num_nodes)`` in action order; ``active`` flags lanes
    with a request in flight.  Ties resolve by :func:`first_minimum`.  The
    last mask column is the always-valid reject action, so ``argmax`` over a
    whole mask row is the first valid node, or reject when there is none.
    """
    # repro-lint: readonly=masks,scores,active
    reject = masks.shape[1] - 1
    choice = first_minimum(masks[:, :reject], scores, masks.argmax(axis=1))
    return np.where(active, choice, reject)


def first_valid_actions(masks: np.ndarray, active: np.ndarray) -> np.ndarray:
    """First (lowest-index) valid node action per lane, reject when none.

    Like :func:`masked_score_actions`, relies on the always-valid reject
    action in the last mask column.
    """
    # repro-lint: readonly=masks,active
    return np.where(active, masks.argmax(axis=1), masks.shape[1] - 1)


def lane_requests(lanes: Sequence) -> Tuple[List, np.ndarray]:
    """Per-lane current requests and the boolean active-lane vector."""
    requests = [env.current_request for env in lanes]
    active = np.array([request is not None for request in requests], dtype=bool)
    return requests, active
