"""Greedy placement heuristics.

Two standard greedy rules appear in virtually every VNF-placement evaluation:

* **greedy-nearest** — host each VNF on the feasible node with the lowest
  latency from the current anchor (latency-first, ignores load), and
* **greedy-least-loaded** — host each VNF on the feasible node with the most
  free capacity (load-first, ignores latency).

Both are strong at one end of the latency/utilization trade-off and weak at
the other, which is exactly the gap the learned policy closes.

Each policy supplies one ``score_row`` over ledger rows, which the shared
per-request ``plan_assignment`` minimizes over the can-host row, and a
vectorized ``select_actions`` that scores every substrate node of every lane
in one ``(K, N)`` array expression and takes a masked argmin — decision-for-
decision identical to the per-lane reference (the equivalence suite asserts
it bitwise).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import (
    AssignmentPolicy,
    anchor_latency_row,
    lane_masks,
    lane_requests,
    masked_score_actions,
)


class GreedyNearestPolicy(AssignmentPolicy):
    """Latency-greedy: pick the closest feasible node for every VNF."""

    name = "greedy_nearest"

    def score_row(self, request, vnf_index, anchor, valid, network) -> np.ndarray:
        return anchor_latency_row(anchor, valid, network)

    def select_actions(self, states=None, masks=None, greedy: bool = True) -> np.ndarray:
        """Masked argmin over each lane's anchor latency row."""
        lanes = self.bound_lanes
        masks = lane_masks(lanes, masks)
        context = self.bound_context
        if context is not None:
            return masked_score_actions(masks, context.latency, context.active)
        requests, active = lane_requests(lanes)
        scores = np.full((len(lanes), masks.shape[1] - 1), np.inf)
        for lane, env in enumerate(lanes):
            if active[lane]:
                scores[lane] = env.network.latency_row(env.anchor_node_id)
        return masked_score_actions(masks, scores, active)


class GreedyLeastLoadedPolicy(AssignmentPolicy):
    """Load-greedy: pick the feasible node with the lowest utilization."""

    name = "greedy_least_loaded"

    def score_row(self, request, vnf_index, anchor, valid, network) -> np.ndarray:
        return network.ledger.max_utilization()

    def select_actions(self, states=None, masks=None, greedy: bool = True) -> np.ndarray:
        """Masked argmin over each lane's bottleneck-utilization column."""
        lanes = self.bound_lanes
        masks = lane_masks(lanes, masks)
        context = self.bound_context
        if context is not None:
            # Same expression as ledger.max_utilization, stacked over lanes.
            utilization = (context.used / context.capacity_safe).max(axis=2)
            return masked_score_actions(masks, utilization, context.active)
        requests, active = lane_requests(lanes)
        scores = np.full((len(lanes), masks.shape[1] - 1), np.inf)
        for lane, env in enumerate(lanes):
            if active[lane]:
                scores[lane] = env.network.ledger.max_utilization()
        return masked_score_actions(masks, scores, active)


class GreedyCheapestPolicy(AssignmentPolicy):
    """Cost-greedy: pick the feasible node with the lowest hosting cost."""

    name = "greedy_cheapest"

    def score_row(self, request, vnf_index, anchor, valid, network) -> np.ndarray:
        return _hosting_cost_row(request, vnf_index, network.ledger)

    def select_actions(self, states=None, masks=None, greedy: bool = True) -> np.ndarray:
        """Masked argmin over each lane's per-node hosting cost."""
        lanes = self.bound_lanes
        masks = lane_masks(lanes, masks)
        context = self.bound_context
        if context is not None:
            # Same expression as ComputeNode.hosting_cost: demand . cost * t.
            scores = (context.cost_per_unit * context.demands[:, None, :]).sum(
                axis=2
            ) * context.holding[:, None]
            return masked_score_actions(masks, scores, context.active)
        requests, active = lane_requests(lanes)
        scores = np.full((len(lanes), masks.shape[1] - 1), np.inf)
        for lane, env in enumerate(lanes):
            if active[lane]:
                scores[lane] = _hosting_cost_row(
                    requests[lane], env.vnf_index, env.network.ledger
                )
        return masked_score_actions(masks, scores, active)


def _hosting_cost_row(request, vnf_index: int, ledger) -> np.ndarray:
    """Cost of hosting VNF ``vnf_index`` of ``request`` on every ledger row."""
    demand = request.chain.vnf_at(vnf_index).demand_array_for(request.bandwidth_mbps)
    # Same expression as ComputeNode.hosting_cost: demand . cost * t.
    return (ledger.node_cost_per_unit * demand).sum(axis=1) * request.holding_time
