"""Bin-packing style baselines: first fit, best fit, and tier-restricted.

First fit and best fit treat nodes as bins ordered by id (first fit) or by
remaining slack after the allocation (best fit).  The tier-restricted
policies — cloud-only and edge-only — bound the comparison from the two
extremes of the geo-distribution trade-off: cloud-only has effectively
infinite capacity but pays the WAN latency on every chain; edge-only has the
best latency but saturates quickly.

All four speak the batched protocol: the shared per-request
``plan_assignment`` takes each policy's ``score_row`` (none for first-valid
rules) and ``tier_mask`` over ledger rows, and ``select_actions`` is the
vectorized lane kernel (first-valid or masked-argmin array expressions over
the ``(K, A)`` masks, with the tier policies folding the same tier masks in).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import (
    AssignmentPolicy,
    anchor_latency_row,
    first_valid_actions,
    lane_masks,
    lane_requests,
    masked_score_actions,
)
from repro.substrate.ledger import SubstrateLedger


class FirstFitPolicy(AssignmentPolicy):
    """Place each VNF on the first (lowest-id) node with enough capacity."""

    name = "first_fit"

    def select_actions(self, states=None, masks=None, greedy: bool = True) -> np.ndarray:
        """First valid node action per lane — one argmax over the mask batch."""
        lanes = self.bound_lanes
        masks = lane_masks(lanes, masks)
        context = self.bound_context
        if context is not None:
            return first_valid_actions(masks, context.active)
        _, active = lane_requests(lanes)
        return first_valid_actions(masks, active)


class BestFitPolicy(AssignmentPolicy):
    """Place each VNF on the feasible node left with the least slack.

    Classic best-fit packing: consolidating load onto already-busy nodes
    keeps other nodes free for large future requests, at the price of
    latency-agnostic choices.
    """

    name = "best_fit"

    def score_row(self, request, vnf_index, anchor, valid, network) -> np.ndarray:
        return _slack_row(request, vnf_index, network.ledger)

    def select_actions(self, states=None, masks=None, greedy: bool = True) -> np.ndarray:
        """Masked argmin over post-allocation slack, batched per lane."""
        lanes = self.bound_lanes
        masks = lane_masks(lanes, masks)
        context = self.bound_context
        if context is not None:
            # Same clamping as (node.available - demand).total(): free
            # capacity clamps at zero, then the per-dimension slack does too.
            free = np.maximum(context.capacity - context.used, 0.0)
            scores = np.maximum(free - context.demands[:, None, :], 0.0).sum(axis=2)
            return masked_score_actions(masks, scores, context.active)
        requests, active = lane_requests(lanes)
        scores = np.full((len(lanes), masks.shape[1] - 1), np.inf)
        for lane, env in enumerate(lanes):
            if active[lane]:
                scores[lane] = _slack_row(
                    requests[lane], env.vnf_index, env.network.ledger
                )
        return masked_score_actions(masks, scores, active)


def _slack_row(request, vnf_index: int, ledger) -> np.ndarray:
    """Slack left on every ledger row after hosting VNF ``vnf_index``."""
    demand = request.chain.vnf_at(vnf_index).demand_array_for(request.bandwidth_mbps)
    # Same clamping as (node.available - demand).total(): free capacity
    # clamps at zero, then the per-dimension slack does too.
    return np.maximum(ledger.node_available() - demand, 0.0).sum(axis=1)


class _TierRestrictedMixin:
    """Shared lane kernel plumbing for the tier-restricted policies."""

    def _tier_valid(self, lanes, masks: np.ndarray) -> np.ndarray:
        reject = masks.shape[1] - 1
        # Tier membership is topology-constant: stack it once per lane set.
        cached = getattr(self, "_tier_stack", None)
        if cached is None or cached[0] is not lanes:
            cached = (
                lanes,
                np.stack([self.tier_mask(env.network.ledger) for env in lanes]),
            )
            self._tier_stack = cached
        restricted = masks.copy()
        restricted[:, :reject] &= cached[1]
        return restricted


class CloudOnlyPolicy(_TierRestrictedMixin, AssignmentPolicy):
    """Host every VNF in the central cloud (latency-worst, capacity-best)."""

    name = "cloud_only"

    def tier_mask(self, ledger: SubstrateLedger) -> np.ndarray:
        return ledger.cloud_tier_mask

    def select_actions(self, states=None, masks=None, greedy: bool = True) -> np.ndarray:
        """First valid cloud-tier node action per lane."""
        lanes = self.bound_lanes
        masks = self._tier_valid(lanes, lane_masks(lanes, masks))
        context = self.bound_context
        if context is not None:
            return first_valid_actions(masks, context.active)
        _, active = lane_requests(lanes)
        return first_valid_actions(masks, active)


class EdgeOnlyPolicy(_TierRestrictedMixin, AssignmentPolicy):
    """Host every VNF on edge nodes near the ingress (latency-best, scarce)."""

    name = "edge_only"

    def tier_mask(self, ledger: SubstrateLedger) -> np.ndarray:
        return ledger.edge_tier_mask

    def score_row(self, request, vnf_index, anchor, valid, network) -> np.ndarray:
        return anchor_latency_row(anchor, valid, network)

    def select_actions(self, states=None, masks=None, greedy: bool = True) -> np.ndarray:
        """Masked argmin over anchor latency, restricted to edge nodes."""
        lanes = self.bound_lanes
        masks = self._tier_valid(lanes, lane_masks(lanes, masks))
        context = self.bound_context
        if context is not None:
            return masked_score_actions(masks, context.latency, context.active)
        _, active = lane_requests(lanes)
        scores = np.full((len(lanes), masks.shape[1] - 1), np.inf)
        for lane, env in enumerate(lanes):
            if active[lane]:
                scores[lane] = env.network.latency_row(env.anchor_node_id)
        return masked_score_actions(masks, scores, active)
