"""Call-boundary tracer for the end-to-end benchmark.

The tracer records spans from outside the program: it replaces public
methods of each layer with a timing wrapper for the duration of one traced
entry-point call and restores them afterwards.  Objects the benchmark holds
(agent, replay buffer, networks, the trainer's environment, the service's
admission controller and fallback chain, each tier's policy) are wrapped on
the instance; objects an entry point builds internally (the lane cores
inside ``evaluate_*``, ``Placement``, ``StateEncoder``) are wrapped on the
class.  No library code is changed.

Spans nest: a span is *top level* when no other wrapped call is open around
it, and the top-level total is what ``trace.attributed_share`` compares with
the entry point's wall time.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class SpanStats:
    """Accumulated calls of one wrapped boundary."""

    seconds: float = 0.0
    calls: int = 0
    #: Work items counted by the span's ``items`` callback (e.g. lanes stepped).
    items: int = 0
    #: Per-call durations, kept only for spans that report percentiles.
    samples: List[float] = field(default_factory=list)


class Tracer:
    """Wraps callables, accumulates per-span time and counts, then unwraps."""

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStats] = {}
        #: Time spent in spans that no other wrapped call encloses.
        self.top_level_s = 0.0
        self._depth = 0
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        items: Optional[Callable[[tuple, Any], int]] = None,
        samples: bool = False,
    ) -> None:
        """Time every call of ``owner.attr`` under span ``name``.

        ``owner`` may be an instance (the wrapper shadows the bound method),
        a class (the wrapper replaces the function, so every instance built
        while it is installed is traced) or a module (a module-level
        function).  ``items(args, result)`` returns the work items one call
        performed.
        """
        had_own = attr in vars(owner)
        previous = vars(owner).get(attr)
        original = getattr(owner, attr)
        stats = self.spans.setdefault(name, SpanStats())
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._depth += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._depth -= 1
            stats.seconds += elapsed
            stats.calls += 1
            if tracer._depth == 0:
                tracer.top_level_s += elapsed
            if samples:
                stats.samples.append(elapsed)
            if items is not None:
                stats.items += items(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, had_own, previous))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, most recent first."""
        while self._undo:
            owner, attr, had_own, previous = self._undo.pop()
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    def span(self, name: str) -> SpanStats:
        """The stats of ``name`` (empty when the span never ran)."""
        return self.spans.get(name, SpanStats())


def lanes_of_instance(args: tuple, result: Any) -> int:
    """Items callback for a class-wrapped ``step``: the stepping core's lanes."""
    return args[0].num_lanes


def truthy(args: tuple, result: Any) -> int:
    """Items callback counting calls that returned a true value."""
    return 1 if result else 0


# ---------------------------------------------------------------------- #
# Wrap plans
# ---------------------------------------------------------------------- #
def wrap_common(tracer: Tracer) -> None:
    """Class-level wraps installed for every workload.

    ``Placement`` and ``StateEncoder`` are built inside the environments and
    the serving loop, and ``make_vec_env`` is called inside ``evaluate_*``.
    """
    import repro.experiments.runner as runner
    from repro.core.state import StateEncoder
    from repro.nfv.placement import Placement

    tracer.wrap(Placement, "is_feasible", "nfv.is_feasible")
    tracer.wrap(Placement, "commit", "nfv.commit")
    tracer.wrap(Placement, "release", "nfv.release")
    tracer.wrap(StateEncoder, "encode", "core.encode")
    tracer.wrap(runner, "make_vec_env", "core.make_vec_env")


def wrap_agent(tracer: Tracer, agent: Any) -> None:
    """Instance wraps on a DQN agent, its replay buffer and its networks."""
    tracer.wrap(agent, "select_actions", "agents.select")
    tracer.wrap(agent, "observe_batch", "agents.observe")
    tracer.wrap(agent, "update", "agents.update")
    tracer.wrap(agent.replay, "sample", "agents.replay_sample")
    for network in (agent.online_network, agent.target_network):
        tracer.wrap(network, "forward", "nn.forward")
    tracer.wrap(agent.online_network, "apply_gradient_step", "nn.grad_step")


def wrap_core_instance(tracer: Tracer, venv: Any) -> None:
    """Instance wraps on a lane core the benchmark holds (the trainer's venv)."""
    from repro.core.soa import SoAVecPlacementEnv

    prefix = "core.soa" if isinstance(venv, SoAVecPlacementEnv) else "core.ref"
    lanes = venv.num_lanes
    tracer.wrap(
        venv, "step", f"{prefix}.step",
        items=lambda args, result: lanes, samples=True,
    )
    tracer.wrap(venv, "valid_action_masks", f"{prefix}.masks")
    tracer.wrap(venv, "reset", f"{prefix}.reset")
    tracer.wrap(venv, "reset_lane", f"{prefix}.reset")


def wrap_core_classes(tracer: Tracer) -> None:
    """Class wraps on both lane cores, for cores built inside ``evaluate_*``."""
    from repro.core.soa import SoAVecPlacementEnv
    from repro.core.vecenv import VecPlacementEnv

    for cls, prefix in ((SoAVecPlacementEnv, "core.soa"), (VecPlacementEnv, "core.ref")):
        tracer.wrap(
            cls, "step", f"{prefix}.step", items=lanes_of_instance, samples=True
        )
        tracer.wrap(cls, "valid_action_masks", f"{prefix}.masks")
        tracer.wrap(cls, "reset", f"{prefix}.reset")
        tracer.wrap(cls, "reset_lane", f"{prefix}.reset")


def wrap_service(tracer: Tracer, service: Any) -> None:
    """Instance wraps on the serving loop's admission, chain and tier policies."""
    tracer.wrap(service.admission, "admit", "serving.admit", items=truthy)
    tracer.wrap(service.chain, "decide", "serving.decide", samples=True)
    for index, tier in enumerate(service.chain.tiers):
        tracer.wrap(tier.policy, "place", f"baselines.tier{index}.place")


def lane_steps(tracer: Tracer) -> int:
    """Lane transitions performed by every traced lane core."""
    return tracer.span("core.soa.step").items + tracer.span("core.ref.step").items
