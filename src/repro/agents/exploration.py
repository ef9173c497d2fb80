"""Exploration schedules and action-selection strategies."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.nn.activations import softmax
from repro.utils.rng import RandomState, new_rng
from repro.utils.validation import check_non_negative, check_positive, check_probability


class ExplorationSchedule(ABC):
    """A time-varying exploration parameter (epsilon, temperature, ...)."""

    @abstractmethod
    def value(self, step: int) -> float:
        """The exploration parameter at training step ``step``."""

    def __call__(self, step: int) -> float:
        return self.value(step)


class ConstantSchedule(ExplorationSchedule):
    """A schedule that always returns the same value."""

    def __init__(self, constant: float) -> None:
        check_non_negative(constant, "constant")
        self.constant = constant

    def value(self, step: int) -> float:
        return self.constant


class LinearDecaySchedule(ExplorationSchedule):
    """Linear decay from ``start`` to ``end`` over ``decay_steps`` steps."""

    def __init__(self, start: float, end: float, decay_steps: int) -> None:
        check_non_negative(start, "start")
        check_non_negative(end, "end")
        check_positive(decay_steps, "decay_steps")
        if end > start:
            raise ValueError("end must be <= start for a decaying schedule")
        self.start = start
        self.end = end
        self.decay_steps = decay_steps

    def value(self, step: int) -> float:
        if step >= self.decay_steps:
            return self.end
        fraction = step / self.decay_steps
        return self.start + fraction * (self.end - self.start)


class ExponentialDecaySchedule(ExplorationSchedule):
    """Exponential decay ``start * decay_rate**step`` floored at ``end``."""

    def __init__(self, start: float, end: float, decay_rate: float) -> None:
        check_non_negative(start, "start")
        check_non_negative(end, "end")
        if not 0.0 < decay_rate < 1.0:
            raise ValueError(f"decay_rate must be in (0, 1), got {decay_rate}")
        if end > start:
            raise ValueError("end must be <= start for a decaying schedule")
        self.start = start
        self.end = end
        self.decay_rate = decay_rate

    def value(self, step: int) -> float:
        return max(self.end, self.start * self.decay_rate**step)


class EpsilonGreedy:
    """Epsilon-greedy selection over (masked) action values."""

    def __init__(
        self,
        schedule: Optional[ExplorationSchedule] = None,
        seed: RandomState = None,
    ) -> None:
        self.schedule = schedule or LinearDecaySchedule(1.0, 0.05, 10_000)
        self._rng = new_rng(seed)

    def select(
        self,
        q_values: np.ndarray,
        step: int,
        mask: Optional[np.ndarray] = None,
        greedy: bool = False,
    ) -> int:
        """Pick an action index from ``q_values``.

        ``mask`` is a boolean array of valid actions; invalid actions are
        never selected, neither greedily nor during exploration.
        """
        q_values = np.asarray(q_values, dtype=float).ravel()
        valid = _valid_indices(q_values.shape[0], mask)
        epsilon = 0.0 if greedy else self.schedule.value(step)
        check_probability(epsilon, "epsilon")
        if not greedy and self._rng.uniform() < epsilon:
            return int(valid[int(self._rng.integers(0, valid.size))])
        masked_q = np.full_like(q_values, -np.inf)
        masked_q[valid] = q_values[valid]
        best = np.flatnonzero(masked_q == masked_q.max())
        # Same draw as ``rng.choice(best)``, without its argument checks.
        return int(best[int(self._rng.integers(0, best.size))])


    def select_batch(
        self,
        q_values: np.ndarray,
        step: int,
        masks: Optional[np.ndarray] = None,
        greedy: bool = False,
    ) -> np.ndarray:
        """Vectorized epsilon-greedy over a ``(K, A)`` batch of Q-rows.

        One epsilon draw, one exploration draw and one tie-break draw are made
        per row, all in single vectorized calls, so selecting for K lanes costs
        O(K·A) array work instead of K Python-level selections.  Returns a
        ``(K,)`` integer action array.
        """
        # repro-lint: readonly=masks
        q_values = np.atleast_2d(np.asarray(q_values, dtype=float))
        valid = _valid_mask_batch(q_values.shape, masks)
        epsilon = 0.0 if greedy else self.schedule.value(step)
        check_probability(epsilon, "epsilon")

        masked_q = np.where(valid, q_values, -np.inf)
        best = masked_q == masked_q.max(axis=1, keepdims=True)
        actions = _choice_per_row(self._rng, best)
        if epsilon > 0.0:
            explore = self._rng.random(q_values.shape[0]) < epsilon
            if explore.any():
                random_actions = _choice_per_row(self._rng, valid)
                actions = np.where(explore, random_actions, actions)
        return actions


class BoltzmannExploration:
    """Softmax (Boltzmann) selection over masked action values."""

    def __init__(
        self,
        temperature_schedule: Optional[ExplorationSchedule] = None,
        seed: RandomState = None,
    ) -> None:
        self.schedule = temperature_schedule or ConstantSchedule(1.0)
        self._rng = new_rng(seed)

    def select(
        self,
        q_values: np.ndarray,
        step: int,
        mask: Optional[np.ndarray] = None,
        greedy: bool = False,
    ) -> int:
        """Sample an action with probability proportional to exp(Q / T)."""
        # repro-lint: readonly=mask
        q_values = np.asarray(q_values, dtype=float).ravel()
        valid = _valid_indices(q_values.shape[0], mask)
        if greedy:
            masked_q = np.full_like(q_values, -np.inf)
            masked_q[valid] = q_values[valid]
            return int(np.argmax(masked_q))
        temperature = max(1e-6, self.schedule.value(step))
        logits = np.full_like(q_values, -np.inf)
        logits[valid] = q_values[valid] / temperature
        probabilities = softmax(logits)
        return int(self._rng.choice(len(q_values), p=probabilities))


def _valid_mask_batch(shape: tuple, masks: Optional[np.ndarray]) -> np.ndarray:
    """A boolean ``(K, A)`` validity mask; with no masks, everything is valid."""
    if masks is None:
        return np.ones(shape, dtype=bool)
    masks = np.atleast_2d(np.asarray(masks, dtype=bool))
    if masks.shape != shape:
        raise ValueError(
            f"masks shape {masks.shape} does not match Q-value shape {shape}"
        )
    rows_without_actions = ~masks.any(axis=1)
    if rows_without_actions.any():
        lanes = np.flatnonzero(rows_without_actions).tolist()
        raise ValueError(f"action mask excludes every action in lanes {lanes}")
    return masks


def _choice_per_row(rng: np.random.Generator, candidates: np.ndarray) -> np.ndarray:
    """One uniformly random True column per row of a boolean ``(K, A)`` array.

    Implemented without a Python loop: draw one uniform per row, scale it by
    the row's candidate count, and find the matching candidate through the
    row-wise cumulative count.
    """
    counts = candidates.sum(axis=1)
    draws = (rng.random(candidates.shape[0]) * counts).astype(int)
    cumulative = candidates.cumsum(axis=1)
    return (cumulative > draws[:, None]).argmax(axis=1)


def _valid_indices(num_actions: int, mask: Optional[np.ndarray]) -> np.ndarray:
    """Indices of valid actions; with no mask, every action is valid."""
    if mask is None:
        return np.arange(num_actions)
    mask = np.asarray(mask, dtype=bool).ravel()
    if mask.shape[0] != num_actions:
        raise ValueError(
            f"mask length {mask.shape[0]} does not match action count {num_actions}"
        )
    valid = np.flatnonzero(mask)
    if valid.size == 0:
        raise ValueError("action mask excludes every action")
    return valid
