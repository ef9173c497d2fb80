"""First-order optimizers operating on parameter/gradient dictionaries.

Optimizers are decoupled from network classes: they receive a list of
``(parameters, gradients)`` dictionaries — per layer from
:meth:`repro.nn.network.MLP.parameter_groups`, or one flat group from
:meth:`~repro.nn.network.MLP.apply_gradient_step` — and update the parameter
arrays in place.  Per-parameter state (momenta, second moments, and two work
vectors the update writes through) is keyed by ``(group index, parameter
name)`` and allocated on the first step.

The update expressions are evaluated in a fixed order with no algebraic
rewriting: every parameter is bit-for-bit what the textbook expression gives.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.utils.validation import check_non_negative, check_positive

ParameterGroup = Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]
StateKey = Tuple[int, str]


class Optimizer(ABC):
    """Interface of all optimizers."""

    #: Zero-initialized state arrays kept per parameter (momenta etc.).
    moments: int = 0

    def __init__(self, learning_rate: float) -> None:
        check_positive(learning_rate, "learning_rate")
        self.learning_rate = learning_rate
        self.steps = 0
        self._state: Dict[StateKey, Tuple[np.ndarray, ...]] = {}

    @abstractmethod
    def _update_parameter(
        self, key: StateKey, parameter: np.ndarray, gradient: np.ndarray
    ) -> None:
        """Apply one update to a single parameter array in place."""

    def _state_for(self, key: StateKey, parameter: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``moments`` zeroed arrays then two work vectors, made on first use.

        They are the rows of one allocation: fewer long-lived heap chunks
        measurably lower the process's peak resident memory.
        """
        state = self._state.get(key)
        if state is None:
            block = np.zeros((self.moments + 2,) + parameter.shape, dtype=parameter.dtype)
            state = self._state[key] = tuple(block)
        return state

    def step(self, groups: List[ParameterGroup]) -> None:
        """Apply one optimization step over all parameter groups."""
        self.steps += 1
        for index, (parameters, gradients) in enumerate(groups):
            for name, parameter in parameters.items():
                gradient = gradients[name]
                self._update_parameter((index, name), parameter, gradient)

    def state_size(self) -> int:
        """Number of per-parameter state arrays held (used in tests)."""
        return self.moments * len(self._state)


class SGD(Optimizer):
    """Plain stochastic gradient descent, optionally with momentum."""

    def __init__(self, learning_rate: float = 1e-2, momentum: float = 0.0) -> None:
        super().__init__(learning_rate)
        check_non_negative(momentum, "momentum")
        if momentum >= 1.0:
            raise ValueError(f"momentum must be < 1, got {momentum}")
        self.momentum = momentum
        self.moments = 1 if momentum > 0.0 else 0

    def _update_parameter(self, key, parameter, gradient) -> None:
        state = self._state_for(key, parameter)
        step = state[self.moments]
        np.multiply(self.learning_rate, gradient, out=step)
        if self.moments:
            velocity = state[0]
            velocity *= self.momentum
            velocity -= step
            parameter += velocity
        else:
            parameter -= step


class RMSProp(Optimizer):
    """RMSProp: scale updates by a running average of squared gradients."""

    moments = 1

    def __init__(
        self,
        learning_rate: float = 1e-3,
        decay: float = 0.99,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {decay}")
        check_positive(epsilon, "epsilon")
        self.decay = decay
        self.epsilon = epsilon

    def _update_parameter(self, key, parameter, gradient) -> None:
        square_avg, step, denominator = self._state_for(key, parameter)
        # square_avg = decay * square_avg + (1 - decay) * g**2
        square_avg *= self.decay
        np.square(gradient, out=step)
        np.multiply(1.0 - self.decay, step, out=step)
        square_avg += step
        # parameter -= (lr * g) / (sqrt(square_avg) + eps)
        np.multiply(self.learning_rate, gradient, out=step)
        np.sqrt(square_avg, out=denominator)
        denominator += self.epsilon
        step /= denominator
        parameter -= step


class Adam(Optimizer):
    """Adam with bias-corrected first and second moment estimates."""

    moments = 2

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0:
            raise ValueError(f"beta1 must be in [0, 1), got {beta1}")
        if not 0.0 <= beta2 < 1.0:
            raise ValueError(f"beta2 must be in [0, 1), got {beta2}")
        check_positive(epsilon, "epsilon")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon

    def _update_parameter(self, key, parameter, gradient) -> None:
        first, second, step, denominator = self._state_for(key, parameter)
        # first = beta1 * first + (1 - beta1) * g
        first *= self.beta1
        np.multiply(1.0 - self.beta1, gradient, out=step)
        first += step
        # second = beta2 * second + (1 - beta2) * g**2
        second *= self.beta2
        np.square(gradient, out=step)
        np.multiply(1.0 - self.beta2, step, out=step)
        second += step
        # Bias correction uses the global step count, which is incremented in
        # step() before parameter updates, so it is always >= 1 here.
        # parameter -= (lr * first_hat) / (sqrt(second_hat) + eps)
        np.divide(first, 1.0 - self.beta1**self.steps, out=step)
        np.divide(second, 1.0 - self.beta2**self.steps, out=denominator)
        np.sqrt(denominator, out=denominator)
        denominator += self.epsilon
        np.multiply(self.learning_rate, step, out=step)
        step /= denominator
        parameter -= step


def get_optimizer(name: str, learning_rate: float = 1e-3, **kwargs) -> Optimizer:
    """Look up an optimizer by name (``sgd``, ``rmsprop``, ``adam``)."""
    name = name.lower()
    if name == "sgd":
        return SGD(learning_rate, **kwargs)
    if name == "rmsprop":
        return RMSProp(learning_rate, **kwargs)
    if name == "adam":
        return Adam(learning_rate, **kwargs)
    raise ValueError(
        f"unknown optimizer {name!r}; available: ['sgd', 'rmsprop', 'adam']"
    )


def clip_gradients(groups: List[ParameterGroup], max_norm: float) -> float:
    """Globally clip gradients to ``max_norm`` (L2) and return the raw norm."""
    gradients = [gradient for _, grads in groups for gradient in grads.values()]
    norm, scale = clip_scale((np.square(gradient) for gradient in gradients), max_norm)
    if scale is not None:
        for gradient in gradients:
            gradient *= scale
    return norm


def clip_scale(
    squared_gradients: Iterable[np.ndarray], max_norm: float
) -> Tuple[float, Optional[float]]:
    """Global L2 norm of squared gradient arrays and the factor that clips it.

    The norm sums one partial ``np.sum`` per array, in the given order; the
    factor is ``None`` when the norm is already within ``max_norm``.
    """
    check_positive(max_norm, "max_norm")
    total = 0.0
    for squared in squared_gradients:
        total += float(np.sum(squared))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        return norm, max_norm / norm
    return norm, None
