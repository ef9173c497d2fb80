"""Activation functions with forward and derivative evaluation.

Each activation is a small stateless object so that layers can store a
reference and the whole network remains picklable / serializable to JSON
(by name).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Type

import numpy as np


class Activation(ABC):
    """Interface: elementwise forward and derivative w.r.t. pre-activation.

    Every method takes an optional ``out`` array of ``z``'s shape; when given,
    the result is written there (and returned) instead of into a new array,
    which is how training-mode layers reuse their workspaces.  ``out`` must
    not alias ``z`` or ``output``.
    """

    name: str = "activation"

    @abstractmethod
    def forward(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply the activation elementwise to pre-activations ``z``."""

    @abstractmethod
    def derivative(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Elementwise derivative evaluated at pre-activations ``z``."""

    def derivative_from_output(
        self, z: np.ndarray, output: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Derivative given both ``z`` and the cached forward output.

        Activations whose derivative is cheaper to express in terms of their
        output (sigmoid, tanh) override this to skip recomputing the forward
        pass during backprop; the default falls back to :meth:`derivative`.
        """
        return self.derivative(z, out=out)


class Identity(Activation):
    """The identity activation (used by output layers of Q-networks)."""

    name = "identity"

    def forward(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            return z
        out[...] = z
        return out

    def derivative(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            return np.ones_like(z)
        out.fill(1.0)
        return out


class ReLU(Activation):
    """Rectified linear unit."""

    name = "relu"

    def forward(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        # The argument order decides the sign of zero: max(0.0, -0.0) is 0.0.
        return np.maximum(0.0, z, out=out)

    def derivative(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            out = np.empty_like(z)
        return np.greater(z, 0.0, out=out)


class LeakyReLU(Activation):
    """Leaky rectified linear unit with configurable negative slope."""

    name = "leaky_relu"

    def __init__(self, negative_slope: float = 0.01) -> None:
        if negative_slope < 0:
            raise ValueError("negative_slope must be >= 0")
        self.negative_slope = negative_slope

    def forward(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        out = np.multiply(self.negative_slope, z, out=out)
        np.copyto(out, z, where=z > 0.0)
        return out

    def derivative(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            out = np.empty_like(z)
        out.fill(self.negative_slope)
        np.copyto(out, 1.0, where=z > 0.0)
        return out


class Tanh(Activation):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.tanh(z, out=out)

    def derivative(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.derivative_from_output(z, np.tanh(z), out=out)

    def derivative_from_output(
        self, z: np.ndarray, output: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        out = np.square(output, out=out)
        return np.subtract(1.0, out, out=out)


class Sigmoid(Activation):
    """Logistic sigmoid."""

    name = "sigmoid"

    def forward(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        # Numerically stable piecewise formulation.
        if out is None:
            out = np.empty_like(z, dtype=float)
        positive = z >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
        exp_z = np.exp(z[~positive])
        out[~positive] = exp_z / (1.0 + exp_z)
        return out

    def derivative(self, z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return self.derivative_from_output(z, self.forward(z), out=out)

    def derivative_from_output(
        self, z: np.ndarray, output: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        out = np.subtract(1.0, output, out=out)
        return np.multiply(output, out, out=out)


_ACTIVATIONS: Dict[str, Type[Activation]] = {
    cls.name: cls for cls in (Identity, ReLU, LeakyReLU, Tanh, Sigmoid)
}


def get_activation(name: str) -> Activation:
    """Look up an activation by name (``relu``, ``tanh``, ``identity``, ...)."""
    try:
        return _ACTIVATIONS[name.lower()]()
    except KeyError as exc:
        raise ValueError(
            f"unknown activation {name!r}; available: {sorted(_ACTIVATIONS)}"
        ) from exc


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
