"""Dense layers with manual backpropagation.

The layer stores its parameters and, after a forward pass in training mode,
the cached inputs/pre-activations needed to compute gradients.  Parameters
and gradients are exposed as dictionaries so optimizers can treat networks
generically.

A standalone layer owns its four parameter/gradient arrays.  An
:class:`~repro.nn.network.MLP` moves them into views of its flat vectors
(:meth:`DenseLayer.use_storage`); assigning ``layer.weights = x`` (and the
other three) therefore copies ``x`` into the existing array rather than
rebinding the attribute, so the views stay bound.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

import numpy as np

from repro.nn.activations import Activation, Identity, get_activation
from repro.utils.rng import RandomState, new_rng


class _InPlaceArray:
    """Array attribute whose assignment copies into the existing array."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name
        self.slot = "_" + name

    def __get__(self, layer: Optional["DenseLayer"], owner: type):
        if layer is None:
            return self
        return layer.__dict__[self.slot]

    def __set__(self, layer: "DenseLayer", value: np.ndarray) -> None:
        current = layer.__dict__[self.slot]
        if value is current:  # ``layer.weights += x`` already wrote in place
            return
        value = np.asarray(value)
        if value.shape != current.shape:
            raise ValueError(
                f"{self.name} shape mismatch: {value.shape} vs {current.shape}"
            )
        current[...] = value


class _Workspace(NamedTuple):
    """Training-mode buffers of one layer for one batch size."""

    pre_activation: np.ndarray  # (batch, out)
    output: np.ndarray  # (batch, out)
    local_grad: np.ndarray  # (batch, out)
    weight_grad: np.ndarray  # (in, out): this batch's ``input.T @ local_grad``
    bias_grad: np.ndarray  # (out,): this batch's ``local_grad.sum(axis=0)``


class DenseLayer:
    """A fully connected layer ``y = activation(x W + b)``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    activation:
        An :class:`Activation` instance, an activation name, or ``None``
        for identity.
    seed:
        Seed for weight initialization (He-uniform for ReLU-family, Xavier
        otherwise).
    """

    weights = _InPlaceArray()
    biases = _InPlaceArray()
    weight_grad = _InPlaceArray()
    bias_grad = _InPlaceArray()

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: Optional[object] = "relu",
        seed: RandomState = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"layer dimensions must be positive, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        if activation is None:
            self.activation: Activation = Identity()
        elif isinstance(activation, Activation):
            self.activation = activation
        else:
            self.activation = get_activation(str(activation))

        rng = new_rng(seed)
        if self.activation.name in ("relu", "leaky_relu"):
            scale = np.sqrt(2.0 / in_features)
        else:
            scale = np.sqrt(1.0 / in_features)
        self._weights = rng.normal(0.0, scale, size=(in_features, out_features))
        self._biases = np.zeros(out_features)
        self._weight_grad = np.zeros_like(self._weights)
        self._bias_grad = np.zeros_like(self._biases)

        self._cached_input: Optional[np.ndarray] = None
        self._cached_pre_activation: Optional[np.ndarray] = None
        self._cached_output: Optional[np.ndarray] = None
        self._workspace: Optional[_Workspace] = None

    def use_storage(
        self,
        weights: np.ndarray,
        biases: np.ndarray,
        weight_grad: np.ndarray,
        bias_grad: np.ndarray,
    ) -> None:
        """Keep parameters and gradients in the given arrays from now on.

        The current values are copied in first.  A network passes views of
        its flat parameter and gradient vectors here.
        """
        for slot, array in (
            ("_weights", weights),
            ("_biases", biases),
            ("_weight_grad", weight_grad),
            ("_bias_grad", bias_grad),
        ):
            array[...] = self.__dict__[slot]
            self.__dict__[slot] = array

    def __getstate__(self) -> Dict[str, object]:
        # The workspace is scratch; the next training forward rebuilds it.
        state = self.__dict__.copy()
        state["_workspace"] = None
        return state

    def _workspace_for(self, batch: int) -> _Workspace:
        """The training buffers for ``batch`` rows, reallocated when it changes."""
        workspace = self._workspace
        if workspace is None or workspace.output.shape[0] != batch:
            shape = (batch, self.out_features)
            workspace = self._workspace = _Workspace(
                pre_activation=np.empty(shape),
                output=np.empty(shape),
                local_grad=np.empty(shape),
                weight_grad=np.empty_like(self._weights),
                bias_grad=np.empty_like(self._biases),
            )
        return workspace

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        """Compute the layer output for a batch of inputs (batch, in_features).

        In training mode the result is the layer's workspace: the next
        training-mode forward of the same batch size overwrites it.
        """
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        if inputs.shape[1] != self.in_features:
            raise ValueError(
                f"expected input width {self.in_features}, got {inputs.shape[1]}"
            )
        if not training:
            return self.activation.forward(inputs @ self._weights + self._biases)
        workspace = self._workspace_for(inputs.shape[0])
        pre_activation = np.matmul(inputs, self._weights, out=workspace.pre_activation)
        pre_activation += self._biases
        self._cached_input = inputs
        self._cached_pre_activation = pre_activation
        self._cached_output = self.activation.forward(pre_activation, out=workspace.output)
        return self._cached_output

    def backward(
        self, upstream_grad: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Backpropagate ``d loss / d output`` and return ``d loss / d input``.

        Parameter gradients are accumulated into ``weight_grad`` /
        ``bias_grad`` (callers zero them between updates via
        :meth:`zero_grad`).  With ``input_grad=False`` the input gradient is
        not computed and ``None`` is returned (the first layer of a network
        has no use for it).
        """
        if self._cached_input is None or self._cached_pre_activation is None:
            raise RuntimeError("backward() called before a training-mode forward()")
        upstream_grad = np.atleast_2d(np.asarray(upstream_grad, dtype=float))
        workspace = self._workspace_for(self._cached_input.shape[0])
        local_grad = self.activation.derivative_from_output(
            self._cached_pre_activation, self._cached_output, out=workspace.local_grad
        )
        np.multiply(upstream_grad, local_grad, out=local_grad)
        self._weight_grad += np.matmul(
            self._cached_input.T, local_grad, out=workspace.weight_grad
        )
        self._bias_grad += np.sum(local_grad, axis=0, out=workspace.bias_grad)
        if not input_grad:
            return None
        return local_grad @ self._weights.T

    def zero_grad(self) -> None:
        """Reset accumulated parameter gradients to zero."""
        self._weight_grad.fill(0.0)
        self._bias_grad.fill(0.0)

    # ------------------------------------------------------------------ #
    # Parameter access
    # ------------------------------------------------------------------ #
    def parameters(self) -> Dict[str, np.ndarray]:
        """Live references to the layer's parameters."""
        return {"weights": self.weights, "biases": self.biases}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Live references to the layer's accumulated gradients."""
        return {"weights": self.weight_grad, "biases": self.bias_grad}

    def set_parameters(self, params: Dict[str, np.ndarray]) -> None:
        """Copy parameter values from ``params`` (shapes must match)."""
        if params["weights"].shape != self.weights.shape:
            raise ValueError(
                f"weight shape mismatch: {params['weights'].shape} vs {self.weights.shape}"
            )
        if params["biases"].shape != self.biases.shape:
            raise ValueError(
                f"bias shape mismatch: {params['biases'].shape} vs {self.biases.shape}"
            )
        self.weights = params["weights"]
        self.biases = params["biases"]

    def parameter_count(self) -> int:
        """Total number of scalar parameters in the layer."""
        return self.weights.size + self.biases.size

    def config(self) -> Dict[str, object]:
        """Architecture description used by network serialization."""
        return {
            "in_features": self.in_features,
            "out_features": self.out_features,
            "activation": self.activation.name,
        }
