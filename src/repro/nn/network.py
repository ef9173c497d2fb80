"""Multi-layer perceptrons with manual backpropagation.

The :class:`MLP` is the function approximator used by every deep agent in the
library (Q-networks, policy networks, value baselines).  It supports

* batched forward passes over ``(batch, features)`` arrays,
* backpropagation from an arbitrary output gradient,
* a convenience :meth:`fit_batch` for supervised regression steps,
* :meth:`apply_gradient_step` — the fused ``zero_grad → backward → clip →
  optimizer step`` sequence agents run once per minibatch,
* cloning and soft/hard parameter copying (for target networks), and
* save/load to ``.npz`` files.

All parameters live in one flat float64 vector and all gradients in another;
each layer's ``weights``/``biases``/``weight_grad``/``bias_grad`` are views
into them, so the optimizer updates the whole network in one pass.

>>> network = MLP([4, 32, 2], seed=0)
>>> outputs = network(np.zeros((64, 4)))          # (64, 2) batched forward
>>> loss = network.fit_batch(inputs, targets, optimizer=Adam(1e-3))
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.nn.layers import DenseLayer
from repro.nn.losses import Loss, MSELoss
from repro.nn.optimizers import Optimizer, ParameterGroup, clip_scale
from repro.utils.rng import RandomState, new_rng, spawn_rngs


class MLP:
    """A feed-forward network of :class:`DenseLayer` objects.

    Parameters
    ----------
    layer_sizes:
        Widths including input and output, e.g. ``[64, 128, 128, 10]``.
    hidden_activation:
        Activation used by all hidden layers.
    output_activation:
        Activation of the final layer (``identity`` for value heads).
    seed:
        Seed controlling weight initialization.
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        hidden_activation: str = "relu",
        output_activation: str = "identity",
        seed: RandomState = None,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("layer_sizes must contain at least input and output widths")
        if any(size <= 0 for size in layer_sizes):
            raise ValueError(f"all layer sizes must be positive, got {layer_sizes}")
        self.layer_sizes = list(int(s) for s in layer_sizes)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation

        rngs = spawn_rngs(seed, len(self.layer_sizes) - 1)
        self.layers: List[DenseLayer] = []
        for index in range(len(self.layer_sizes) - 1):
            is_output = index == len(self.layer_sizes) - 2
            self.layers.append(
                DenseLayer(
                    in_features=self.layer_sizes[index],
                    out_features=self.layer_sizes[index + 1],
                    activation=output_activation if is_output else hidden_activation,
                    seed=rngs[index],
                )
            )
        self._bind_storage()

    def _bind_storage(self) -> None:
        """Move every layer's arrays into one flat parameter and gradient vector.

        Layer ``i`` occupies ``weights_i.ravel()`` then ``biases_i`` in both
        vectors, in layer order.  The layers' current values are copied in.
        """
        # Rows of one allocation, like the optimizer state (see Optimizer._state_for);
        # the third row holds squared gradients while clipping.
        self._parameters, self._gradients, self._squared = np.empty(
            (3, self.parameter_count())
        )
        for layer, (weights, biases), (weight_grad, bias_grad) in zip(
            self.layers,
            self._layer_views(self._parameters),
            self._layer_views(self._gradients),
        ):
            layer.use_storage(weights, biases, weight_grad, bias_grad)
        self._flat_group: List[ParameterGroup] = [
            ({"parameters": self._parameters}, {"parameters": self._gradients})
        ]
        self._squared_views = [
            view for pair in self._layer_views(self._squared) for view in pair
        ]

    def _layer_views(self, flat: np.ndarray) -> List[tuple]:
        """Per-layer ``(weights, biases)``-shaped views of a flat vector."""
        views = []
        offset = 0
        for layer in self.layers:
            split = offset + layer.in_features * layer.out_features
            end = split + layer.out_features
            weights = flat[offset:split].reshape(layer.in_features, layer.out_features)
            views.append((weights, flat[split:end]))
            offset = end
        return views

    def __getstate__(self) -> Dict[str, object]:
        # Pickle and deepcopy carry each layer's arrays; the flat vectors are
        # rebuilt from them so the layers are views again afterwards.
        state = self.__dict__.copy()
        for key in ("_parameters", "_gradients", "_flat_group", "_squared_views", "_squared"):
            del state[key]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._bind_storage()

    # ------------------------------------------------------------------ #
    # Shapes
    # ------------------------------------------------------------------ #
    @property
    def input_dim(self) -> int:
        """Width of the input layer."""
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        """Width of the output layer."""
        return self.layer_sizes[-1]

    def parameter_count(self) -> int:
        """Total number of scalar parameters."""
        return sum(layer.parameter_count() for layer in self.layers)

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray, training: bool = False) -> np.ndarray:
        """Run a batched forward pass; accepts (batch, in) or (in,) inputs."""
        inputs = np.asarray(inputs, dtype=float)
        squeeze = inputs.ndim == 1
        outputs = np.atleast_2d(inputs)
        for layer in self.layers:
            outputs = layer.forward(outputs, training=training)
        if training:
            # Training-mode layer outputs are workspaces; hand out a copy.
            outputs = outputs.copy()
        return outputs[0] if squeeze else outputs

    __call__ = forward

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass (no caches stored)."""
        return self.forward(inputs, training=False)

    def backward(self, output_grad: np.ndarray) -> np.ndarray:
        """Backpropagate an output gradient, returning the input gradient."""
        return self._backpropagate(output_grad, input_grad=True)

    def _backpropagate(self, output_grad: np.ndarray, input_grad: bool) -> Optional[np.ndarray]:
        grad = np.atleast_2d(np.asarray(output_grad, dtype=float))
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        return self.layers[0].backward(grad, input_grad=input_grad)

    def zero_grad(self) -> None:
        """Reset accumulated gradients in every layer."""
        self._gradients.fill(0.0)

    def apply_gradient_step(
        self,
        output_grad: np.ndarray,
        optimizer: Optimizer,
        max_grad_norm: Optional[float] = None,
    ) -> None:
        """Backpropagate ``output_grad`` and apply one optimizer step.

        Consolidates the ``zero_grad → backward → clip → step`` sequence every
        agent update performs, so callers that compute their own output
        gradient (policy gradients, masked TD regression) need exactly one
        call after the training-mode forward pass.

        The step works on the flat vectors: one gradient fill, no input
        gradient for the first layer, and one optimizer update over the whole
        network.  The arithmetic is element-for-element that of the per-layer
        sequence (``clip_gradients`` then ``optimizer.step`` over
        :meth:`parameter_groups`), so the parameters are bitwise equal.
        """
        self._gradients.fill(0.0)
        self._backpropagate(output_grad, input_grad=False)
        if max_grad_norm is not None:
            self._clip_gradients(max_grad_norm)
        optimizer.step(self._flat_group)

    def _clip_gradients(self, max_norm: float) -> None:
        """:func:`clip_gradients` over the flat gradient vector.

        The norm keeps one partial sum per layer array, in layer order; a
        single sum over the flat vector would associate differently.
        """
        np.square(self._gradients, out=self._squared)
        _, scale = clip_scale(self._squared_views, max_norm)
        if scale is not None:
            self._gradients *= scale

    def parameter_groups(self) -> List[ParameterGroup]:
        """(parameters, gradients) pairs consumed by optimizers."""
        return [(layer.parameters(), layer.gradients()) for layer in self.layers]

    # ------------------------------------------------------------------ #
    # Supervised step
    # ------------------------------------------------------------------ #
    def fit_batch(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        optimizer: Optimizer,
        loss: Optional[Loss] = None,
        sample_weights: Optional[np.ndarray] = None,
        target_mask: Optional[np.ndarray] = None,
        max_grad_norm: Optional[float] = 10.0,
    ) -> float:
        """One gradient step of (optionally masked) regression.

        ``target_mask`` restricts the loss to selected output units — the DQN
        update only regresses the Q-value of the action actually taken, so
        the mask is 1 for that action's output and 0 elsewhere.
        """
        loss = loss or MSELoss()
        predictions = self.forward(inputs, training=True)
        predictions = np.atleast_2d(predictions)
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if target_mask is not None:
            target_mask = np.atleast_2d(np.asarray(target_mask, dtype=float))
            # Replace masked-out targets by the predictions so they contribute
            # zero error and zero gradient.
            targets = target_mask * targets + (1.0 - target_mask) * predictions
        value, grad = loss.value_and_grad(predictions, targets, sample_weights)
        self.apply_gradient_step(grad, optimizer, max_grad_norm)
        return value

    # ------------------------------------------------------------------ #
    # Parameter copying (target networks)
    # ------------------------------------------------------------------ #
    def get_parameters(self) -> List[Dict[str, np.ndarray]]:
        """Deep copies of all layer parameters."""
        return [
            {name: array.copy() for name, array in layer.parameters().items()}
            for layer in self.layers
        ]

    def set_parameters(self, parameters: List[Dict[str, np.ndarray]]) -> None:
        """Load parameters previously produced by :meth:`get_parameters`."""
        if len(parameters) != len(self.layers):
            raise ValueError(
                f"expected {len(self.layers)} layer parameter dicts, got {len(parameters)}"
            )
        for layer, params in zip(self.layers, parameters):
            layer.set_parameters(params)

    def copy_from(self, other: "MLP", tau: float = 1.0) -> None:
        """Copy (or Polyak-average) parameters from another network.

        ``tau = 1`` performs a hard copy; ``tau < 1`` performs the soft update
        ``θ ← τ θ_other + (1 − τ) θ`` used by soft target networks.
        """
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {tau}")
        if other.layer_sizes != self.layer_sizes:
            raise ValueError(
                f"architecture mismatch: {other.layer_sizes} vs {self.layer_sizes}"
            )
        self._parameters[...] = tau * other._parameters + (1.0 - tau) * self._parameters

    def clone(self, seed: RandomState = None) -> "MLP":
        """A new network with the same architecture and copied parameters."""
        other = MLP(
            self.layer_sizes,
            hidden_activation=self.hidden_activation,
            output_activation=self.output_activation,
            seed=seed if seed is not None else new_rng(0),
        )
        other.set_parameters(self.get_parameters())
        return other

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Persist architecture and parameters to a ``.npz`` file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays: Dict[str, np.ndarray] = {
            "layer_sizes": np.array(self.layer_sizes, dtype=int),
        }
        meta = np.array([self.hidden_activation, self.output_activation])
        arrays["activations"] = meta
        for index, layer in enumerate(self.layers):
            arrays[f"weights_{index}"] = layer.weights
            arrays[f"biases_{index}"] = layer.biases
        np.savez(path, **arrays)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "MLP":
        """Load a network previously produced by :meth:`save`."""
        data = np.load(Path(path), allow_pickle=False)
        layer_sizes = data["layer_sizes"].tolist()
        hidden_activation, output_activation = (str(x) for x in data["activations"])
        network = cls(
            layer_sizes,
            hidden_activation=hidden_activation,
            output_activation=output_activation,
            seed=0,
        )
        for index, layer in enumerate(network.layers):
            layer.set_parameters(
                {
                    "weights": data[f"weights_{index}"],
                    "biases": data[f"biases_{index}"],
                }
            )
        return network

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MLP(sizes={self.layer_sizes}, hidden={self.hidden_activation}, "
            f"output={self.output_activation}, params={self.parameter_count()})"
        )
