"""Bitwise oracle for ``repro.nn``'s training step, and parameter aliasing.

The oracle is a textbook MLP kept in plain per-layer arrays: one
``x @ W + b`` per layer, the backward pass written out, the global-norm
clip as one ``np.sum(g**2)`` per array, and the Adam / RMSProp / SGD-momentum
updates as their allocating one-line expressions.  ``MLP`` keeps its
parameters in one flat vector and updates it through preallocated work
buffers; every parameter and every optimizer moment must still equal the
oracle's exactly, step after step.

The second half checks that each way of copying or writing parameters keeps
the layers bound to the network's flat storage: after the copy, one gradient
step must change ``predict`` exactly as it does on a network that was never
copied.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.agents.dqn import DQNAgent, DQNConfig
from repro.nn.activations import get_activation
from repro.nn.network import MLP
from repro.nn.optimizers import SGD, Adam, RMSProp

SIZES = [12, 32, 24, 5]
STEPS = 50


# ---------------------------------------------------------------------- #
# Textbook reference
# ---------------------------------------------------------------------- #
def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


# name -> (forward(z), derivative(z, output))
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(0.0, z), lambda z, a: (z > 0.0).astype(z.dtype)),
    "leaky_relu": (
        lambda z: np.where(z > 0.0, z, 0.01 * z),
        lambda z, a: np.where(z > 0.0, 1.0, 0.01).astype(z.dtype),
    ),
    "tanh": (np.tanh, lambda z, a: 1.0 - a**2),
    "sigmoid": (_sigmoid, lambda z, a: a * (1.0 - a)),
    "identity": (lambda z: z, lambda z, a: np.ones_like(z)),
}


def assert_bitwise(actual, expected):
    """Equal values and equal bytes: ``assert_array_equal`` lets -0.0 == 0.0 pass."""
    np.testing.assert_array_equal(actual, expected)
    assert np.ascontiguousarray(actual).tobytes() == np.ascontiguousarray(expected).tobytes()


class TextbookMLP:
    """Per-layer arrays, allocating expressions, no shared storage."""

    def __init__(self, network: MLP, hidden: str) -> None:
        self.weights = [layer.weights.copy() for layer in network.layers]
        self.biases = [layer.biases.copy() for layer in network.layers]
        count = len(self.weights)
        self.activations = [hidden] * (count - 1) + ["identity"]

    def forward(self, x):
        self.cache = []
        for W, b, name in zip(self.weights, self.biases, self.activations):
            z = x @ W + b
            a = ACTIVATIONS[name][0](z)
            self.cache.append((x, z, a))
            x = a
        return x

    def backward(self, grad):
        weight_grads = [np.zeros_like(W) for W in self.weights]
        bias_grads = [np.zeros_like(b) for b in self.biases]
        for index in reversed(range(len(self.weights))):
            x, z, a = self.cache[index]
            local = grad * ACTIVATIONS[self.activations[index]][1](z, a)
            weight_grads[index] += x.T @ local
            bias_grads[index] += local.sum(axis=0)
            grad = local @ self.weights[index].T
        self.input_grad = grad
        # Interleaved like parameter_groups(): weights then biases per layer.
        return [g for pair in zip(weight_grads, bias_grads) for g in pair]

    def parameters(self):
        return [p for pair in zip(self.weights, self.biases) for p in pair]


def clip(gradients, max_norm):
    """Returns whether the gradients were scaled."""
    total = 0.0
    for gradient in gradients:
        total += float(np.sum(gradient**2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for gradient in gradients:
            gradient *= scale
        return True
    return False


class TextbookAdam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.steps = 0
        self.first, self.second = {}, {}

    def step(self, parameters, gradients):
        self.steps += 1
        for key, (p, g) in enumerate(zip(parameters, gradients)):
            m = self.first.setdefault(key, np.zeros_like(p))
            v = self.second.setdefault(key, np.zeros_like(p))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g**2
            m_hat = m / (1.0 - self.beta1**self.steps)
            v_hat = v / (1.0 - self.beta2**self.steps)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def moments(self):
        return [self.first, self.second]


class TextbookRMSProp:
    def __init__(self, lr, decay=0.99, eps=1e-8):
        self.lr, self.decay, self.eps = lr, decay, eps
        self.square_avg = {}

    def step(self, parameters, gradients):
        for key, (p, g) in enumerate(zip(parameters, gradients)):
            s = self.square_avg.setdefault(key, np.zeros_like(p))
            s *= self.decay
            s += (1.0 - self.decay) * g**2
            p -= self.lr * g / (np.sqrt(s) + self.eps)

    def moments(self):
        return [self.square_avg]


class TextbookMomentum:
    def __init__(self, lr, momentum):
        self.lr, self.momentum = lr, momentum
        self.velocity = {}

    def step(self, parameters, gradients):
        for key, (p, g) in enumerate(zip(parameters, gradients)):
            v = self.velocity.setdefault(key, np.zeros_like(p))
            v *= self.momentum
            v -= self.lr * g
            p += v

    def moments(self):
        return [self.velocity]


OPTIMIZERS = {
    "adam": (lambda: Adam(1e-2), lambda: TextbookAdam(1e-2)),
    "rmsprop": (lambda: RMSProp(1e-3), lambda: TextbookRMSProp(1e-3)),
    "sgd_momentum": (lambda: SGD(1e-3, momentum=0.9), lambda: TextbookMomentum(1e-3, 0.9)),
}


def _flat_moments(optimizer):
    """The optimizer's moment vectors for the network's single flat group."""
    (state,) = optimizer._state.values()
    return state[: optimizer.moments]


@pytest.mark.parametrize("optimizer_name", sorted(OPTIMIZERS))
@pytest.mark.parametrize("max_grad_norm", [None, 1e6, 0.05], ids=["noclip", "clip_idle", "clip_active"])
@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("hidden", ["relu", "tanh", "sigmoid"])
def test_gradient_steps_match_textbook_bitwise(hidden, batch, max_grad_norm, optimizer_name):
    make_optimizer, make_reference = OPTIMIZERS[optimizer_name]
    network = MLP(SIZES, hidden_activation=hidden, seed=11)
    reference = TextbookMLP(network, hidden)
    optimizer, reference_optimizer = make_optimizer(), make_reference()
    rng = np.random.default_rng(batch)
    clipped = 0
    for _ in range(STEPS):
        inputs = rng.normal(size=(batch, SIZES[0]))
        output_grad = rng.normal(size=(batch, SIZES[-1]))

        head = network.forward(inputs, training=True)
        assert_bitwise(head, reference.forward(inputs))
        network.apply_gradient_step(output_grad, optimizer, max_grad_norm)

        gradients = reference.backward(output_grad)
        if max_grad_norm is not None:
            clipped += clip(gradients, max_grad_norm)
        reference_optimizer.step(reference.parameters(), gradients)

        for layer, W, b in zip(network.layers, reference.weights, reference.biases):
            assert_bitwise(layer.weights, W)
            assert_bitwise(layer.biases, b)
        for ours, theirs in zip(_flat_moments(optimizer), reference_optimizer.moments()):
            assert_bitwise(ours, np.concatenate([theirs[k].ravel() for k in sorted(theirs)]))
    assert clipped == (STEPS if max_grad_norm == 0.05 else 0)


def test_public_backward_still_returns_input_gradient():
    network = MLP(SIZES, seed=3)
    reference = TextbookMLP(network, "relu")
    rng = np.random.default_rng(0)
    inputs, output_grad = rng.normal(size=(8, SIZES[0])), rng.normal(size=(8, SIZES[-1]))
    network.forward(inputs, training=True)
    reference.forward(inputs)
    network.zero_grad()
    input_grad = network.backward(output_grad)
    reference.backward(output_grad)
    assert_bitwise(input_grad, reference.input_grad)


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_activation_out_paths_keep_signed_zeros(name):
    """Writing into ``out`` gives the bytes of the allocating expression."""
    forward, derivative = ACTIVATIONS[name]
    activation = get_activation(name)
    z = np.array([[-3.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 40.0, -np.inf, np.inf]])
    expected = forward(z)
    output = activation.forward(z, out=np.full_like(z, np.nan))
    assert_bitwise(output, expected)
    assert_bitwise(
        activation.derivative_from_output(z, output, out=np.full_like(z, np.nan)),
        derivative(z, expected),
    )


# ---------------------------------------------------------------------- #
# Aliasing: copies keep the layers bound to the flat storage
# ---------------------------------------------------------------------- #
def _network(seed=1):
    return MLP([4, 8, 3], seed=seed)


def _set_in_place(network, parameters):
    """Element-wise writes into the existing arrays (no setter, no rebinding)."""
    for layer, params in zip(network.layers, parameters):
        layer.weights[...] = params["weights"]
        layer.biases[...] = params["biases"]
    return network


def _copy_cases(tmp_path):
    source = _network(1)
    other = _network(2)
    averaged = [
        {name: 0.5 * mine[name] + 0.5 * theirs[name] for name in mine}
        for mine, theirs in zip(source.get_parameters(), other.get_parameters())
    ]
    bumped = [
        {"weights": p["weights"] + 1.0 if i == 0 else p["weights"], "biases": p["biases"]}
        for i, p in enumerate(source.get_parameters())
    ]

    def soft_copy():
        target = _network(2)
        target.copy_from(source, tau=0.5)
        return target

    def hard_copy():
        target = _network(2)
        target.copy_from(source, tau=1.0)
        return target

    def set_parameters():
        target = _network(2)
        target.set_parameters(source.get_parameters())
        return target

    def increment():
        target = _network(1)
        target.layers[0].weights += 1.0
        return target

    def load():
        return MLP.load(source.save(tmp_path / "net.npz"))

    # name -> (copied network, parameters its never-copied twin gets)
    return {
        "pickle": (lambda: pickle.loads(pickle.dumps(source)), source.get_parameters()),
        "deepcopy": (lambda: copy.deepcopy(source), source.get_parameters()),
        "clone": (lambda: source.clone(seed=5), source.get_parameters()),
        "load": (load, source.get_parameters()),
        "set_parameters": (set_parameters, source.get_parameters()),
        "copy_from_hard": (hard_copy, source.get_parameters()),
        "copy_from_soft": (soft_copy, averaged),
        "weights_iadd": (increment, bumped),
    }


@pytest.mark.parametrize(
    "case",
    ["pickle", "deepcopy", "clone", "load", "set_parameters",
     "copy_from_hard", "copy_from_soft", "weights_iadd"],
)
def test_copies_stay_bound_to_flat_storage(case, tmp_path):
    make_copy, twin_parameters = _copy_cases(tmp_path)[case]
    copied = make_copy()
    twin = _set_in_place(_network(3), twin_parameters)
    probe = np.linspace(-1.0, 1.0, 4 * 5).reshape(5, 4)
    np.testing.assert_array_equal(copied.predict(probe), twin.predict(probe))
    before = copied.predict(probe)

    rng = np.random.default_rng(0)
    inputs, output_grad = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
    for network in (copied, twin):
        network.forward(inputs, training=True)
        network.apply_gradient_step(output_grad, Adam(1e-2), max_grad_norm=1.0)

    after = copied.predict(probe)
    assert not np.array_equal(after, before)
    np.testing.assert_array_equal(after, twin.predict(probe))
    for layer in copied.layers:
        assert np.shares_memory(layer.weights, copied._parameters)
        assert np.shares_memory(layer.weight_grad, copied._gradients)


def test_dqn_agent_pickle_round_trip_then_update():
    def filled_agent():
        config = DQNConfig(hidden_layers=(16,), batch_size=8, min_replay_size=8)
        agent = DQNAgent(6, 4, config=config, seed=7)
        rng = np.random.default_rng(7)
        for _ in range(24):
            agent.observe(
                rng.normal(size=6), int(rng.integers(4)), float(rng.normal()),
                rng.normal(size=6), False, np.ones(4, dtype=bool),
            )
        return agent

    original = filled_agent()
    restored = pickle.loads(pickle.dumps(original))
    probe = np.linspace(-1.0, 1.0, 6)
    before = restored.online_network.predict(probe)
    for agent in (original, restored):
        for _ in range(3):
            agent.update()
    after = restored.online_network.predict(probe)
    assert not np.array_equal(after, before)
    np.testing.assert_array_equal(after, original.online_network.predict(probe))
    for ours, theirs in zip(
        restored.online_network.get_parameters(), original.online_network.get_parameters()
    ):
        for name in ours:
            np.testing.assert_array_equal(ours[name], theirs[name])
