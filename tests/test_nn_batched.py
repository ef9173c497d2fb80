"""Vectorized hot-path tests: batched nn ops and contiguous replay sampling.

Covers the invariants behind the batched training refactor:

* a batched forward/backward pass produces the same numbers as per-sample
  passes (within floating-point tolerance),
* fused activation derivatives match the definitional ones,
* replay buffers return correctly shaped, seed-reproducible contiguous
  batches, and
* the parallel experiment helpers give results identical to serial runs.
"""

import json

import numpy as np
import pytest

from repro.agents.dqn import DQNAgent, DQNConfig
from repro.agents.replay import PrioritizedReplayBuffer, ReplayBuffer, Transition
from repro.experiments.parallel import (
    ResultCache,
    config_hash,
    derive_worker_seeds,
    run_parallel,
)
from repro.nn.activations import _ACTIVATIONS, get_activation
from repro.nn.network import MLP
from repro.nn.optimizers import Adam

STATE_DIM = 6
NUM_ACTIONS = 4


def random_transition(rng, with_mask=True, done=False):
    return Transition(
        state=rng.normal(size=STATE_DIM),
        action=int(rng.integers(NUM_ACTIONS)),
        reward=float(rng.normal()),
        next_state=rng.normal(size=STATE_DIM),
        done=done,
        next_mask=np.ones(NUM_ACTIONS, dtype=bool) if with_mask else None,
    )


class TestBatchedForwardBackward:
    def test_batched_forward_matches_per_sample(self):
        network = MLP([STATE_DIM, 16, 8, 3], seed=0)
        inputs = np.random.default_rng(1).normal(size=(32, STATE_DIM))
        batched = network.forward(inputs)
        for i in range(len(inputs)):
            single = network.forward(inputs[i])
            np.testing.assert_allclose(batched[i], single, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid"])
    def test_batched_backward_matches_per_sample_sum(self, activation):
        """Parameter gradients of a batch equal the sum over its samples."""
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(8, STATE_DIM))
        output_grad = rng.normal(size=(8, 3))

        batched = MLP([STATE_DIM, 16, 3], hidden_activation=activation, seed=0)
        batched.forward(inputs, training=True)
        batched.zero_grad()
        batched.backward(output_grad)
        batched_grads = [dict(g) for _, g in batched.parameter_groups()]

        accumulated = MLP([STATE_DIM, 16, 3], hidden_activation=activation, seed=0)
        accumulated.zero_grad()
        for i in range(len(inputs)):
            accumulated.forward(inputs[i : i + 1], training=True)
            accumulated.backward(output_grad[i : i + 1])
        per_sample_grads = [dict(g) for _, g in accumulated.parameter_groups()]

        for batch_layer, sample_layer in zip(batched_grads, per_sample_grads):
            for name in batch_layer:
                np.testing.assert_allclose(
                    batch_layer[name], sample_layer[name], rtol=1e-9, atol=1e-9
                )

    def test_fused_activation_derivatives_match_definitional(self):
        z = np.linspace(-3.0, 3.0, 64).reshape(8, 8)
        for name in _ACTIVATIONS:
            activation = get_activation(name)
            output = activation.forward(z)
            np.testing.assert_allclose(
                activation.derivative_from_output(z, output),
                activation.derivative(z),
                rtol=1e-12,
                atol=1e-12,
                err_msg=name,
            )

    def test_apply_gradient_step_matches_manual_sequence(self):
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(4, STATE_DIM))
        grad = rng.normal(size=(4, 3))

        helper = MLP([STATE_DIM, 8, 3], seed=5)
        manual = helper.clone(seed=5)
        helper.forward(inputs, training=True)
        manual.forward(inputs, training=True)

        helper.apply_gradient_step(grad, Adam(1e-2), max_grad_norm=1.0)

        from repro.nn.optimizers import clip_gradients

        manual.zero_grad()
        manual.backward(grad)
        groups = manual.parameter_groups()
        clip_gradients(groups, 1.0)
        Adam(1e-2).step(groups)

        for a, b in zip(helper.get_parameters(), manual.get_parameters()):
            for name in a:
                np.testing.assert_array_equal(a[name], b[name])


class TestDQNBatchedUpdate:
    @pytest.mark.parametrize("dueling", [False, True])
    def test_update_is_seed_reproducible(self, dueling):
        def trained_weights():
            config = DQNConfig(
                hidden_layers=(16,),
                batch_size=8,
                min_replay_size=8,
                dueling=dueling,
            )
            agent = DQNAgent(STATE_DIM, NUM_ACTIONS, config=config, seed=7)
            rng = np.random.default_rng(7)
            for _ in range(32):
                agent.replay.add(random_transition(rng))
            for _ in range(4):
                agent._learn_from_batch(agent.replay.sample(8))
            return agent.online_network.get_parameters()

        first, second = trained_weights(), trained_weights()
        for a, b in zip(first, second):
            for name in a:
                np.testing.assert_array_equal(a[name], b[name])

    def test_update_reduces_td_error_on_fixed_batch(self):
        config = DQNConfig(
            hidden_layers=(32,), batch_size=16, min_replay_size=16, learning_rate=1e-2
        )
        agent = DQNAgent(STATE_DIM, NUM_ACTIONS, config=config, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(64):
            agent.replay.add(random_transition(rng))
        first = agent._learn_from_batch(agent.replay.sample(16))
        for _ in range(50):
            diagnostics = agent._learn_from_batch(agent.replay.sample(16))
        assert diagnostics["loss"] < first["loss"]


class TestReplayBatches:
    def test_batch_shapes_and_contiguity(self):
        buffer = ReplayBuffer(capacity=128, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(40):
            buffer.add(random_transition(rng))
        batch = buffer.sample(16)
        assert batch.states.shape == (16, STATE_DIM)
        assert batch.next_states.shape == (16, STATE_DIM)
        assert batch.actions.shape == (16,)
        assert batch.rewards.shape == (16,)
        assert batch.dones.shape == (16,)
        assert batch.next_masks.shape == (16, NUM_ACTIONS)
        for array in (batch.states, batch.next_states, batch.next_masks):
            assert array.flags["C_CONTIGUOUS"]

    def test_sampling_is_seed_reproducible(self):
        def sample_once():
            buffer = ReplayBuffer(capacity=64, seed=42)
            rng = np.random.default_rng(3)
            for _ in range(30):
                buffer.add(random_transition(rng))
            batch = buffer.sample(10)
            # Batch arrays are reusable scratch buffers: copy to keep them.
            return batch.states.copy(), batch.indices.copy()

        (states_a, idx_a), (states_b, idx_b) = sample_once(), sample_once()
        np.testing.assert_array_equal(idx_a, idx_b)
        np.testing.assert_array_equal(states_a, states_b)

    def test_batch_buffers_are_reused_across_samples(self):
        buffer = ReplayBuffer(capacity=64, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            buffer.add(random_transition(rng))
        first = buffer.sample(8)
        second = buffer.sample(8)
        assert first.states is second.states  # pre-allocated, not re-allocated

    def test_sample_values_round_trip_storage(self):
        buffer = ReplayBuffer(capacity=8, seed=0)
        transitions = [random_transition(np.random.default_rng(i)) for i in range(8)]
        for transition in transitions:
            buffer.add(transition)
        batch = buffer.sample(32)
        for row, index in enumerate(batch.indices):
            expected = transitions[index]
            np.testing.assert_allclose(batch.states[row], expected.state)
            np.testing.assert_allclose(batch.next_states[row], expected.next_state)
            assert batch.actions[row] == expected.action
            assert batch.rewards[row] == pytest.approx(expected.reward)

    def test_mismatched_widths_rejected_while_populated(self):
        buffer = ReplayBuffer(capacity=8, seed=0)
        rng = np.random.default_rng(0)
        buffer.add(random_transition(rng))
        with pytest.raises(ValueError, match="state width"):
            buffer.add(
                Transition(
                    state=np.zeros(STATE_DIM + 2),
                    action=0,
                    reward=0.0,
                    next_state=np.zeros(STATE_DIM + 2),
                    done=False,
                )
            )
        with pytest.raises(ValueError, match="next_mask width"):
            transition = random_transition(rng)
            buffer.add(
                Transition(
                    state=transition.state,
                    action=0,
                    reward=0.0,
                    next_state=transition.next_state,
                    done=False,
                    next_mask=np.ones(NUM_ACTIONS + 1, dtype=bool),
                )
            )
        # After clear() the buffer may be repurposed at a new width.
        buffer.clear()
        buffer.add(
            Transition(
                state=np.zeros(STATE_DIM + 2),
                action=0,
                reward=0.0,
                next_state=np.zeros(STATE_DIM + 2),
                done=False,
            )
        )
        assert buffer.sample(2).states.shape == (2, STATE_DIM + 2)

    def test_masks_reappear_once_maskless_rows_evicted(self):
        buffer = ReplayBuffer(capacity=4, seed=0)
        rng = np.random.default_rng(0)
        buffer.add(random_transition(rng, with_mask=False))
        for _ in range(3):
            buffer.add(random_transition(rng))
        assert buffer.sample(4).next_masks is None
        # A fourth masked add evicts the maskless row (FIFO), so batches
        # carry masks again.
        buffer.add(random_transition(rng))
        assert buffer.sample(4).next_masks is not None

    def test_prioritized_sampling_reproducible_and_weighted(self):
        def sample_once():
            buffer = PrioritizedReplayBuffer(capacity=64, seed=9)
            rng = np.random.default_rng(5)
            for _ in range(20):
                buffer.add(random_transition(rng))
            buffer.update_priorities(np.arange(5), np.linspace(1.0, 5.0, 5))
            batch = buffer.sample(12)
            return batch.indices.copy(), batch.weights.copy()

        (idx_a, w_a), (idx_b, w_b) = sample_once(), sample_once()
        np.testing.assert_array_equal(idx_a, idx_b)
        np.testing.assert_allclose(w_a, w_b)
        assert w_a.max() == pytest.approx(1.0)


class TestParallelHelpers:
    def test_run_parallel_matches_serial(self):
        tasks = [(i, 3) for i in range(6)]
        assert run_parallel(pow, tasks, max_workers=2) == [
            pow(*args) for args in tasks
        ]

    def test_derive_worker_seeds_deterministic_and_distinct(self):
        seeds = derive_worker_seeds(0, ["a", "b", "c"])
        assert seeds == derive_worker_seeds(0, ["a", "b", "c"])
        assert len(set(seeds)) == 3

    def test_config_hash_stable_and_value_sensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_config_hash_rejects_identity_based_objects(self):
        class Opaque:
            pass

        with pytest.raises(ValueError, match="value-based representation"):
            config_hash(Opaque())

    def test_result_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return {"series": [1.0, 2.0]}

        data, hit = cache.get_or_compute("fig", {"n": 4}, compute)
        assert not hit and data == {"series": [1.0, 2.0]}
        data, hit = cache.get_or_compute("fig", {"n": 4}, compute)
        assert hit and data == {"series": [1.0, 2.0]} and len(calls) == 1
        data, hit = cache.get_or_compute("fig", {"n": 5}, compute)
        assert not hit and len(calls) == 2

    def test_result_cache_store_is_atomic(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store("fig", {"series": [1.0]}, {"n": 4})
        assert path is not None and path.parent == tmp_path
        # No temp file survives the write, and an overwrite of the same key
        # leaves exactly one complete JSON payload behind.
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob(".*.tmp")) == []
        cache.store("fig", {"series": [2.0]}, {"n": 4})
        assert sorted(tmp_path.iterdir()) == [path]
        with path.open("r", encoding="utf-8") as handle:
            assert json.load(handle) == {"series": [2.0]}

    def test_result_cache_store_cleans_temp_on_failure(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)

        def boom(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr("repro.experiments.parallel.os.replace", boom)
        with pytest.raises(OSError, match="simulated rename failure"):
            cache.store("fig", {"series": [1.0]}, {"n": 4})
        assert list(tmp_path.iterdir()) == []
