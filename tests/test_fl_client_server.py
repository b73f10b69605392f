"""Tests for the FL client procedure, DP-FedAVG rounds in the CDP-FL
configuration, and the LDP round."""

import numpy as np
import pytest

from repro.core.olive import OliveConfig, OliveSystem
from repro.dp.ldp import run_ldp_round
from repro.fl.client import (
    LocalUpdate,
    TrainingConfig,
    client_updates,
    local_deltas,
)
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.runtime.jobs import seal_update
from repro.sgx import crypto

from .oracles import softmax_cross_entropy


def _setup(n_clients=6, labels_per_client=2, samples=30):
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, n_clients, samples, labels_per_client, seed=0)
    model = build_model("tiny_mlp", seed=0)
    return gen, clients, model


TRAIN = TrainingConfig(local_epochs=2, local_lr=0.1, batch_size=8,
                       sparse_ratio=0.1, clip=1.0)


def _dropout_rngs(model, seed=0):
    return {i: [np.random.default_rng(seed + i)]
            for i in model.dropout_indices}


def _delta(model, weights, data, config, rng):
    """One client's dense delta through the batched trainer (C = 1)."""
    return local_deltas(model, weights, data.x[None], data.y[None], config,
                        [rng], _dropout_rngs(model))[0]


def _update(model, data, config, rng, weights=None):
    """One client's sparse update through the client core (C = 1)."""
    weights = model.get_flat() if weights is None else weights
    [update] = client_updates(model, weights, [data], config, [rng],
                              _dropout_rngs(model))
    return update


class TestLocalUpdate:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LocalUpdate(0, np.asarray([1, 2]), np.asarray([1.0]))

    def test_k_property(self):
        u = LocalUpdate(0, np.asarray([1, 2]), np.asarray([1.0, 2.0]))
        assert u.k == 2


class TestLocalTraining:
    def test_delta_shape(self):
        _, clients, model = _setup()
        w0 = model.get_flat()
        delta = _delta(model, w0, clients[0], TRAIN, np.random.default_rng(0))
        assert delta.shape == w0.shape

    def test_training_moves_weights(self):
        _, clients, model = _setup()
        delta = _delta(model, model.get_flat(), clients[0], TRAIN,
                       np.random.default_rng(0))
        assert np.linalg.norm(delta) > 0

    def test_training_reduces_local_loss(self):
        _, clients, model = _setup(samples=60)
        w0 = model.get_flat()
        data = clients[0]
        loss0, _ = softmax_cross_entropy(model.forward(data.x[None])[0], data.y)
        config = TrainingConfig(local_epochs=8, local_lr=0.2, batch_size=16,
                                sparse_ratio=0.1, clip=1.0)
        delta = _delta(model, w0, data, config, np.random.default_rng(0))
        model.set_flat(w0 + delta)
        loss1, _ = softmax_cross_entropy(model.forward(data.x[None])[0], data.y)
        assert loss1 < loss0

    def test_template_is_not_modified(self):
        _, clients, model = _setup()
        w0 = model.get_flat()
        _delta(model, w0 + 1.0, clients[0], TRAIN, np.random.default_rng(0))
        assert np.array_equal(model.get_flat(), w0)


class TestComputeUpdate:
    def test_sparsity_level(self):
        _, clients, model = _setup()
        update = _update(model, clients[0], TRAIN, np.random.default_rng(0))
        d = model.num_params
        assert update.k == int(np.ceil(0.1 * d))

    def test_clip_bound_enforced(self):
        _, clients, model = _setup()
        config = TrainingConfig(local_epochs=5, local_lr=1.0, sparse_ratio=0.2,
                                clip=0.5)
        update = _update(model, clients[0], config, np.random.default_rng(0))
        assert np.linalg.norm(update.values) <= 0.5 + 1e-9

    def test_indices_valid(self):
        _, clients, model = _setup()
        update = _update(model, clients[0], TRAIN, np.random.default_rng(0))
        assert update.indices.min() >= 0
        assert update.indices.max() < model.num_params

    def test_client_id_propagated(self):
        _, clients, model = _setup()
        update = _update(model, clients[3], TRAIN, np.random.default_rng(0))
        assert update.client_id == 3


class TestEncryptUpdate:
    def test_roundtrip_through_enclave_codec(self):
        _, clients, model = _setup()
        update = _update(model, clients[0], TRAIN, np.random.default_rng(0))
        key = crypto.generate_key(b"client-0")
        ct = seal_update(update, key)
        idx, val = crypto.decode_sparse_gradient(crypto.open_sealed(key, ct))
        assert idx.tolist() == update.indices.tolist()
        assert np.allclose(val, update.values)


class TestFederatedSimulation:
    """DP-FedAVG rounds in the CDP-FL configuration: ``OliveSystem``
    with the non-oblivious ``linear`` scatter-add a trusted server
    computes."""

    def _sim(self, n_clients=10, samples=30, training=TRAIN, **config):
        gen, clients, model = _setup(n_clients=n_clients, samples=samples)
        config = {"sample_rate": 0.5, "noise_multiplier": 0.5, **config}
        return gen, OliveSystem(
            model, clients,
            OliveConfig(aggregator="linear", training=training, **config),
            seed=0)

    def test_round_log_structure(self):
        _, sim = self._sim()
        log = sim.run_round()
        assert log.round_index == 0
        assert set(log.updates) == set(log.participants)
        assert log.weights_before.shape == log.weights_after.shape

    def test_weights_change_per_round(self):
        _, sim = self._sim()
        log = sim.run_round()
        assert not np.array_equal(log.weights_before, log.weights_after)

    def test_multiple_rounds_accumulate_history(self):
        _, sim = self._sim()
        sim.run(3)
        assert [log.round_index for log in sim.history] == [0, 1, 2]

    def test_sampling_respects_rate_roughly(self):
        _, sim = self._sim()
        counts = [len(sim.run_round().participants) for _ in range(20)]
        assert 2 <= np.mean(counts) <= 8  # 10 clients at q=0.5

    def test_empty_draw_releases_a_noise_only_round(self):
        # At q = 0.05 over 10 clients a draw is empty with probability
        # 0.6; such a round releases noise, not the previous weights.
        _, sim = self._sim(sample_rate=0.05)
        logs = sim.run(6)
        empty = [log for log in logs if not log.participants]
        assert empty, [log.participants for log in logs]
        for log in empty:
            assert log.updates == {}
            assert not np.array_equal(log.weights_before, log.weights_after)

    def test_evaluate_returns_accuracy(self):
        gen, sim = self._sim()
        x, y = gen.balanced(10, np.random.default_rng(5))
        assert 0.0 <= sim.evaluate(x, y) <= 1.0

    def test_zero_noise_training_learns(self):
        config = TrainingConfig(local_epochs=3, local_lr=0.3, batch_size=16,
                                sparse_ratio=0.3, clip=5.0)
        gen, sim = self._sim(samples=50, training=config, sample_rate=1.0,
                             noise_multiplier=0.0)
        x, y = gen.balanced(20, np.random.default_rng(5))
        before = sim.evaluate(x, y)
        sim.run(8)
        after = sim.evaluate(x, y)
        assert after > max(before, 1.0 / 6 + 0.05)


class TestLdpRound:
    def test_returns_new_weights(self):
        _, clients, model = _setup(n_clients=4)
        w0 = model.get_flat()
        w1 = run_ldp_round(model, w0, clients, TRAIN, local_sigma=0.1,
                           rng=np.random.default_rng(0))
        assert w1.shape == w0.shape
        assert not np.array_equal(w0, w1)

    def test_huge_noise_drowns_signal(self):
        # The LDP pathology of Table 1: enormous per-client noise makes
        # the update essentially pure noise.
        _, clients, model = _setup(n_clients=4)
        w0 = model.get_flat()
        quiet = run_ldp_round(model, w0, clients, TRAIN, local_sigma=0.0,
                              rng=np.random.default_rng(0))
        loud = run_ldp_round(model, w0, clients, TRAIN, local_sigma=100.0,
                             rng=np.random.default_rng(0))
        assert np.linalg.norm(loud - w0) > 10 * np.linalg.norm(quiet - w0)
