"""Tests for the FL client procedure and the reference server loop."""

import numpy as np
import pytest

from repro.fl.client import (
    LocalUpdate,
    TrainingConfig,
    client_updates,
    local_deltas,
)
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.fl.server import FederatedSimulation, ServerConfig, run_ldp_round
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
    def _sim(self, **server_kwargs):
        _, clients, model = _setup(n_clients=10)
        server = ServerConfig(sample_rate=0.5, noise_multiplier=0.5,
                              **server_kwargs)
        return FederatedSimulation(model, clients, training=TRAIN,
                                   server=server, seed=0)

    def test_round_log_structure(self):
        sim = self._sim()
        log = sim.run_round()
        assert log.round_index == 0
        assert set(log.updates) == set(log.participants)
        assert log.weights_before.shape == log.weights_after.shape

    def test_weights_change_per_round(self):
        sim = self._sim()
        log = sim.run_round()
        assert not np.array_equal(log.weights_before, log.weights_after)

    def test_multiple_rounds_accumulate_history(self):
        sim = self._sim()
        sim.run(3)
        assert [log.round_index for log in sim.history] == [0, 1, 2]

    def test_explicit_participants(self):
        sim = self._sim()
        log = sim.run_round(participants=[1, 4])
        assert log.participants == [1, 4]

    def test_sampling_respects_rate_roughly(self):
        sim = self._sim()
        counts = [len(sim.run_round().participants) for _ in range(20)]
        assert 2 <= np.mean(counts) <= 8  # 10 clients at q=0.5

    @pytest.mark.parametrize("n", [1, 2, 3, 12])
    def test_inclusion_frequency_matches_rate(self, n):
        # Chi-square over the per-client inclusion counts of T draws,
        # as for the enclave's sampler: each count is Binomial(T, q)
        # exactly when every client joins independently with
        # probability q, so an empty draw must stay empty.
        from scipy.stats import chi2

        rate, draws = 0.05, 4000
        _, clients, model = _setup(n_clients=n)
        sim = FederatedSimulation(
            model, clients, training=TRAIN,
            server=ServerConfig(sample_rate=rate), seed=n)
        counts = np.zeros(n)
        for _ in range(draws):
            for cid in sim._sample_participants():
                counts[cid] += 1
        mean, var = draws * rate, draws * rate * (1 - rate)
        statistic = float(((counts - mean) ** 2 / var).sum())
        assert chi2.sf(statistic, df=n) > 1e-4, counts / draws

    def test_empty_draw_releases_a_noise_only_round(self):
        sim = self._sim()
        log = sim.run_round(participants=[])
        assert log.participants == [] and log.updates == {}
        assert not np.array_equal(log.weights_before, log.weights_after)

    def test_evaluate_returns_accuracy(self):
        gen, clients, model = _setup(n_clients=10)
        sim = FederatedSimulation(model, clients, training=TRAIN, seed=0)
        x, y = gen.balanced(10, np.random.default_rng(5))
        assert 0.0 <= sim.evaluate(x, y) <= 1.0

    def test_zero_noise_training_learns(self):
        gen, clients, model = _setup(n_clients=10, samples=50)
        config = TrainingConfig(local_epochs=3, local_lr=0.3, batch_size=16,
                                sparse_ratio=0.3, clip=5.0)
        sim = FederatedSimulation(
            model, clients, training=config,
            server=ServerConfig(sample_rate=1.0, noise_multiplier=0.0),
            seed=0,
        )
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
