"""Tests for sparsifier variants and the FedSGD client algorithm.

Section 3.3's generality claim: *any* data-dependent sparsification
leaks through the aggregation access pattern -- threshold-based
selection included -- while data-independent random-k does not.
"""

import numpy as np
import pytest

from repro.core.aggregation import aggregate_linear
from repro.core.obliviousness import traces_equal
from repro.fl.client import (
    ALGORITHMS,
    SPARSIFIERS,
    TrainingConfig,
    client_updates,
    local_deltas,
    sparsify,
)
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.sgx.memory import Trace


def _clients(n=4, seed=0):
    gen = SyntheticClassData(SPECS["tiny"], seed=seed)
    return partition_clients(gen, n, 30, 2, seed=seed)


def _dropout_rngs(model, n=1, seed=0):
    return {i: [np.random.default_rng((seed, i, c)) for c in range(n)]
            for i in model.dropout_indices}


def _sparsify(delta, config, rng):
    """Sparsify one delta as a one-row stack."""
    (idx,), (val,) = sparsify(np.asarray(delta)[None], config, [rng])
    return idx, val


class TestConfigValidation:
    def test_unknown_sparsifier_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(sparsifier="magic")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(algorithm="adam")

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("batch_size", -4), ("local_epochs", 0),
        ("sparse_ratio", 0.0), ("sparse_ratio", 1.5),
        ("sparse_ratio", float("nan")), ("clip", 0.0), ("clip", -1.0),
        ("local_lr", 0.0), ("local_lr", -0.1), ("local_lr", float("nan")),
        ("local_lr", float("inf")), ("threshold_tau", -0.01),
    ])
    def test_invalid_hyperparameters_rejected(self, field, value):
        # Each used to run silently (zero-trained or non-finite uploads)
        # or fail only mid-round inside a worker.
        with pytest.raises(ValueError, match=field):
            TrainingConfig(**{field: value})

    def test_boundary_values_accepted(self):
        config = TrainingConfig(batch_size=1, local_epochs=1,
                                sparse_ratio=1.0, threshold_tau=0.0)
        assert config.sparse_ratio == 1.0

    def test_registries(self):
        assert SPARSIFIERS == ("top_k", "threshold", "random_k")
        assert ALGORITHMS == ("fedavg", "fedsgd")


class TestSparsifyDelta:
    DELTA = np.asarray([0.5, -0.01, 0.02, -0.8, 0.003, 0.1])

    def test_top_k_selects_largest(self):
        config = TrainingConfig(sparse_ratio=0.34)  # k = 3
        idx, val = _sparsify(self.DELTA, config, np.random.default_rng(0))
        assert set(idx.tolist()) == {0, 3, 5}

    def test_threshold_selects_above_tau(self):
        config = TrainingConfig(sparsifier="threshold", threshold_tau=0.05)
        idx, _ = _sparsify(self.DELTA, config, np.random.default_rng(0))
        assert set(idx.tolist()) == {0, 3, 5}

    def test_threshold_variable_length(self):
        # Unlike top-k, threshold output length is data-dependent --
        # the paper notes it leaks k itself.
        config = TrainingConfig(sparsifier="threshold", threshold_tau=0.05)
        small = _sparsify(np.asarray([0.01, 0.02]), config,
                          np.random.default_rng(0))
        big = _sparsify(np.asarray([1.0, 2.0]), config,
                        np.random.default_rng(0))
        assert len(small[0]) != len(big[0])

    def test_threshold_never_empty(self):
        config = TrainingConfig(sparsifier="threshold", threshold_tau=100.0)
        idx, _ = _sparsify(self.DELTA, config, np.random.default_rng(0))
        assert len(idx) >= 1

    def test_random_k_is_data_independent(self):
        config = TrainingConfig(sparsifier="random_k", sparse_ratio=0.5)
        idx_a, _ = _sparsify(self.DELTA, config, np.random.default_rng(7))
        idx_b, _ = _sparsify(np.zeros(6), config, np.random.default_rng(7))
        assert np.array_equal(idx_a, idx_b)


class TestFedSgd:
    def test_fedsgd_moves_weights(self):
        clients = _clients()
        model = build_model("tiny_mlp", seed=0)
        config = TrainingConfig(algorithm="fedsgd", local_lr=0.5)
        data = clients[0]
        delta = local_deltas(model, model.get_flat(), data.x[None],
                             data.y[None], config, [np.random.default_rng(0)],
                             _dropout_rngs(model))
        assert np.linalg.norm(delta) > 0

    def test_fedsgd_is_single_step(self):
        # One full-batch gradient step: delta == -lr * grad, so scaling
        # the lr scales the delta exactly linearly (multi-epoch SGD has
        # no such exact linearity).
        data = _clients()[0]
        model = build_model("tiny_mlp", seed=0)
        w0 = model.get_flat()
        # Fresh Generators per call so the dropout masks match.
        d1, d2 = (
            local_deltas(model, w0, data.x[None], data.y[None],
                         TrainingConfig(algorithm="fedsgd", local_lr=lr),
                         [np.random.default_rng(0)], _dropout_rngs(model))
            for lr in (0.1, 0.2)
        )
        assert np.allclose(d2, 2 * d1)

    def test_fedsgd_update_pipeline(self):
        clients = _clients()
        model = build_model("tiny_mlp", seed=0)
        config = TrainingConfig(algorithm="fedsgd", sparse_ratio=0.1,
                                clip=1.0)
        [update] = client_updates(model, model.get_flat(), clients[:1], config,
                                  [np.random.default_rng(0)],
                                  _dropout_rngs(model))
        assert update.k == int(np.ceil(0.1 * model.num_params))
        assert np.linalg.norm(update.values) <= 1.0 + 1e-9


class TestSparsifierLeakage:
    """Section 3.3: threshold leaks like top-k; random-k does not."""

    def _round_updates(self, sparsifier, data_seed, rng_seed=0):
        gen = SyntheticClassData(SPECS["tiny"], seed=data_seed)
        clients = partition_clients(gen, 4, 30, 2, seed=data_seed)
        model = build_model("tiny_mlp", seed=0)
        config = TrainingConfig(
            sparsifier=sparsifier, sparse_ratio=0.1, threshold_tau=0.02,
            local_lr=0.2,
        )
        rngs = [np.random.default_rng((rng_seed, c)) for c in range(4)]
        return client_updates(model, model.get_flat(), clients, config, rngs,
                              _dropout_rngs(model, n=4, seed=rng_seed))

    def test_topk_linear_aggregation_leaks(self):
        t1, t2 = Trace(), Trace()
        d = build_model("tiny_mlp").num_params
        aggregate_linear(self._round_updates("top_k", 1), d, trace=t1)
        aggregate_linear(self._round_updates("top_k", 2), d, trace=t2)
        assert not traces_equal(t1, t2)

    def test_threshold_linear_aggregation_leaks(self):
        t1, t2 = Trace(), Trace()
        d = build_model("tiny_mlp").num_params
        aggregate_linear(self._round_updates("threshold", 1), d, trace=t1)
        aggregate_linear(self._round_updates("threshold", 2), d, trace=t2)
        assert not traces_equal(t1, t2)

    def test_random_k_linear_aggregation_does_not_leak(self):
        # Same client-side RNG stream, different data: the index choice
        # is data-independent, so the Linear trace is identical.
        t1, t2 = Trace(), Trace()
        d = build_model("tiny_mlp").num_params
        aggregate_linear(
            self._round_updates("random_k", 1, rng_seed=5), d, trace=t1
        )
        aggregate_linear(
            self._round_updates("random_k", 2, rng_seed=5), d, trace=t2
        )
        assert traces_equal(t1, t2)
