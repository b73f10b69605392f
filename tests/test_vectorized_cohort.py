"""Equivalence suite for the vectorized mega-cohort client path.

Pins the contract that chunking is invisible: the cohort runtime --
per-client seed derivation, local training over a leading client axis,
axis-1 sparsification, chunked batched sealing -- produces results
**bit-identical** to the per-client loop (``tests/oracles.py::
run_cohort_loop``) that trains, retries and seals one client at a time,
across every sparsifier, both FL algorithms, plain and quantized
payloads, and injected faults.  Also pins the per-client seed derivation
the cohort draws from, and the ``clip_override`` falsy-zero regression.
"""

import numpy as np
import pytest

from repro.fl.client import TrainingConfig, client_updates
from repro.fl.datasets import ClientData, SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.runtime import (
    STREAM_MODEL,
    STREAM_NONCE,
    STREAM_TRAIN,
    CohortRuntime,
    FaultConfig,
    RuntimeConfig,
    derive_nonce,
    derive_rng,
)
from repro.sgx import crypto

from . import oracles

ENTROPY = 11
N_CLIENTS = 12


def make_clients(model_name="tiny_mlp", n_clients=N_CLIENTS, samples=20):
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, n_clients, samples, 2, seed=0)
    if model_name != "tiny_mlp":
        spec = next(s for s in SPECS.values() if s.model_name == model_name)
        gen = SyntheticClassData(spec, seed=0)
        clients = partition_clients(gen, n_clients, samples, 2, seed=0)
    return clients


def run_round(training, *, loop=False, rounds=1, clients=None,
              model_name="tiny_mlp", faults=None,
              vector_chunk=8192, n_clients=N_CLIENTS, samples=20,
              **cohort_kwargs):
    """``rounds`` cohort rounds through the runtime, or through the
    per-client oracle loop when ``loop``."""
    clients = clients or make_clients(model_name, n_clients, samples)
    keys = {c.client_id: crypto.generate_key(b"k%d" % c.client_id)
            for c in clients}
    config = RuntimeConfig(vector_chunk=vector_chunk, backoff_base_s=0.0,
                           faults=faults or FaultConfig())
    cohort = [c.client_id for c in clients]
    if loop:
        model = oracles.build_model(model_name, seed=0)
        return [oracles.run_cohort_loop(
            config, model, clients, ENTROPY, r, cohort, model.get_flat(),
            training, keys=keys, **cohort_kwargs) for r in range(rounds)]
    model = build_model(model_name, seed=0)
    runtime = CohortRuntime(config, model, clients, ENTROPY, keys=keys)
    return [runtime.run_cohort(r, cohort, model.get_flat(), training,
                               **cohort_kwargs) for r in range(rounds)]


def assert_rounds_identical(a_rounds, b_rounds):
    """Outcomes and delivery bytes must match exactly."""
    assert len(a_rounds) == len(b_rounds)
    for a, b in zip(a_rounds, b_rounds):
        assert {cid: (o.status, o.attempts, o.retries)
                for cid, o in a.outcomes.items()} == \
               {cid: (o.status, o.attempts, o.retries)
                for cid, o in b.outcomes.items()}
        assert len(a.deliveries) == len(b.deliveries)
        for da, db in zip(a.deliveries, b.deliveries):
            assert da.client_id == db.client_id
            assert da.ciphertext.to_bytes() == db.ciphertext.to_bytes()


class TestBatchedSeeding:
    """The per-client derivations a cohort draws, one per client id."""

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            [derive_rng(ENTROPY, STREAM_TRAIN, -1, cid) for cid in (0, 1)]
        with pytest.raises(ValueError):
            [derive_nonce(ENTROPY, 0, cid) for cid in (3, -2)]

    def test_streams_partition_the_namespace(self):
        cids = [0, 4, 17, 2**33]
        train = [derive_rng(ENTROPY, STREAM_TRAIN, 0, c).random(8).tobytes()
                 for c in cids]
        nonce = [derive_rng(ENTROPY, STREAM_NONCE, 0, c).random(8).tobytes()
                 for c in cids]
        assert len(set(train) | set(nonce)) == 2 * len(cids)


class TestClipOverride:
    """client_updates must honor falsy clip overrides (regression)."""

    def _setup(self):
        model = build_model("tiny_mlp", seed=0)
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        data = partition_clients(gen, 1, 16, 2, seed=0)[0]
        training = TrainingConfig(local_epochs=1, local_lr=0.1,
                                  batch_size=8, sparse_ratio=0.2, clip=1.0)
        return model, data, training

    def _update(self, model, data, training, clip_override):
        dropout = {i: [derive_rng(ENTROPY, STREAM_MODEL, 0, 0, i)]
                   for i in model.dropout_indices}
        [update] = client_updates(
            model, model.get_flat(), [data], training,
            [derive_rng(ENTROPY, STREAM_TRAIN, 0, 0)], dropout,
            clip_override=clip_override,
        )
        return update

    def test_zero_override_is_not_silently_dropped(self):
        # Pre-fix, `clip_override or config.clip` treated 0.0 as unset
        # and fell back to config.clip; l2_clip must reject it instead.
        model, data, training = self._setup()
        with pytest.raises(ValueError, match="positive"):
            self._update(model, data, training, clip_override=0.0)

    def test_override_replaces_config_clip(self):
        model, data, training = self._setup()
        tight = self._update(model, data, training, clip_override=1e-3)
        assert float(np.linalg.norm(tight.values)) <= 1e-3 + 1e-12


class TestVectorizedEquivalence:
    """runtime == per-client loop, bit for bit."""

    @pytest.mark.parametrize("sparsifier", ["top_k", "threshold", "random_k"])
    @pytest.mark.parametrize("algorithm", ["fedavg", "fedsgd"])
    def test_sparsifier_algorithm_grid(self, sparsifier, algorithm):
        training = TrainingConfig(
            local_epochs=2, local_lr=0.1, batch_size=8, sparse_ratio=0.2,
            clip=1.0, sparsifier=sparsifier, algorithm=algorithm,
            threshold_tau=1e-3,
        )
        assert_rounds_identical(run_round(training, loop=True),
                                run_round(training))

    def test_quantized_uploads(self):
        training = TrainingConfig(local_epochs=1, local_lr=0.1,
                                  batch_size=8, sparse_ratio=0.1, clip=1.0)
        assert_rounds_identical(
            run_round(training, loop=True, quantize_bits=4),
            run_round(training, quantize_bits=4))

    def test_faulty_rounds_match(self):
        faults = FaultConfig(dropout_rate=0.15, straggler_rate=0.2,
                             straggler_delay_s=0.001,
                             transient_failure_rate=0.2)
        training = TrainingConfig(local_epochs=1, local_lr=0.1,
                                  batch_size=8, sparse_ratio=0.1, clip=1.0)
        assert_rounds_identical(
            run_round(training, loop=True, faults=faults, rounds=2),
            run_round(training, faults=faults, rounds=2),
        )

    def test_small_vector_chunk(self):
        # Chunking must be invisible: 12 clients in chunks of 3.
        training = TrainingConfig(local_epochs=1, local_lr=0.1,
                                  batch_size=8, sparse_ratio=0.1, clip=1.0)
        assert_rounds_identical(
            run_round(training, loop=True),
            run_round(training, vector_chunk=3),
        )

    def test_conv_model_batches_bit_identically(self):
        # LeNet-5 trains through the batched conv/pool layers and must
        # still match the per-client loop exactly.
        training = TrainingConfig(local_epochs=1, local_lr=0.05,
                                  batch_size=4, sparse_ratio=0.05, clip=1.0)
        kwargs = dict(model_name="cifar10_cnn", n_clients=3, samples=8)
        assert_rounds_identical(run_round(training, loop=True, **kwargs),
                                run_round(training, **kwargs))

    def test_heterogeneous_shard_shapes(self):
        # Clients with different shard sizes cannot share one tensor
        # stack; the batch path groups by shape and must still match.
        training = TrainingConfig(local_epochs=1, local_lr=0.1,
                                  batch_size=8, sparse_ratio=0.1, clip=1.0)
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        base = partition_clients(gen, 8, 24, 2, seed=0)
        clients = [
            ClientData(client_id=c.client_id,
                       x=c.x[: 12 + 4 * (i % 3)],
                       y=c.y[: 12 + 4 * (i % 3)],
                       label_set=c.label_set)
            for i, c in enumerate(base)
        ]
        assert_rounds_identical(
            run_round(training, loop=True, clients=clients),
            run_round(training, clients=clients))

    def test_clip_broadcast_matches(self):
        training = TrainingConfig(local_epochs=1, local_lr=0.1,
                                  batch_size=8, sparse_ratio=0.1, clip=1.0)
        assert_rounds_identical(run_round(training, loop=True, clip=0.05),
                                run_round(training, clip=0.05))
