"""Equivalence suite for the vectorized mega-cohort client path.

Pins the tentpole contract: the ``vectorized`` executor -- batched
seed derivation, batched local training over a leading client axis,
axis-1 sparsification, chunked batched sealing -- produces results
**bit-identical** to the serial reference executor, across every
sparsifier, both FL algorithms, encrypted/plain/quantized modes, and
injected faults.  Also pins the batched seeding primitives against
their scalar counterparts and the ``clip_override`` falsy-zero
regression.
"""

import numpy as np
import pytest

from repro.fl.client import TrainingConfig, compute_update
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
    derive_nonces_batch,
    derive_rng,
    derive_rngs_batch,
)
from repro.sgx import crypto

ENTROPY = 11
N_CLIENTS = 12


def make_runtime(executor, *, model_name="tiny_mlp", sealed=True,
                 faults=None, vector_chunk=8192, n_clients=N_CLIENTS,
                 samples=20):
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, n_clients, samples, 2, seed=0)
    model = build_model(model_name, seed=0)
    if model_name != "tiny_mlp":
        spec = next(s for s in SPECS.values() if s.model_name == model_name)
        gen = SyntheticClassData(spec, seed=0)
        clients = partition_clients(gen, n_clients, samples, 2, seed=0)
    keys = None
    if sealed:
        keys = {c.client_id: crypto.generate_key(b"k%d" % c.client_id)
                for c in clients}
    config = RuntimeConfig(executor=executor, vector_chunk=vector_chunk,
                           faults=faults or FaultConfig())
    return (CohortRuntime(config, model, clients, ENTROPY, keys=keys),
            [c.client_id for c in clients], model.get_flat())


def run_round(executor, training, *, rounds=1, **kwargs):
    runtime, cohort, weights = make_runtime(executor, **kwargs)
    results = []
    with runtime:
        for r in range(rounds):
            results.append(runtime.run_cohort(r, cohort, weights, training))
    return results


def assert_rounds_identical(a_rounds, b_rounds):
    """Outcome statuses and delivery bytes/arrays must match exactly."""
    assert len(a_rounds) == len(b_rounds)
    for a, b in zip(a_rounds, b_rounds):
        assert {cid: o.status for cid, o in a.outcomes.items()} == \
               {cid: o.status for cid, o in b.outcomes.items()}
        assert len(a.deliveries) == len(b.deliveries)
        for da, db in zip(a.deliveries, b.deliveries):
            assert da.client_id == db.client_id
            if da.ciphertext is not None:
                assert da.ciphertext.to_bytes() == db.ciphertext.to_bytes()
            else:
                assert np.array_equal(da.result.indices, db.result.indices)
                assert np.array_equal(da.result.values, db.result.values)


class TestBatchedSeeding:
    """derive_rngs_batch / derive_nonces_batch vs their scalar forms."""

    @pytest.mark.parametrize("stream,suffix", [
        (STREAM_TRAIN, ()), (STREAM_TRAIN, (1,)), (STREAM_MODEL, (0,)),
        (STREAM_MODEL, (2,)),
    ])
    def test_rngs_match_scalar(self, stream, suffix):
        cids = [0, 1, 5, 17, 1000, 2**31]
        batch = derive_rngs_batch(ENTROPY, stream, 3, cids, *suffix)
        for cid, rng in zip(cids, batch):
            ref = derive_rng(ENTROPY, stream, 3, cid, *suffix)
            assert np.array_equal(rng.random(16), ref.random(16))
            assert np.array_equal(rng.permutation(40), ref.permutation(40))

    def test_wide_entropy_and_ids_fall_back(self):
        # Components past u32 take the scalar fallback path; bits must
        # still match the scalar derivation exactly.
        wide_entropy = 2**80 + 3
        cids = [1, 2**40, 7]
        batch = derive_rngs_batch(wide_entropy, STREAM_TRAIN, 0, cids)
        for cid, rng in zip(cids, batch):
            ref = derive_rng(wide_entropy, STREAM_TRAIN, 0, cid)
            assert np.array_equal(rng.random(8), ref.random(8))

    def test_nonces_match_scalar(self):
        cids = [0, 3, 250, 2**33]
        batch = derive_nonces_batch(ENTROPY, 5, cids)
        for cid, nonce in zip(cids, batch):
            assert nonce == derive_nonce(ENTROPY, 5, cid)
            assert len(nonce) == 16

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            derive_rngs_batch(ENTROPY, STREAM_TRAIN, -1, [0, 1])
        with pytest.raises(ValueError):
            derive_nonces_batch(ENTROPY, 0, [-2])

    def test_streams_partition_the_namespace(self):
        a = derive_rngs_batch(ENTROPY, STREAM_TRAIN, 0, [4])[0].random(8)
        b = derive_rngs_batch(ENTROPY, STREAM_NONCE, 0, [4])[0].random(8)
        assert not np.array_equal(a, b)


class TestClipOverride:
    """compute_update must honor falsy clip overrides (regression)."""

    def _setup(self):
        model = build_model("tiny_mlp", seed=0)
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        data = partition_clients(gen, 1, 16, 2, seed=0)[0]
        training = TrainingConfig(local_epochs=1, local_lr=0.1,
                                  batch_size=8, sparse_ratio=0.2, clip=1.0)
        return model, data, training

    def test_zero_override_is_not_silently_dropped(self):
        # Pre-fix, `clip_override or config.clip` treated 0.0 as unset
        # and fell back to config.clip; l2_clip must reject it instead.
        model, data, training = self._setup()
        rng = derive_rng(ENTROPY, STREAM_TRAIN, 0, 0)
        with pytest.raises(ValueError, match="positive"):
            compute_update(model, model.get_flat(), data, training, rng,
                           clip_override=0.0)

    def test_override_replaces_config_clip(self):
        model, data, training = self._setup()
        rng = derive_rng(ENTROPY, STREAM_TRAIN, 0, 0)
        tight = compute_update(model, model.get_flat(), data, training,
                               rng, clip_override=1e-3)
        assert float(np.linalg.norm(tight.values)) <= 1e-3 + 1e-12


class TestVectorizedEquivalence:
    """vectorized == serial, bit for bit, through the cohort runtime."""

    @pytest.mark.parametrize("sparsifier", ["top_k", "threshold", "random_k"])
    @pytest.mark.parametrize("algorithm", ["fedavg", "fedsgd"])
    def test_sparsifier_algorithm_grid(self, sparsifier, algorithm):
        training = TrainingConfig(
            local_epochs=2, local_lr=0.1, batch_size=8, sparse_ratio=0.2,
            clip=1.0, sparsifier=sparsifier, algorithm=algorithm,
            threshold_tau=1e-3,
        )
        assert_rounds_identical(run_round("serial", training),
                                run_round("vectorized", training))

    def test_plain_mode(self):
        training = TrainingConfig(local_epochs=1, local_lr=0.1,
                                  batch_size=8, sparse_ratio=0.1, clip=1.0)
        assert_rounds_identical(run_round("serial", training, sealed=False),
                                run_round("vectorized", training,
                                          sealed=False))

    def test_quantized_uploads(self):
        training = TrainingConfig(local_epochs=1, local_lr=0.1,
                                  batch_size=8, sparse_ratio=0.1, clip=1.0)
        serial, vector = [], []
        for executor, out in (("serial", serial), ("vectorized", vector)):
            runtime, cohort, weights = make_runtime(executor)
            with runtime:
                out.append(runtime.run_cohort(0, cohort, weights, training,
                                              quantize_bits=4))
        assert_rounds_identical(serial, vector)

    def test_faulty_rounds_match(self):
        faults = FaultConfig(dropout_rate=0.15, straggler_rate=0.2,
                             straggler_delay_s=0.001,
                             transient_failure_rate=0.2)
        training = TrainingConfig(local_epochs=1, local_lr=0.1,
                                  batch_size=8, sparse_ratio=0.1, clip=1.0)
        assert_rounds_identical(
            run_round("serial", training, faults=faults, rounds=2),
            run_round("vectorized", training, faults=faults, rounds=2),
        )

    def test_small_vector_chunk(self):
        # Chunking must be invisible: 12 clients in chunks of 3.
        training = TrainingConfig(local_epochs=1, local_lr=0.1,
                                  batch_size=8, sparse_ratio=0.1, clip=1.0)
        assert_rounds_identical(
            run_round("serial", training),
            run_round("vectorized", training, vector_chunk=3),
        )

    def test_conv_model_batches_bit_identically(self):
        # LeNet-5 trains through the batched conv/pool layers and must
        # still match serial exactly.
        training = TrainingConfig(local_epochs=1, local_lr=0.05,
                                  batch_size=4, sparse_ratio=0.05, clip=1.0)
        assert_rounds_identical(
            run_round("serial", training, model_name="cifar10_cnn",
                      n_clients=3, samples=8),
            run_round("vectorized", training, model_name="cifar10_cnn",
                      n_clients=3, samples=8),
        )

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
        model = build_model("tiny_mlp", seed=0)
        keys = {c.client_id: crypto.generate_key(b"k%d" % c.client_id)
                for c in clients}
        rounds = {}
        for executor in ("serial", "vectorized"):
            runtime = CohortRuntime(
                RuntimeConfig(executor=executor), model, clients,
                ENTROPY, keys=keys,
            )
            with runtime:
                rounds[executor] = [runtime.run_cohort(
                    0, [c.client_id for c in clients], model.get_flat(),
                    training,
                )]
        assert_rounds_identical(rounds["serial"], rounds["vectorized"])

    def test_clip_broadcast_matches(self):
        training = TrainingConfig(local_epochs=1, local_lr=0.1,
                                  batch_size=8, sparse_ratio=0.1, clip=1.0)
        rounds = {}
        for executor in ("serial", "vectorized"):
            runtime, cohort, weights = make_runtime(executor)
            with runtime:
                rounds[executor] = [runtime.run_cohort(
                    0, cohort, weights, training, clip=0.05,
                )]
        assert_rounds_identical(rounds["serial"], rounds["vectorized"])
