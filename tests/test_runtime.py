"""Determinism suite for the cohort runtime (repro.runtime).

Pins the subsystem's central contract: the serial and thread executors,
at every worker count, with or without injected faults, produce
**bit-identical** per-client updates, round outcomes, and global
trajectories -- because all randomness derives from
``(round, client)`` identity, never from execution order.
"""

import numpy as np
import pytest

from repro.core.olive import OliveConfig, OliveSystem
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.fl.server import FederatedSimulation, ServerConfig
from repro.runtime import (
    EXECUTORS,
    STREAM_FAULT,
    STREAM_TRAIN,
    FaultConfig,
    RuntimeConfig,
    derive_nonce,
    derive_rng,
    make_executor,
)

TRAIN = TrainingConfig(local_epochs=1, local_lr=0.1, batch_size=8,
                       sparse_ratio=0.1, clip=1.0)

FAULTS = FaultConfig(dropout_rate=0.2, straggler_rate=0.2,
                     straggler_delay_s=0.001, corrupt_rate=0.15,
                     replay_rate=0.15, transient_failure_rate=0.2)


def olive_system(executor="serial", workers=2, faults=None, seed=1):
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, 8, 20, 2, seed=0)
    runtime = RuntimeConfig(executor=executor, workers=workers,
                            faults=faults or FaultConfig())
    return OliveSystem(
        build_model("tiny_mlp", seed=0), clients,
        OliveConfig(sample_rate=0.8, noise_multiplier=0.8,
                    aggregator="advanced", training=TRAIN),
        seed=seed, runtime=runtime,
    )


def run_olive(executor, workers=2, faults=None, rounds=2, seed=1):
    with olive_system(executor, workers, faults, seed) as system:
        return system.run(rounds)


def assert_logs_identical(a_logs, b_logs):
    for a, b in zip(a_logs, b_logs):
        assert a.participants == b.participants
        assert set(a.updates) == set(b.updates)
        for cid in a.updates:
            assert np.array_equal(a.updates[cid].indices,
                                  b.updates[cid].indices)
            assert np.array_equal(a.updates[cid].values,
                                  b.updates[cid].values)
        assert np.array_equal(a.weights_after, b.weights_after)
        assert a.epsilon == b.epsilon


class TestSeeding:
    def test_identity_derivation_is_stable(self):
        a = derive_rng(7, STREAM_TRAIN, 3, 5).random(8)
        b = derive_rng(7, STREAM_TRAIN, 3, 5).random(8)
        assert np.array_equal(a, b)

    def test_streams_partition_the_namespace(self):
        a = derive_rng(7, STREAM_TRAIN, 3, 5).random(8)
        b = derive_rng(7, STREAM_FAULT, 3, 5).random(8)
        assert not np.array_equal(a, b)

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            derive_rng(0, STREAM_TRAIN, -1)

    def test_nonce_shape_and_uniqueness(self):
        nonces = {derive_nonce(0, r, c) for r in range(5) for c in range(5)}
        assert len(nonces) == 25
        assert all(len(n) == 16 for n in nonces)
        assert derive_nonce(0, 1, 2) == derive_nonce(0, 1, 2)


class TestExecutorEquivalence:
    """serial == thread, bit for bit."""

    @pytest.mark.parametrize("executor,workers", [
        ("thread", 1), ("thread", 3), ("thread", 8),
    ])
    def test_thread_matches_serial(self, executor, workers):
        assert_logs_identical(run_olive("serial"),
                              run_olive(executor, workers))

    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1), ("thread", 5),
    ])
    def test_faulty_rounds_executor_invariant(self, executor, workers):
        base = run_olive("thread", 2, faults=FAULTS)
        other = run_olive(executor, workers, faults=FAULTS)
        assert_logs_identical(base, other)

    def test_rerun_is_bit_identical(self):
        assert_logs_identical(run_olive("serial"), run_olive("serial"))


class TestSimulationEquivalence:
    def _sim(self, executor, workers=2):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        clients = partition_clients(gen, 8, 20, 2, seed=0)
        return FederatedSimulation(
            model=build_model("tiny_mlp", seed=0), clients=clients,
            training=TRAIN, server=ServerConfig(sample_rate=0.8),
            seed=2,
            runtime_config=RuntimeConfig(executor=executor, workers=workers),
        )

    @pytest.mark.parametrize("executor,workers", [
        ("thread", 2), ("thread", 7),
    ])
    def test_parallel_matches_serial(self, executor, workers):
        with self._sim("serial") as serial, \
                self._sim(executor, workers) as parallel:
            a_logs = serial.run(2)
            b_logs = parallel.run(2)
        for a, b in zip(a_logs, b_logs):
            assert a.participants == b.participants
            assert np.array_equal(a.weights_after, b.weights_after)
            for cid in a.updates:
                assert np.array_equal(a.updates[cid].values,
                                      b.updates[cid].values)

    def test_plain_mode_rejects_transport_faults(self):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        clients = partition_clients(gen, 4, 10, 2, seed=0)
        with pytest.raises(ValueError, match="encrypted"):
            FederatedSimulation(
                model=build_model("tiny_mlp", seed=0), clients=clients,
                runtime_config=RuntimeConfig(
                    faults=FaultConfig(corrupt_rate=0.5)
                ),
            )


class TestTeacherEquivalence:
    def test_teacher_identical_across_executors(self):
        from repro.attack.pipeline import AttackConfig, build_teacher
        from repro.fl.datasets import server_test_data_by_label

        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        with olive_system() as system:
            logs = system.run(2)
        by_label = server_test_data_by_label(gen, 12, seed=9)
        model = build_model("tiny_mlp", seed=0)
        cfg = AttackConfig(teacher_samples_per_label=3)
        serial = build_teacher(logs, model, by_label, TRAIN, cfg)
        threaded = build_teacher(
            logs, model, by_label, TRAIN, cfg,
            runtime=RuntimeConfig(executor="thread", workers=4),
        )
        assert serial == threaded


class TestRuntimeConfigValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(executor="gpu")

    def test_executor_names(self):
        from repro.__main__ import _parse_args

        assert EXECUTORS == ("serial", "thread", "vectorized")
        with pytest.raises(ValueError):
            RuntimeConfig(executor="process")
        with pytest.raises(SystemExit):
            _parse_args(["--executor", "process"])
        assert _parse_args(["--executor", "vectorized"]).executor \
            == "vectorized"

    def test_bad_quorum_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(min_quorum=1.5)

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(workers=0)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(client_timeout_s=0.0)

    def test_realized_accounting_tristate(self):
        assert not RuntimeConfig().use_realized_accounting()
        assert RuntimeConfig(
            faults=FaultConfig(dropout_rate=0.1)
        ).use_realized_accounting()
        assert RuntimeConfig(
            realized_accounting=True
        ).use_realized_accounting()
        assert not RuntimeConfig(
            faults=FaultConfig(dropout_rate=0.1),
            realized_accounting=False,
        ).use_realized_accounting()

    def test_make_executor_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_executor("gpu", 2)
