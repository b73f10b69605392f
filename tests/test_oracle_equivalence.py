"""Every trainer and eval caller of the single layer stack, bit for bit
against the scalar oracle (``tests/oracles.py``).

The package keeps one layer stack (leading client axis) and one client
core.  These tests pin each path that used to run the scalar stack to
the scalar code it replaced: cohort ciphertexts (against the
per-client loop, under every executor name a recorded run may
carry), attack-teacher replay, attack-classifier training and scoring,
the LDP round, the serving CLI's quick model, and evaluation forward
passes.
"""

import numpy as np
import pytest

from repro.attack.classifiers import NnAttack, NnSingleAttack, _nn_features
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, ClientData, SyntheticClassData, partition_clients
from repro.fl.models import accuracy, build_model
from repro.core.olive import OliveConfig, OliveSystem
from repro.dp.ldp import run_ldp_round
from repro.runtime import (
    STREAM_TEACHER,
    CohortRuntime,
    FaultConfig,
    RuntimeConfig,
    replay_indices,
)
from repro.serving.cli import _quick_model
from repro.serving.engine import ObliviousInferenceEngine
from repro.sgx import crypto

from . import oracles

ENTROPY = 11
#: Former executor names, kept as test ids; each stands for the one
#: batched path at its default chunking (``_replay_config``).
EXECUTORS = ("serial", "thread", "vectorized")


def _clients(model_name="tiny_mlp", n_clients=10, samples=20):
    spec = next(s for s in SPECS.values() if s.model_name == model_name)
    gen = SyntheticClassData(spec, seed=0)
    return partition_clients(gen, n_clients, samples, 2, seed=0)


def _replay_config(executor, faults=None):
    """The runtime a run recorded under ``executor`` ran as."""
    return RuntimeConfig(faults=faults or FaultConfig())


def _keys(clients):
    return {c.client_id: crypto.generate_key(b"k%d" % c.client_id)
            for c in clients}


def _cohort(executor, training, clients, *, model_name="tiny_mlp",
            quantize_bits=None, round_index=0, faults=None):
    """Run one cohort round under the runtime a run recorded with
    ``executor`` ran as; returns each delivery's flags and ciphertext
    bytes."""
    model = build_model(model_name, seed=0)
    runtime = CohortRuntime(_replay_config(executor, faults), model,
                            clients, ENTROPY, keys=_keys(clients))
    result = runtime.run_cohort(
        round_index, [c.client_id for c in clients], model.get_flat(),
        training, quantize_bits=quantize_bits,
    )
    return _deliveries(result)


def _oracle_cohort(training, clients, *, model_name="tiny_mlp",
                   quantize_bits=None, round_index=0, faults=None):
    """The same round as the scalar per-client loop."""
    template = oracles.build_model(model_name, seed=0)
    result = oracles.run_cohort_loop(
        RuntimeConfig(backoff_base_s=0.0, faults=faults or FaultConfig()),
        template, clients, ENTROPY, round_index,
        [c.client_id for c in clients], template.get_flat(), training,
        keys=_keys(clients), quantize_bits=quantize_bits,
    )
    return _deliveries(result)


def _deliveries(result):
    return [(d.client_id, d.duplicate, d.corrupt, d.ciphertext.to_bytes())
            for d in result.deliveries]


class TestExecutorsMatchOracle:
    """Ciphertext bytes of the runtime equal the scalar loop's, whichever
    executor the run was recorded under."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("sparsifier", ["top_k", "threshold", "random_k"])
    @pytest.mark.parametrize("algorithm", ["fedavg", "fedsgd"])
    def test_sealed_grid(self, executor, sparsifier, algorithm):
        training = TrainingConfig(
            local_epochs=2, local_lr=0.1, batch_size=8, sparse_ratio=0.2,
            clip=1.0, sparsifier=sparsifier, algorithm=algorithm,
            threshold_tau=1e-3,
        )
        clients = _clients()
        assert _cohort(executor, training, clients, round_index=3) == \
            _oracle_cohort(training, clients, round_index=3)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_threshold_fallback_row(self, executor):
        # tau above every coordinate: each client falls back to its
        # single largest coordinate.
        training = TrainingConfig(local_lr=0.1, batch_size=8,
                                  sparsifier="threshold", threshold_tau=1e6)
        clients = _clients(n_clients=4)
        assert _cohort(executor, training, clients) == \
            _oracle_cohort(training, clients)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_plain_and_quantized(self, executor):
        # Plain f64 values and QSGD levels, both sealed.
        training = TrainingConfig(local_lr=0.1, batch_size=8)
        clients = _clients()
        assert _cohort(executor, training, clients) == \
            _oracle_cohort(training, clients)
        assert _cohort(executor, training, clients, quantize_bits=4) == \
            _oracle_cohort(training, clients, quantize_bits=4)

    @pytest.mark.parametrize("executor", ["serial", "vectorized"])
    def test_conv_model(self, executor):
        training = TrainingConfig(local_lr=0.05, batch_size=4,
                                  sparse_ratio=0.05)
        clients = _clients("cifar10_cnn", n_clients=2, samples=8)
        assert _cohort(executor, training, clients,
                       model_name="cifar10_cnn") == \
            _oracle_cohort(training, clients, model_name="cifar10_cnn")

    def test_faulty_round(self):
        # Dropouts, stragglers, corrupt and replayed uploads, and
        # transient failures retried to success.  At these rates a
        # 40-client cohort lacks a corrupt or a replayed upload with
        # probability below 1e-4, whatever the seed derivation.
        faults = FaultConfig(dropout_rate=0.2, straggler_rate=0.3,
                             straggler_delay_s=0.001, corrupt_rate=0.3,
                             replay_rate=0.3, transient_failure_rate=0.3)
        training = TrainingConfig(local_lr=0.1, batch_size=8)
        clients = _clients(n_clients=40)
        got = _cohort("vectorized", training, clients, faults=faults,
                      round_index=3)
        assert got == _oracle_cohort(training, clients, faults=faults,
                                     round_index=3)
        assert any(dup for _, dup, _, _ in got)
        assert any(bad for _, _, bad, _ in got)


class TestTeacherReplay:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_train_tasks_match_oracle(self, executor):
        # The attacker replays from each round's weights of a run
        # recorded under ``executor``.
        training = TrainingConfig(local_epochs=2, local_lr=0.2,
                                  batch_size=4, sparse_ratio=0.1)
        gen = SyntheticClassData(SPECS["tiny"], seed=1)
        system = OliveSystem(
            build_model("tiny_mlp", seed=4),
            partition_clients(gen, 6, 10, 2, seed=0),
            OliveConfig(sample_rate=0.5, training=training),
            seed=0, runtime=_replay_config(executor),
        )
        logs = system.run(2)
        rng = np.random.default_rng(2)
        tasks = []
        for log in logs:
            for label in range(3):
                x = gen.sample(np.full(9, label), rng)
                for shard, idx in enumerate(
                        np.array_split(np.arange(9), 2)):
                    tasks.append(((log.round_index, label, shard),
                                  log.weights_before, x[idx],
                                  np.full(len(idx), label)))
        model = build_model("tiny_mlp", seed=0)
        got = [replay_indices(model, weights, x, y, training,
                              entropy=ENTROPY, stream=STREAM_TEACHER,
                              key=key)
               for key, weights, x, y in tasks]
        template = oracles.build_model("tiny_mlp", seed=0)
        for (key, weights, x, y), indices in zip(tasks, got):
            ref = oracles.train_once(
                template, weights, ClientData(-1, x, y),
                training, ENTROPY, STREAM_TEACHER, STREAM_TEACHER,
                (*key, 0),
            )
            assert np.array_equal(indices, ref.indices)


def _teacher(n_rounds=2, n_labels=4, samples=3, dim=40):
    rng = np.random.default_rng(0)
    return {
        rnd: {label: [frozenset(rng.choice(dim, 6, replace=False).tolist())
                      for _ in range(samples)]
              for label in range(n_labels)}
        for rnd in range(n_rounds)
    }


class TestAttackClassifiers:
    def test_nn_round_models_and_scores(self):
        teacher, dim, n_labels = _teacher(), 40, 4
        attack = NnAttack(hidden=16, epochs=3, batch_size=5, seed=3)
        models = attack.fit_round_models(teacher, dim, n_labels)
        # The scalar loop: one fresh MLP per round, one shared rng.
        rng = np.random.default_rng(attack.seed)
        for rnd, per_label in teacher.items():
            xs = [_nn_features(s, dim) for ss in per_label.values() for s in ss]
            ys = [label for label, ss in per_label.items() for _ in ss]
            ref = oracles.attack_mlp(dim, n_labels, attack.hidden,
                                     attack.seed + rnd)
            oracles.train_classifier(ref, np.asarray(xs), np.asarray(ys),
                                     attack.epochs, attack.lr,
                                     attack.batch_size, rng)
            assert np.array_equal(models[rnd].get_flat(), ref.get_flat())
            probe = np.stack(xs)
            assert np.array_equal(
                models[rnd].forward(probe[None])[0], ref.forward(probe))

    def test_nn_single_scores(self):
        teacher, dim, n_labels = _teacher(), 40, 4
        attack = NnSingleAttack(hidden=16, epochs=3, batch_size=5, seed=1)
        model, rounds = attack.fit(teacher, dim, n_labels)
        observed = {0: teacher[0][2][0], 1: teacher[1][2][1]}
        x = attack._concat_features(observed, rounds, dim)
        expected = oracles.attack_mlp(dim * len(rounds), n_labels,
                                      attack.hidden, attack.seed)
        expected.set_flat(model.get_flat())
        logits = expected.forward(x[None])
        probs = np.exp(logits - logits.max()) / np.exp(
            logits - logits.max()).sum()
        assert np.array_equal(
            attack.score(observed, model, rounds, dim), probs[0])


class TestLdpRound:
    def test_two_rounds_match_oracle(self):
        clients = _clients(n_clients=3, samples=24)
        training = TrainingConfig(local_epochs=2, local_lr=0.1, batch_size=8)
        model = build_model("tiny_mlp", seed=0)
        ref_model = oracles.build_model("tiny_mlp", seed=0)
        w, ref_w = model.get_flat(), ref_model.get_flat()
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(2):   # the model's dropout stream carries over
            w = run_ldp_round(model, w, clients, training, 0.5, rng)
            ref_w = oracles.run_ldp_round(ref_model, ref_w, clients,
                                          training, 0.5, ref_rng)
            assert np.array_equal(w, ref_w)


class TestServingModels:
    def test_quick_model_weights(self):
        model, spec = _quick_model(4)
        ref, ref_spec = oracles.quick_model(4)
        assert spec == ref_spec
        assert np.array_equal(model.get_flat(), ref.get_flat())

    def test_engine_logits(self):
        model, spec = _quick_model(0)
        ref, _ = oracles.quick_model(0)
        x = SyntheticClassData(spec, seed=1).sample(
            np.arange(8) % spec.n_labels, np.random.default_rng(1))
        engine = ObliviousInferenceEngine(model, batch_size=8)
        assert np.array_equal(engine.infer_batch(x, traced=False).logits,
                              ref.forward(x))


class TestEvalForward:
    @pytest.mark.parametrize("name", ["cifar10_cnn", "cifar100_cnn",
                                      "mnist_mlp"])
    def test_single_model_forward(self, name):
        spec = next(s for s in SPECS.values() if s.model_name == name)
        x = SyntheticClassData(spec, seed=0).sample(
            np.arange(5) % spec.n_labels, np.random.default_rng(0))
        y = np.arange(5) % spec.n_labels
        weights = build_model(name, seed=2).get_flat()
        model, ref = build_model(name), oracles.build_model(name)
        model.set_flat(weights)
        ref.set_flat(weights)
        assert np.array_equal(model.forward(x[None])[0], ref.forward(x))
        assert accuracy(model, x, y) == oracles.accuracy(ref, x, y)
