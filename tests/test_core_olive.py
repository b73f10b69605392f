"""Tests for the end-to-end OLIVE system (repro.core.olive)."""

import numpy as np
import pytest

from repro.core.olive import OliveConfig, OliveSystem
from repro.core.obliviousness import traces_equal
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.fl.server import ServerConfig
from repro.sgx.enclave import EnclaveSecurityError


TRAIN = TrainingConfig(local_epochs=1, local_lr=0.1, batch_size=8,
                       sparse_ratio=0.1, clip=1.0)


def make_system(aggregator="advanced", n_clients=8, seed=0, **cfg_kwargs):
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, n_clients, 20, 2, seed=0)
    model = build_model("tiny_mlp", seed=0)
    config = OliveConfig(
        sample_rate=0.5, noise_multiplier=1.12, aggregator=aggregator,
        training=TRAIN, **cfg_kwargs,
    )
    return gen, OliveSystem(model, clients, config, seed=seed)


class TestConfig:
    def test_unknown_aggregator_rejected(self):
        with pytest.raises(ValueError):
            OliveConfig(aggregator="magic")

    def test_grouping_requires_advanced(self):
        with pytest.raises(ValueError):
            OliveConfig(aggregator="baseline", group_size=4)

    def test_grouped_advanced_allowed(self):
        assert OliveConfig(aggregator="advanced", group_size=4).group_size == 4

    @pytest.mark.parametrize("config_cls", [OliveConfig, ServerConfig])
    @pytest.mark.parametrize("field,value", [
        ("noise_multiplier", -0.5), ("noise_multiplier", float("nan")),
        ("expected_clients", 0), ("expected_clients", -3),
    ])
    def test_invalid_dp_settings_rejected(self, config_cls, field, value):
        # A negative multiplier used to run and report epsilon = inf; a
        # zero expected_clients was silently replaced by qN.
        with pytest.raises(ValueError, match=field):
            config_cls(**{field: value})

    @pytest.mark.parametrize("config_cls", [OliveConfig, ServerConfig])
    def test_no_dp_and_explicit_denominator_allowed(self, config_cls):
        config = config_cls(noise_multiplier=0.0, expected_clients=1)
        assert config.noise_multiplier == 0.0
        assert config.expected_clients == 1

    def test_explicit_denominator_is_used(self):
        # expected_clients=1 divides the sum by 1, not by qN = 4.
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        clients = partition_clients(gen, 8, 20, 2, seed=0)
        deltas = []
        for expected in (None, 1):
            config = OliveConfig(sample_rate=0.5, noise_multiplier=0.0,
                                 training=TRAIN, expected_clients=expected)
            system = OliveSystem(build_model("tiny_mlp", seed=0), clients,
                                 config, seed=0)
            log = system.run_round()
            deltas.append(log.weights_after - log.weights_before)
        assert np.allclose(deltas[1], 4.0 * deltas[0])


class TestProvisioning:
    def test_all_clients_attested(self):
        _, system = make_system()
        assert len(system.client_keys) == 8
        for cid in range(8):
            assert system.enclave.keystore.get(cid) == system.client_keys[cid]


class TestRounds:
    def test_round_updates_weights(self):
        _, system = make_system()
        log = system.run_round()
        assert not np.array_equal(log.weights_before, log.weights_after)
        assert np.array_equal(log.weights_after, system.global_weights)

    def test_participants_come_from_enclave_sampling(self):
        _, system = make_system()
        log = system.run_round()
        assert set(log.participants) == system.enclave.sampled_clients

    def test_history_grows(self):
        _, system = make_system()
        system.run(3)
        assert [log.round_index for log in system.history] == [0, 1, 2]

    def test_untraced_round_has_no_trace(self):
        _, system = make_system()
        log = system.run_round(traced=False)
        assert log.trace is None

    def test_traced_round_records_aggregation(self):
        _, system = make_system(aggregator="linear")
        log = system.run_round(traced=True)
        assert log.trace is not None
        assert len(log.trace) > 0

    def test_epsilon_reported_and_growing(self):
        _, system = make_system()
        logs = system.run(3)
        assert 0 < logs[0].epsilon < logs[1].epsilon < logs[2].epsilon

    def test_updates_are_sparse(self):
        _, system = make_system()
        log = system.run_round()
        d = system.d
        expected_k = int(np.ceil(0.1 * d))
        for update in log.updates.values():
            assert update.k == expected_k

    def test_evaluate(self):
        gen, system = make_system()
        x, y = gen.balanced(10, np.random.default_rng(1))
        assert 0.0 <= system.evaluate(x, y) <= 1.0


class TestAggregatorEquivalence:
    """The oblivious defense must not change the learning semantics."""

    @pytest.mark.parametrize("aggregator", ["baseline", "advanced", "path_oram"])
    def test_same_trajectory_as_linear(self, aggregator):
        _, linear_system = make_system(aggregator="linear", seed=3)
        _, oblivious_system = make_system(aggregator=aggregator, seed=3)
        linear_logs = linear_system.run(2)
        oblivious_logs = oblivious_system.run(2)
        for ll, ol in zip(linear_logs, oblivious_logs):
            assert ll.participants == ol.participants
            assert np.allclose(ll.weights_after, ol.weights_after)

    def test_grouped_same_trajectory(self):
        _, mono = make_system(aggregator="advanced", seed=4)
        _, grouped = make_system(aggregator="advanced", seed=4, group_size=2)
        assert np.allclose(
            mono.run(2)[-1].weights_after, grouped.run(2)[-1].weights_after
        )


class TestTelemetryIntegration:
    """A traced run must emit the full per-phase span stream."""

    # Unseal and aggregation run inside the shard service (a single
    # enclave is its one-leaf topology), so they nest under shard.round.
    PHASES = {"sample", "train", "shard.round", "noise", "accountant"}

    def test_traced_run_emits_phase_spans(self, tmp_path):
        from repro import obs

        path = tmp_path / "round_telemetry.jsonl"
        _, system = make_system()
        with obs.session(sinks=[obs.JsonlSink(path)]):
            system.run(2, traced=True)
        events = obs.read_jsonl(path)

        spans = [e for e in events if e["type"] == "span"]
        rounds = [e for e in spans if e["name"] == "round"]
        assert [e["attrs"]["index"] for e in rounds] == [0, 1]

        # Every phase span nested under every round.
        phase_names = {e["name"] for e in spans
                       if e["path"].startswith("round/")
                       and e["depth"] == 1}
        assert self.PHASES <= phase_names
        for phase in self.PHASES:
            count = sum(1 for e in spans if e["name"] == phase)
            assert count >= 2, f"phase {phase} missing from a round"

        # The leaf's one fold runs the traced kernel under shard.round.
        kernels = [e for e in spans if e["name"] == "kernel.advanced_traced"]
        assert len(kernels) == 2
        assert all(e["path"].startswith("round/shard.round/")
                   for e in kernels)
        # ECALL spans nest under the leaf's ingest.
        assert any(e["path"]
                   == "round/shard.round/shard.ingest/ecall.load_gradient"
                   for e in spans)

        counters = {e["name"]: e["value"] for e in events
                    if e["type"] == "counter"}
        assert counters["enclave.gradients_loaded"] >= 2
        assert counters["trace.accesses_recorded"] > 0
        gauges = {e["name"]: e["value"] for e in events
                  if e["type"] == "gauge"}
        assert gauges["dp.epsilon"] > 0
        assert gauges["trace.accesses"] > 0

    def test_untraced_run_with_telemetry_disabled_records_nothing(self):
        from repro import obs

        obs.reset()  # drop state left behind by earlier sessions
        _, system = make_system()
        system.run_round()
        assert obs.get_telemetry().span_stats == {}


class TestSecurityProperties:
    def test_advanced_round_traces_identical_across_data(self):
        # Same sampled participants + same k => identical traces even
        # though the two systems train on different data.
        gen_a = SyntheticClassData(SPECS["tiny"], seed=10)
        gen_b = SyntheticClassData(SPECS["tiny"], seed=20)
        logs = []
        for gen in (gen_a, gen_b):
            clients = partition_clients(gen, 6, 20, 2, seed=1)
            model = build_model("tiny_mlp", seed=0)
            system = OliveSystem(
                model, clients,
                OliveConfig(sample_rate=0.5, aggregator="advanced",
                            training=TRAIN),
                seed=5,
            )
            logs.append(system.run_round(traced=True))
        assert logs[0].participants == logs[1].participants
        assert traces_equal(logs[0].trace, logs[1].trace)

    def test_linear_round_traces_differ_across_data(self):
        gen_a = SyntheticClassData(SPECS["tiny"], seed=10)
        gen_b = SyntheticClassData(SPECS["tiny"], seed=20)
        logs = []
        for gen in (gen_a, gen_b):
            clients = partition_clients(gen, 6, 20, 2, seed=1)
            model = build_model("tiny_mlp", seed=0)
            system = OliveSystem(
                model, clients,
                OliveConfig(sample_rate=0.5, aggregator="linear",
                            training=TRAIN),
                seed=5,
            )
            logs.append(system.run_round(traced=True))
        assert not traces_equal(logs[0].trace, logs[1].trace)

    def test_forged_gradient_rejected_by_enclave(self):
        from repro.sgx import crypto

        _, system = make_system()
        system.enclave.sample_clients(list(range(8)), 1.0, 0)
        attacker_key = crypto.generate_key(b"mallory")
        forged = crypto.seal(
            attacker_key, crypto.encode_sparse_gradient([0], [9999.0])
        )
        with pytest.raises(EnclaveSecurityError):
            system.enclave.load_gradient(0, forged, system.d)

    def test_unsampled_injection_rejected(self):
        from repro.sgx import crypto

        _, system = make_system()
        system.enclave.sample_clients([0, 1], 1.0, 0)
        ct = crypto.seal(
            system.client_keys[5], crypto.encode_sparse_gradient([0], [1.0])
        )
        with pytest.raises(EnclaveSecurityError):
            system.enclave.load_gradient(5, ct, system.d)

    def test_noise_actually_applied(self):
        # sigma = 0 vs sigma > 0 must give different trajectories.
        _, clean = make_system(seed=6)
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        clients = partition_clients(gen, 8, 20, 2, seed=0)
        noiseless = OliveSystem(
            build_model("tiny_mlp", seed=0), clients,
            OliveConfig(sample_rate=0.5, noise_multiplier=0.0,
                        aggregator="advanced", training=TRAIN),
            seed=6,
        )
        w_noisy = clean.run_round().weights_after
        w_clean = noiseless.run_round().weights_after
        assert not np.allclose(w_noisy, w_clean)
