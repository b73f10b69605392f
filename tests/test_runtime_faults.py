"""Fault-path tests for the cohort runtime.

Covers the fault model end to end: injected faults only ever *exclude*
clients (never change surviving bits), the quorum completion policy,
retry exhaustion, analytic straggler drops, enclave replay/duplicate
rejection, fixed-q privacy accounting under faults, checkpoint
round-trips, and the runtime telemetry counters.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.olive import OliveConfig, OliveSystem
from repro.dp.accountant import PrivacyAccountant, epsilon_for
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.fl.sparsify import densify
from repro.runtime import (
    STATUS_DROPPED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_STRAGGLER,
    FaultConfig,
    FaultInjector,
    QuorumNotMetError,
    RuntimeConfig,
)
from repro.sgx import crypto
from repro.sgx.enclave import (
    Enclave,
    EnclaveSecurityError,
    provision_enclave_with_clients,
)

from .oracles import load_upload

TRAIN = TrainingConfig(local_epochs=1, local_lr=0.1, batch_size=8,
                       sparse_ratio=0.1, clip=1.0)


def make_system(runtime=None, seed=1, n_clients=8, sample_rate=1.0,
                **cfg_kwargs):
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, n_clients, 20, 2, seed=0)
    config = OliveConfig(sample_rate=sample_rate, noise_multiplier=0.8,
                         aggregator="advanced", training=TRAIN,
                         **cfg_kwargs)
    return OliveSystem(build_model("tiny_mlp", seed=0), clients, config,
                       seed=seed, runtime=runtime)


class TestFaultInjector:
    def test_plans_are_deterministic(self):
        cfg = FaultConfig(dropout_rate=0.3, straggler_rate=0.3,
                          corrupt_rate=0.3, replay_rate=0.3,
                          transient_failure_rate=0.3)
        a = FaultInjector(cfg, entropy=5)
        b = FaultInjector(cfg, entropy=5)
        for r in range(4):
            for c in range(16):
                assert a.plan(r, c) == b.plan(r, c)

    def test_inactive_config_yields_clean_plans(self):
        injector = FaultInjector(FaultConfig(), entropy=0)
        assert injector.plan(0, 0).clean

    def test_rates_are_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(dropout_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(straggler_delay_s=-1.0)

    def test_fixed_delay_without_jitter(self):
        cfg = FaultConfig(straggler_rate=1.0, straggler_delay_s=0.5,
                          straggler_jitter=False)
        plan = FaultInjector(cfg, entropy=0).plan(0, 0)
        assert plan.delay_s == 0.5


class TestFaultIsolation:
    """Faults exclude clients; they never perturb surviving bits."""

    def test_aggregate_differs_exactly_by_excluded_clients(self):
        faults = FaultConfig(dropout_rate=0.3, straggler_rate=0.2,
                             straggler_delay_s=0.001, corrupt_rate=0.15,
                             replay_rate=0.15, transient_failure_rate=0.2)
        with make_system() as clean, \
                make_system(RuntimeConfig(faults=faults)) as faulty:
            clean_log = clean.run_round()
            faulty_log = faulty.run_round()

        assert set(faulty_log.updates) < set(clean_log.updates)
        for cid in faulty_log.updates:
            assert np.array_equal(clean_log.updates[cid].values,
                                  faulty_log.updates[cid].values)
        d = clean.d
        excluded = np.zeros(d)
        for cid in set(clean_log.updates) - set(faulty_log.updates):
            u = clean_log.updates[cid]
            excluded += densify(u.indices, u.values, d)
        # Same enclave noise both runs, same denominator (expected qN):
        # the released updates differ exactly by the excluded clients.
        delta = clean_log.weights_after - faulty_log.weights_after
        denominator = max(1.0, 1.0 * len(clean.clients))
        assert np.allclose(delta, excluded / denominator)

    def test_replayed_duplicate_does_not_double_count(self):
        faults = FaultConfig(replay_rate=1.0)
        with make_system() as clean, \
                make_system(RuntimeConfig(faults=faults)) as replayed:
            clean_log = clean.run_round()
            replay_log = replayed.run_round()
        # Every upload was delivered twice; the enclave accepted one
        # copy of each, so the round matches the clean one.
        assert set(replay_log.updates) == set(clean_log.updates)
        assert np.array_equal(clean_log.weights_after,
                              replay_log.weights_after)


class TestQuorum:
    def test_quorum_met_round_completes(self):
        runtime = RuntimeConfig(min_quorum=0.5)
        with make_system(runtime) as system:
            log = system.run_round()
        assert len(log.updates) >= 4

    def test_quorum_not_met_aborts_round(self):
        runtime = RuntimeConfig(min_quorum=0.9)
        with make_system(runtime) as system:
            weights_before = system.global_weights.copy()
            with pytest.raises(QuorumNotMetError):
                system.run_round(dropouts={0, 1, 2})
            # Round aborted: weights unchanged, no history entry, no
            # privacy budget consumed.
            assert np.array_equal(system.global_weights, weights_before)
            assert system.history == []
            assert system.accountant.steps == 0

    def test_failed_round_weights_unchanged_by_retry(self):
        # Quorum failure then a clean round: the clean round proceeds.
        runtime = RuntimeConfig(min_quorum=0.9)
        with make_system(runtime) as system:
            with pytest.raises(QuorumNotMetError):
                system.run_round(dropouts={0, 1, 2})
            log = system.run_round()
        assert log.round_index == 0
        assert len(log.updates) == 8

    def test_quorum_retry_redraws_the_same_cohort(self):
        # The round index advances only when a round releases, and the
        # enclave keys round r's sample on r: forcing an abort cannot
        # reroll the Poisson draw.
        runtime = RuntimeConfig(min_quorum=1.0)
        with make_system(runtime, n_clients=12, sample_rate=0.5) as system:
            aborted = []
            for kept in range(3):
                with pytest.raises(QuorumNotMetError):
                    system.run_round(dropouts=set(range(12)) - {kept})
                aborted.append(sorted(system.enclave.sampled_clients))
                assert system.round_index == 0
            log = system.run_round()
        with make_system(runtime, n_clients=12, sample_rate=0.5) as fresh:
            straight = fresh.run_round()
        assert aborted == [straight.participants] * 3
        assert log.round_index == 0 and system.round_index == 1
        assert log.participants == straight.participants
        assert np.array_equal(log.weights_after, straight.weights_after)


class TestRetriesAndStragglers:
    def test_transient_failures_are_retried_to_success(self):
        faults = FaultConfig(transient_failure_rate=1.0,
                             transient_failures=2)
        runtime = RuntimeConfig(max_retries=2, backoff_base_s=0.0,
                                faults=faults)
        with make_system(runtime) as faulty, make_system() as clean:
            sink = obs.MemorySink()
            with obs.session(sinks=[sink]):
                faulty_log = faulty.run_round()
            clean_log = clean.run_round()
        # Every client failed twice then succeeded; the results are
        # bit-identical to a never-failed run.
        assert set(faulty_log.updates) == set(clean_log.updates)
        assert np.array_equal(faulty_log.weights_after,
                              clean_log.weights_after)
        counters = sink.last_values("counter")
        assert counters["runtime.transient_failures"] == 16
        assert counters["runtime.retries"] == 16
        outcomes = faulty_log.cohort.outcomes
        assert all(o.status == STATUS_OK and o.attempts == 3
                   for o in outcomes.values())

    def test_retry_exhaustion_drops_the_client(self):
        faults = FaultConfig(transient_failure_rate=1.0,
                             transient_failures=5)
        runtime = RuntimeConfig(max_retries=1, backoff_base_s=0.0,
                                faults=faults)
        with make_system(runtime) as system:
            sink = obs.MemorySink()
            with obs.session(sinks=[sink]):
                log = system.run_round()
        assert log.updates == {}
        assert all(o.status == STATUS_FAILED
                   for o in log.cohort.outcomes.values())
        assert sink.last_values("counter")["runtime.failures"] == 8

    def test_straggler_beyond_timeout_dropped_analytically(self):
        faults = FaultConfig(straggler_rate=1.0, straggler_delay_s=30.0,
                             straggler_jitter=False)
        runtime = RuntimeConfig(client_timeout_s=0.5, faults=faults)
        import time
        with make_system(runtime) as system:
            t0 = time.perf_counter()
            log = system.run_round()
            elapsed = time.perf_counter() - t0
        # No 30 s sleeps: the injected delay is part of the plan, so the
        # coordinator drops the stragglers without waiting.
        assert elapsed < 5.0
        assert log.updates == {}
        assert all(o.status == STATUS_STRAGGLER
                   for o in log.cohort.outcomes.values())

    def test_short_straggler_delay_is_slept_and_completes(self):
        faults = FaultConfig(straggler_rate=1.0, straggler_delay_s=0.005,
                             straggler_jitter=False)
        runtime = RuntimeConfig(client_timeout_s=5.0, faults=faults)
        with make_system(runtime) as system:
            log = system.run_round()
        assert len(log.updates) == 8


class TestEnclaveReplayDefence:
    def _provisioned(self):
        enclave = Enclave(seed=0)
        keys = provision_enclave_with_clients(enclave, [0, 1])
        enclave.sample_clients([0, 1], 1.0, 0)
        return enclave, keys

    def test_same_ciphertext_twice_rejected(self):
        enclave, keys = self._provisioned()
        ct = crypto.seal(keys[0], crypto.encode_sparse_gradient([1], [1.0]))
        load_upload(enclave, 0, ct, 8)
        with pytest.raises(EnclaveSecurityError, match="already contributed"):
            load_upload(enclave, 0, ct, 8)

    def test_second_upload_same_client_rejected(self):
        enclave, keys = self._provisioned()
        ct1 = crypto.seal(keys[0], crypto.encode_sparse_gradient([1], [1.0]))
        ct2 = crypto.seal(keys[0], crypto.encode_sparse_gradient([2], [2.0]))
        load_upload(enclave, 0, ct1, 8)
        with pytest.raises(EnclaveSecurityError, match="already contributed"):
            load_upload(enclave, 0, ct2, 8)

    def test_failed_decrypt_does_not_burn_the_slot(self):
        enclave, keys = self._provisioned()
        good = crypto.seal(keys[0], crypto.encode_sparse_gradient([1], [1.0]))
        bad = crypto.Ciphertext(
            good.nonce, bytes([good.body[0] ^ 0xFF]) + good.body[1:],
            good.tag,
        )
        with pytest.raises(EnclaveSecurityError, match="authentication"):
            load_upload(enclave, 0, bad, 8)
        # The tampered upload must not lock client 0 out of the round.
        idx, val = load_upload(enclave, 0, good, 8)
        assert (idx.tolist(), val.tolist()) == ([1], [1.0])

    def test_replay_state_resets_on_new_round(self):
        enclave, keys = self._provisioned()
        ct = crypto.seal(keys[0], crypto.encode_sparse_gradient([1], [1.0]))
        load_upload(enclave, 0, ct, 8)
        enclave.sample_clients([0, 1], 1.0, 1)
        idx, val = load_upload(enclave, 0, ct, 8)
        assert (idx.tolist(), val.tolist()) == ([1], [1.0])

    def test_rejections_counted(self):
        enclave, keys = self._provisioned()
        ct = crypto.seal(keys[0], crypto.encode_sparse_gradient([1], [1.0]))
        sink = obs.MemorySink()
        with obs.session(sinks=[sink]):
            load_upload(enclave, 0, ct, 8)
            with pytest.raises(EnclaveSecurityError):
                load_upload(enclave, 0, ct, 8)
        assert sink.last_values("counter")["runtime.rejected"] == 1


class TestRealizedAccounting:
    """Every released round is charged at the configured q: clients lost
    after the enclave's draw buy no amplification."""

    def test_step_realized_matches_fixed_rate_epsilon(self):
        fixed = PrivacyAccountant(sampling_rate=0.5, noise_multiplier=1.1,
                                  delta=1e-5)
        realized = PrivacyAccountant(sampling_rate=0.5,
                                     noise_multiplier=1.1, delta=1e-5)
        fixed.step(3)
        for _ in range(3):
            realized.step_realized(0.5)
        assert realized.epsilon == fixed.epsilon

    def test_empty_realized_cohort_costs_a_full_round(self):
        acc = PrivacyAccountant(sampling_rate=0.5, noise_multiplier=1.1,
                                delta=1e-5)
        acc.step_realized(0.0)
        assert acc.steps == 1
        assert acc.epsilon == epsilon_for(0.5, 1.1, 1, 1e-5) > 0

    def test_smaller_realized_cohort_costs_the_same(self):
        small = PrivacyAccountant(sampling_rate=0.5, noise_multiplier=1.1,
                                  delta=1e-5)
        large = PrivacyAccountant(sampling_rate=0.5, noise_multiplier=1.1,
                                  delta=1e-5)
        small.step_realized(0.2)
        large.step_realized(0.8)
        assert small.epsilon == large.epsilon == epsilon_for(0.5, 1.1, 1,
                                                             1e-5) > 0

    def test_mixed_steps_compose_additively(self):
        acc = PrivacyAccountant(sampling_rate=0.5, noise_multiplier=1.1,
                                delta=1e-5)
        acc.step()
        acc.step_realized(0.25)
        solo = epsilon_for(0.5, 1.1, 1, 1e-5)
        assert acc.epsilon == epsilon_for(0.5, 1.1, 2, 1e-5) > solo

    def test_system_charges_q_under_faults(self):
        faults = FaultConfig(dropout_rate=0.4)
        with make_system(RuntimeConfig(faults=faults)) as system:
            log = system.run_round()
        assert len(log.updates) < len(system.clients)
        assert system.accountant.steps == 1
        assert log.epsilon == epsilon_for(1.0, 0.8, 1, 1e-5)

    def test_fault_free_system_keeps_fixed_rate_accounting(self):
        with make_system() as system:
            log = system.run_round()
        assert system.accountant.steps == 1
        assert log.epsilon == epsilon_for(1.0, 0.8, 1, 1e-5)


class TestCheckpointRealizedRates:
    def test_roundtrip_preserves_realized_ledger(self, tmp_path):
        # A fault run's ledger is its released-round count, nothing more.
        faults = FaultConfig(dropout_rate=0.4)
        with make_system(RuntimeConfig(faults=faults)) as system:
            system.run(2)
            path = tmp_path / "ckpt.npz"
            save_checkpoint(system, path)
            eps_before = system.accountant.epsilon

        with make_system(RuntimeConfig(faults=faults)) as fresh:
            meta = load_checkpoint(fresh, path)
        assert meta["version"] == 7
        assert "realized_rates" not in meta
        assert fresh.accountant.steps == 2
        assert fresh.accountant.epsilon == eps_before

    @pytest.mark.parametrize("version", [1, 3, 4, 5, 6])
    def test_older_checkpoint_versions_refused(self, tmp_path, version):
        with make_system() as system:
            system.run_round()
            path = tmp_path / "old.npz"
            save_checkpoint(system, path)
        # Rewrite the archive with older metadata: its draws came from
        # another seed derivation (version 4: sequential enclave
        # sampling and noise), or it lacks the shard service's leaf pool
        # (version 5), so resuming would fork the run.  A version-6
        # ledger may hold realized rates that under-charged the budget.
        with np.load(path, allow_pickle=False) as archive:
            weights = archive["global_weights"]
            meta = json.loads(str(archive["meta"]))
        meta["version"] = version
        np.savez(path, global_weights=weights, meta=json.dumps(meta))

        with make_system() as fresh:
            with pytest.raises(ValueError,
                               match=f"version {version} .* version 7"):
                load_checkpoint(fresh, path)
            assert fresh.accountant.steps == 0


class TestRuntimeTelemetry:
    def test_faulty_round_emits_runtime_counters_and_spans(self):
        # Every runtime counter is checked against the round's own fault
        # plan.  At these rates a 64-client cohort misses some fault kind
        # with probability below 1e-4, whatever the seed derivation.
        faults = FaultConfig(dropout_rate=0.2, straggler_rate=0.3,
                             straggler_delay_s=0.001, corrupt_rate=0.3,
                             replay_rate=0.4, transient_failure_rate=0.2,
                             transient_failures=2)
        runtime = RuntimeConfig(backoff_base_s=0.0, max_retries=1,
                                faults=faults)
        sink = obs.MemorySink()
        with make_system(runtime, n_clients=64) as system:
            with obs.session(sinks=[sink]):
                log = system.run_round()

        plans = [o.plan for o in log.cohort.outcomes.values()]
        admitted = [p for p in plans if not p.dropped]
        completed = [p for p in admitted if p.fail_attempts <= 1]
        expected = {
            "runtime.dropouts": len(plans) - len(admitted),
            "runtime.transient_failures": sum(p.fail_attempts
                                              for p in admitted),
            "runtime.retries": sum(min(p.fail_attempts, 1)
                                   for p in admitted),
            "runtime.failures": len(admitted) - len(completed),
            "runtime.corrupted": sum(p.corrupt for p in completed),
            "runtime.replays_injected": sum(p.replay for p in completed),
            # A replayed intact upload is refused as a duplicate; a
            # replayed corrupt one fails authentication instead.
            "runtime.rejected": sum(p.replay and not p.corrupt
                                    for p in completed),
        }
        assert all(expected.values()), expected   # every fault kind occurs
        assert any(p.delay_s > 0 for p in completed)
        counters = sink.last_values("counter")
        assert {k: counters.get(k, 0) for k in expected} == expected
        assert counters["runtime.quorum_met"] == 1
        gauges = sink.last_values("gauge")
        assert gauges["runtime.completed_cohort"] == len(completed)
        assert len(log.updates) == len(completed) - expected[
            "runtime.corrupted"]
        # One train span per cohort, nested directly under the round.
        spans = [e for e in sink.events if e.get("type") == "span"]
        train = [e for e in spans if e["name"] == "train"]
        assert [e["path"] for e in train] == ["round/train"]
        assert train[0]["attrs"] == {
            "clients": gauges["runtime.completed_cohort"], "chunks": 1}

    def test_dropped_clients_recorded_in_outcomes(self):
        faults = FaultConfig(dropout_rate=0.5)
        with make_system(RuntimeConfig(faults=faults), seed=2) as system:
            log = system.run_round()
        statuses = {o.status for o in log.cohort.outcomes.values()}
        assert STATUS_DROPPED in statuses
        dropped = [c for c, o in log.cohort.outcomes.items()
                   if o.status == STATUS_DROPPED]
        assert all(c not in log.updates for c in dropped)


class TestCliFlags:
    def test_demo_accepts_runtime_flags(self, capsys):
        from repro.__main__ import main

        main(["--dropout-rate", "0.2", "--seed", "1"])
        out = capsys.readouterr().out
        assert "chunks of 8192 clients (vector_chunk)" in out
        assert "dropout rate 0.20" in out
        for flag in (["--workers", "2"], ["--executor", "thread"]):
            with pytest.raises(SystemExit):
                main(flag)
