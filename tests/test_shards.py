"""Fault-tolerant sharded multi-enclave aggregation tests.

Pins the tentpole contracts of :mod:`repro.runtime.shards`:

1. **Recovery is invisible** -- every recovery path (leaf restart from
   checkpoint, failover to a sibling, resume-from-zero, root restart)
   produces an aggregate bit-identical to the fault-free sharded run
   and to a deterministic replay of the same seed + fault plan.
2. **No double counting, no lost uploads** -- the accepted-digest set
   travels inside sealed checkpoints; replays and cross-shard
   duplicates are refused by enclaves, not by coordinator bookkeeping.
3. **Degraded completion** -- a shard that exhausts its retry/failover
   budget fails the shard, not the round, unless the global quorum
   breaks -- then the round aborts with QuorumNotMetError *before*
   any privacy budget is spent.

Plus the satellite regressions: explicit ``Enclave.begin_round``,
sealed-checkpoint integrity, per-client failure reasons, and the
batched cohort's fault edges.
"""

import types

import numpy as np
import pytest

from repro.core.aggregation import AGGREGATORS, AggregatorSpec
from repro.core.grouping import aggregate_grouped
from repro.core.olive import OliveConfig, OliveSystem
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.runtime import (
    REASON_DROPOUT,
    REASON_STRAGGLER,
    REASON_TRANSIENT,
    STATUS_FAILED,
    STATUS_REJECTED,
    CohortRuntime,
    EnclaveFaultConfig,
    EnclaveFaultInjector,
    FaultConfig,
    LeafFaultPlan,
    QuorumNotMetError,
    RootFaultPlan,
    RuntimeConfig,
    ShardConfig,
    ShardedAggregator,
    plan_shards,
)
from repro.runtime.cohort import Delivery
from repro.sgx import crypto
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import (
    Enclave,
    EnclaveSecurityError,
    provision_enclave_with_clients,
)
from repro.sgx.memory import Trace

from . import oracles

D = 40
K = 4
TRAIN = TrainingConfig(local_epochs=1, local_lr=0.1, batch_size=8,
                       sparse_ratio=0.1, clip=1.0)


def build_root(n=60, seed=7):
    """A provisioned root enclave plus n sealed synthetic uploads."""
    svc = AttestationService(signing_key=b"k" * 32, platform_secret=b"p" * 32)
    root = Enclave(attestation_service=svc, seed=seed)
    keys = provision_enclave_with_clients(root, range(n))
    rng = np.random.default_rng(seed)
    deliveries = []
    for cid in range(n):
        idx = np.sort(rng.choice(D, size=K, replace=False))
        payload = crypto.encode_sparse_gradient(idx, rng.normal(size=K))
        ct = crypto.seal(keys[cid], payload,
                         nonce=bytes(12) + cid.to_bytes(4, "big"))
        deliveries.append(Delivery(client_id=cid, ciphertext=ct))
    root.begin_round(sampled=range(n))
    return root, deliveries


def run_shards(faults=None, n=60, entropy=123, min_accepted=0,
               injector=None, **cfg_kwargs):
    root, deliveries = build_root(n=n)
    cfg_kwargs.setdefault("shards", 4)
    cfg_kwargs.setdefault("oblivious_batch", 8)
    cfg_kwargs.setdefault("max_shard_retries", 6)
    cfg = ShardConfig(faults=faults or EnclaveFaultConfig(), **cfg_kwargs)
    service = ShardedAggregator(root, cfg, entropy=entropy)
    if injector is not None:
        service.injector = injector
    aggregate, report = service.aggregate_round(
        0, deliveries, D, sampled=set(range(n)), min_accepted=min_accepted)
    return aggregate, report, service, deliveries


def stub_injector(leaf_plans=None, root_plan=None):
    """An injector stub: scripted plans per (shard, attempt), else clean.

    ``leaf_plans`` maps (shard_index, attempt) -> LeafFaultPlan.
    """
    plans = leaf_plans or {}
    stub = types.SimpleNamespace()
    stub.leaf_plan = lambda r, s, a: plans.get((s, a), LeafFaultPlan())
    stub.root_plan = lambda r: root_plan or RootFaultPlan()
    return stub


def dense_sum(deliveries, keys_root, accepted):
    """Dense reference sum of the accepted clients' plaintext updates."""
    total = np.zeros(D)
    for dv in deliveries:
        if dv.client_id not in accepted or dv.duplicate:
            continue
        payload = crypto.open_sealed(keys_root.keystore.get(dv.client_id),
                                     dv.ciphertext)
        idx, vals = crypto.decode_sparse_gradient(payload)
        np.add.at(total, idx, vals)
    return total


class TestPlanning:
    def test_explicit_count_wins(self):
        assert plan_shards(10**6, D, 500, ShardConfig(shards=3)) == 3

    def test_epc_aware_sizing_grows_with_uploads(self):
        cfg = ShardConfig(epc_bytes=16 * 1024 * 1024)
        small = plan_shards(1_000, D, 500, cfg)
        large = plan_shards(200_000, D, 500, cfg)
        assert small == 1
        assert large > small

    def test_max_shards_caps_the_plan(self):
        # 80% of 9 MiB cannot hold a leaf's fixed working set, so every
        # leaf takes one upload and the plan clamps at 64 leaves.
        cfg = ShardConfig(epc_bytes=9 * 1024 * 1024)
        assert plan_shards(10**7, D, 2000, cfg) == 64

    def test_zero_uploads_one_shard(self):
        assert plan_shards(0, D, 0, ShardConfig()) == 1

    @pytest.mark.parametrize("kwargs", [
        {"shards": 0},
        {"shards": -1},
        {"epc_bytes": 0},
        {"oblivious_batch": 0},
        {"oblivious_batch": -1},
        {"shard_deadline_s": 0.0},
        {"max_shard_retries": -1},
        {"shard_deadline_s": -1.0},
        {"epc_bytes": -1},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            ShardConfig(**kwargs)


class TestEnclaveFaultInjector:
    def test_plans_deterministic_and_keyed_by_shard(self):
        cfg = EnclaveFaultConfig(leaf_crash_rate=0.4,
                                 leaf_straggler_rate=0.4,
                                 root_restart_rate=0.5)
        a = EnclaveFaultInjector(cfg, entropy=5)
        b = EnclaveFaultInjector(cfg, entropy=5)
        for r in range(3):
            for s in range(4):
                for t in range(3):
                    assert a.leaf_plan(r, s, t) == b.leaf_plan(r, s, t)
            assert a.root_plan(r) == b.root_plan(r)

    def test_inactive_config_is_clean(self):
        inj = EnclaveFaultInjector(EnclaveFaultConfig(), entropy=1)
        assert inj.leaf_plan(0, 0, 0).clean
        assert inj.root_plan(0).restart_fraction is None

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            EnclaveFaultConfig(leaf_crash_rate=1.5)
        with pytest.raises(ValueError):
            EnclaveFaultConfig(leaf_straggler_delay_s=-1)


class TestFaultFreeSharding:
    def test_accepts_everything_and_matches_dense_sum(self):
        aggregate, report, service, deliveries = run_shards()
        assert report.completion_rate == 1.0
        assert not report.degraded
        assert report.accepted_clients == list(range(60))
        ref = dense_sum(deliveries, service.root, set(range(60)))
        np.testing.assert_allclose(aggregate, ref, atol=1e-12)

    def test_deterministic_across_instances(self):
        agg_a, a, _, _ = run_shards()
        agg_b, b, _, _ = run_shards()
        assert agg_a.tobytes() == agg_b.tobytes()
        assert a.accepted_clients == b.accepted_clients

    def test_replayed_duplicate_deduped_once(self):
        root, deliveries = build_root()
        dup = deliveries[5]
        deliveries.append(Delivery(client_id=dup.client_id,
                                   ciphertext=dup.ciphertext,
                                   duplicate=True))
        service = ShardedAggregator(root, ShardConfig(shards=4), entropy=1)
        _, report = service.aggregate_round(0, deliveries, D,
                                         sampled=set(range(60)))
        assert sum(o.deduped for o in report.outcomes) == 1
        assert report.accepted_clients == list(range(60))
        assert dup.client_id not in report.rejected

    def test_corrupt_upload_rejected_with_reason(self):
        root, deliveries = build_root()
        bad = deliveries[3].ciphertext
        tampered = crypto.Ciphertext(nonce=bad.nonce,
                                     body=bad.body[:-1] + b"\x00",
                                     tag=bad.tag)
        deliveries[3] = Delivery(client_id=3, ciphertext=tampered,
                                 corrupt=True)
        service = ShardedAggregator(root, ShardConfig(shards=4), entropy=1)
        _, report = service.aggregate_round(0, deliveries, D,
                                         sampled=set(range(60)))
        assert report.rejected == {3: "corrupt"}
        assert 3 not in report.accepted_clients
        assert len(report.accepted_clients) == 59

    @pytest.mark.parametrize("quantize_bits", [None, 8])
    @pytest.mark.parametrize("defect", ["truncated", "index_out_of_range"])
    def test_malformed_upload_rejected_with_reason(self, quantize_bits,
                                                   defect):
        # An authenticated upload that does not decode to indices in
        # [0, d) is a per-upload reject, not a crashed round, and the
        # client is not marked accepted.
        svc = AttestationService(signing_key=b"k" * 32,
                                 platform_secret=b"p" * 32)
        root = Enclave(attestation_service=svc, seed=7)
        keys = provision_enclave_with_clients(root, range(6))

        def encode(idx):
            if quantize_bits is None:
                return crypto.encode_sparse_gradient(idx, [0.5] * len(idx))
            return crypto.encode_quantized_gradient(idx, [3] * len(idx),
                                                    0.1)

        deliveries = []
        for cid in range(6):
            payload = encode([1, 2 + cid])
            if cid == 3:
                payload = (payload[:-1] if defect == "truncated"
                           else encode([1, D]))
            deliveries.append(Delivery(
                client_id=cid, ciphertext=crypto.seal(keys[cid], payload)))
        service = ShardedAggregator(root, ShardConfig(shards=2), entropy=1)
        aggregate, report = service.aggregate_round(
            0, deliveries, D, sampled=set(range(6)),
            quantize_bits=quantize_bits)
        assert report.rejected == {3: "malformed"}
        assert report.accepted_clients == [0, 1, 2, 4, 5]
        assert sum(o.rejected.get("malformed", 0)
                   for o in report.outcomes) == 1
        assert aggregate[5] == 0.0 and aggregate[1] != 0.0

    def test_unsampled_upload_rejected(self):
        root, deliveries = build_root()
        service = ShardedAggregator(root, ShardConfig(shards=2), entropy=1)
        _, report = service.aggregate_round(0, deliveries, D,
                                         sampled=set(range(30)))
        assert len(report.accepted_clients) == 30
        assert all(reason == "unsampled"
                   for reason in report.rejected.values())


class TestRecovery:
    def _clean(self):
        aggregate, report, _, _ = run_shards()
        return aggregate, report

    def test_restart_resumes_from_checkpoint(self):
        clean_agg, clean = self._clean()
        # Shard 1 crashes (non-fatal) mid-attempt 0, then runs clean.
        inj = stub_injector({(1, 0): LeafFaultPlan(crash_fraction=0.7)})
        aggregate, report, _, _ = run_shards(injector=inj)
        out = report.outcomes[1]
        assert out.crashes == 1 and out.restarts == 1 and out.failovers == 0
        assert out.checkpoints >= 1
        assert aggregate.tobytes() == clean_agg.tobytes()
        assert report.accepted_clients == clean.accepted_clients

    def test_fatal_crash_fails_over_to_sibling(self):
        clean_agg, _ = self._clean()
        inj = stub_injector({(2, 0): LeafFaultPlan(crash_fraction=0.5,
                                                   fatal=True)})
        aggregate, report, service, _ = run_shards(injector=inj)
        out = report.outcomes[2]
        assert out.failovers == 1 and out.restarts == 0
        assert not service._leaves[out.shard_index % 4].alive or \
            out.leaf_index != out.shard_index
        assert aggregate.tobytes() == clean_agg.tobytes()

    def test_crash_before_any_checkpoint_resumes_from_zero(self):
        # A batch larger than the shard: no fold, so no checkpoint,
        # before the crash.
        clean_agg, _, _, _ = run_shards(oblivious_batch=100)
        inj = stub_injector({(0, 0): LeafFaultPlan(crash_fraction=0.9)})
        aggregate, report, _, _ = run_shards(injector=inj,
                                             oblivious_batch=100)
        out = report.outcomes[0]
        assert out.crashes == 1 and out.checkpoints == 0
        # Re-ingesting from zero must not double-count anything.
        assert aggregate.tobytes() == clean_agg.tobytes()

    def test_double_crash_same_shard(self):
        clean_agg, _ = self._clean()
        inj = stub_injector({
            (3, 0): LeafFaultPlan(crash_fraction=0.4),
            (3, 1): LeafFaultPlan(crash_fraction=0.8, fatal=True),
        })
        aggregate, report, _, _ = run_shards(injector=inj)
        out = report.outcomes[3]
        assert out.crashes == 2
        assert out.restarts == 1 and out.failovers == 1
        assert aggregate.tobytes() == clean_agg.tobytes()

    def test_root_restart_recovers_from_checkpoint(self):
        clean_agg, clean = self._clean()
        inj = stub_injector(root_plan=RootFaultPlan(restart_fraction=0.6))
        aggregate, report, _, _ = run_shards(injector=inj)
        assert report.root_restarts == 1
        assert aggregate.tobytes() == clean_agg.tobytes()
        assert report.accepted_clients == clean.accepted_clients

    def test_root_restart_before_first_checkpoint(self):
        clean_agg, _ = self._clean()
        inj = stub_injector(root_plan=RootFaultPlan(restart_fraction=0.0))
        aggregate, report, _, _ = run_shards(injector=inj)
        assert report.root_restarts == 1
        assert aggregate.tobytes() == clean_agg.tobytes()

    def test_seeded_faults_replay_bit_identically(self):
        faults = EnclaveFaultConfig(leaf_crash_rate=0.4,
                                    crash_fatal_rate=0.5,
                                    leaf_straggler_rate=0.3,
                                    root_restart_rate=1.0)
        agg_a, a, _, _ = run_shards(faults=faults, entropy=8)
        agg_b, b, _, _ = run_shards(faults=faults, entropy=8)
        assert agg_a.tobytes() == agg_b.tobytes()
        assert a.accepted_clients == b.accepted_clients
        assert [(o.crashes, o.failovers, o.restarts, o.attempts)
                for o in a.outcomes] == \
               [(o.crashes, o.failovers, o.restarts, o.attempts)
                for o in b.outcomes]

    def test_deadline_miss_reassigns_and_completes(self):
        clean_agg, _ = self._clean()
        inj = stub_injector({(1, 0): LeafFaultPlan(delay_s=10.0),
                             (1, 1): LeafFaultPlan(delay_s=10.0)})
        aggregate, report, _, _ = run_shards(injector=inj,
                                             shard_deadline_s=1.0)
        out = report.outcomes[1]
        assert out.deadline_misses == 2 and out.failovers == 2
        assert out.completed
        assert out.latency_s >= 2.0  # two full deadlines burned
        assert aggregate.tobytes() == clean_agg.tobytes()

    def test_permanently_slow_shard_degrades_the_round(self):
        inj = stub_injector({(s, a): LeafFaultPlan(delay_s=10.0)
                             for s in range(4) for a in range(3)})
        _, report, _, _ = run_shards(injector=inj, shard_deadline_s=1.0,
                                     max_shard_retries=2)
        assert report.degraded
        assert report.completion_rate == 0.0
        assert report.accepted_clients == []
        assert all(o.deadline_misses == 3 for o in report.outcomes)

    def test_degraded_round_sums_surviving_shards_only(self):
        # Shard 0 always crashes; everyone else completes.
        inj = stub_injector({(0, a): LeafFaultPlan(crash_fraction=0.5)
                             for a in range(10)})
        aggregate, report, service, deliveries = run_shards(
            injector=inj, max_shard_retries=2)
        assert report.degraded
        assert report.completion_rate == 0.75
        assert report.failed_shards == [0]
        accepted = set(report.accepted_clients)
        assert 0 < len(accepted) < 60
        ref = dense_sum(deliveries, service.root, accepted)
        np.testing.assert_allclose(aggregate, ref, atol=1e-12)

    def test_epc_oversubscription_flagged_and_charged(self):
        # Below the fixed per-leaf working set, so the single shard
        # must page: flagged, penalized in latency, yet still correct.
        _, report, _, _ = run_shards(shards=1, epc_bytes=4 * 1024 * 1024)
        out = report.outcomes[0]
        assert out.epc_oversubscribed
        assert out.latency_s > out.wall_s  # paging penalty added
        assert report.completion_rate == 1.0

    def test_quorum_abort_raises(self):
        inj = stub_injector({(0, a): LeafFaultPlan(crash_fraction=0.5)
                             for a in range(10)})
        with pytest.raises(QuorumNotMetError):
            run_shards(injector=inj, max_shard_retries=2, min_accepted=60)

    def test_tampered_partial_rejected(self):
        from repro.runtime.shards import _open_partial
        root, deliveries = build_root(n=8)
        service = ShardedAggregator(root, ShardConfig(shards=1), entropy=1)
        service.aggregate_round(0, deliveries, D, sampled=set(range(8)))
        leaf = service._leaves[0]
        sealed = crypto.seal(leaf.channel_key, b"OLVPART1" + b"\x00" * 20)
        blob = bytearray(sealed.to_bytes())
        blob[-1] ^= 0x01
        with pytest.raises(EnclaveSecurityError) as err:
            _open_partial(leaf.channel_key, bytes(blob))
        assert err.value.reason == "corrupt"


class TestEnclaveCheckpoint:
    """Sealed round-state checkpoints + begin_round regressions."""

    def _enclave_pair(self):
        svc = AttestationService(signing_key=b"k" * 32,
                                 platform_secret=b"p" * 32)
        a = Enclave(attestation_service=svc, seed=1)
        b = Enclave(attestation_service=svc, seed=2)
        return a, b

    def test_checkpoint_roundtrip_across_siblings(self):
        a, b = self._enclave_pair()
        a.begin_round(sampled={1, 2, 3})
        a._record_upload(2, b"d" * 32)
        partial = np.arange(5, dtype=np.float64)
        ckpt = a.export_round_state(round_index=4, partial=partial)
        rnd, restored = b.restore_round_state(ckpt)
        assert rnd == 4
        assert b.sampled_clients == {1, 2, 3}
        assert 2 in b._loaded_clients and b.has_digest(b"d" * 32)
        np.testing.assert_array_equal(restored, partial)

    def test_checkpoint_bytes_deterministic(self):
        a, _ = self._enclave_pair()
        a.begin_round(sampled={1, 2})
        c1 = a.export_round_state(round_index=0, partial=np.ones(3))
        c2 = a.export_round_state(round_index=0, partial=np.ones(3))
        assert c1.to_bytes() == c2.to_bytes()

    def test_wrong_measurement_cannot_restore(self):
        svc = AttestationService(signing_key=b"k" * 32,
                                 platform_secret=b"p" * 32)
        a = Enclave(attestation_service=svc, seed=1)
        other = Enclave(code_identity=b"evil-binary",
                        attestation_service=svc, seed=2)
        ckpt = a.export_round_state()
        with pytest.raises(EnclaveSecurityError) as err:
            other.restore_round_state(ckpt)
        assert err.value.reason == "checkpoint"

    def test_tampered_checkpoint_rejected(self):
        a, b = self._enclave_pair()
        ckpt = a.export_round_state()
        bad = crypto.Ciphertext(nonce=ckpt.nonce,
                                body=ckpt.body[:-1] + b"\x00", tag=ckpt.tag)
        with pytest.raises(EnclaveSecurityError) as err:
            b.restore_round_state(bad)
        assert err.value.reason == "checkpoint"

    def test_begin_round_clears_replay_defence(self):
        svc = AttestationService(signing_key=b"k" * 32,
                                 platform_secret=b"p" * 32)
        enclave = Enclave(attestation_service=svc, seed=1)
        keys = provision_enclave_with_clients(enclave, [7])
        enclave.begin_round(sampled={7})
        payload = crypto.encode_sparse_gradient([0, 1], [0.5, -0.5])
        ct = crypto.seal(keys[7], payload)
        oracles.load_upload(enclave, 7, ct, 8)
        # Same bytes again inside the round: replay, refused.
        with pytest.raises(EnclaveSecurityError) as err:
            oracles.load_upload(enclave, 7, ct, 8)
        assert err.value.reason == "duplicate"
        # New round without resampling: the regression begin_round fixes.
        enclave.begin_round()
        idx, vals = oracles.load_upload(enclave, 7, ct, 8)
        assert (idx.tolist(), vals.tolist()) == ([0, 1], [0.5, -0.5])

    def test_record_partial_refuses_replay_and_overlap(self):
        a, _ = self._enclave_pair()
        a.begin_round(sampled={1, 2, 3, 4})
        a.record_partial(b"x" * 32, [1, 2])
        with pytest.raises(EnclaveSecurityError) as err:
            a.record_partial(b"x" * 32, [3])
        assert err.value.reason == "replay"
        with pytest.raises(EnclaveSecurityError) as err:
            a.record_partial(b"y" * 32, [2, 3])
        assert err.value.reason == "duplicate"
        a.record_partial(b"z" * 32, [3, 4])
        assert a._loaded_clients == {1, 2, 3, 4}

    def test_peer_attestation_rejects_different_binary(self):
        svc = AttestationService(signing_key=b"k" * 32,
                                 platform_secret=b"p" * 32)
        a = Enclave(attestation_service=svc, seed=1)
        evil = Enclave(code_identity=b"evil-binary",
                       attestation_service=svc, seed=2)
        with pytest.raises(EnclaveSecurityError) as err:
            a.attest_peer(evil.quote())
        assert err.value.reason == "attestation"
        b = Enclave(attestation_service=svc, seed=3)
        assert a.attest_peer(b.quote()) == b.attest_peer(a.quote())


def make_system(runtime=None, shards=None, seed=1, n_clients=12,
                aggregator="advanced", **cfg_kwargs):
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, n_clients, 20, 2, seed=0)
    config = OliveConfig(sample_rate=1.0, noise_multiplier=0.8,
                         aggregator=aggregator, training=TRAIN,
                         **cfg_kwargs)
    return OliveSystem(build_model("tiny_mlp", seed=0), clients, config,
                       seed=seed, runtime=runtime, shards=shards)


class TestFailureReasons:
    def test_dropout_and_straggler_reasons(self):
        runtime = RuntimeConfig(
            client_timeout_s=0.01,
            faults=FaultConfig(dropout_rate=0.4, straggler_rate=0.4,
                               straggler_delay_s=10.0,
                               straggler_jitter=False))
        with make_system(runtime=runtime) as system:
            log = system.run_round()
        reasons = log.cohort.failure_reasons
        assert reasons.get(REASON_DROPOUT, 0) > 0
        assert reasons.get(REASON_STRAGGLER, 0) > 0
        for outcome in log.cohort.outcomes.values():
            assert (outcome.reason is None) == (outcome.status == "ok")

    def test_forced_dropout_reason(self):
        with make_system() as system:
            log = system.run_round(dropouts={0, 1})
        assert log.cohort.outcomes[0].reason == "forced"
        assert log.cohort.failure_reasons["forced"] == 2

    def test_corrupt_rejects_carry_enclave_reason(self):
        runtime = RuntimeConfig(faults=FaultConfig(corrupt_rate=1.0))
        with make_system(runtime=runtime) as system:
            log = system.run_round()
        rejected = [o for o in log.cohort.outcomes.values()
                    if o.status == STATUS_REJECTED]
        assert rejected and all(o.reason == "corrupt" for o in rejected)

    def test_transient_exhaustion_reason(self):
        runtime = RuntimeConfig(
            max_retries=1,
            faults=FaultConfig(transient_failure_rate=1.0,
                               transient_failures=5))
        with make_system(runtime=runtime) as system:
            log = system.run_round()
        failed = [o for o in log.cohort.outcomes.values()
                  if o.status == STATUS_FAILED]
        assert failed and all(o.reason == REASON_TRANSIENT for o in failed)


class TestVectorizedEdges:
    """Fault/quorum paths of the batched cohort, including retried
    clients against the per-client loop (the old serial executor)."""

    def test_quorum_abort_spends_no_budget(self):
        runtime = RuntimeConfig(min_quorum=1.0,
                                faults=FaultConfig(dropout_rate=0.5))
        with make_system(runtime=runtime) as system:
            eps_before = system.accountant.epsilon
            weights_before = system.global_weights.copy()
            with pytest.raises(QuorumNotMetError):
                system.run_round()
            assert system.accountant.epsilon == eps_before
            assert np.array_equal(system.global_weights, weights_before)

    def test_sharded_quorum_abort_spends_no_budget(self):
        inj = stub_injector({(s, a): LeafFaultPlan(crash_fraction=0.5)
                             for s in range(2) for a in range(10)})
        runtime = RuntimeConfig(min_quorum=0.9)
        with make_system(runtime=runtime,
                         shards=ShardConfig(shards=2,
                                            max_shard_retries=1)) as system:
            system.shard_service.injector = inj
            eps_before = system.accountant.epsilon
            with pytest.raises(QuorumNotMetError):
                system.run_round()
            assert system.accountant.epsilon == eps_before

    def test_retries_flush_as_own_batch_match_serial(self):
        # Retried clients train in the same batch as everyone else; their
        # bytes must equal the per-client loop that re-ran each attempt.
        faults = FaultConfig(transient_failure_rate=0.4,
                             transient_failures=1)
        config = RuntimeConfig(backoff_base_s=0.0, faults=faults)
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        clients = partition_clients(gen, 12, 20, 2, seed=0)
        cohort = [c.client_id for c in clients]
        keys = {c.client_id: crypto.generate_key(b"k%d" % c.client_id)
                for c in clients}
        model = build_model("tiny_mlp", seed=0)
        result = CohortRuntime(config, model, clients, entropy=3,
                               keys=keys).run_cohort(
            0, cohort, model.get_flat(), TRAIN)
        template = oracles.build_model("tiny_mlp", seed=0)
        loop = oracles.run_cohort_loop(config, template, clients, 3, 0,
                                       cohort, template.get_flat(), TRAIN,
                                       keys=keys)
        retried = [o for o in result.outcomes.values() if o.retries]
        assert retried, "fault plan injected no transient failures"
        assert {c: (o.attempts, o.retries)
                for c, o in result.outcomes.items()} == \
            {c: (o.attempts, o.retries) for c, o in loop.outcomes.items()}
        assert [(d.client_id, d.ciphertext.to_bytes())
                for d in result.deliveries] == \
            [(d.client_id, d.ciphertext.to_bytes()) for d in loop.deliveries]


def _chaos_seed(shards, crash_rate):
    """First seed whose round-0 fault plans include a real crash."""
    cfg = EnclaveFaultConfig(leaf_crash_rate=crash_rate,
                             crash_fatal_rate=0.5,
                             leaf_straggler_rate=0.3)
    for seed in range(64):
        inj = EnclaveFaultInjector(cfg, seed)
        if any(inj.leaf_plan(0, s, 0).crash_fraction is not None
               for s in range(shards)):
            return seed
    raise AssertionError("no chaos seed found")


class TestChaosEndToEnd:
    """The acceptance bar: an e2e round with leaf crashes and
    stragglers completes via failover/recovery, and the final model is
    bit-identical to the fault-free sharded run and to replay."""

    def test_chaos_round_bit_identical_to_fault_free(self):
        crash = 0.2
        seed = _chaos_seed(4, crash)
        faults = EnclaveFaultConfig(leaf_crash_rate=crash,
                                    crash_fatal_rate=0.5,
                                    leaf_straggler_rate=0.3)
        runtime = RuntimeConfig()

        def run(fault_cfg):
            shards = ShardConfig(shards=4, oblivious_batch=4,
                                 max_shard_retries=8, faults=fault_cfg)
            with make_system(runtime=runtime, shards=shards, seed=seed,
                             n_clients=24) as system:
                return system.run_round()

        clean = run(EnclaveFaultConfig())
        chaos = run(faults)
        replay = run(faults)

        report = chaos.shard_report
        assert sum(o.crashes for o in report.outcomes) >= 1
        assert report.completion_rate == 1.0
        assert not report.degraded
        assert (chaos.weights_after.tobytes()
                == clean.weights_after.tobytes())
        assert (chaos.weights_after.tobytes()
                == replay.weights_after.tobytes())
        assert chaos.participants == clean.participants

    def test_chaos_with_deadline_completes_under_failover(self):
        seed = _chaos_seed(4, 0.3)
        faults = EnclaveFaultConfig(leaf_crash_rate=0.3,
                                    crash_fatal_rate=0.5,
                                    leaf_straggler_rate=0.3,
                                    leaf_straggler_delay_s=0.02)
        shards = ShardConfig(shards=4, oblivious_batch=4,
                             max_shard_retries=8, shard_deadline_s=5.0,
                             faults=faults)
        runtime = RuntimeConfig()
        with make_system(runtime=runtime, shards=shards, seed=seed,
                         n_clients=24) as system:
            log = system.run_round()
        report = log.shard_report
        assert report.completion_rate == 1.0
        assert report.latency_s < 5.0 * shards.shards  # bounded by deadlines


class TestOliveShardIntegration:
    def test_sharded_round_matches_unsharded_numerically(self):
        runtime = RuntimeConfig()
        with make_system(runtime=runtime) as plain:
            log_plain = plain.run_round()
        with make_system(runtime=runtime,
                         shards=ShardConfig(shards=3)) as sharded:
            log_sharded = sharded.run_round()
        assert log_sharded.participants == log_plain.participants
        np.testing.assert_allclose(log_sharded.weights_after,
                                   log_plain.weights_after, atol=1e-10)
        assert log_sharded.shard_report is not None
        assert log_sharded.shard_report.n_shards == 3

    def test_unsharded_round_is_one_leaf_one_fold(self):
        with make_system() as system:
            # The batch covers the population, so any cohort folds once.
            assert system.shard_service.config == ShardConfig(
                shards=1, oblivious_batch=12)
            log = system.run_round(traced=True)
        report = log.shard_report
        assert report.n_shards == 1 and len(report.outcomes) == 1
        assert len(report.partials) == 1
        assert report.folds == [(0, 0)]
        assert list(log.updates) == log.participants
        reference = Trace()
        AGGREGATORS["advanced"].run(list(log.updates.values()), system.d,
                                    reference)
        assert log.trace == reference

    def test_traced_sharded_round_records_every_leaf_fold(self):
        runtime = RuntimeConfig()
        with make_system(runtime=runtime, shards=ShardConfig(
                shards=2, oblivious_batch=4)) as system:
            log = system.run_round(traced=True)
        report = log.shard_report
        assert log.updates is report.updates
        updates = list(log.updates.values())
        assert sorted(log.updates) == log.participants == list(range(12))
        # Shard s holds clients [s::2]; six uploads fold as 4 + 2.
        assert [u.client_id for u in updates] == [0, 2, 4, 6, 8, 10,
                                                  1, 3, 5, 7, 9, 11]
        firsts = [first for _, first in report.folds]
        assert firsts == [0, 4, 6, 10]
        reference = Trace()
        for (pos, lo), hi in zip(report.folds, firsts[1:] + [len(updates)]):
            assert pos == len(reference)
            AGGREGATORS["advanced"].run(updates[lo:hi], system.d, reference)
        assert log.trace == reference

    def test_traced_crash_rerun_stays_in_the_trace(self):
        # Every fold is checkpointed, so a crash loses only the unfolded
        # batch: the re-run resumes at the last checkpoint and the trace
        # holds each executed fold once, in execution order.
        inj = stub_injector({(0, 0): LeafFaultPlan(crash_fraction=0.9)})
        with make_system(shards=ShardConfig(
                shards=2, oblivious_batch=2)) as system:
            system.shard_service.injector = inj
            log = system.run_round(traced=True)
        report = log.shard_report
        out = report.outcomes[0]
        assert out.crashes == 1 and out.restarts == 1
        firsts = [first for _, first in report.folds]
        # Shard 0 (six uploads, crash at position 5) folds 0, 2 and
        # checkpoints after each, loses upload 4, then resumes at 4;
        # shard 1 folds 6, 8, 10.
        assert firsts == [0, 2, 4, 6, 8, 10]
        assert sorted(log.updates) == log.participants == list(range(12))
        updates = list(log.updates.values())
        reference = Trace()
        for lo, hi in zip(firsts, firsts[1:] + [len(updates)]):
            AGGREGATORS["advanced"].run(updates[lo:hi], system.d, reference)
        assert log.trace == reference

    def test_adaptive_clipping_at_any_shard_count(self):
        runtime = RuntimeConfig()
        clips, weights = [], []
        for shards in (None, ShardConfig(shards=2)):
            with make_system(runtime=runtime, shards=shards,
                             adaptive_clipping=True) as system:
                for log in system.run(2):
                    assert sorted(log.updates) == log.participants
                clips.append(system.clipper.clip)
                weights.append(system.global_weights)
        assert clips[0] == clips[1] != TRAIN.clip
        np.testing.assert_allclose(weights[1], weights[0], atol=1e-10)

    def test_group_size_folds_at_the_leaves(self):
        runtime = RuntimeConfig()
        logs = []
        for shards in (None, ShardConfig(shards=2)):
            with make_system(runtime=runtime, shards=shards,
                             group_size=4) as system:
                logs.append(system.run_round(traced=True))
        plain, sharded = logs
        np.testing.assert_allclose(sharded.weights_after,
                                   plain.weights_after, atol=1e-10)
        updates = list(sharded.updates.values())
        reference = Trace()
        for lo, hi in ((0, 6), (6, 12)):
            aggregate_grouped(updates[lo:hi], sharded.weights_after.size, 4,
                              trace=reference)
        assert sharded.trace == reference

    @pytest.mark.parametrize("aggregator", ["linear", "baseline",
                                            "path_oram"])
    def test_leaves_run_the_configured_aggregator(self, aggregator,
                                                  monkeypatch):
        seen = []
        run = AggregatorSpec.run

        def spy(spec, updates, d, trace=None):
            seen.append(spec.name)
            return run(spec, updates, d, trace)

        monkeypatch.setattr(AggregatorSpec, "run", spy)
        with make_system(shards=ShardConfig(shards=2),
                         aggregator=aggregator) as system:
            system.run_round()
        assert seen == [aggregator, aggregator]

    def test_shards_never_start_on_dead_leaves(self):
        # Fatal crashes kill leaves in early rounds; a later round may
        # seal partials only under leaves that were alive when it began.
        faults = EnclaveFaultConfig(leaf_crash_rate=0.5,
                                    crash_fatal_rate=1.0)
        shards = ShardConfig(shards=3, oblivious_batch=4,
                             max_shard_retries=8, faults=faults)
        killed = 0
        with make_system(shards=shards, seed=0, n_clients=24) as system:
            for _ in range(4):
                dead = set(system.shard_service.pool_state()["dead"])
                killed += len(dead) > 0
                log = system.run_round()
                report = log.shard_report
                assert not dead & {leaf for _, leaf, _ in report.partials}
                assert not dead & {o.leaf_index for o in report.outcomes}
        assert killed

    def test_sharded_rejects_surface_in_outcomes(self):
        runtime = RuntimeConfig(faults=FaultConfig(corrupt_rate=1.0))
        with make_system(runtime=runtime,
                         shards=ShardConfig(shards=2)) as system:
            log = system.run_round()
        rejected = [o for o in log.cohort.outcomes.values()
                    if o.status == STATUS_REJECTED]
        assert rejected and all(o.reason == "corrupt" for o in rejected)
        assert log.participants == []
