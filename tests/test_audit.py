"""Tests for the verifiable-rounds audit subsystem.

Covers the Merkle layer (RFC 6962 shape, inclusion proofs), the
hash-chained log (tamper taxonomy: each adversary class fails with a
DISTINCT error), the recorder wiring through ``OliveSystem``, and the
deterministic replay verifier -- including the fault paths: sharded
rounds with leaf crashes, failover, and degraded completion must audit
clean.
"""

import base64
import copy
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.audit import (
    EMPTY_ROOT,
    GENESIS,
    AuditChainError,
    AuditCommitmentError,
    AuditProofError,
    AuditRecorder,
    AuditReplayError,
    AuditTruncationError,
    AuditVersionError,
    aggregate_digest,
    chain_records,
    inclusion_proof,
    leaf_hash,
    make_manifest,
    merkle_root,
    node_hash,
    read_records,
    record_hash,
    upload_leaf,
    upload_merkle_root,
    verify_chain,
    verify_inclusion,
    verify_log,
)
from repro.audit.cli import main as audit_main
from repro.audit.log import LOG_VERSION
from repro.audit.verify import generate_proof, verify_proof_payload
from repro.core.olive import OliveConfig, OliveSystem
from repro.dp.accountant import epsilon_for
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.runtime import (
    CohortResult,
    Delivery,
    EnclaveFaultConfig,
    FaultConfig,
    RuntimeConfig,
    ShardConfig,
)
from repro.sgx import crypto

DATA = {"spec": "tiny", "seed": 0, "n_clients": 12,
        "samples_per_client": 20, "labels_per_client": 2,
        "partition_seed": 0}
MODEL = {"name": "tiny_mlp", "seed": 0}
#: A version-1 log: two rounds recorded by the thread executor
#: (``executor="thread"``, ``workers=8``) under the SeedSequence seed
#: derivation, with dropouts, corrupt uploads and retried transient
#: failures.  Kept as the refusal fixture.
THREAD_EXECUTOR_LOG = Path(__file__).parent / "data" / \
    "audit_thread_executor.jsonl"


def _config(**overrides):
    defaults = dict(
        sample_rate=0.5, noise_multiplier=1.12, aggregator="advanced",
        training=TrainingConfig(local_epochs=1, sparse_ratio=0.2),
    )
    defaults.update(overrides)
    return OliveConfig(**defaults)


def _build(config, runtime=None, shards=None, seed=0, data=DATA):
    gen = SyntheticClassData(SPECS[data["spec"]], seed=data["seed"])
    clients = partition_clients(
        gen, data["n_clients"], data["samples_per_client"],
        data["labels_per_client"], seed=data["partition_seed"])
    return OliveSystem(build_model(MODEL["name"], seed=MODEL["seed"]),
                       clients, config, seed=seed, runtime=runtime,
                       shards=shards)


def _recorded_run(tmp_path, rounds=3, runtime=None, shards=None, seed=0,
                  config=None):
    """Run an audited system; return the log path."""
    config = config or _config()
    path = tmp_path / "audit.jsonl"
    manifest = make_manifest(data=DATA, model=MODEL, config=config,
                             runtime=runtime, shards=shards, seed=seed)
    with AuditRecorder(path, manifest) as recorder:
        system = _build(config, runtime=runtime, shards=shards, seed=seed)
        system.audit = recorder
        system.run(rounds)
        system.close()
    return path


def _rewrite(path, records):
    with open(path, "w") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True,
                               separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# Merkle layer
# ----------------------------------------------------------------------
class TestMerkle:
    def test_empty_and_single_leaf(self):
        assert merkle_root([]) == EMPTY_ROOT
        leaf = leaf_hash(b"payload")
        assert merkle_root([leaf]) == leaf

    def test_two_leaves_is_domain_separated_node(self):
        a, b = leaf_hash(b"a"), leaf_hash(b"b")
        assert merkle_root([a, b]) == node_hash(a, b)
        # Leaf and node hashing are domain separated: hashing the
        # concatenation as a leaf gives a different digest.
        assert node_hash(a, b) != leaf_hash(a + b)

    def test_rfc6962_split_for_odd_counts(self):
        # n=5 splits 4|1, not 3|2.
        leaves = [leaf_hash(bytes([i])) for i in range(5)]
        left = merkle_root(leaves[:4])
        right = leaves[4]
        assert merkle_root(leaves) == node_hash(left, right)

    def test_leaf_payload_binds_client_id(self):
        assert upload_leaf(1, b"ct") != upload_leaf(2, b"ct")

    def test_root_sensitive_to_any_leaf_bit(self):
        payloads = [bytes([i]) * 8 for i in range(7)]
        leaves = [leaf_hash(p) for p in payloads]
        base = merkle_root(leaves)
        for i in range(7):
            mutated = list(payloads)
            mutated[i] = bytes([payloads[i][0] ^ 1]) + payloads[i][1:]
            assert merkle_root([leaf_hash(p) for p in mutated]) != base

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
    def test_inclusion_proofs_verify_for_every_leaf(self, n):
        leaves = [leaf_hash(bytes([i, n])) for i in range(n)]
        root = merkle_root(leaves)
        for i in range(n):
            proof = inclusion_proof(leaves, i)
            assert proof.root() == root
            assert verify_inclusion(proof, root)

    def test_tampered_proof_rejected(self):
        import dataclasses

        leaves = [leaf_hash(bytes([i])) for i in range(6)]
        root = merkle_root(leaves)
        proof = inclusion_proof(leaves, 2)
        forged = dataclasses.replace(proof, leaf=leaf_hash(b"forged"))
        assert not verify_inclusion(forged, root)

    def test_proof_index_bounds(self):
        leaves = [leaf_hash(b"x")]
        with pytest.raises(IndexError):
            inclusion_proof(leaves, 1)


# ----------------------------------------------------------------------
# Chained log
# ----------------------------------------------------------------------
class TestChainedLog:
    def _sample_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        manifest = make_manifest(data=DATA, model=MODEL, config=_config())
        recorder = AuditRecorder(path, manifest)
        rng = np.random.default_rng(0)
        for r in range(3):
            cts = {cid: bytes(rng.integers(0, 256, 40, dtype=np.uint8))
                   for cid in range(4)}
            recorder.record_round(
                r, accepted=sorted(cts), ciphertexts=cts,
                weights_after=rng.standard_normal(8), epsilon=0.5 * (r + 1),
                clip=1.0)
        recorder.close()
        return path

    def test_chain_verifies_and_links(self, tmp_path):
        path = self._sample_log(tmp_path)
        records = read_records(path)
        verify_chain(records)
        assert records[0]["prev"] == GENESIS
        for prev, cur in zip(records, records[1:]):
            assert cur["prev"] == prev["hash"]
            assert record_hash(cur) == cur["hash"]
        assert records[-1]["type"] == "seal"
        assert records[-1]["rounds"] == 3

    def test_edit_in_place_breaks_record_hash(self, tmp_path):
        path = self._sample_log(tmp_path)
        records = read_records(path)
        records[2]["epsilon"] = 99.0
        with pytest.raises(AuditChainError, match="stored hash"):
            verify_chain(records)

    def test_reorder_breaks_prev_link(self, tmp_path):
        path = self._sample_log(tmp_path)
        records = read_records(path)
        records[1], records[2] = records[2], records[1]
        with pytest.raises(AuditChainError, match="prev-hash link"):
            verify_chain(records)

    def test_tail_truncation_detected_by_missing_seal(self, tmp_path):
        path = self._sample_log(tmp_path)
        records = read_records(path)[:-1]
        with pytest.raises(AuditTruncationError, match="seal"):
            verify_chain(records)
        # Non-strict mode tolerates an unsealed (in-progress) log.
        verify_chain(records, require_seal=False)

    def test_interior_round_removal_detected_even_after_remint(
            self, tmp_path):
        # An attacker who deletes round 1 AND re-mints the whole chain
        # still leaves a round-index gap.
        path = self._sample_log(tmp_path)
        records = read_records(path)
        del records[2]  # round 1
        records[-1]["rounds"] = 2
        reminted = chain_records(records)
        with pytest.raises(AuditTruncationError, match="interior rounds"):
            verify_chain(reminted)

    def test_seal_round_count_mismatch_detected(self, tmp_path):
        path = self._sample_log(tmp_path)
        records = read_records(path)
        records[-1]["rounds"] = 2
        reminted = chain_records(records)
        with pytest.raises(AuditTruncationError, match="seal"):
            verify_chain(reminted)

    def test_garbage_line_is_chain_error(self, tmp_path):
        path = self._sample_log(tmp_path)
        with open(path, "a") as f:
            f.write("{not json\n")
        with pytest.raises(AuditChainError):
            read_records(path)


# ----------------------------------------------------------------------
# Recorder wiring through OliveSystem
# ----------------------------------------------------------------------
class TestRecorderWiring:
    def test_every_round_recorded_with_commitments(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=3)
        records = read_records(path)
        verify_chain(records)
        rounds = [r for r in records if r["type"] == "round"]
        assert [r["round"] for r in rounds] == [0, 1, 2]
        for r in rounds:
            cts = {int(c): base64.b64decode(b)
                   for c, b in r["ciphertexts"].items()}
            assert sorted(cts) == r["accepted"]
            assert upload_merkle_root(cts) == r["merkle_root"]
            assert len(r["aggregate_sha256"]) == 64

    def test_recorded_epsilon_tracks_accountant(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=2)
        rounds = [r for r in read_records(path) if r["type"] == "round"]
        assert rounds[1]["epsilon"] > rounds[0]["epsilon"] > 0

    def test_sharded_rounds_commit_partials(self, tmp_path):
        shards = ShardConfig(shards=3)
        path = _recorded_run(tmp_path, rounds=2, shards=shards)
        rounds = [r for r in read_records(path) if r["type"] == "round"]
        for r in rounds:
            assert r["n_shards"] == 3
            assert len(r["partials"]) == 3
            for p in r["partials"]:
                assert set(p) == {"shard", "leaf", "sha256"}

    def test_accepted_without_ciphertext_rejected(self, tmp_path):
        manifest = make_manifest(data=DATA, model=MODEL, config=_config())
        recorder = AuditRecorder(tmp_path / "log.jsonl", manifest)
        with pytest.raises(ValueError, match="no\\s+logged ciphertext"):
            recorder.record_round(
                0, accepted=[1, 2], ciphertexts={1: b"x"},
                weights_after=np.zeros(4), epsilon=0.1, clip=1.0)

    def test_ciphertext_outside_accepted_rejected(self, tmp_path):
        # Every logged ciphertext must be a Merkle leaf; an extra one
        # would sit in the log unbound by the root.
        manifest = make_manifest(data=DATA, model=MODEL, config=_config())
        recorder = AuditRecorder(tmp_path / "log.jsonl", manifest)
        with pytest.raises(ValueError, match="outside\\s+the accepted"):
            recorder.record_round(
                0, accepted=[1], ciphertexts={1: b"x", 2: b"y"},
                weights_after=np.zeros(4), epsilon=0.1, clip=1.0)
        assert recorder.rounds == 0

    def test_ciphertext_bytes_are_the_accepted_originals(self):
        # The map the recorder commits to: one original upload per
        # accepted client, never a replayed copy or a rejected upload.
        key = crypto.generate_key(b"k")
        cts = {cid: crypto.seal(key, b"upload %d" % cid) for cid in range(3)}
        deliveries = [
            Delivery(0, cts[0]),
            Delivery(0, crypto.seal(key, b"replayed"), duplicate=True),
            Delivery(1, cts[1], corrupt=True),
            Delivery(2, cts[2]),
        ]
        result = CohortResult(round_index=0, sampled=[0, 1, 2], outcomes={},
                              deliveries=deliveries)
        assert result.ciphertext_bytes([2, 0]) == {
            0: cts[0].to_bytes(), 2: cts[2].to_bytes()}
        with pytest.raises(TypeError):
            result.ciphertext_bytes()

    def test_close_is_idempotent(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=1)
        records = read_records(path)
        assert sum(1 for r in records if r["type"] == "seal") == 1


# ----------------------------------------------------------------------
# Replay verification, incl. fault paths
# ----------------------------------------------------------------------
class TestReplay:
    def test_clean_run_replays_bit_identically(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=3)
        report = verify_log(path, strict=True)
        assert report.replayed and report.sealed
        assert [v.round_index for v in report.rounds] == [0, 1, 2]
        assert all(v.merkle_ok and v.replay_ok for v in report.rounds)

    def test_empty_draw_rounds_release_noise_and_replay(self, tmp_path):
        # At q = 0.05 over 12 clients a round's Poisson draw is empty
        # with probability 0.54; such a round releases noise only, is
        # charged by the accountant, and replays like any other.
        config = _config(sample_rate=0.05)
        path = _recorded_run(tmp_path, rounds=8, config=config)
        rounds = [r for r in read_records(path) if r["type"] == "round"]
        sizes = [len(r["accepted"]) for r in rounds]
        assert 0 in sizes and max(sizes) > 0, sizes
        assert all(r["merkle_root"] == EMPTY_ROOT.hex()
                   for r in rounds if not r["accepted"])
        epsilons = [r["epsilon"] for r in rounds]
        assert epsilons == sorted(set(epsilons))     # every round charged
        report = verify_log(path, strict=True)
        assert report.replayed and all(v.replay_ok for v in report.rounds)
        assert audit_main([str(path), "--strict"]) == 0

    def test_faulty_cohort_run_audits_clean(self, tmp_path):
        runtime = RuntimeConfig(faults=FaultConfig(
            dropout_rate=0.2, straggler_rate=0.3))
        path = _recorded_run(tmp_path, rounds=3, runtime=runtime, seed=5)
        report = verify_log(path, strict=True)
        assert all(v.replay_ok for v in report.rounds)

    def test_sharded_crash_failover_run_audits_clean(self, tmp_path):
        # The acceptance scenario: 4 shards, 40% leaf crash rate.
        # Failover and degraded rounds must replay bit-identically,
        # partial digests included.
        shards = ShardConfig(
            shards=4, faults=EnclaveFaultConfig(leaf_crash_rate=0.4))
        path = _recorded_run(tmp_path, rounds=4, shards=shards, seed=7)
        rounds = [r for r in read_records(path) if r["type"] == "round"]
        report = verify_log(path, strict=True)
        assert all(v.replay_ok for v in report.rounds)
        assert all(v.sharded for v in report.rounds)
        # The verdicts must mirror the logged degraded flags.
        assert [v.degraded for v in report.rounds] == \
            [bool(r.get("degraded")) for r in rounds]

    def test_forged_aggregate_fails_replay_distinctly(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=2)
        records = read_records(path)
        target = copy.deepcopy(records)
        for r in target:
            if r.get("type") == "round" and r["round"] == 1:
                r["aggregate_sha256"] = hashlib.sha256(b"forged").hexdigest()
        _rewrite(path, chain_records(target))
        with pytest.raises(AuditReplayError, match="forged aggregate") as e:
            verify_log(path, strict=True)
        assert e.value.round_index == 1
        assert e.value.exit_code == 5

    def test_mutated_ciphertext_fails_commitment_distinctly(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=2)
        records = copy.deepcopy(read_records(path))
        for r in records:
            if r.get("type") == "round" and r["round"] == 0:
                cid = next(iter(r["ciphertexts"]))
                blob = bytearray(base64.b64decode(r["ciphertexts"][cid]))
                blob[3] ^= 0xFF
                r["ciphertexts"][cid] = base64.b64encode(blob).decode()
        _rewrite(path, chain_records(records))
        with pytest.raises(AuditCommitmentError, match="Merkle root") as e:
            verify_log(path, strict=True)
        assert e.value.round_index == 0
        assert e.value.exit_code == 4

    def test_unbound_ciphertext_fails_commitment(self, tmp_path):
        # A re-minted log that stores a ciphertext the Merkle root does
        # not bind fails at the commitment layer, naming the round.
        path = _recorded_run(tmp_path, rounds=2)
        records = copy.deepcopy(read_records(path))
        for r in records:
            if r.get("type") == "round" and r["round"] == 1:
                cid = next(iter(r["ciphertexts"]))
                stray = max(map(int, r["accepted"]), default=0) + 100
                r["ciphertexts"][str(stray)] = r["ciphertexts"][cid]
        _rewrite(path, chain_records(records))
        with pytest.raises(AuditCommitmentError,
                           match="round 1: .*outside the accepted") as e:
            verify_log(path, replay=False, strict=True)
        assert e.value.round_index == 1
        assert e.value.exit_code == 4

    def test_forged_partial_digest_fails_replay(self, tmp_path):
        shards = ShardConfig(shards=2)
        path = _recorded_run(tmp_path, rounds=2, shards=shards)
        records = copy.deepcopy(read_records(path))
        for r in records:
            if r.get("type") == "round" and r["round"] == 1:
                r["partials"][0]["sha256"] = "00" * 32
        _rewrite(path, chain_records(records))
        with pytest.raises(AuditReplayError, match="partial") as e:
            verify_log(path, strict=True)
        assert e.value.round_index == 1

    def test_no_replay_mode_stops_at_commitments(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=2)
        report = verify_log(path, replay=False, strict=True)
        assert not report.replayed
        assert all(v.merkle_ok for v in report.rounds)
        assert all(v.replay_ok is None for v in report.rounds)

    def test_wrong_committed_epsilon_fails_without_replay(self, tmp_path):
        # The recorder chains round 1 correctly around a budget that is
        # not the closed form for two rounds at q (here: one charged at
        # a smaller realized rate).  The manifest alone exposes it.
        config = _config()
        path = tmp_path / "audit.jsonl"
        manifest = make_manifest(data=DATA, model=MODEL, config=config)
        with AuditRecorder(path, manifest) as recorder:
            record_round = recorder.record_round

            def lying(round_index, **kwargs):
                if round_index == 1:
                    kwargs["epsilon"] = epsilon_for(0.25, 1.12, 2, 1e-5)
                return record_round(round_index, **kwargs)

            recorder.record_round = lying
            system = _build(config)
            system.audit = recorder
            system.run(3)
        verify_chain(read_records(path))
        with pytest.raises(AuditCommitmentError,
                           match="round 1: committed epsilon") as e:
            verify_log(path, replay=False, strict=True)
        assert e.value.round_index == 1
        assert e.value.exit_code == 4
        assert audit_main([str(path), "--strict", "--no-replay"]) == 4

    def test_aggregate_digest_is_bit_sensitive(self):
        w = np.arange(16, dtype=np.float64)
        d0 = aggregate_digest(w)
        w2 = w.copy()
        w2[7] = np.nextafter(w2[7], np.inf)
        assert aggregate_digest(w2) != d0


# ----------------------------------------------------------------------
# One-leaf rounds and logs of older recorders
# ----------------------------------------------------------------------
class TestOneLeafAndLegacyLogs:
    """Every round runs through the shard service; logs of another
    format version are refused."""

    @staticmethod
    def _strip_round_partials(records):
        for r in records:
            if r.get("type") == "round":
                for key in ("partials", "degraded", "n_shards"):
                    r.pop(key, None)
        return records

    def test_one_leaf_rounds_commit_a_partial_but_print_unsharded(
            self, tmp_path):
        path = _recorded_run(tmp_path, rounds=2)
        rounds = [r for r in read_records(path) if r["type"] == "round"]
        assert all(r["n_shards"] == 1 and len(r["partials"]) == 1
                   for r in rounds)
        report = verify_log(path, strict=True)
        assert all(v.replay_ok and not v.sharded for v in report.rounds)

    def test_log_without_partials_still_verifies(self, tmp_path):
        # Single-enclave rounds of older recorders commit no partials.
        path = _recorded_run(tmp_path, rounds=2)
        records = self._strip_round_partials(
            copy.deepcopy(read_records(path)))
        _rewrite(path, chain_records(records))
        report = verify_log(path, strict=True)
        assert report.replayed
        assert all(v.replay_ok and not v.sharded for v in report.rounds)

    def test_legacy_leaf_aggregator_mismatch_names_the_field(
            self, tmp_path):
        # Version-1 manifests named a leaf kernel under ``shards``; a
        # current manifest carrying one is refused, naming the field.
        path = _recorded_run(tmp_path, rounds=1,
                             shards=ShardConfig(shards=2))
        records = copy.deepcopy(read_records(path))
        records[0]["manifest"]["shards"]["aggregator"] = "linear"
        _rewrite(path, chain_records(records))
        with pytest.raises(AuditReplayError,
                           match="section 'shards'.*'aggregator'"):
            verify_log(path, strict=True)
        assert audit_main([str(path), "--strict"]) == 5

    def test_manifest_carries_the_log_version(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=1)
        assert read_records(path)[0]["version"] == LOG_VERSION == 8

    def test_version7_log_is_refused_by_version(self, tmp_path):
        # Version 7 hashed each round's ciphertexts (hex) into its
        # record body; a version-8 verifier refuses it by its version.
        path = _recorded_run(tmp_path, rounds=1)
        records = copy.deepcopy(read_records(path))
        records[0]["version"] = 7
        _rewrite(path, chain_records(records))
        for replay in (True, False):
            with pytest.raises(AuditVersionError, match="version 7") as e:
                verify_log(path, strict=True, replay=replay)
            assert e.value.exit_code == 7
        assert audit_main([str(path), "--strict"]) == 7

    def test_version6_log_is_refused_by_version(self, tmp_path):
        # Version 6 manifests still carried knobs no caller set, such as
        # ``shards.min_shard_quorum``, and folded Advanced runs by
        # differencing a running sum: the log is refused by its version
        # (exit 7) before any section is rebuilt (exit 5).
        path = _recorded_run(tmp_path, rounds=1,
                             shards=ShardConfig(shards=2))
        records = copy.deepcopy(read_records(path))
        records[0]["version"] = 6
        records[0]["manifest"]["shards"]["min_shard_quorum"] = 0.0
        _rewrite(path, chain_records(records))
        for replay in (True, False):
            with pytest.raises(AuditVersionError, match="version 6") as e:
                verify_log(path, strict=True, replay=replay)
            assert e.value.exit_code == 7
        assert audit_main([str(path), "--strict"]) == 7
        assert audit_main([str(path), "--strict", "--no-replay"]) == 7

    def test_version5_log_is_refused_by_name(self, tmp_path):
        # Version 5 aggregated Advanced with tie-ordered sort keys: its
        # aggregates cannot replay, so the log is refused, not replayed
        # into a mismatch.
        path = _recorded_run(tmp_path, rounds=1)
        records = copy.deepcopy(read_records(path))
        records[0]["version"] = 5
        _rewrite(path, chain_records(records))
        for replay in (True, False):
            with pytest.raises(AuditVersionError, match="version 5") as e:
                verify_log(path, strict=True, replay=replay)
            assert e.value.exit_code == 7
        assert audit_main([str(path), "--strict"]) == 7

    def test_version1_log_is_refused(self, tmp_path):
        # Recorded under the SeedSequence derivation: its rounds cannot
        # replay, so every entry point refuses it before reading rounds.
        assert read_records(THREAD_EXECUTOR_LOG)[0]["version"] == 1
        for replay in (True, False):
            with pytest.raises(AuditVersionError, match="version 1") as e:
                verify_log(THREAD_EXECUTOR_LOG, strict=True, replay=replay)
            assert e.value.exit_code == 7
        with pytest.raises(AuditVersionError):
            generate_proof(THREAD_EXECUTOR_LOG, 0, 0)
        with pytest.raises(AuditVersionError):
            verify_proof_payload(THREAD_EXECUTOR_LOG, {"round": 0})

    def test_version2_log_is_refused(self, tmp_path):
        # Recorded before the unpadded Advanced sort: its aggregates fold
        # equal indices in another order, so it is refused, not replayed.
        path = _recorded_run(tmp_path, rounds=1)
        records = copy.deepcopy(read_records(path))
        records[0]["version"] = 2
        _rewrite(path, chain_records(records))
        with pytest.raises(AuditVersionError, match="version 2") as e:
            verify_log(path, strict=True)
        assert e.value.exit_code == 7
        assert audit_main([str(path), "--strict"]) == 7

    def test_version3_log_is_refused(self, tmp_path):
        # Recorded with sequential enclave sampling and noise: its rounds
        # drew other cohorts and noise, so it is refused, not replayed.
        path = _recorded_run(tmp_path, rounds=1)
        records = copy.deepcopy(read_records(path))
        records[0]["version"] = 3
        _rewrite(path, chain_records(records))
        with pytest.raises(AuditVersionError, match="version 3") as e:
            verify_log(path, strict=True)
        assert e.value.exit_code == 7

    def test_version4_log_is_refused(self, tmp_path):
        # Recorded while fault runs charged the realized cohort fraction:
        # its committed epsilons may under-report the budget.
        path = _recorded_run(tmp_path, rounds=1)
        records = copy.deepcopy(read_records(path))
        records[0]["version"] = 4
        _rewrite(path, chain_records(records))
        for replay in (True, False):
            with pytest.raises(AuditVersionError, match="version 4") as e:
                verify_log(path, strict=True, replay=replay)
            assert e.value.exit_code == 7

    def test_unknown_executor_is_refused_by_name(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=1)
        records = copy.deepcopy(read_records(path))
        records[0]["manifest"]["runtime"] = dataclasses.asdict(
            RuntimeConfig())
        records[0]["manifest"]["runtime"]["executor"] = "process"
        _rewrite(path, chain_records(records))
        with pytest.raises(AuditReplayError,
                           match="section 'runtime'.*executor 'process'"):
            verify_log(path, strict=True)
        assert audit_main([str(path), "--strict"]) == 5


# ----------------------------------------------------------------------
# Inclusion proofs against a recorded log
# ----------------------------------------------------------------------
class TestProofs:
    def test_proof_roundtrip_for_each_accepted_client(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=2)
        rounds = [r for r in read_records(path) if r["type"] == "round"]
        record = rounds[1]
        for cid in record["accepted"]:
            proof = generate_proof(path, 1, cid)
            assert proof["merkle_root"] == record["merkle_root"]
            verify_proof_payload(path, proof)

    def test_proof_for_absent_client_fails(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=1)
        with pytest.raises(AuditProofError, match="not accepted"):
            generate_proof(path, 0, 999)

    def test_proof_for_absent_round_fails(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=1)
        with pytest.raises(AuditProofError, match="not in the log"):
            generate_proof(path, 7, 0)

    def test_doctored_proof_rejected(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=1)
        record = [r for r in read_records(path)
                  if r["type"] == "round"][0]
        cid = record["accepted"][0]
        proof = generate_proof(path, 0, cid)
        proof["leaf_sha256"] = hashlib.sha256(b"swapped").hexdigest()
        if not proof["path"]:
            pytest.skip("single-leaf round: leaf IS the root")
        with pytest.raises(AuditProofError, match="inclusion proof") as e:
            verify_proof_payload(path, proof)
        assert e.value.exit_code == 6


# ----------------------------------------------------------------------
# Checkpoint <-> audit continuity
# ----------------------------------------------------------------------
class TestCheckpointAuditContinuity:
    def test_checkpoint_pins_audit_head(self, tmp_path):
        from repro.core.checkpoint import save_checkpoint

        config = _config()
        manifest = make_manifest(data=DATA, model=MODEL, config=config)
        recorder = AuditRecorder(tmp_path / "log.jsonl", manifest)
        system = _build(config)
        system.audit = recorder
        system.run(2)
        save_checkpoint(system, tmp_path / "ckpt.npz")
        with np.load(tmp_path / "ckpt.npz") as archive:
            meta = json.loads(str(archive["meta"]))
        assert meta["version"] == 7
        assert meta["audit_head"] == recorder.head
        assert meta["audit_rounds"] == meta["round_index"] == 2
        system.close()
        recorder.close()

    def test_restore_onto_diverged_chain_refused(self, tmp_path):
        from repro.core.checkpoint import load_checkpoint, save_checkpoint

        config = _config()
        manifest = make_manifest(data=DATA, model=MODEL, config=config)
        recorder = AuditRecorder(tmp_path / "a.jsonl", manifest)
        system = _build(config)
        system.audit = recorder
        system.run(1)
        save_checkpoint(system, tmp_path / "ckpt.npz")
        system.close()
        recorder.close()

        other = AuditRecorder(tmp_path / "b.jsonl", manifest)
        other.record_round(0, accepted=[0], ciphertexts={0: b"zz"},
                           weights_after=np.zeros(4), epsilon=0.1, clip=1.0)
        fresh = _build(config, seed=9)
        fresh.audit = other
        with pytest.raises(ValueError, match="diverged audit chain"):
            load_checkpoint(fresh, tmp_path / "ckpt.npz")
        fresh.close()
        other.close()

    @pytest.mark.parametrize("runtime,adaptive", [
        (None, False),
        (RuntimeConfig(faults=FaultConfig(dropout_rate=0.3)), False),
        (None, True),
    ], ids=["clean", "dropouts", "adaptive-clip"])
    def test_audited_resume_equals_straight_run_and_replays(
            self, tmp_path, runtime, adaptive):
        # k rounds, a checkpoint, a rebuild with the same seed onto the
        # same open recorder, then the rest: bit for bit the straight
        # run, and the one log replays strictly across the resume.
        from repro.core.checkpoint import load_checkpoint, save_checkpoint

        config = _config(adaptive_clipping=adaptive)
        straight = _build(config, runtime=runtime)
        straight.run(4)
        manifest = make_manifest(data=DATA, model=MODEL, config=config,
                                 runtime=runtime)
        path = tmp_path / "log.jsonl"
        with AuditRecorder(path, manifest) as recorder:
            first = _build(config, runtime=runtime)
            first.audit = recorder
            first.run(2)
            save_checkpoint(first, tmp_path / "ckpt.npz")
            resumed = _build(config, runtime=runtime)
            resumed.audit = recorder
            load_checkpoint(resumed, tmp_path / "ckpt.npz")
            resumed.run(2)
        assert resumed.round_index == 4
        logs = first.history + resumed.history
        assert [log.round_index for log in logs] == [0, 1, 2, 3]
        for log, want in zip(logs, straight.history):
            assert log.participants == want.participants
            assert log.weights_after.tobytes() == want.weights_after.tobytes()
            assert log.epsilon == want.epsilon
        report = verify_log(path, strict=True)
        assert report.replayed and len(report.rounds) == 4
        assert all(v.replay_ok for v in report.rounds)

    def test_sharded_resume_keeps_the_leaf_pool(self, tmp_path):
        # Fatal leaf crashes kill leaves before the checkpoint.  The
        # resumed service must rebuild the same pool (same leaves dead),
        # or it seals round 2's partials under other leaf indices than
        # the straight run and the log cannot replay across the resume.
        from repro.core.checkpoint import load_checkpoint, save_checkpoint

        config = _config()
        data = {**DATA, "n_clients": 24}
        shards = ShardConfig(shards=3, faults=EnclaveFaultConfig(
            leaf_crash_rate=0.5, crash_fatal_rate=1.0))
        straight = _build(config, shards=shards, data=data)
        straight.run(4)
        manifest = make_manifest(data=data, model=MODEL, config=config,
                                 shards=shards)
        path = tmp_path / "log.jsonl"
        with AuditRecorder(path, manifest) as recorder:
            first = _build(config, shards=shards, data=data)
            first.audit = recorder
            first.run(2)
            assert any(not lf.alive for lf in first.shard_service._leaves)
            save_checkpoint(first, tmp_path / "ckpt.npz")
            resumed = _build(config, shards=shards, data=data)
            resumed.audit = recorder
            load_checkpoint(resumed, tmp_path / "ckpt.npz")
            resumed.run(2)
        logs = first.history + resumed.history
        for log, want in zip(logs, straight.history, strict=True):
            assert ([leaf for _, leaf, _ in log.shard_report.partials]
                    == [leaf for _, leaf, _ in want.shard_report.partials])
            assert log.shard_report.partials == want.shard_report.partials
            assert log.weights_after.tobytes() == want.weights_after.tobytes()
        report = verify_log(path, strict=True)
        assert report.replayed and len(report.rounds) == 4
        assert all(v.replay_ok for v in report.rounds)

    def test_round_index_must_match_audit_rounds(self, tmp_path):
        from repro.core.checkpoint import load_checkpoint, save_checkpoint

        config = _config()
        manifest = make_manifest(data=DATA, model=MODEL, config=config)
        with AuditRecorder(tmp_path / "log.jsonl", manifest) as recorder:
            system = _build(config)
            system.audit = recorder
            system.run(2)
            save_checkpoint(system, tmp_path / "ckpt.npz")
            with np.load(tmp_path / "ckpt.npz") as archive:
                weights = archive["global_weights"]
                meta = json.loads(str(archive["meta"]))
            for bad in (0, 1, 3):
                meta["round_index"] = bad
                np.savez(tmp_path / "ckpt.npz", global_weights=weights,
                         meta=json.dumps(meta))
                fresh = _build(config)
                fresh.audit = recorder
                with pytest.raises(ValueError, match="audit log's 2"):
                    load_checkpoint(fresh, tmp_path / "ckpt.npz")
                assert fresh.round_index == 0

    def test_unaudited_restore_still_works(self, tmp_path):
        from repro.core.checkpoint import load_checkpoint, save_checkpoint

        system = _build(_config())
        system.run(1)
        save_checkpoint(system, tmp_path / "ckpt.npz")
        fresh = _build(_config(), seed=9)
        meta = load_checkpoint(fresh, tmp_path / "ckpt.npz")
        assert meta["audit_head"] is None
        assert np.array_equal(fresh.global_weights, system.global_weights)
        system.close()
        fresh.close()
