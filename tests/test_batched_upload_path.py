"""The upload path runs one pass per batch; these pin it to the per-item oracles.

* :func:`repro.sgx.crypto.seal_batch` / :func:`~repro.sgx.crypto.open_batch`
  equal the per-message AE of ``tests/oracles.py`` byte for byte, and a
  forged tag rejects exactly its own message;
* :func:`repro.sgx.crypto.decode_gradients` rejects non-finite values
  and scales in both wire formats;
* ``Enclave.load_gradient`` over a batch returns, and leaves behind, what
  the per-upload loop (``oracles.load_gradient_loop``) does: outcomes,
  reasons, replay-defence state and counters;
* the shard service's sliced ingest equals slices of one upload through
  that loop: folds, checkpoints, crash/failover positions, the
  ``rejected`` map and the aggregate bytes, on the round benchmark's
  crash/failover shape too;
* a truncated sealed partial is refused as ``corrupt``;
* the audit record's hashed body binds the ciphertexts through its
  Merkle root only, and the bytes ride once in the line.
"""

import base64
import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.audit import (
    AuditCommitmentError,
    read_records,
    record_hash,
    upload_merkle_root,
    verify_chain,
    verify_log,
)
from repro.audit.cli import main as audit_main
from repro.audit.merkle import leaf_hash, merkle_root, node_hash
from repro.core.olive import OliveConfig, OliveSystem
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.runtime import EnclaveFaultConfig, ShardConfig, ShardedAggregator
from repro.runtime.cohort import Delivery, _tamper
from repro.runtime.shards import PARTIAL_MAGIC, _LeafRound, _open_partial
from repro.sgx import crypto
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import (
    Enclave,
    EnclaveSecurityError,
    provision_enclave_with_clients,
)

from . import oracles
from .test_audit import _recorded_run

D = 40
KEYS = [crypto.generate_key(b"batch-%d" % i) for i in range(4)]

messages = st.lists(
    st.tuples(st.integers(0, len(KEYS) - 1), st.binary(max_size=300),
              st.binary(min_size=crypto.NONCE_BYTES,
                        max_size=crypto.NONCE_BYTES)),
    max_size=12)


class TestBatchedAE:
    @given(messages)
    @settings(max_examples=60, deadline=None)
    def test_seal_batch_equals_per_message_seal(self, batch):
        keys = [KEYS[i] for i, _, _ in batch]
        plaintexts = [m for _, m, _ in batch]
        nonces = [n for _, _, n in batch]
        sealed = crypto.seal_batch(keys, plaintexts, nonces)
        assert [ct.to_bytes() for ct in sealed] == [
            oracles.seal_one(k, m, n).to_bytes()
            for k, m, n in zip(keys, plaintexts, nonces)]
        assert crypto.open_batch(keys, sealed) == plaintexts
        for k, m, n, ct in zip(keys, plaintexts, nonces, sealed):
            assert crypto.seal(k, m, nonce=n) == ct
            assert crypto.open_sealed(k, ct) == oracles.open_one(k, ct) == m

    @given(messages.filter(bool), st.data())
    @settings(max_examples=60, deadline=None)
    def test_forged_tag_rejects_exactly_that_message(self, batch, data):
        keys = [KEYS[i] for i, _, _ in batch]
        sealed = crypto.seal_batch(keys, [m for _, m, _ in batch],
                                   [n for _, _, n in batch])
        at = data.draw(st.integers(0, len(batch) - 1))
        byte = data.draw(st.integers(0, crypto.TAG_BYTES - 1))
        tag = bytearray(sealed[at].tag)
        tag[byte] ^= 0x01
        sealed[at] = dataclasses.replace(sealed[at], tag=bytes(tag))
        opened = crypto.open_batch(keys, sealed)
        assert [i for i, p in enumerate(opened) if p is None] == [at]
        with pytest.raises(crypto.AuthenticationError):
            crypto.open_sealed(keys[at], sealed[at])
        with pytest.raises(crypto.AuthenticationError):
            oracles.open_one(keys[at], sealed[at])

    def test_empty_batch(self):
        assert crypto.seal_batch([], [], []) == []
        assert crypto.open_batch([], []) == []

    def test_unpaired_inputs_refused(self):
        with pytest.raises(ValueError, match="pair up"):
            crypto.seal_batch(KEYS[:2], [b"a"], [bytes(16)] * 2)
        with pytest.raises(ValueError, match="pair up"):
            crypto.open_batch(KEYS[:2], [crypto.seal(KEYS[0], b"a")])

    def test_wire_length_without_building_it(self):
        ct = crypto.seal(KEYS[0], b"x" * 37)
        assert ct.nbytes == len(ct.to_bytes())


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sparse_values(self, bad):
        good = crypto.encode_sparse_gradient([1, 2], [0.5, 1.0])
        raw = crypto.encode_sparse_gradient([1, 2], [0.5, bad])
        out = crypto.decode_gradients([good, raw, good], D)
        assert isinstance(out[1], ValueError)
        assert "non-finite gradient value" in str(out[1])
        assert out[0][1].tolist() == out[2][1].tolist() == [0.5, 1.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("k", [0, 2])
    def test_quantized_scale(self, bad, k):
        raw = crypto.encode_quantized_gradient(list(range(k)), [1] * k, bad)
        [out] = crypto.decode_gradients([raw], D, quantized=True)
        assert isinstance(out, ValueError)
        assert "non-finite quantization scale" in str(out)

    @pytest.mark.parametrize("quantize_bits", [None, 8])
    def test_enclave_rejects_as_malformed_naming_the_client(
            self, quantize_bits):
        enclave = Enclave(seed=0)
        keys = provision_enclave_with_clients(enclave, [3, 4])
        enclave.begin_round(sampled={3, 4})
        if quantize_bits is None:
            raw = crypto.encode_sparse_gradient([1], [np.nan])
        else:
            raw = crypto.encode_quantized_gradient([1], [2], np.inf)
        with pytest.raises(EnclaveSecurityError,
                           match="client 4: malformed") as e:
            oracles.load_upload(enclave, 4, crypto.seal(keys[4], raw), D,
                                quantize_bits)
        assert e.value.reason == "malformed"
        assert 4 not in enclave._loaded_clients


# ----------------------------------------------------------------------
# Enclave ingest: the batch ECALL against the per-upload loop
# ----------------------------------------------------------------------
def _ingest_fixture(quantize_bits=None):
    """Two identically provisioned enclaves and a hostile upload mix."""
    svc = AttestationService(signing_key=b"k" * 32, platform_secret=b"p" * 32)
    enclaves = []
    for _ in range(2):
        enclave = Enclave(attestation_service=svc, seed=5)
        for cid in range(10):
            enclave.keystore.put(cid, KEYS[cid % len(KEYS)])
        enclave.begin_round(sampled=range(9))   # client 9 unsampled
        enclaves.append(enclave)

    def payload(cid, k=3):
        idx = list(range(cid % 5, cid % 5 + k))
        if quantize_bits is None:
            return crypto.encode_sparse_gradient(idx, [0.25 * cid] * k)
        return crypto.encode_quantized_gradient(idx, [cid - 4] * k, 0.125)

    def seal(cid, raw):
        return crypto.seal(KEYS[cid % len(KEYS)], raw,
                           nonce=cid.to_bytes(16, "big"))

    good = {cid: seal(cid, payload(cid)) for cid in range(10)}
    malformed = payload(6)[:-1]
    if quantize_bits is None:
        out_of_range = payload(7)[:-12] + struct.pack(">Id", 0xFFFFFFFF, 1.0)
    else:
        out_of_range = payload(7)[:-6] + struct.pack(">Ih", 0xFFFFFFFF, 1)
    uploads = [
        Delivery(0, good[0]),
        Delivery(0, good[0], duplicate=True),         # duplicate
        Delivery(1, _tamper(good[1]), corrupt=True),  # corrupt
        Delivery(1, good[1]),                         # still accepted
        Delivery(2, good[0]),                         # replayed bytes
        Delivery(9, good[9]),                         # unsampled
        Delivery(6, seal(6, malformed)),              # malformed
        Delivery(3, seal(3, payload(3, k=5))),        # another k
        Delivery(4, good[4]),
        Delivery(5, seal(5, payload(5, k=0))),        # empty update
        Delivery(7, seal(7, out_of_range)),           # index >= d
        Delivery(2, good[2]),
        Delivery(6, good[6]),                         # after its reject
        Delivery(8, seal(8, payload(8)) if quantize_bits is None
                 else seal(8, crypto.encode_quantized_gradient([1], [1],
                                                               np.nan))),
        Delivery(8, good[8]),
        Delivery(4, seal(4, payload(4, k=2))),        # second contribution
    ]
    return enclaves, uploads


def _same_result(a, b):
    if isinstance(a, EnclaveSecurityError):
        return (isinstance(b, EnclaveSecurityError)
                and (a.reason, str(a)) == (b.reason, str(b)))
    return (not isinstance(b, EnclaveSecurityError)
            and a[0].dtype == b[0].dtype == np.int64
            and a[1].dtype == b[1].dtype == np.float64
            and a[0].tobytes() == b[0].tobytes()
            and a[1].tobytes() == b[1].tobytes())


class TestBatchIngestEqualsPerUploadLoop:
    @pytest.mark.parametrize("quantize_bits", [None, 8])
    @given(cuts=st.lists(st.integers(0, 16), max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_outcomes_state_and_counters(self, quantize_bits, cuts):
        (batched, looped), uploads = _ingest_fixture(quantize_bits)
        bounds = [0, *sorted(cuts), len(uploads)]
        sinks = [obs.MemorySink(), obs.MemorySink()]
        with obs.session(sinks=[sinks[0]]):
            got = [r for lo, hi in zip(bounds, bounds[1:])
                   for r in batched.load_gradient(uploads[lo:hi], D,
                                                  quantize_bits)]
        with obs.session(sinks=[sinks[1]]):
            want = oracles.load_gradient_loop(looped, uploads, D,
                                              quantize_bits)
        assert len(got) == len(want) == len(uploads)
        assert all(_same_result(a, b) for a, b in zip(got, want))
        reasons = [getattr(r, "reason", "ok") for r in want]
        assert reasons == [
            "ok", "duplicate", "corrupt", "ok", "replay", "unsampled",
            "malformed", "ok", "ok", "ok", "malformed", "ok", "ok",
            "ok" if quantize_bits is None else "malformed",
            "ok" if quantize_bits is not None else "duplicate",
            "duplicate"]
        assert batched._loaded_clients == looped._loaded_clients
        assert batched._seen_digests == looped._seen_digests
        assert (sinks[0].last_values("counter")
                == sinks[1].last_values("counter"))

    def test_one_ecall_span_per_batch(self):
        (enclave, _), uploads = _ingest_fixture()
        sink = obs.MemorySink()
        with obs.session(sinks=[sink]):
            enclave.load_gradient(uploads, D)
        spans = [s for s in sink.spans() if s["name"] == "ecall.load_gradient"]
        assert len(spans) == 1

    def test_unknown_key_refused_without_counting(self):
        enclave = Enclave(seed=0)
        enclave.begin_round(sampled={1})
        [result] = enclave.load_gradient(
            [Delivery(1, crypto.seal(KEYS[0], b"x"))], D)
        assert isinstance(result, EnclaveSecurityError)
        assert result.reason == "security" and "client 1" in str(result)


# ----------------------------------------------------------------------
# The shard service: sliced ingest against one upload per ECALL
# ----------------------------------------------------------------------
def _per_upload(monkeypatch):
    """Slices of one upload through the per-upload enclave loop."""
    monkeypatch.setattr(_LeafRound, "slice_end",
                        lambda self, pos, limit, every: pos + 1)
    monkeypatch.setattr(Enclave, "load_gradient",
                        oracles.load_gradient_loop)


def _shard_uploads(n=48):
    svc = AttestationService(signing_key=b"k" * 32, platform_secret=b"p" * 32)
    root = Enclave(attestation_service=svc, seed=7)
    keys = provision_enclave_with_clients(root, range(n + 1))
    rng = np.random.default_rng(3)
    deliveries = []
    for cid in range(n + 1):
        idx = np.sort(rng.choice(D, size=4, replace=False))
        raw = crypto.encode_sparse_gradient(idx, rng.normal(size=4))
        if cid % 11 == 5:
            raw = raw[:-3]                                  # malformed
        ct = crypto.seal(keys[cid], raw, nonce=cid.to_bytes(16, "big"))
        if cid % 13 == 4:
            ct = _tamper(ct)                                # corrupt
        deliveries.append(Delivery(cid, ct))
        if cid % 7 == 2:
            deliveries.append(Delivery(cid, ct, duplicate=True))
    # Client n is not sampled; client 3 resends client 1's bytes.
    deliveries.append(Delivery(3, deliveries[1].ciphertext, duplicate=True))
    root.begin_round(sampled=range(n))
    return root, deliveries


def _outcome_view(outcome):
    view = dataclasses.asdict(outcome)
    del view["wall_s"], view["latency_s"]   # measured wall time
    return view


def _shard_round(oblivious_batch, entropy, faults, shards=3):
    root, deliveries = _shard_uploads()
    service = ShardedAggregator(
        root, ShardConfig(shards=shards, oblivious_batch=oblivious_batch,
                          max_shard_retries=4, shard_deadline_s=0.04,
                          faults=faults),
        entropy=entropy)
    sink = obs.MemorySink()
    with obs.session(sinks=[sink]):
        aggregate, report = service.aggregate_round(
            0, deliveries, D, sampled=set(range(48)))
    counters = sink.last_values("counter")
    return aggregate, report, counters


class TestShardIngestEqualsPerUploadLoop:
    FAULTS = EnclaveFaultConfig(leaf_crash_rate=0.6, crash_fatal_rate=0.4,
                                leaf_straggler_rate=0.3,
                                root_restart_rate=0.5)

    @pytest.mark.parametrize("oblivious_batch", [1, 3, 8, 64])
    @pytest.mark.parametrize("entropy", [1, 2, 9])
    def test_folds_checkpoints_and_rejects(self, monkeypatch,
                                           oblivious_batch, entropy):
        got = _shard_round(oblivious_batch, entropy, self.FAULTS)
        with monkeypatch.context() as patch:
            _per_upload(patch)
            want = _shard_round(oblivious_batch, entropy, self.FAULTS)
        (agg, report, counters), (agg0, report0, counters0) = got, want
        assert agg.tobytes() == agg0.tobytes()
        assert report.accepted_clients == report0.accepted_clients
        assert report.rejected == report0.rejected
        assert report.partials == report0.partials
        assert ([_outcome_view(o) for o in report.outcomes]
                == [_outcome_view(o) for o in report0.outcomes])
        assert list(report.updates) == list(report0.updates)
        assert counters == counters0
        assert set(report.rejected.values()) <= {"corrupt", "malformed",
                                                 "unsampled"}

    def test_exercises_crashes_checkpoints_and_refusals(self):
        reports = [_shard_round(3, e, self.FAULTS)[1] for e in (1, 2, 9)]
        outcomes = [o for r in reports for o in r.outcomes]
        assert sum(o.crashes for o in outcomes) > 0
        assert sum(o.failovers for o in outcomes) > 0
        assert sum(o.checkpoints for o in outcomes) > 0
        assert sum(o.deduped for o in outcomes) > 0

    def test_slices_are_fewer_than_uploads(self):
        root, deliveries = _shard_uploads()
        service = ShardedAggregator(
            root, ShardConfig(shards=1, oblivious_batch=len(deliveries)))
        sink = obs.MemorySink()
        with obs.session(sinks=[sink]):
            service.aggregate_round(0, deliveries, D, sampled=set(range(48)))
        ecalls = [s for s in sink.spans() if s["name"] == "ecall.load_gradient"]
        assert len(ecalls) == 1


def _xdevice_sharded_system(shards):
    gen = SyntheticClassData(SPECS["tiny"], seed=2)
    clients = partition_clients(gen, 120, 16, 2, seed=2)
    config = OliveConfig(
        sample_rate=0.5, noise_multiplier=1.12, delta=1e-5,
        training=TrainingConfig(local_epochs=1, local_lr=0.2, batch_size=8,
                                sparse_ratio=0.1, clip=1.0,
                                sparsifier="top_k"))
    return OliveSystem(build_model("tiny_mlp", seed=0), clients, config,
                       seed=2, shards=shards)


def test_xdevice_sharded_shape_equals_per_upload_loop(monkeypatch):
    # The round benchmark's crash/failover shape (4 leaves, a fold every
    # 64 accepted uploads, leaf crashes and stragglers), on a smaller
    # population with a smaller fold so rounds cross fold boundaries.
    shards = ShardConfig(
        shards=4, oblivious_batch=8, max_shard_retries=8,
        faults=EnclaveFaultConfig(leaf_crash_rate=0.3, crash_fatal_rate=0.5,
                                  leaf_straggler_rate=0.1))
    system = _xdevice_sharded_system(shards)
    logs = system.run(3)
    with monkeypatch.context() as patch:
        _per_upload(patch)
        oracle_logs = _xdevice_sharded_system(shards).run(3)
    assert sum(o.crashes for log in logs
               for o in log.shard_report.outcomes) > 0
    for log, ref in zip(logs, oracle_logs):
        assert log.weights_after.tobytes() == ref.weights_after.tobytes()
        assert log.participants == ref.participants
        assert ([_outcome_view(o) for o in log.shard_report.outcomes]
                == [_outcome_view(o) for o in ref.shard_report.outcomes])
        assert log.shard_report.partials == ref.shard_report.partials


class TestTruncatedPartial:
    KEY = b"k" * 32

    def test_too_short_to_be_a_ciphertext(self):
        with pytest.raises(EnclaveSecurityError) as e:
            _open_partial(self.KEY, b"short")
        assert e.value.reason == "corrupt"

    @pytest.mark.parametrize("payload", [
        PARTIAL_MAGIC,
        PARTIAL_MAGIC + struct.pack(">III", 0, 0, 0),
        PARTIAL_MAGIC + struct.pack(">IIII", 0, 0, 0, 3) + bytes(8),
        PARTIAL_MAGIC + struct.pack(">IIIII", 0, 0, 0, 0, 2) + bytes(8),
    ])
    def test_short_authenticated_payload(self, payload):
        blob = crypto.seal(self.KEY, payload).to_bytes()
        with pytest.raises(EnclaveSecurityError) as e:
            _open_partial(self.KEY, blob)
        assert e.value.reason == "corrupt"


# ----------------------------------------------------------------------
# Audit log v8: ciphertexts bound once, through the Merkle root
# ----------------------------------------------------------------------
def _rfc6962_root(leaves):
    """The RFC 6962 definition: split at the largest power of two < n."""
    if len(leaves) == 1:
        return leaves[0]
    k = 1
    while k * 2 < len(leaves):
        k *= 2
    return node_hash(_rfc6962_root(leaves[:k]), _rfc6962_root(leaves[k:]))


@pytest.mark.parametrize("n", list(range(1, 70)) + [255, 256, 257, 300])
def test_bottom_up_merkle_root_is_rfc6962(n):
    leaves = [leaf_hash(b"%d" % i) for i in range(n)]
    assert merkle_root(leaves) == _rfc6962_root(leaves)


class TestAuditRecordV8:
    def test_hashed_body_carries_the_root_not_the_bytes(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=2)
        rounds = [r for r in read_records(path) if r["type"] == "round"]
        for r in rounds:
            assert r["ciphertexts"]
            stripped = {k: v for k, v in r.items() if k != "ciphertexts"}
            assert record_hash(stripped) == record_hash(r) == r["hash"]
            cts = {int(c): base64.b64decode(b)
                   for c, b in r["ciphertexts"].items()}
            assert upload_merkle_root(cts) == r["merkle_root"]

    def test_each_line_is_its_canonical_body_plus_bytes_and_hash(
            self, tmp_path):
        path = _recorded_run(tmp_path, rounds=1)
        for line in path.read_text().splitlines():
            record = json.loads(line)
            body = {k: v for k, v in record.items()
                    if k not in ("hash", "ciphertexts")}
            assert line.startswith(json.dumps(body, sort_keys=True)[:-1])

    def test_flipped_byte_without_reminting_exits_four(self, tmp_path):
        # The bytes sit outside the record hash, so the chain still
        # verifies and the commitment layer names the round.
        path = _recorded_run(tmp_path, rounds=2)
        records = read_records(path)
        r = records[2]
        cid = next(iter(r["ciphertexts"]))
        blob = bytearray(base64.b64decode(r["ciphertexts"][cid]))
        blob[-1] ^= 0x01
        r["ciphertexts"][cid] = base64.b64encode(blob).decode()
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        verify_chain(read_records(path))
        with pytest.raises(AuditCommitmentError, match="round 1") as e:
            verify_log(path, replay=False)
        assert e.value.round_index == 1
        assert audit_main([str(path), "--strict", "--no-replay"]) == 4

    def test_undecodable_bytes_exit_four(self, tmp_path):
        path = _recorded_run(tmp_path, rounds=1)
        records = read_records(path)
        cid = next(iter(records[1]["ciphertexts"]))
        records[1]["ciphertexts"][cid] = "not base64!"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
        with pytest.raises(AuditCommitmentError, match="round 0"):
            verify_log(path, replay=False)

    def test_ciphertexts_are_stored_once(self, tmp_path):
        # Besides its hashed body, a round line holds the hash and each
        # ciphertext once, as base64: ``"<id>": "<base64>"`` per upload.
        path = _recorded_run(tmp_path, rounds=3)
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record["type"] != "round":
                continue
            body = {k: v for k, v in record.items()
                    if k not in ("hash", "ciphertexts")}
            stored = sum(len(cid) + 6 + 4 * math.ceil(
                len(base64.b64decode(blob)) / 3)
                for cid, blob in record["ciphertexts"].items())
            overhead = (len(', "ciphertexts": {}')
                        + 2 * max(0, len(record["ciphertexts"]) - 1)
                        + len(', "hash": ""') + 64)
            assert len(line) == (len(json.dumps(body, sort_keys=True))
                                 + stored + overhead)
