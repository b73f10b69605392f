"""Determinism suite for the cohort runtime (repro.runtime).

Pins the subsystem's central contract: however the cohort is chunked,
the runtime produces **bit-identical** per-client updates, round
outcomes, and global trajectories -- because all randomness derives
from ``(round, client)`` identity, never from execution order.  Injected
transient failures are settled from the fault plan; the per-client
retry loop (``tests/oracles.py::run_cohort_loop``) and values recorded
from that loop pin the outcomes and runtime counters.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import obs
from repro.core.olive import OliveConfig, OliveSystem
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.runtime import (
    STATUS_OK,
    STREAM_DH,
    STREAM_ENCLAVE,
    STREAM_FAULT,
    STREAM_MODEL,
    STREAM_NOISE,
    STREAM_NONCE,
    STREAM_SAMPLE,
    STREAM_TEACHER,
    STREAM_TRAIN,
    CohortRuntime,
    FaultConfig,
    RuntimeConfig,
    derive_nonce,
    derive_rng,
)
from repro.sgx import crypto

from . import oracles

TRAIN = TrainingConfig(local_epochs=1, local_lr=0.1, batch_size=8,
                       sparse_ratio=0.1, clip=1.0)

FAULTS = FaultConfig(dropout_rate=0.2, straggler_rate=0.2,
                     straggler_delay_s=0.001, corrupt_rate=0.15,
                     replay_rate=0.15, transient_failure_rate=0.2)


def recorded_runtime(executor, workers, faults=None):
    """The runtime a run recorded with ``(executor, workers)`` ran as.

    Every former executor name and worker count stands for the one
    batched path at its default (whole-cohort) chunking.
    """
    return RuntimeConfig(faults=faults or FaultConfig())


def olive_system(runtime=None, seed=1):
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, 8, 20, 2, seed=0)
    return OliveSystem(
        build_model("tiny_mlp", seed=0), clients,
        OliveConfig(sample_rate=0.8, noise_multiplier=0.8,
                    aggregator="advanced", training=TRAIN),
        seed=seed, runtime=runtime,
    )


def run_olive(runtime=None, rounds=2, seed=1):
    with olive_system(runtime, seed) as system:
        return system.run(rounds)


def one_client_chunks(faults=None):
    """Every client trained alone, as the old serial executor did."""
    return RuntimeConfig(vector_chunk=1, faults=faults or FaultConfig())


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


#: Golden PCG64 outputs (``random_raw(2)``) of ``derive_rng(entropy,
#: stream, *key)``: every stream, key lengths 0-4, entropy 0 (encoded
#: as zero bytes) and identities past 64 bits of entropy / 32 bits of
#: client id.  Any change here changes every recorded run.
GOLDEN_DRAWS = [
    (7, STREAM_TRAIN, (), (0x51D9151703E13F5A, 0x12CDF717F364DC2F)),
    (7, STREAM_TRAIN, (3,), (0x059895196F875B4D, 0xCFB32D198074D684)),
    (7, STREAM_TRAIN, (3, 5), (0x61D0ACCCEC8305D6, 0x0C8714595D7E2B68)),
    (7, STREAM_TRAIN, (3, 5, 1), (0xAA13E4E82C6C4BE4, 0xBB89D11F9E1AC748)),
    (7, STREAM_MODEL, (3, 5, 2), (0x8B02B8972595E33B, 0x129DF6EBF099C2C7)),
    (7, STREAM_FAULT, (3, 5), (0x03FEBC578244B3DF, 0x35713E37C504A796)),
    (7, STREAM_NONCE, (3, 5), (0xA0B4FEA1E329C76D, 0xB76D7FBA3FC055B2)),
    (7, STREAM_TEACHER, (3, 1, 0, 0),
     (0xEFB8050C6A3361B2, 0x5DB3BF23C8540A61)),
    (7, STREAM_ENCLAVE, (3, 2, 1), (0xF20CC1BEFA6330C2, 0xFF79C0B1D4999FC4)),
    (7, STREAM_SAMPLE, (3,), (0x3CD1D9071D168B3A, 0x6374E686BC77F5FA)),
    (7, STREAM_NOISE, (3,), (0xD481AEF857BB56E1, 0x864A59F407C46744)),
    (7, STREAM_DH, (), (0xCCB747A1F22C8F57, 0x97BDE97D9B0F9856)),
    (0, STREAM_TRAIN, (0, 0), (0x3BAEAA38A0E8CC87, 0x752F826121C146EE)),
    (2**80 + 3, STREAM_TRAIN, (0, 2**40),
     (0xB64759039267D811, 0x151044D95C946DDA)),
]

GOLDEN_IDS = ["train-k0", "train-k1", "train", "train-quantize",
              "model-layer", "fault", "nonce-stream", "teacher-k4",
              "enclave-k3", "sample", "noise", "dh", "entropy-0",
              "wide-entropy-and-id"]

GOLDEN_NONCES = [
    ((7, 3, 5), "61e54c0ee7aa394af245f33e2cb7c81a"),
    ((0, 0, 0), "7836953da7446593ddf0c3d5828b0444"),
    ((2**80 + 3, 1, 2**40), "38fc9aeca2b2fde5550dee5da6877fc6"),
]

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U128 = (1 << 128) - 1


def spec_state(entropy, stream, *key):
    """BLAKE2b-256 over the documented identity encoding."""
    ent = entropy.to_bytes((entropy.bit_length() + 7) // 8, "little")
    encoding = (len(ent).to_bytes(4, "little") + ent
                + b"".join(w.to_bytes(8, "little") for w in (stream, *key)))
    return hashlib.blake2b(encoding, digest_size=32).digest()


def spec_pcg64_state(state):
    """PCG64's (state, inc) after seeding with the four LE uint64 words
    of ``state`` (O'Neill's pcg_setseq_128_srandom_r)."""
    w = [int.from_bytes(state[i:i + 8], "little") for i in range(0, 32, 8)]
    initstate, initseq = (w[0] << 64) | w[1], (w[2] << 64) | w[3]
    inc = ((initseq << 1) | 1) & _U128
    s = inc                                   # step from state 0
    s = (s + initstate) & _U128
    s = (s * _PCG_MULT + inc) & _U128
    return s, inc


class TestSeeding:
    def test_identity_derivation_is_stable(self):
        a = derive_rng(7, STREAM_TRAIN, 3, 5).random(8)
        b = derive_rng(7, STREAM_TRAIN, 3, 5).random(8)
        assert np.array_equal(a, b)

    def test_streams_partition_the_namespace(self):
        draws = {stream: derive_rng(7, stream, 3, 5).random(4).tobytes()
                 for stream in range(STREAM_DH + 1)}
        assert len(set(draws.values())) == len(draws)
        # Key length is part of the identity, too.
        a = derive_rng(7, STREAM_TRAIN, 3, 5).random(4)
        b = derive_rng(7, STREAM_TRAIN, 3, 5, 0).random(4)
        assert not np.array_equal(a, b)

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            derive_rng(0, STREAM_TRAIN, -1)
        with pytest.raises(ValueError):
            derive_rng(0, -1, 0)
        with pytest.raises(ValueError):
            derive_rng(-1, STREAM_TRAIN, 0)
        with pytest.raises(ValueError):
            derive_nonce(0, 0, -2)

    def test_oversize_key_rejected(self):
        derive_rng(0, STREAM_TRAIN, 2**64 - 1)
        with pytest.raises(ValueError):
            derive_rng(0, STREAM_TRAIN, 2**64)
        with pytest.raises(ValueError):
            derive_nonce(0, 2**64, 0)

    def test_nonce_shape_and_uniqueness(self):
        nonces = {derive_nonce(0, r, c) for r in range(5) for c in range(5)}
        assert len(nonces) == 25
        assert all(len(n) == 16 for n in nonces)
        assert derive_nonce(0, 1, 2) == derive_nonce(0, 1, 2)

    @pytest.mark.parametrize("entropy,stream,key,raw", GOLDEN_DRAWS,
                             ids=GOLDEN_IDS)
    def test_golden_draws(self, entropy, stream, key, raw):
        rng = derive_rng(entropy, stream, *key)
        assert tuple(rng.bit_generator.random_raw(2).tolist()) == raw

    @pytest.mark.parametrize("identity,nonce", GOLDEN_NONCES,
                             ids=["base", "entropy-0", "wide-entropy-and-id"])
    def test_golden_nonces(self, identity, nonce):
        assert derive_nonce(*identity).hex() == nonce

    @pytest.mark.parametrize("entropy,stream,key,raw", GOLDEN_DRAWS,
                             ids=GOLDEN_IDS)
    def test_state_follows_the_documented_encoding(
            self, entropy, stream, key, raw):
        state = spec_state(entropy, stream, *key)
        pcg = derive_rng(entropy, stream, *key).bit_generator.state["state"]
        assert (pcg["state"], pcg["inc"]) == spec_pcg64_state(state)
        if stream == STREAM_NONCE:
            assert derive_nonce(entropy, *key) == state[:16]


class TestExecutorEquivalence:
    """A run recorded under any former executor name equals training
    every client alone, bit for bit."""

    @pytest.mark.parametrize("executor,workers", [
        ("thread", 1), ("thread", 3), ("thread", 8),
    ])
    def test_thread_matches_serial(self, executor, workers):
        assert_logs_identical(run_olive(one_client_chunks()),
                              run_olive(recorded_runtime(executor, workers)))

    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1), ("thread", 5),
    ])
    def test_faulty_rounds_executor_invariant(self, executor, workers):
        base = run_olive(one_client_chunks(FAULTS))
        other = run_olive(recorded_runtime(executor, workers, FAULTS))
        assert_logs_identical(base, other)

    def test_rerun_is_bit_identical(self):
        assert_logs_identical(run_olive(), run_olive())


class TestSimulationEquivalence:
    """The CDP-FL configuration (``linear`` aggregator) is chunking
    invariant too."""

    def _sim(self, runtime):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        clients = partition_clients(gen, 8, 20, 2, seed=0)
        return OliveSystem(
            build_model("tiny_mlp", seed=0), clients,
            OliveConfig(sample_rate=0.8, aggregator="linear",
                        training=TRAIN),
            seed=2, runtime=runtime,
        )

    @pytest.mark.parametrize("executor,workers", [
        ("thread", 2), ("thread", 7),
    ])
    def test_parallel_matches_serial(self, executor, workers):
        with self._sim(one_client_chunks()) as serial, \
                self._sim(recorded_runtime(executor, workers)) as parallel:
            assert_logs_identical(serial.run(2), parallel.run(2))


class TestTeacherEquivalence:
    def test_teacher_identical_across_executors(self):
        from repro.attack.pipeline import AttackConfig, build_teacher
        from repro.fl.datasets import server_test_data_by_label

        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        by_label = server_test_data_by_label(gen, 12, seed=9)
        model = build_model("tiny_mlp", seed=0)
        cfg = AttackConfig(teacher_samples_per_label=3)
        serial = build_teacher(run_olive(one_client_chunks()), model,
                               by_label, TRAIN, cfg)
        threaded = build_teacher(run_olive(recorded_runtime("thread", 4)),
                                 model, by_label, TRAIN, cfg)
        assert serial == threaded


class TestRuntimeConfigValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(executor="gpu")

    def test_executor_names(self):
        from repro.__main__ import _parse_args

        # One cohort path: the config names it, the CLI has no choice.
        assert RuntimeConfig().executor == "vectorized"
        for name in ("serial", "thread", "process"):
            with pytest.raises(ValueError, match="one path"):
                RuntimeConfig(executor=name)
        with pytest.raises(SystemExit):
            _parse_args(["--executor", "vectorized"])

    def test_bad_quorum_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(min_quorum=1.5)

    def test_bad_workers_rejected(self):
        # There is no worker pool to size: the field is gone.
        with pytest.raises(TypeError):
            RuntimeConfig(workers=2)

    def test_bad_timeout_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(client_timeout_s=0.0)

    def test_realized_accounting_field_is_gone(self):
        # Every released round is charged at q; there is no switch.
        with pytest.raises(TypeError):
            RuntimeConfig(realized_accounting=True)
        assert not hasattr(RuntimeConfig(), "use_realized_accounting")


# -- fault settlement: recorded values and the per-client loop ----------

SETTLE_FAULTS = FaultConfig(dropout_rate=0.15, straggler_rate=0.3,
                            straggler_delay_s=0.004, corrupt_rate=0.1,
                            replay_rate=0.1, transient_failure_rate=0.4,
                            transient_failures=2)
SETTLE_CLIENTS = 16

# Recorded from the per-client retry loop (``oracles.run_cohort_loop``)
# on the round below.  Clients 3, 5, 13, 14 draw two injected failures.
_OK1 = ("ok", None, 1, 0)
_DROP = ("dropped", "dropout", 0, 0)
_SLOW = ("straggler", "straggler", 0, 0)
_TWICE = {1: ("failed", "transient", 2, 1), 2: ("ok", None, 3, 2)}
RECORDED = {
    max_retries: {
        "outcomes": {
            cid: (_TWICE[max_retries] if cid in (3, 5, 13, 14)
                  else _DROP if cid in (2, 8, 12)
                  else _SLOW if cid in (6, 7) else _OK1)
            for cid in range(SETTLE_CLIENTS)
        },
        "counters": counters,
        "backoff": backoff,
        "completed": completed,
        "digest": digest,
    }
    for max_retries, counters, backoff, completed, digest in (
        (1, {"runtime.dropouts": 3,
             "runtime.failure_reason.dropout": 3,
             "runtime.failure_reason.straggler": 2,
             "runtime.failure_reason.transient": 4,
             "runtime.failures": 4, "runtime.retries": 4,
             "runtime.stragglers_dropped": 2,
             "runtime.transient_failures": 8},
         (4, 0.004), 7,
         "448867e52dc12e701ce6586b31d7f5e87deaeb04983cdf66eafde2ebba447b1f"),
        (2, {"runtime.dropouts": 3,
             "runtime.failure_reason.dropout": 3,
             "runtime.failure_reason.straggler": 2,
             "runtime.replays_injected": 1,
             "runtime.retries": 8, "runtime.stragglers_dropped": 2,
             "runtime.transient_failures": 8},
         (8, 0.01), 11,
         "02341bb00730c7180b262a9673ca12faddd1803ecd44fbd33492cd9981678d70"),
    )
}


def settle_config(max_retries, faults=SETTLE_FAULTS):
    return RuntimeConfig(max_retries=max_retries, backoff_base_s=0.001,
                         backoff_cap_s=0.0015, client_timeout_s=0.006,
                         faults=faults)


def settle_round(config, loop=False):
    """One seeded cohort round; returns (result, counters, hists)."""
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, SETTLE_CLIENTS, 20, 2, seed=0)
    keys = {c.client_id: crypto.generate_key(b"k%d" % c.client_id)
            for c in clients}
    cohort = [c.client_id for c in clients]
    sink = obs.MemorySink()
    with obs.session(sinks=[sink]):
        if loop:
            model = oracles.build_model("tiny_mlp", seed=0)
            result = oracles.run_cohort_loop(
                config, model, clients, 5, 1, cohort, model.get_flat(),
                TRAIN, keys=keys)
        else:
            model = build_model("tiny_mlp", seed=0)
            result = CohortRuntime(config, model, clients, 5,
                                   keys=keys).run_cohort(
                1, cohort, model.get_flat(), TRAIN)
    counters = {k: v for k, v in sink.last_values("counter").items()
                if k.startswith("runtime.")}
    hists = {e["name"]: e for e in sink.events if e.get("type") == "hist"}
    return result, counters, hists


def outcome_rows(result):
    return {cid: (o.status, o.reason, o.attempts, o.retries)
            for cid, o in result.outcomes.items()}


class TestFaultSettlement:
    @pytest.mark.parametrize("max_retries", [1, 2])
    def test_seeded_faulty_round_matches_recorded_loop(self, max_retries):
        want = RECORDED[max_retries]
        result, counters, hists = settle_round(settle_config(max_retries))
        assert outcome_rows(result) == want["outcomes"]
        assert counters == want["counters"]
        backoff = hists["runtime.backoff_s"]
        assert backoff["count"] == want["backoff"][0]
        assert backoff["sum"] == pytest.approx(want["backoff"][1])
        assert len(result.completed) == want["completed"]
        digest = hashlib.sha256()
        for d in result.deliveries:
            digest.update(d.client_id.to_bytes(4, "little")
                          + d.ciphertext.to_bytes())
        assert digest.hexdigest() == want["digest"]

    @pytest.mark.parametrize("transient_failures", [0, 1, 3])
    def test_runtime_matches_per_client_loop(self, transient_failures):
        config = settle_config(2, dataclasses.replace(
            SETTLE_FAULTS, transient_failures=transient_failures))
        got, got_counters, got_hists = settle_round(config)
        ref, ref_counters, ref_hists = settle_round(config, loop=True)
        assert outcome_rows(got) == outcome_rows(ref)
        assert got_counters == ref_counters
        assert ({k: h["count"] for k, h in got_hists.items()
                 if k != "runtime.train_s"}
                == {k: h["count"] for k, h in ref_hists.items()
                    if k != "runtime.train_s"})
        assert [(d.client_id, d.duplicate, d.corrupt,
                 d.ciphertext.to_bytes()) for d in got.deliveries] \
            == [(d.client_id, d.duplicate, d.corrupt,
                 d.ciphertext.to_bytes()) for d in ref.deliveries]


class TestClientLatency:
    """latency_s = slept wait (delay + backoff) + amortized training."""

    def test_latency_splits_into_wait_and_amortized_train(self):
        config = settle_config(2)
        result, _, hists = settle_round(config)
        ok = [o for o in result.outcomes.values() if o.status == STATUS_OK]
        train = {o.result.train_seconds for o in ok}
        # One chunk: every client carries the same amortized share.
        assert len(train) == 1 and train.pop() > 0.0
        for o in ok:
            backoffs = sum(min(config.backoff_base_s * 2.0 ** a,
                               config.backoff_cap_s)
                           for a in range(o.retries))
            assert o.latency_s == (backoffs + o.plan.delay_s
                                   + o.result.train_seconds)
        latency = hists["runtime.client_latency_s"]
        assert latency["count"] == len(ok)
        assert latency["min"] == pytest.approx(
            min(o.latency_s for o in ok), rel=0.05)

    def test_clean_cohort_latency_is_the_amortized_train_time(self):
        result, _, _ = settle_round(settle_config(2, FaultConfig()))
        assert {o.latency_s for o in result.outcomes.values()} \
            == {o.result.train_seconds for o in result.outcomes.values()}
