"""Tests for the oblivious serving subsystem (repro.serving).

The load-bearing property: the oblivious engine's recorded trace is a
pure function of the batch *shape* -- any two same-shape request
batches produce byte-identical access traces (pinned below with a
hypothesis property test), while the plain row-read mode demonstrably
leaks the served class to the attack pipeline.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack import (
    AttackConfig,
    macro_ovr_auc,
    run_serving_attack,
    serving_slot_observations,
)
from repro.core import OliveConfig, OliveSystem
from repro.core.checkpoint import save_checkpoint
from repro.fl import (
    SPECS,
    SyntheticClassData,
    TrainingConfig,
    build_model,
    partition_clients,
)
from repro.oblivious import o_access_rows
from repro.serving import (
    InferenceServer,
    ObliviousInferenceEngine,
    ServingConfig,
    infer_model_name,
    load_serving_model,
    model_output_dim,
    open_request,
    open_response,
    replay_serving_cost,
    seal_request,
    seal_response,
)
from repro.serving.engine import SERVE_TABLE_REGION
from repro.sgx import crypto
from repro.sgx.crypto import AuthenticationError
from repro.sgx.enclave import (
    Enclave,
    EnclaveSecurityError,
    provision_enclave_with_clients,
)
from repro.sgx.memory import Trace, TracedArray
from tests.oracles import OracleCostModel

SPEC = SPECS["tiny"]


@pytest.fixture(scope="module")
def model():
    return build_model(SPEC.model_name, seed=3)


@pytest.fixture(scope="module")
def data():
    return SyntheticClassData(SPEC, seed=0)


def _engine(model, batch_size=4, oblivious=True, enclave=None):
    return ObliviousInferenceEngine(
        model, batch_size=batch_size, oblivious=oblivious, enclave=enclave)


def _provisioned(model, batch_size=4, oblivious=True, client_ids=(1, 2, 3)):
    enclave = Enclave(seed=0)
    keys = provision_enclave_with_clients(enclave, list(client_ids))
    return _engine(model, batch_size, oblivious, enclave), keys


class TestObliviousTrace:
    """The tentpole property: trace == f(batch shape), not f(inputs)."""

    @settings(max_examples=20, deadline=None)
    @given(seed_a=st.integers(0, 2**31 - 1), seed_b=st.integers(0, 2**31 - 1),
           batch_size=st.sampled_from([1, 3, 4, 8]))
    def test_same_shape_batches_identical_traces(self, seed_a, seed_b,
                                                 batch_size):
        # Property: ANY two request batches of the same shape produce
        # byte-identical access traces through the oblivious path.
        model = build_model(SPEC.model_name, seed=3)
        data = SyntheticClassData(SPEC, seed=0)
        engine = _engine(model, batch_size=batch_size)
        digests = []
        for seed in (seed_a, seed_b):
            rng = np.random.default_rng(seed)
            y = rng.integers(0, SPEC.n_labels, size=batch_size)
            batch = engine.infer_batch(data.sample(y, rng), traced=True)
            digests.append(batch.trace.signature_digest())
        assert digests[0] == digests[1]

    def test_plain_traces_differ_across_classes(self, model, data):
        engine = _engine(model, oblivious=False)
        rng = np.random.default_rng(0)
        digests = set()
        for seed in range(4):
            r = np.random.default_rng(seed)
            y = r.integers(0, SPEC.n_labels, size=4)
            batch = engine.infer_batch(data.sample(y, r), traced=True)
            digests.add(batch.trace.signature_digest())
        assert len(digests) > 1, "plain mode should leak the served rows"

    def test_trace_matches_scalar_o_access_rows(self, model):
        # The engine's block-scan retrieval must touch the table in
        # exactly the order the scalar o_access_rows reference does.
        lab = model_output_dim(model)
        engine = _engine(model, batch_size=1)
        batch = engine.infer_batch(np.zeros((1, *SPEC.input_shape)),
                                   traced=True)
        rids, offs, _ = batch.trace.columns()
        names = batch.trace.region_names
        table_offs = offs[np.asarray(rids) == names.index(SERVE_TABLE_REGION)]
        # Reference: one slot's oblivious row retrieval on a fresh table.
        trace = Trace()
        ref = TracedArray.zeros("ref", lab * lab, trace)
        o_access_rows(ref, 2, lab)
        ref_offs = trace.columns()[1]
        # The engine writes the table once (load is untraced) and then
        # scans; compare the scan segment (reads) against the reference.
        assert table_offs.tolist() == ref_offs.tolist()

    def test_oblivious_selection_is_semantically_correct(self, model, data):
        # The scanned-and-selected row must equal the direct row read.
        engine = _engine(model, batch_size=4)
        rng = np.random.default_rng(5)
        y = rng.integers(0, SPEC.n_labels, size=4)
        batch = engine.infer_batch(data.sample(y, rng), traced=True)
        for slot in range(4):
            expected = batch.logits[slot] + engine.calibration[
                batch.labels[slot]]
            assert np.array_equal(batch.calibrated[slot], expected)

    def test_untraced_path_matches_traced(self, model, data):
        engine = _engine(model, batch_size=4)
        rng = np.random.default_rng(6)
        x = data.sample(rng.integers(0, SPEC.n_labels, size=4), rng)
        traced = engine.infer_batch(x, traced=True)
        untraced = engine.infer_batch(x, traced=False)
        assert np.array_equal(traced.calibrated, untraced.calibrated)
        assert untraced.trace is None

    def test_wrong_batch_size_rejected(self, model):
        engine = _engine(model, batch_size=4)
        with pytest.raises(ValueError, match="fixed batches"):
            engine.infer_batch(np.zeros((3, *SPEC.input_shape)))


class TestCheckpointLoading:
    def _trained_system(self):
        gen = SyntheticClassData(SPEC, seed=0)
        clients = partition_clients(gen, 10, 20, 2, seed=0)
        config = OliveConfig(
            sample_rate=0.5, noise_multiplier=1.12, aggregator="linear",
            training=TrainingConfig(local_epochs=1, local_lr=0.2,
                                    sparse_ratio=0.1),
        )
        system = OliveSystem(build_model(SPEC.model_name, seed=0), clients,
                             config, seed=1)
        system.run(1)
        return system

    def test_roundtrip_infers_architecture(self, tmp_path):
        system = self._trained_system()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(system, path)
        expected = system.global_weights.copy()
        system.close()
        model, meta = load_serving_model(path)
        assert meta["model_name"] == SPEC.model_name
        assert np.array_equal(model.get_flat(), expected)

    def test_model_name_inference(self):
        assert infer_model_name(378) == "tiny_mlp"
        assert infer_model_name(62_006) == "cifar10_cnn"
        with pytest.raises(ValueError, match="no known architecture"):
            infer_model_name(1234567)

    def test_explicit_name_mismatch_rejected(self, tmp_path):
        system = self._trained_system()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(system, path)
        system.close()
        with pytest.raises(ValueError, match="expects"):
            load_serving_model(path, model_name="mnist_mlp")


class TestEnvelopes:
    def test_request_roundtrip(self):
        key = crypto.generate_key(b"k")
        x = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        out = open_request(key, seal_request(key, x))
        assert np.array_equal(out, x)
        assert out.shape == x.shape

    def test_response_roundtrip_nonce_bound(self):
        key = crypto.generate_key(b"k")
        request = seal_request(key, np.zeros(4))
        sealed = seal_response(key, request.nonce, 3, np.arange(6.0))
        label, logits = open_response(key, sealed)
        assert label == 3
        assert np.array_equal(logits, np.arange(6.0))
        # Same request nonce -> same response nonce (deterministic SIV).
        again = seal_response(key, request.nonce, 3, np.arange(6.0))
        assert again.nonce == sealed.nonce

    def test_tampered_response_rejected(self):
        key = crypto.generate_key(b"k")
        sealed = seal_response(key, b"n" * 16, 1, np.zeros(4))
        tampered = crypto.Ciphertext(
            sealed.nonce, bytes([sealed.body[0] ^ 1]) + sealed.body[1:],
            sealed.tag)
        with pytest.raises(AuthenticationError):
            open_response(key, tampered)

    def test_wrong_key_rejected(self):
        key = crypto.generate_key(b"k")
        other = crypto.generate_key(b"other")
        with pytest.raises(AuthenticationError):
            open_request(other, seal_request(key, np.zeros(4)))


class TestServer:
    def test_concurrent_submits_all_served(self, model, data):
        engine, keys = _provisioned(model, batch_size=4)
        rng = np.random.default_rng(0)
        xs = data.sample(rng.integers(0, SPEC.n_labels, size=24), rng)
        results = {}
        with InferenceServer(engine,
                             ServingConfig(max_wait_s=0.002)) as server:
            def client(cid, offsets):
                for i in offsets:
                    sealed = seal_request(keys[cid], xs[i])
                    results[i] = (cid, server.submit(cid, sealed))
            threads = [
                threading.Thread(target=client,
                                 args=(cid, range(j, 24, 3)))
                for j, cid in enumerate([1, 2, 3])
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            responses = {
                i: open_response(keys[cid], f.result(timeout=10))
                for i, (cid, f) in results.items()
            }
        assert server.requests_served == 24
        assert len(responses) == 24
        # Batching must not change the answer: compare against a
        # direct single-request inference of the same input.
        solo = _engine(model, batch_size=4)
        for i in (0, 7, 23):
            x = np.zeros((4, *SPEC.input_shape))
            x[0] = xs[i]
            expected = solo.infer_batch(x, traced=False)
            label, logits = responses[i]
            assert label == int(expected.labels[0])
            assert np.array_equal(logits, expected.calibrated[0])

    def test_deadline_flushes_partial_batch_padded(self, model, data):
        engine, keys = _provisioned(model, batch_size=8)
        rng = np.random.default_rng(1)
        x = data.sample(rng.integers(0, SPEC.n_labels, size=1), rng)[0]
        with InferenceServer(engine,
                             ServingConfig(max_wait_s=0.01)) as server:
            t0 = time.monotonic()
            future = server.submit(1, seal_request(keys[1], x))
            label, _ = open_response(keys[1], future.result(timeout=10))
            waited = time.monotonic() - t0
        assert server.batches == 1
        assert server.padded_slots == 7
        assert waited >= 0.01  # the deadline, not an eager flush
        assert 0 <= label < SPEC.n_labels

    def test_padding_is_trace_invisible(self, model, data):
        # A deadline-padded batch and a full batch record the same
        # trace: fill level must not leak through the access pattern.
        engine, keys = _provisioned(model, batch_size=4)
        rng = np.random.default_rng(2)
        with InferenceServer(engine, ServingConfig(max_wait_s=0.005,
                                                   traced=True,
                                                   keep_batches=True)) as srv:
            x = data.sample(rng.integers(0, SPEC.n_labels, size=1), rng)[0]
            srv.submit(1, seal_request(keys[1], x)).result(timeout=10)
            xs = data.sample(rng.integers(0, SPEC.n_labels, size=4), rng)
            futures = [srv.submit(1, seal_request(keys[1], xi)) for xi in xs]
            for f in futures:
                f.result(timeout=10)
        fills = sorted(fill for _, fill in srv.served)
        assert fills == [1, 4]
        digests = {b.trace.signature_digest() for b, _ in srv.served}
        assert len(digests) == 1

    def test_unknown_client_rejected(self, model):
        engine, keys = _provisioned(model)
        with InferenceServer(engine) as server:
            with pytest.raises(EnclaveSecurityError):
                server.submit(99, seal_request(keys[1], np.zeros(24)))

    def test_tampered_request_rejected_at_submit(self, model):
        engine, keys = _provisioned(model)
        sealed = seal_request(keys[1], np.zeros(24))
        tampered = crypto.Ciphertext(
            sealed.nonce, bytes([sealed.body[0] ^ 1]) + sealed.body[1:],
            sealed.tag)
        with InferenceServer(engine) as server:
            with pytest.raises(AuthenticationError):
                server.submit(1, tampered)
        assert server.requests_served == 0

    def test_shape_mismatch_rejected(self, model):
        engine, keys = _provisioned(model)
        with InferenceServer(engine) as server:
            server.submit(1, seal_request(keys[1], np.zeros(24)))
            with pytest.raises(ValueError, match="serving shape"):
                server.submit(1, seal_request(keys[1], np.zeros(25)))


class TestServingAttack:
    def _batches(self, engine, data, n, seed):
        out = []
        rng = np.random.default_rng(seed)
        for _ in range(n):
            y = rng.integers(0, SPEC.n_labels, size=engine.batch_size)
            out.append(engine.infer_batch(data.sample(y, rng), traced=True))
        return out

    @pytest.mark.parametrize("method", ["jac", "nn"])
    def test_oblivious_auc_is_chance(self, model, data, method):
        engine = _engine(model, batch_size=8)
        probes = self._batches(engine, data, 4, seed=1)
        victims = self._batches(engine, data, 4, seed=2)
        result = run_serving_attack(
            victims, probes, SPEC.n_labels,
            AttackConfig(method=method, nn_epochs=5))
        assert result.auc == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("method", ["jac", "nn"])
    def test_plain_auc_shows_leak(self, model, data, method):
        engine = _engine(model, batch_size=8, oblivious=False)
        probes = self._batches(engine, data, 4, seed=1)
        victims = self._batches(engine, data, 4, seed=2)
        result = run_serving_attack(
            victims, probes, SPEC.n_labels,
            AttackConfig(method=method, nn_epochs=10))
        assert result.auc >= 0.9

    def test_slot_observations_plain_name_the_row(self, model, data):
        lab = model_output_dim(model)
        engine = _engine(model, batch_size=4, oblivious=False)
        rng = np.random.default_rng(3)
        batch = engine.infer_batch(
            data.sample(rng.integers(0, SPEC.n_labels, size=4), rng),
            traced=True)
        for slot, observed in enumerate(serving_slot_observations(batch)):
            pred = int(batch.labels[slot])
            assert observed == frozenset(range(pred * lab, (pred + 1) * lab))

    def test_slot_observations_oblivious_full_table(self, model, data):
        lab = model_output_dim(model)
        engine = _engine(model, batch_size=4)
        rng = np.random.default_rng(3)
        batch = engine.infer_batch(
            data.sample(rng.integers(0, SPEC.n_labels, size=4), rng),
            traced=True)
        full = frozenset(range(lab * lab))
        assert all(observed == full
                   for observed in serving_slot_observations(batch))

    def test_macro_ovr_auc_properties(self):
        labels = np.asarray([0, 0, 1, 1])
        constant = np.ones((4, 2))
        assert macro_ovr_auc(constant, labels, 2) == 0.5
        perfect = np.asarray([[1.0, 0.0], [1.0, 0.0],
                              [0.0, 1.0], [0.0, 1.0]])
        assert macro_ovr_auc(perfect, labels, 2) == 1.0
        inverted = 1.0 - perfect
        assert macro_ovr_auc(inverted, labels, 2) == 0.0


class TestCostReplay:
    def test_vector_matches_reference_engine(self, model, data):
        engine = _engine(model, batch_size=4)
        rng = np.random.default_rng(4)
        batch = engine.infer_batch(
            data.sample(rng.integers(0, SPEC.n_labels, size=4), rng),
            traced=True)
        stats, vec = replay_serving_cost(batch)
        ref_model = OracleCostModel()
        rids, offs, _ = batch.trace.columns()
        names = batch.trace.region_names
        ref = ref_model.charge_addresses([
            batch.layout.byte_address(names[r], o)
            for r, o in zip(rids.tolist(), offs.tolist())
        ])
        assert stats == ref_model.stats
        assert vec == ref
        assert vec.accesses == len(batch.trace)

    def test_untraced_batch_rejected(self, model):
        engine = _engine(model, batch_size=1)
        batch = engine.infer_batch(np.zeros((1, *SPEC.input_shape)),
                                   traced=False)
        with pytest.raises(ValueError, match="not traced"):
            replay_serving_cost(batch)
