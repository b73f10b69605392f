"""Tests for the quantized upload pipeline (wire codec -> enclave -> Olive)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.olive import OliveConfig, OliveSystem
from repro.fl.client import (
    LocalUpdate,
    TrainingConfig,
    encrypt_quantized_update,
)
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.sgx import crypto
from repro.sgx.enclave import Enclave, provision_enclave_with_clients

from . import oracles


class TestQuantizedCodec:
    def test_roundtrip(self):
        raw = crypto.encode_quantized_gradient([1, 5, 9], [-3, 0, 127], 0.25)
        idx, levels, scale = crypto.decode_quantized_gradient(raw)
        assert idx.dtype == levels.dtype == np.int64
        assert idx.tolist() == [1, 5, 9]
        assert levels.tolist() == [-3, 0, 127]
        assert scale == 0.25

    def test_empty(self):
        raw = crypto.encode_quantized_gradient([], [], 1.0)
        idx, levels, scale = crypto.decode_quantized_gradient(raw)
        assert idx.shape == levels.shape == (0,)
        assert scale == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crypto.encode_quantized_gradient([1], [], 1.0)

    def test_level_range_enforced(self):
        with pytest.raises(ValueError):
            crypto.encode_quantized_gradient([1], [70_000], 1.0)
        with pytest.raises(ValueError, match="16-bit"):
            crypto.encode_quantized_gradient([1, 2], [0, -32769], 1.0)
        crypto.encode_quantized_gradient([1, 2], [-32768, 32767], 1.0)

    def test_truncated_rejected(self):
        raw = crypto.encode_quantized_gradient([1], [2], 1.0)
        with pytest.raises(ValueError, match="length mismatch"):
            crypto.decode_quantized_gradient(raw[:-1])
        with pytest.raises(ValueError, match="truncated"):
            crypto.decode_quantized_gradient(b"\x00" * 4)
        raw = crypto.encode_quantized_gradient([1, 2], [2, 3], 1.0)
        # Trailing bytes, and a count claiming more records than sent.
        with pytest.raises(ValueError, match="length mismatch"):
            crypto.decode_quantized_gradient(raw + b"\x00")
        with pytest.raises(ValueError, match="length mismatch"):
            crypto.decode_quantized_gradient(b"\x00\x00\x00\x03" + raw[4:])

    @given(st.lists(st.tuples(st.integers(0, 2**32 - 1),
                              st.integers(-32768, 32767)), max_size=40),
           st.floats(1e-6, 1e6))
    @settings(max_examples=30, deadline=None)
    @example(records=[], scale=1.0)
    def test_roundtrip_property(self, records, scale):
        idx = [r[0] for r in records]
        lev = [r[1] for r in records]
        raw = crypto.encode_quantized_gradient(idx, lev, scale)
        out = crypto.decode_quantized_gradient(raw)
        assert out[0].tolist() == idx and out[1].tolist() == lev
        assert out[2] == pytest.approx(scale, rel=1e-12)
        # Bytes and decoded arrays equal the struct-per-record codec's,
        # k = 0 included.
        assert raw == oracles.encode_quantized_gradient(idx, lev, scale)
        assert (out[0].tolist(), out[1].tolist(), out[2]) == \
            oracles.decode_quantized_gradient(raw)

    def test_smaller_than_float_wire(self):
        idx = list(range(100))
        float_wire = crypto.encode_sparse_gradient(idx, [0.5] * 100)
        quant_wire = crypto.encode_quantized_gradient(idx, [1] * 100, 0.5)
        assert len(quant_wire) < len(float_wire)


class TestEnclaveQuantizedLoad:
    def _provisioned(self):
        enclave = Enclave(seed=0)
        keys = provision_enclave_with_clients(enclave, [0, 1])
        enclave.sample_clients([0, 1], 1.0, 0)
        return enclave, keys

    def test_roundtrip_through_enclave(self):
        enclave, keys = self._provisioned()
        update = LocalUpdate(0, np.asarray([2, 7], dtype=np.int64),
                             np.asarray([0.5, -0.25]))
        ct = encrypt_quantized_update(update, keys[0], bits=10,
                                      rng=np.random.default_rng(0))
        idx, val = enclave.load_gradient(0, ct, 8, quantize_bits=10)
        assert idx.tolist() == [2, 7]
        assert val.dtype == np.float64
        # Dequantization error bounded by one level (scale).
        assert abs(val[0] - 0.5) < 0.51 / 511 + 1e-9
        assert abs(val[1] + 0.25) < 0.51 / 511 + 1e-9

    def test_dequantization_matches_per_level_product(self):
        enclave, keys = self._provisioned()
        levels, scale = [-511, -3, 0, 1, 255, 511], 0.1 / 511
        raw = crypto.encode_quantized_gradient(range(6), levels, scale)
        _, val = enclave.load_gradient(0, crypto.seal(keys[0], raw), 8,
                                     quantize_bits=10)
        assert val.tolist() == [level * scale for level in levels]

    def test_unsampled_rejected(self):
        enclave, keys = self._provisioned()
        enclave._sampled = {1}
        update = LocalUpdate(0, np.asarray([1], dtype=np.int64),
                             np.asarray([1.0]))
        ct = encrypt_quantized_update(update, keys[0], 8,
                                      np.random.default_rng(0))
        from repro.sgx.enclave import EnclaveSecurityError

        with pytest.raises(EnclaveSecurityError):
            enclave.load_gradient(0, ct, 8, quantize_bits=8)

    def test_forged_rejected(self):
        enclave, keys = self._provisioned()
        update = LocalUpdate(0, np.asarray([1], dtype=np.int64),
                             np.asarray([1.0]))
        ct = encrypt_quantized_update(update, crypto.generate_key(b"evil"),
                                      8, np.random.default_rng(0))
        from repro.sgx.enclave import EnclaveSecurityError

        with pytest.raises(EnclaveSecurityError):
            enclave.load_gradient(0, ct, 8, quantize_bits=8)


class TestQuantizedOlive:
    def _system(self, bits, seed=0):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        clients = partition_clients(gen, 10, 30, 2, seed=0)
        return OliveSystem(
            build_model("tiny_mlp", seed=0), clients,
            OliveConfig(
                sample_rate=0.8, noise_multiplier=0.5,
                aggregator="advanced", quantize_bits=bits,
                training=TrainingConfig(local_epochs=2, local_lr=0.3,
                                        sparse_ratio=0.2, clip=2.0),
            ),
            seed=seed,
        )

    def test_round_runs_with_quantization(self):
        system = self._system(bits=10)
        log = system.run_round()
        assert not np.array_equal(log.weights_before, log.weights_after)

    def test_quantized_close_to_exact(self):
        # 12-bit quantization barely perturbs the aggregate relative to
        # the exact float path with identical randomness.
        exact = self._system(bits=None, seed=4)
        quant = self._system(bits=12, seed=4)
        w_exact = exact.run_round().weights_after
        # The quantized system consumes extra rng draws; compare the
        # *aggregate direction*, not the noise realization.
        w_quant = quant.run_round().weights_after
        cos = np.dot(w_exact, w_quant) / (
            np.linalg.norm(w_exact) * np.linalg.norm(w_quant)
        )
        assert cos > 0.95

    def test_quantized_system_learns(self):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        system = self._system(bits=8)
        x, y = gen.balanced(20, np.random.default_rng(5))
        before = system.evaluate(x, y)
        system.run(6)
        assert system.evaluate(x, y) > max(before, 1.0 / 6)
