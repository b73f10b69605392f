"""Tests for authenticated encryption and the gradient wire format."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sgx import crypto

from . import oracles


KEY = crypto.generate_key(b"test-seed")
OTHER_KEY = crypto.generate_key(b"other-seed")


class TestKeys:
    def test_generate_key_length(self):
        assert len(crypto.generate_key()) == crypto.KEY_BYTES

    def test_deterministic_from_seed(self):
        assert crypto.generate_key(b"x") == crypto.generate_key(b"x")
        assert crypto.generate_key(b"x") != crypto.generate_key(b"y")

    def test_derive_key_labels_independent(self):
        assert crypto.derive_key(KEY, "enc") != crypto.derive_key(KEY, "mac")

    def test_derive_key_depends_on_master(self):
        assert crypto.derive_key(KEY, "enc") != crypto.derive_key(OTHER_KEY, "enc")


class TestSeal:
    def test_roundtrip(self):
        ct = crypto.seal(KEY, b"hello gradients")
        assert crypto.open_sealed(KEY, ct) == b"hello gradients"

    def test_empty_plaintext(self):
        ct = crypto.seal(KEY, b"")
        assert crypto.open_sealed(KEY, ct) == b""

    def test_wrong_key_rejected(self):
        ct = crypto.seal(KEY, b"secret")
        with pytest.raises(crypto.AuthenticationError):
            crypto.open_sealed(OTHER_KEY, ct)

    def test_tampered_body_rejected(self):
        ct = crypto.seal(KEY, b"secret payload")
        flipped = bytes([ct.body[0] ^ 1]) + ct.body[1:]
        forged = crypto.Ciphertext(nonce=ct.nonce, body=flipped, tag=ct.tag)
        with pytest.raises(crypto.AuthenticationError):
            crypto.open_sealed(KEY, forged)

    def test_tampered_nonce_rejected(self):
        ct = crypto.seal(KEY, b"secret payload")
        flipped = bytes([ct.nonce[0] ^ 1]) + ct.nonce[1:]
        forged = crypto.Ciphertext(nonce=flipped, body=ct.body, tag=ct.tag)
        with pytest.raises(crypto.AuthenticationError):
            crypto.open_sealed(KEY, forged)

    def test_tampered_tag_rejected(self):
        ct = crypto.seal(KEY, b"secret payload")
        flipped = bytes([ct.tag[0] ^ 1]) + ct.tag[1:]
        forged = crypto.Ciphertext(nonce=ct.nonce, body=ct.body, tag=flipped)
        with pytest.raises(crypto.AuthenticationError):
            crypto.open_sealed(KEY, forged)

    def test_ciphertext_differs_from_plaintext(self):
        ct = crypto.seal(KEY, b"secret payload")
        assert ct.body != b"secret payload"

    def test_fresh_nonce_randomizes_ciphertext(self):
        a = crypto.seal(KEY, b"same message")
        b = crypto.seal(KEY, b"same message")
        assert a.body != b.body or a.nonce != b.nonce

    def test_fixed_nonce_is_deterministic(self):
        nonce = b"\x01" * crypto.NONCE_BYTES
        a = crypto.seal(KEY, b"msg", nonce=nonce)
        b = crypto.seal(KEY, b"msg", nonce=nonce)
        assert a == b

    def test_invalid_key_length_raises(self):
        with pytest.raises(ValueError):
            crypto.seal(b"short", b"msg")
        with pytest.raises(ValueError):
            crypto.open_sealed(b"short", crypto.seal(KEY, b"m"))

    def test_invalid_nonce_length_raises(self):
        with pytest.raises(ValueError):
            crypto.seal(KEY, b"msg", nonce=b"short")

    def test_serialization_roundtrip(self):
        ct = crypto.seal(KEY, b"payload bytes")
        again = crypto.Ciphertext.from_bytes(ct.to_bytes())
        assert again == ct
        assert crypto.open_sealed(KEY, again) == b"payload bytes"

    def test_from_bytes_too_short_raises(self):
        with pytest.raises(ValueError):
            crypto.Ciphertext.from_bytes(b"tiny")

    @given(st.binary(max_size=500))
    def test_roundtrip_property(self, message):
        assert crypto.open_sealed(KEY, crypto.seal(KEY, message)) == message


class TestGradientCodec:
    def test_roundtrip(self):
        idx = [3, 17, 200]
        val = [0.5, -1.25, 3.0]
        raw = crypto.encode_sparse_gradient(idx, val)
        out_idx, out_val = crypto.decode_sparse_gradient(raw)
        assert out_idx.dtype == np.int64 and out_val.dtype == np.float64
        assert out_idx.tolist() == idx
        assert out_val.tolist() == val

    def test_empty_gradient(self):
        raw = crypto.encode_sparse_gradient([], [])
        out_idx, out_val = crypto.decode_sparse_gradient(raw)
        assert out_idx.shape == out_val.shape == (0,)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            crypto.encode_sparse_gradient([1, 2], [0.5])

    def test_truncated_payload_raises(self):
        raw = crypto.encode_sparse_gradient([1], [2.0])
        with pytest.raises(ValueError, match="length mismatch"):
            crypto.decode_sparse_gradient(raw[:-1])
        with pytest.raises(ValueError, match="truncated"):
            crypto.decode_sparse_gradient(b"\x00")
        raw = crypto.encode_sparse_gradient([1, 2], [2.0, 3.0])
        # Trailing bytes, and a count claiming more records than sent.
        with pytest.raises(ValueError, match="length mismatch"):
            crypto.decode_sparse_gradient(raw + b"\x00")
        with pytest.raises(ValueError, match="length mismatch"):
            crypto.decode_sparse_gradient(b"\x00\x00\x00\x03" + raw[4:])

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32 - 1),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=50,
        )
    )
    def test_roundtrip_property(self, records):
        idx = [r[0] for r in records]
        val = [float(np.float64(r[1])) for r in records]
        raw = crypto.encode_sparse_gradient(idx, val)
        out_idx, out_val = crypto.decode_sparse_gradient(raw)
        assert out_idx.tolist() == idx
        assert out_val.tolist() == val
        # The record-array decode reads what the per-record loop reads.
        assert (out_idx.tolist(), out_val.tolist()) == \
            oracles.decode_sparse_gradient(raw)

    def test_sealed_gradient_end_to_end(self):
        raw = crypto.encode_sparse_gradient([5, 9], [1.0, -2.0])
        ct = crypto.seal(KEY, raw)
        idx, val = crypto.decode_sparse_gradient(crypto.open_sealed(KEY, ct))
        assert idx.tolist() == [5, 9]
        assert val.tolist() == [1.0, -2.0]
