"""Tests for delta+varint index compression (repro.fl.encoding)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fl.encoding import (
    decode_index_set,
    encode_index_set,
    index_wire_bytes,
    raw_index_bytes,
    varint_decode,
    varint_encode,
)
from repro.fl.sparsify import top_ratio


class TestVarint:
    def test_small_values_one_byte(self):
        assert varint_encode([0]) == b"\x00"
        assert varint_encode([127]) == b"\x7f"

    def test_multi_byte_boundary(self):
        assert varint_encode([128]) == b"\x80\x01"

    def test_roundtrip_examples(self):
        values = [0, 1, 127, 128, 300, 2**31, 2**40]
        assert varint_decode(varint_encode(values)) == values

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            varint_encode([-1])

    def test_truncated_rejected(self):
        raw = varint_encode([300])
        with pytest.raises(ValueError):
            varint_decode(raw[:-1])

    @given(st.lists(st.integers(0, 2**50), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        assert varint_decode(varint_encode(values)) == values


class TestIndexSetEncoding:
    def test_roundtrip(self):
        idx = np.asarray([3, 17, 200, 50_889], dtype=np.int64)
        assert np.array_equal(decode_index_set(encode_index_set(idx)), idx)

    def test_empty(self):
        assert encode_index_set(np.empty(0, dtype=np.int64)) == b""
        assert len(decode_index_set(b"")) == 0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            encode_index_set(np.asarray([5, 3]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_index_set(np.asarray([-1, 3]))

    def test_duplicates_allowed(self):
        idx = np.asarray([4, 4, 9], dtype=np.int64)
        assert np.array_equal(decode_index_set(encode_index_set(idx)), idx)

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, values):
        idx = np.asarray(sorted(values), dtype=np.int64)
        assert np.array_equal(decode_index_set(encode_index_set(idx)), idx)

    def test_compresses_real_topk_indices(self):
        # A top-10% index set over a 50,890-dim model: mean gap ~10,
        # so deltas fit one varint byte each -> ~4x smaller than u32.
        rng = np.random.default_rng(0)
        delta = rng.normal(size=50_890)
        (idx,), _ = top_ratio(delta[None], 0.1)
        compressed = index_wire_bytes(idx)
        raw = raw_index_bytes(len(idx))
        assert compressed < raw / 2

    def test_sparse_sets_compress_less(self):
        # Very sparse sets have large gaps -> more varint bytes/entry,
        # but still at most the raw width for d < 2^28.
        rng = np.random.default_rng(1)
        idx = np.sort(rng.choice(10**8, size=50, replace=False))
        assert index_wire_bytes(idx) <= raw_index_bytes(50) + 50
