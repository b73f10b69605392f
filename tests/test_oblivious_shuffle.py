"""Tests for the oblivious shuffle and padding helpers."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.oblivious.compaction import (
    pad_to_length,
    pad_with_dummies,
    truncated_geometric_noise,
)
from repro.oblivious.shuffle import oblivious_shuffle_numpy
from repro.sgx.memory import Trace, TracedArray
from tests.oracles import oblivious_shuffle_traced


class TestTracedShuffle:
    def test_is_a_permutation(self):
        arr = TracedArray("s", [float(i) for i in range(8)])
        oblivious_shuffle_traced(arr, rng=random.Random(0))
        assert sorted(arr.snapshot()) == [float(i) for i in range(8)]

    def test_non_power_of_two_is_a_permutation(self):
        trace = Trace()
        arr = TracedArray("s", [1.0, 2.0, 3.0], trace=trace)
        oblivious_shuffle_traced(arr, rng=random.Random(3))
        assert sorted(arr.snapshot()) == [1.0, 2.0, 3.0]
        # Tag pass, the length-3 network (3 comparators), untag pass.
        assert len(trace) == 2 * 3 + 4 * 3 + 2 * 3

    def test_trace_independent_of_data(self):
        signatures = []
        for data in ([1.0, 5.0, 2.0, 9.0], [0.0, 0.0, 0.0, 0.0]):
            trace = Trace()
            arr = TracedArray("s", data, trace=trace)
            oblivious_shuffle_traced(arr, rng=random.Random(7))
            signatures.append(trace.signature_digest())
        assert signatures[0] == signatures[1]

    def test_actually_permutes_sometimes(self):
        moved = 0
        for seed in range(10):
            arr = TracedArray("s", [float(i) for i in range(16)])
            oblivious_shuffle_traced(arr, rng=random.Random(seed))
            if arr.snapshot() != [float(i) for i in range(16)]:
                moved += 1
        assert moved >= 9

    def test_roughly_uniform_first_position(self):
        counts = {}
        for seed in range(200):
            arr = TracedArray("s", [float(i) for i in range(4)])
            oblivious_shuffle_traced(arr, rng=random.Random(seed))
            first = arr.snapshot()[0]
            counts[first] = counts.get(first, 0) + 1
        # Each value should land first roughly 50 times; allow wide slack.
        assert all(20 <= c <= 90 for c in counts.values())


class TestNumpyShuffle:
    def test_payloads_move_together(self):
        a = np.arange(8, dtype=np.int64)
        b = np.arange(8, dtype=np.float64) * 10
        oblivious_shuffle_numpy(a, b, rng=np.random.default_rng(0))
        assert np.array_equal(b, a.astype(np.float64) * 10)

    def test_is_permutation(self):
        a = np.arange(16, dtype=np.int64)
        oblivious_shuffle_numpy(a, rng=np.random.default_rng(1))
        assert sorted(a.tolist()) == list(range(16))

    def test_empty_call_is_noop(self):
        oblivious_shuffle_numpy(rng=np.random.default_rng(0))


class TestPadding:
    def test_pad_with_dummies_preserves_sum(self):
        idx = np.asarray([0, 2], dtype=np.int64)
        val = np.asarray([1.0, 2.0])
        counts = np.asarray([1, 0, 3])
        p_idx, p_val = pad_with_dummies(idx, val, counts, dummy_index=99)
        assert len(p_idx) == 2 + 4
        dense = np.zeros(3)
        np.add.at(dense, p_idx, p_val)
        assert dense.tolist() == [1.0, 0.0, 2.0]

    def test_pad_with_dummies_histogram(self):
        idx = np.asarray([1], dtype=np.int64)
        val = np.asarray([5.0])
        counts = np.asarray([2, 1, 0])
        p_idx, _ = pad_with_dummies(idx, val, counts, dummy_index=99)
        hist = np.bincount(p_idx, minlength=3)
        assert hist.tolist() == [2, 2, 0]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            pad_with_dummies(
                np.asarray([0]), np.asarray([1.0]),
                np.asarray([-1]), dummy_index=9,
            )

    def test_pad_to_length(self):
        idx = np.asarray([3], dtype=np.int64)
        val = np.asarray([1.5])
        p_idx, p_val = pad_to_length(idx, val, 4, dummy_index=7)
        assert p_idx.tolist() == [3, 7, 7, 7]
        assert p_val.tolist() == [1.5, 0.0, 0.0, 0.0]

    def test_pad_to_length_below_current_rejected(self):
        with pytest.raises(ValueError):
            pad_to_length(np.asarray([1, 2]), np.asarray([0.0, 0.0]), 1, 9)

    @given(st.floats(min_value=0.1, max_value=5.0), st.integers(1, 30))
    @settings(max_examples=20, deadline=None)
    def test_geometric_noise_bounds(self, epsilon, cap):
        rng = np.random.default_rng(0)
        noise = truncated_geometric_noise(rng, epsilon, size=100, cap=cap)
        assert noise.min() >= 0
        assert noise.max() <= 2 * cap

    def test_geometric_noise_centers_on_cap(self):
        rng = np.random.default_rng(0)
        noise = truncated_geometric_noise(rng, epsilon=1.0, size=5000, cap=10)
        assert abs(noise.mean() - 10) < 0.5

    def test_geometric_noise_invalid_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            truncated_geometric_noise(rng, epsilon=0.0, size=1, cap=1)
        with pytest.raises(ValueError):
            truncated_geometric_noise(rng, epsilon=1.0, size=1, cap=-1)
