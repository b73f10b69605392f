"""Tests for Batcher's bitonic sorting network."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.oblivious.sort import (
    bitonic_sort_numpy,
    comparator_count,
    is_power_of_two,
    network_access_offsets,
    next_power_of_two,
)
from repro.sgx.memory import Trace, TracedArray
from tests.oracles import bitonic_network, bitonic_sort_traced


class TestPowerOfTwoHelpers:
    def test_is_power_of_two(self):
        assert all(is_power_of_two(1 << i) for i in range(12))
        assert not any(is_power_of_two(n) for n in (0, 3, 5, 6, 7, 12, -4))

    def test_next_power_of_two(self):
        assert next_power_of_two(0) == 1
        assert next_power_of_two(1) == 1
        assert next_power_of_two(2) == 2
        assert next_power_of_two(3) == 4
        assert next_power_of_two(1025) == 2048


class TestNetwork:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            list(bitonic_network(6))

    def test_comparator_count_formula(self):
        for n in (2, 4, 8, 16, 64):
            assert len(list(bitonic_network(n))) == comparator_count(n)

    def test_length_one_is_empty(self):
        assert list(bitonic_network(1)) == []

    def test_comparators_in_bounds(self):
        for i, j, _ in bitonic_network(16):
            assert 0 <= i < j < 16

    def test_network_is_length_determined(self):
        assert list(bitonic_network(8)) == list(bitonic_network(8))

    def test_access_offsets_four_per_comparator(self):
        offsets = network_access_offsets(8)
        assert len(offsets) == 4 * comparator_count(8)

    def test_access_offsets_empty_for_one(self):
        assert len(network_access_offsets(1)) == 0


class TestTracedSort:
    def _sort(self, values, key=lambda w: w):
        trace = Trace()
        arr = TracedArray("s", list(values), trace=trace)
        bitonic_sort_traced(arr, key=key)
        return arr.snapshot(), trace

    def test_sorts_floats(self):
        out, _ = self._sort([3.0, 1.0, 2.0, 0.0])
        assert out == [0.0, 1.0, 2.0, 3.0]

    def test_sorts_with_duplicates(self):
        out, _ = self._sort([2.0, 2.0, 1.0, 1.0])
        assert out == [1.0, 1.0, 2.0, 2.0]

    def test_sorts_tuples_by_key(self):
        out, _ = self._sort(
            [(3, "c"), (1, "a"), (2, "b"), (0, "z")], key=lambda w: w[0]
        )
        assert [w[0] for w in out] == [0, 1, 2, 3]

    def test_rejects_non_power_of_two(self):
        arr = TracedArray("s", [3.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            bitonic_sort_traced(arr)

    def test_trace_independent_of_data(self):
        _, t1 = self._sort([4.0, 3.0, 2.0, 1.0])
        _, t2 = self._sort([0.0, 0.0, 0.0, 0.0])
        assert t1.signature() == t2.signature()

    def test_trace_length_matches_network(self):
        _, trace = self._sort([float(x) for x in range(8)])
        assert len(trace) == 4 * comparator_count(8)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_matches_sorted_builtin(self, values):
        n = next_power_of_two(len(values))
        padded = values + [10**6] * (n - len(values))
        out, _ = self._sort([float(v) for v in padded])
        assert out == sorted(float(v) for v in padded)


class TestNumpySort:
    def test_sorts_keys_and_payload_together(self):
        keys = np.asarray([3, 1, 2, 0], dtype=np.int64)
        payload = np.asarray([30.0, 10.0, 20.0, 0.0])
        bitonic_sort_numpy(keys, payload)
        assert keys.tolist() == [0, 1, 2, 3]
        assert payload.tolist() == [0.0, 10.0, 20.0, 30.0]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            bitonic_sort_numpy(np.zeros(3))

    def test_rejects_payload_mismatch(self):
        with pytest.raises(ValueError):
            bitonic_sort_numpy(np.zeros(4), np.zeros(2))

    def test_length_one_noop(self):
        keys = np.asarray([5])
        bitonic_sort_numpy(keys)
        assert keys.tolist() == [5]

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_sort(self, values):
        n = next_power_of_two(len(values))
        keys = np.asarray(values + [10**9] * (n - len(values)), dtype=np.int64)
        expected = np.sort(keys.copy())
        bitonic_sort_numpy(keys)
        assert np.array_equal(keys, expected)

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_traced_and_numpy_agree(self, values):
        n = next_power_of_two(len(values))
        padded = values + [10**6] * (n - len(values))
        keys = np.asarray(padded, dtype=np.int64)
        payload = np.arange(n, dtype=np.float64)
        bitonic_sort_numpy(keys, payload)

        arr = TracedArray("s", [(v, float(i)) for i, v in enumerate(padded)])
        bitonic_sort_traced(arr, key=lambda w: w[0])
        traced_keys = [w[0] for w in arr.snapshot()]
        assert traced_keys == keys.tolist()

    def test_payload_permutation_consistent_with_duplicates(self):
        keys = np.asarray([1, 1, 0, 0], dtype=np.int64)
        payload = np.asarray([10.0, 11.0, 0.0, 1.0])
        bitonic_sort_numpy(keys, payload)
        assert keys.tolist() == [0, 0, 1, 1]
        assert sorted(payload[:2].tolist()) == [0.0, 1.0]
        assert sorted(payload[2:].tolist()) == [10.0, 11.0]
