"""Tests for Batcher's bitonic sorting network."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.oblivious.sort import (
    bitonic_sort_numpy,
    bitonic_sort_traced_columns,
    comparator_count,
    is_power_of_two,
    network_access_offsets,
    network_stage_offsets,
    next_power_of_two,
)
from repro.sgx.memory import Trace, TracedArray
from tests.oracles import bitonic_network, bitonic_sort_traced, network_offsets


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


class TestStridedKernelAgainstOracle:
    """The strided-view kernel against the comparator-at-a-time oracle,
    whose schedule comes from its own ``bitonic_network``: keys, payload
    bytes and traces must be identical, ties included (a descending
    comparator swaps equal keys, which moves their payloads)."""

    @staticmethod
    def _run_both(keys, payload):
        trace = Trace()
        k, p = keys.copy(), payload.copy()
        bitonic_sort_traced_columns(trace, "g", k, p)
        ref_trace = Trace()
        arr = TracedArray("g", list(zip(keys.tolist(), payload.tolist())),
                          trace=ref_trace)
        bitonic_sort_traced(arr, key=lambda w: w[0])
        out = arr.snapshot()
        assert k.tolist() == [w[0] for w in out]
        assert p.tobytes() == np.asarray([w[1] for w in out]).tobytes()
        assert trace == ref_trace

    @pytest.mark.parametrize("log_n", range(13))
    def test_heavy_ties_match_oracle(self, log_n):
        n = 1 << log_n
        rng = np.random.default_rng(log_n)
        keys = rng.integers(0, 3, size=n).astype(np.int64)
        payload = rng.standard_normal(n)
        self._run_both(keys, payload)

    @given(st.integers(0, 7), st.integers(1, 4), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_random_ties_match_oracle(self, log_n, distinct, seed):
        n = 1 << log_n
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, distinct, size=n).astype(np.int64)
        self._run_both(keys, rng.standard_normal(n))

    @pytest.mark.parametrize("log_n", range(13))
    def test_access_offsets_match_oracle_stream(self, log_n):
        n = 1 << log_n
        expected = np.fromiter(network_offsets(n), dtype=np.int64)
        got = network_access_offsets(n)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)
        staged = list(network_stage_offsets(n))
        assert all(s.size == 2 * n for s in staged)
        joined = np.concatenate(staged) if staged else np.empty(0, np.int64)
        np.testing.assert_array_equal(joined, expected)

    def test_recorded_offsets_are_the_access_stream(self):
        trace = Trace()
        bitonic_sort_traced_columns(trace, "g", np.arange(64)[::-1].copy())
        np.testing.assert_array_equal(trace.offsets_array("g"),
                                      network_access_offsets(64))

    @pytest.mark.parametrize("n", [0, 3, 6, 12, 100])
    def test_non_power_of_two_raises(self, n):
        with pytest.raises(ValueError):
            bitonic_sort_traced_columns(Trace(), "g", np.zeros(n))
        with pytest.raises(ValueError):
            bitonic_sort_numpy(np.zeros(n), np.zeros(n))
        with pytest.raises(ValueError):
            network_access_offsets(n)
        with pytest.raises(ValueError):
            list(network_stage_offsets(n))

    def test_strided_payload_columns_sort_in_place(self):
        keys = np.asarray([3, 1, 2, 0, 9, 9, 9, 9], dtype=np.int64)
        backing = np.arange(16, dtype=np.float64)
        payload = backing[::2]
        bitonic_sort_numpy(keys[:4], payload[:4])
        assert keys[:4].tolist() == [0, 1, 2, 3]
        assert payload[:4].tolist() == [6.0, 2.0, 4.0, 0.0]
        assert backing[1::2].tolist() == list(np.arange(1, 16, 2.0))
