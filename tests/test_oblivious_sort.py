"""Tests for Batcher's bitonic sorting network."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import itertools

from repro.oblivious.sort import (
    bitonic_merge_traced_columns,
    bitonic_sort_numpy,
    bitonic_sort_traced_columns,
    comparator_count,
    merge_comparator_count,
    merge_stage_offsets,
    network_access_offsets,
    network_stage_offsets,
)
from repro.sgx.memory import Trace, TracedArray
from tests.oracles import (
    apply_network_traced,
    bitonic_merge_network,
    bitonic_network,
    bitonic_sort_traced,
    network_offsets,
)


class TestNetwork:
    def test_non_power_of_two_lengths(self):
        # Merges 2 and 4 of the length-6 network, then merge 8 with
        # every comparator reaching past position 5 dropped.
        assert [(i, j) for i, j, _ in bitonic_network(6)] == [
            (0, 1), (2, 3), (4, 5),
            (0, 3), (1, 2), (0, 1), (2, 3), (4, 5),
            (2, 5), (3, 4), (0, 2), (1, 3), (0, 1), (2, 3), (4, 5),
        ]
        assert all(ascending for _, _, ascending in bitonic_network(6))

    def test_comparator_count_formula(self):
        for n in list(range(70)) + [100, 1000]:
            assert len(list(bitonic_network(n))) == comparator_count(n)
        # Power-of-two lengths keep Batcher's n/2 * s(s+1)/2 count.
        for s in range(1, 12):
            assert comparator_count(1 << s) == (1 << (s - 1)) * s * (s + 1) // 2

    def test_length_one_is_empty(self):
        assert list(bitonic_network(1)) == []

    def test_comparators_in_bounds(self):
        for n in (16, 13):
            for i, j, _ in bitonic_network(n):
                assert 0 <= i < j < n

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

    def test_sorts_non_power_of_two(self):
        out, trace = self._sort([3.0, 1.0, 2.0])
        assert out == [1.0, 2.0, 3.0]
        assert len(trace) == 4 * comparator_count(3)

    def test_trace_independent_of_data(self):
        _, t1 = self._sort([4.0, 3.0, 2.0, 1.0])
        _, t2 = self._sort([0.0, 0.0, 0.0, 0.0])
        assert t1 == t2

    def test_trace_length_matches_network(self):
        _, trace = self._sort([float(x) for x in range(8)])
        assert len(trace) == 4 * comparator_count(8)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_matches_sorted_builtin(self, values):
        out, _ = self._sort([float(v) for v in values])
        assert out == sorted(float(v) for v in values)


class TestNumpySort:
    def test_sorts_keys_and_payload_together(self):
        keys = np.asarray([3, 1, 2, 0], dtype=np.int64)
        payload = np.asarray([30.0, 10.0, 20.0, 0.0])
        bitonic_sort_numpy(keys, payload)
        assert keys.tolist() == [0, 1, 2, 3]
        assert payload.tolist() == [0.0, 10.0, 20.0, 30.0]

    def test_sorts_non_power_of_two(self):
        keys = np.asarray([4, 2, 0, 3, 1], dtype=np.int64)
        payload = keys * 10.0
        bitonic_sort_numpy(keys, payload)
        assert keys.tolist() == [0, 1, 2, 3, 4]
        assert payload.tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]

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
        keys = np.asarray(values, dtype=np.int64)
        expected = np.sort(keys.copy())
        bitonic_sort_numpy(keys)
        assert np.array_equal(keys, expected)

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_traced_and_numpy_agree(self, values):
        keys = np.asarray(values, dtype=np.int64)
        payload = np.arange(len(values), dtype=np.float64)
        bitonic_sort_numpy(keys, payload)

        arr = TracedArray("s", [(v, float(i)) for i, v in enumerate(values)])
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
    bytes and traces must be identical at every length, ties included
    (the payloads of equal keys land wherever the schedule puts them)."""

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

    @pytest.mark.parametrize("start", range(0, 301, 50))
    def test_every_length_matches_oracle(self, start):
        for n in range(start, min(start + 50, 301)):
            rng = np.random.default_rng(n)
            keys = rng.integers(0, 3, size=n).astype(np.int64)
            self._run_both(keys, rng.standard_normal(n))

    @pytest.mark.parametrize("n", [11_838, 78_370])
    def test_paper_scale_lengths_match_oracle(self, n):
        # The xdevice and wide Advanced lengths.  The oracle runs its
        # comparator schedule over plain lists and streams its offsets in
        # chunks, so the whole network is checked without a TracedArray.
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 5, size=n).astype(np.int64)
        payload = rng.standard_normal(n)
        trace = Trace()
        k, p = keys.copy(), payload.copy()
        bitonic_sort_traced_columns(trace, "g", k, p)
        ref_k, ref_p = keys.tolist(), payload.tolist()
        for i, j, _ in bitonic_network(n):
            if ref_k[i] > ref_k[j]:
                ref_k[i], ref_k[j] = ref_k[j], ref_k[i]
                ref_p[i], ref_p[j] = ref_p[j], ref_p[i]
        assert k.tolist() == ref_k
        assert p.tobytes() == np.asarray(ref_p).tobytes()
        _, offsets, ops = trace.columns()
        assert len(offsets) == 4 * comparator_count(n)
        stream = network_offsets(n)
        for start in range(0, len(offsets), 1 << 20):
            chunk = offsets[start : start + (1 << 20)]
            expected = np.fromiter(itertools.islice(stream, len(chunk)),
                                   dtype=np.int64, count=len(chunk))
            np.testing.assert_array_equal(chunk, expected)
        np.testing.assert_array_equal(
            ops.reshape(-1, 4), np.broadcast_to([0, 0, 1, 1], (len(ops) // 4, 4)))

    @given(st.integers(0, 40), st.integers(1, 4), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_random_ties_match_oracle(self, n, distinct, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, distinct, size=n).astype(np.int64)
        self._run_both(keys, rng.standard_normal(n))

    @pytest.mark.parametrize("log_n", range(13))
    def test_access_offsets_match_oracle_stream(self, log_n):
        for n in {1 << log_n, (1 << log_n) + 1, 3 << log_n >> 1}:
            self._check_offsets(n)

    @staticmethod
    def _check_offsets(n):
        expected = np.fromiter(network_offsets(n), dtype=np.int64)
        got = network_access_offsets(n)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)
        staged = list(network_stage_offsets(n))
        if n & (n - 1) == 0:
            assert all(s.size == 2 * n for s in staged)
        joined = np.concatenate(staged) if staged else np.empty(0, np.int64)
        np.testing.assert_array_equal(joined, expected)

    def test_recorded_offsets_are_the_access_stream(self):
        trace = Trace()
        bitonic_sort_traced_columns(trace, "g", np.arange(64)[::-1].copy())
        np.testing.assert_array_equal(trace.offsets_array("g"),
                                      network_access_offsets(64))

    @pytest.mark.parametrize("n", [0, 3, 6, 12, 100])
    def test_non_power_of_two_sorts(self, n):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 4, size=n).astype(np.int64)
        self._run_both(keys, rng.standard_normal(n))
        traced = keys.copy()
        bitonic_sort_traced_columns(Trace(), "g", traced)
        plain = keys.copy()
        bitonic_sort_numpy(plain, np.zeros(n))
        assert traced.tolist() == plain.tolist() == sorted(keys.tolist())
        assert len(network_access_offsets(n)) == 4 * comparator_count(n)
        assert sum(s.size for s in network_stage_offsets(n)) == 4 * comparator_count(n)

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            comparator_count(-1)

    def test_strided_payload_columns_sort_in_place(self):
        keys = np.asarray([3, 1, 2, 0, 9, 9, 9, 9], dtype=np.int64)
        backing = np.arange(16, dtype=np.float64)
        payload = backing[::2]
        bitonic_sort_numpy(keys[:4], payload[:4])
        assert keys[:4].tolist() == [0, 1, 2, 3]
        assert payload[:4].tolist() == [6.0, 2.0, 4.0, 0.0]
        assert backing[1::2].tolist() == list(np.arange(1, 16, 2.0))


class TestZeroOnePrinciple:
    """The package schedule sorts every 0-1 input of every length up to
    14, hence (0-1 principle) every input of those lengths."""

    @pytest.mark.parametrize("n", range(15))
    def test_package_schedule_sorts_all_zero_one_inputs(self, n):
        inputs = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        pairs = network_access_offsets(n).reshape(-1, 4)[:, :2]
        for i, j in pairs.tolist():
            lo = np.minimum(inputs[:, i], inputs[:, j])
            inputs[:, j] = np.maximum(inputs[:, i], inputs[:, j])
            inputs[:, i] = lo
        assert np.all(np.diff(inputs, axis=1) >= 0)
        # The kernel runs exactly that schedule.
        for bits in range(0, 1 << n, max(1, (1 << n) // 64)):
            keys = (bits >> np.arange(n)) & 1
            bitonic_sort_numpy(keys)
            assert np.all(np.diff(keys) >= 0)


class TestTraceIsAFunctionOfLength:
    """Prop. 5.2: the sort's trace depends on the length alone."""

    @given(st.integers(3, 300).filter(lambda n: n & (n - 1)), st.data())
    @settings(max_examples=40, deadline=None)
    def test_same_length_inputs_give_equal_traces(self, n, data):
        elems = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
        a, b = data.draw(elems), data.draw(elems)
        traces = []
        for values in (a, b):
            trace = Trace()
            bitonic_sort_traced_columns(trace, "g", np.asarray(values),
                                        np.arange(n, dtype=np.float64))
            traces.append(trace)
        assert traces[0] == traces[1]
        assert len(traces[0]) == 4 * comparator_count(n)


class TestMergeStages:
    """The half-cleaners that merge a falling run with a rising one."""

    @staticmethod
    def _offsets(n):
        stages = list(merge_stage_offsets(n))
        return np.concatenate(stages) if stages else np.empty(0, np.int64)

    @pytest.mark.parametrize("n", list(range(40)) + [63, 64, 65, 1000])
    def test_schedule_matches_oracle(self, n):
        network = list(bitonic_merge_network(n))
        assert merge_comparator_count(n) == len(network)
        expected = [o for i, j, _ in network for o in (i, j, i, j)]
        assert self._offsets(n).tolist() == expected

    @pytest.mark.parametrize("n", range(1, 17))
    def test_sorts_every_falling_then_rising_zero_one_input(self, n):
        # 0-1 principle for bitonic inputs: a falling run (ones, then
        # zeros) followed by a rising run (zeros, then ones).
        pairs = self._offsets(n).reshape(-1, 4)[:, :2].tolist()
        for split in range(n + 1):
            for a in range(split + 1):
                for b in range(n - split + 1):
                    bits = ([1] * a + [0] * (split - a)
                            + [0] * (n - split - b) + [1] * b)
                    keys = np.asarray(bits)
                    for i, j in pairs:
                        keys[i], keys[j] = min(keys[i], keys[j]), max(keys[i], keys[j])
                    assert np.all(np.diff(keys) >= 0), bits
                    keys = np.asarray(bits)
                    bitonic_merge_traced_columns(None, "g", keys)
                    assert np.all(np.diff(keys) >= 0), bits

    @given(st.lists(st.integers(-50, 50), max_size=200),
           st.lists(st.integers(-50, 50), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_merges_any_falling_and_rising_runs(self, falling, rising):
        keys = np.asarray(sorted(falling, reverse=True) + sorted(rising),
                          dtype=np.int64)
        payload = keys.astype(np.float64) * 2
        bitonic_merge_traced_columns(None, "g", keys, payload)
        assert keys.tolist() == sorted(falling + rising)
        assert (payload == keys * 2).all()

    @pytest.mark.parametrize("n", [2, 5, 8, 13])
    def test_traced_merge_matches_comparator_loop(self, n):
        rng = np.random.default_rng(n)
        split = n // 3
        keys = np.concatenate([np.sort(rng.integers(0, 9, split))[::-1],
                               np.sort(rng.integers(0, 9, n - split))])
        t_new, t_ref = Trace(), Trace()
        arr = TracedArray("s", keys.tolist(), trace=t_ref)
        apply_network_traced(arr, bitonic_merge_network(n))
        bitonic_merge_traced_columns(t_new, "s", keys)
        assert t_new == t_ref
        assert keys.tolist() == arr.snapshot()


class TestBaseOffset:
    @pytest.mark.parametrize("n,base", [(0, 4), (1, 3), (6, 10), (33, 7)])
    def test_sorting_a_slice_records_shifted_offsets(self, n, base):
        rng = np.random.default_rng(n)
        column = rng.integers(0, 100, size=base + n)
        head = column[:base].copy()
        trace = Trace()
        bitonic_sort_traced_columns(trace, "g", column[base:], base=base)
        assert column[:base].tolist() == head.tolist()
        assert np.all(np.diff(column[base:]) >= 0)
        np.testing.assert_array_equal(trace.columns()[1],
                                      network_access_offsets(n) + base)
