"""Validity and obliviousness of the sorting-network backends.

The 0-1 principle makes network validity exhaustively checkable: a
comparator network sorts every input iff it sorts every 0/1 input.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.oblivious.sort import comparator_count, odd_even_merge_network
from repro.sgx.memory import Trace, TracedArray
from tests.oracles import apply_network_traced, bitonic_network


def _run_network(network, values):
    arr = list(values)
    for i, j, ascending in network:
        if (arr[i] > arr[j]) == ascending:
            arr[i], arr[j] = arr[j], arr[i]
    return arr


class TestZeroOnePrinciple:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_bitonic_sorts_all_01_inputs(self, n):
        net = list(bitonic_network(n))
        for bits in product([0, 1], repeat=n):
            assert _run_network(net, bits) == sorted(bits)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_odd_even_merge_sorts_all_01_inputs(self, n):
        net = list(odd_even_merge_network(n))
        for bits in product([0, 1], repeat=n):
            assert _run_network(net, bits) == sorted(bits)


class TestOddEvenMerge:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            list(odd_even_merge_network(6))

    @pytest.mark.parametrize("n,expected", [(2, 1), (4, 5), (8, 19), (16, 63)])
    def test_known_comparator_counts(self, n, expected):
        assert len(list(odd_even_merge_network(n))) == expected

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_fewer_comparators_than_bitonic(self, n):
        oem = len(list(odd_even_merge_network(n)))
        assert oem < comparator_count(n)

    def test_comparators_in_bounds_and_ascending(self):
        for i, j, ascending in odd_even_merge_network(32):
            assert 0 <= i < j < 32
            assert ascending

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_sorts_arbitrary_integers(self, values):
        from repro.oblivious.sort import next_power_of_two

        n = next_power_of_two(len(values))
        padded = values + [10**6] * (n - len(values))
        assert _run_network(odd_even_merge_network(n), padded) == sorted(padded)


class TestApplyNetworkTraced:
    def test_sorts_through_traced_array(self):
        arr = TracedArray("s", [3.0, 1.0, 4.0, 0.0])
        apply_network_traced(arr, odd_even_merge_network(4))
        assert arr.snapshot() == [0.0, 1.0, 3.0, 4.0]

    def test_trace_is_data_independent(self):
        signatures = []
        for data in ([3.0, 1.0, 4.0, 0.0], [0.0, 0.0, 0.0, 0.0]):
            trace = Trace()
            arr = TracedArray("s", data, trace=trace)
            apply_network_traced(arr, odd_even_merge_network(4))
            signatures.append(trace.signature())
        assert signatures[0] == signatures[1]

    def test_key_function(self):
        arr = TracedArray("s", [(2, "b"), (1, "a"), (3, "c"), (0, "z")])
        apply_network_traced(arr, odd_even_merge_network(4),
                             key=lambda w: w[0])
        assert [w[0] for w in arr.snapshot()] == [0, 1, 2, 3]

    def test_four_accesses_per_comparator(self):
        trace = Trace()
        arr = TracedArray("s", [1.0] * 8, trace=trace)
        net = list(odd_even_merge_network(8))
        apply_network_traced(arr, iter(net))
        assert len(trace) == 4 * len(net)
