"""Advanced aggregation (Algorithm 4) against the paper's instantiation.

The production kernel sorts only the client entries, merges them with
the public dummy run and compacts the fold's survivors; the paper
sorts all ``m = nk + d`` entries twice.  With unique ``(index, input
position)`` keys both orders are forced, so the two must agree bit for
bit, traced or not.  The trace must stay a function of ``(nk, d)``
alone (Prop. 5.2) and exactly as long as ``advanced_trace_length``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import (
    advanced_trace_length,
    aggregate_advanced,
    aggregate_baseline,
    aggregate_linear,
    aggregate_path_oram,
)
from repro.fl.client import LocalUpdate
from repro.oblivious.sort import comparator_count
from repro.sgx.memory import Trace
from tests.oracles import (
    ref_advanced_traced,
    two_sort_advanced,
    two_sort_advanced_traced,
)


def random_updates(seed, n, k, d):
    """``n`` uploads of ``k`` distinct indices in random order, with
    values spread over many magnitudes so that any change in the fold's
    summation order shows in the bits."""
    rng = np.random.default_rng(seed)
    return [
        LocalUpdate(cid, rng.choice(d, size=k, replace=False).astype(np.int64),
                    rng.normal(size=k) * 10.0 ** rng.uniform(-8, 8, size=k))
        for cid in range(n)
    ]


def assert_matches_two_sort(updates, d):
    expected = two_sort_advanced(updates, d).tobytes()
    assert aggregate_advanced(updates, d).tobytes() == expected
    assert aggregate_advanced(updates, d, trace=Trace()).tobytes() == expected


@st.composite
def shapes(draw):
    n = draw(st.integers(0, 8))
    d = draw(st.integers(1, 80))
    k = draw(st.integers(1, d))
    return n, k, d


class TestEqualsTwoSortOracle:
    @given(shape=shapes(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_random_shapes(self, shape, seed):
        n, k, d = shape
        assert_matches_two_sort(random_updates(seed, n, k, d), d)

    @pytest.mark.parametrize("p", range(1, 11))
    @pytest.mark.parametrize("past", [0, 1])
    def test_m_at_and_one_past_a_power_of_two(self, p, past):
        m = (1 << p) + past
        for n in (0, 1, 3, 8):
            k = max(1, m // (2 * n + 2))
            d = m - n * k
            if 1 <= k <= d:
                assert_matches_two_sort(random_updates(p, n, k, d), d)

    def test_repeated_indices_fold_in_input_order(self):
        # Every upload hits the same few indices: long equal-index runs,
        # whose sums depend on the order the fold meets them.
        d = 5
        updates = [LocalUpdate(c, np.asarray([0, 4, 2]),
                               np.asarray([1e16, 1.0, -1e16]) * (c + 1))
                   for c in range(7)]
        assert_matches_two_sort(updates, d)

    def test_wide_round_shape(self):
        n, k, d = 2, 5089, 50890
        assert_matches_two_sort(random_updates(0, n, k, d), d)


class TestKernelsAgreeBitForBit:
    """Every aggregator adds each index's values in input order from
    zero, so all of them release the same bits.  Grouped aggregation is
    left out: it sums each group first and then adds the group sums, a
    different association of the same values."""

    @given(shape=shapes(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_linear_baseline_advanced_and_oram(self, shape, seed):
        n, k, d = shape
        updates = random_updates(seed, n, k, d)
        expected = aggregate_linear(updates, d).tobytes()
        assert aggregate_baseline(updates, d).tobytes() == expected
        assert aggregate_advanced(updates, d).tobytes() == expected
        assert aggregate_path_oram(updates, d, seed=seed).tobytes() == expected

    @given(shape=shapes(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_advanced_equals_the_element_at_a_time_carry(self, shape, seed):
        n, k, d = shape
        updates = random_updates(seed, n, k, d)
        carried = ref_advanced_traced(updates, d, Trace())
        assert aggregate_advanced(updates, d).tobytes() == carried.tobytes()


class TestTraceIsAFunctionOfShape:
    @given(shape=shapes(), seeds=st.tuples(st.integers(0, 2**16),
                                          st.integers(0, 2**16)))
    @settings(max_examples=60, deadline=None)
    def test_same_shape_inputs_give_equal_traces(self, shape, seeds):
        n, k, d = shape
        traces = []
        for seed in seeds:
            trace = Trace()
            aggregate_advanced(random_updates(seed, n, k, d), d, trace=trace)
            traces.append(trace)
        assert traces[0] == traces[1]
        assert len(traces[0]) == advanced_trace_length(n * k, d)

    @pytest.mark.parametrize("n,k,d", [(0, 1, 1), (3, 7, 40), (8, 38, 378)])
    def test_trace_grows_once_to_its_reserved_length(self, monkeypatch, n, k, d):
        grows = []
        resize = Trace._resize
        monkeypatch.setattr(Trace, "_resize",
                            lambda self, cap: (grows.append(cap),
                                               resize(self, cap)))
        trace = Trace()
        aggregate_advanced(random_updates(0, n, k, d), d, trace=trace)
        assert len(grows) <= 1
        assert len(trace) == advanced_trace_length(n * k, d)

    @pytest.mark.parametrize("n,k,d", [(0, 1, 3), (2, 3, 10), (4, 5, 33)])
    def test_two_sort_reference_length_is_the_paper_count(self, n, k, d):
        trace = Trace()
        two_sort_advanced_traced(random_updates(1, n, k, d), d, trace)
        m = n * k + d
        assert len(trace) == 3 * m + d + 8 * comparator_count(m)
        assert advanced_trace_length(n * k, d) < len(trace)
