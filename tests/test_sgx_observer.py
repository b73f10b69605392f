"""Tests for the side-channel adversary view (repro.sgx.observer).

A region's view is ``coarsen(trace.offsets_array(region), ...)``; the
attack's ground-truth view is :func:`repro.attack.leakage.coarsen_indices`.
"""

import numpy as np
import pytest

from repro.attack.leakage import coarsen_indices
from repro.sgx.memory import Trace, TracedArray
from repro.sgx.observer import CACHELINE, WORD, coarsen


def _trace_with_accesses(offsets, region="g_star"):
    trace = Trace()
    arr = TracedArray.zeros(region, max(offsets) + 1, trace=trace, itemsize=4)
    for off in offsets:
        arr.read(off)
    return trace


def _seen(trace, granularity=WORD, op=None):
    """Ordered observed offsets/lines of ``g_star`` (4-byte cells)."""
    return coarsen(trace.offsets_array("g_star", op), granularity,
                   itemsize=4).tolist()


class TestObserverConfig:
    def test_rejects_unknown_granularity(self):
        with pytest.raises(ValueError):
            coarsen(np.arange(3), "page")
        with pytest.raises(ValueError):
            coarsen(np.empty(0, dtype=np.int64), "page")

    def test_defaults_to_word(self):
        offsets = np.asarray([3, 70, 9])
        assert coarsen(offsets) is offsets

    @pytest.mark.parametrize("field", ["itemsize", "line_bytes"])
    @pytest.mark.parametrize("value", [0, -8])
    def test_rejects_non_positive_sizes(self, field, value):
        for granularity in (WORD, CACHELINE):
            with pytest.raises(ValueError):
                coarsen(np.arange(3), granularity, **{field: value})

    def test_per_offset_itemsizes(self):
        lines = coarsen(np.asarray([15, 15, 16]), CACHELINE,
                        itemsize=np.asarray([4, 8, 4]))
        assert lines.tolist() == [0, 1, 1]
        with pytest.raises(ValueError):
            coarsen(np.asarray([1, 2]), CACHELINE, itemsize=np.asarray([4, 0]))


class TestWordObserver:
    def test_sequence_preserves_order(self):
        trace = _trace_with_accesses([5, 2, 5])
        assert _seen(trace) == [5, 2, 5]

    def test_set_deduplicates(self):
        trace = _trace_with_accesses([5, 2, 5])
        assert coarsen_indices(_seen(trace)) == frozenset({2, 5})

    def test_other_regions_invisible(self):
        trace = Trace()
        TracedArray.zeros("other", 4, trace=trace).read(1)
        assert _seen(trace) == []

    def test_write_set_filters_ops(self):
        trace = Trace()
        arr = TracedArray.zeros("g_star", 8, trace=trace, itemsize=4)
        arr.read(1)
        arr.write(3, 1.0)
        assert _seen(trace, op="write") == [3]
        assert _seen(trace) == [1, 3]


class TestCachelineObserver:
    def test_coarsens_16_weights_per_line(self):
        trace = _trace_with_accesses([0, 15, 16, 31, 32])
        assert _seen(trace, CACHELINE) == [0, 0, 1, 1, 2]

    def test_indices_within_line_collapse(self):
        trace = _trace_with_accesses([1, 7, 14])
        assert set(_seen(trace, CACHELINE)) == {0}

    def test_indices_to_observation_matches_trace_view(self):
        trace = _trace_with_accesses([3, 17, 40])
        assert coarsen_indices([3, 17, 40], CACHELINE, itemsize=4) == set(
            _seen(trace, CACHELINE))


class TestGroundTruthCoarsening:
    def test_word_granularity_is_identity(self):
        assert coarsen_indices([1, 2, 3]) == frozenset({1, 2, 3})

    def test_accepts_numpy_ints(self):
        assert coarsen_indices(np.asarray([4, 5])) == frozenset({4, 5})

    def test_empty_set(self):
        assert coarsen_indices(frozenset(), CACHELINE) == frozenset()
