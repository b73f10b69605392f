"""Tests for the traced memory substrate (repro.sgx.memory)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sgx.memory import (
    CACHELINE_BYTES,
    RegionLayout,
    Trace,
    TracedArray,
)
from repro.sgx.observer import CACHELINE, coarsen
from tests.oracles import trace_tuples


def _line(offset, itemsize):
    """Cacheline of one access at ``offset`` of ``itemsize``-byte items."""
    return int(coarsen(np.asarray([offset]), CACHELINE, itemsize)[0])


class TestMemoryAccess:
    """The cacheline one access falls in (``coarsen`` of one offset)."""

    def test_cacheline_of_first_element(self):
        assert _line(0, 8) == 0

    def test_cacheline_boundary_8_byte_items(self):
        # 8 elements of 8 bytes fill one 64-byte line.
        assert _line(7, 8) == 0
        assert _line(8, 8) == 1

    def test_cacheline_boundary_4_byte_items(self):
        assert _line(15, 4) == 0
        assert _line(16, 4) == 1

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([1, 2, 4, 8, 16]))
    def test_cacheline_matches_byte_arithmetic(self, offset, itemsize):
        assert _line(offset, itemsize) == (offset * itemsize) // CACHELINE_BYTES


class TestTrace:
    def test_records_in_order(self):
        trace = Trace()
        trace.record("a", 1, "read")
        trace.record("b", 2, "write")
        rids, offs, ops = trace.columns()
        assert [trace.region_names[r] for r in rids] == ["a", "b"]
        assert offs.tolist() == [1, 2] and ops.tolist() == [0, 1]
        assert len(trace) == 2

    def test_equality_is_sequence_equality(self):
        t1, t2 = Trace(), Trace()
        for t in (t1, t2):
            t.record("g", 0, "read")
            t.record("g", 1, "write")
        assert t1 == t2
        t2.record("g", 2, "read")
        assert t1 != t2

    def test_order_matters_for_equality(self):
        t1, t2 = Trace(), Trace()
        t1.record("g", 0, "read")
        t1.record("g", 1, "read")
        t2.record("g", 1, "read")
        t2.record("g", 0, "read")
        assert t1 != t2

    def test_project_filters_by_region(self):
        trace = Trace()
        trace.record("g", 0, "read")
        trace.record("h", 5, "write")
        trace.record("g", 3, "write")
        assert trace.offsets_array("g").tolist() == [0, 3]
        assert trace.offsets_array("h").tolist() == [5]
        assert trace.offsets_array("absent").tolist() == []

    def test_offsets_filters_by_op(self):
        trace = Trace()
        trace.record("g", 0, "read")
        trace.record("g", 1, "write")
        trace.record("g", 2, "read")
        assert trace.offsets_array("g").tolist() == [0, 1, 2]
        assert trace.offsets_array("g", op="write").tolist() == [1]

    def test_cachelines_projection(self):
        trace = Trace()
        for offset in (0, 7, 8, 17):
            trace.record("g", offset, "read")
        lines = coarsen(trace.offsets_array("g"), CACHELINE, itemsize=8)
        assert lines.tolist() == [0, 0, 1, 2]

    def test_signature_is_hashable(self):
        trace, same = Trace(), Trace()
        for t in (trace, same):
            t.record("g", 0, "read")
        assert trace_tuples(trace) == (("g", 0, "read"),)
        assert len({trace.signature_digest(), same.signature_digest()}) == 1


class TestTracedArray:
    def test_read_write_roundtrip(self):
        arr = TracedArray("g", [1.0, 2.0, 3.0])
        arr.write(1, 9.0)
        assert arr.read(1) == 9.0
        assert arr.read(0) == 1.0

    def test_accesses_recorded(self):
        trace = Trace()
        arr = TracedArray("g", [0.0] * 4, trace=trace)
        arr.read(2)
        arr.write(3, 1.0)
        assert trace_tuples(trace) == (("g", 2, "read"), ("g", 3, "write"))

    def test_untraced_mode_records_nothing(self):
        arr = TracedArray("g", [0.0] * 4, trace=None)
        arr.read(0)
        arr.write(1, 5.0)  # no trace to inspect; just must not raise
        assert arr.read(1) == 5.0

    def test_out_of_bounds_read_raises(self):
        arr = TracedArray("g", [0.0])
        with pytest.raises(IndexError):
            arr.read(1)
        with pytest.raises(IndexError):
            arr.read(-1)

    def test_out_of_bounds_write_raises(self):
        arr = TracedArray("g", [0.0])
        with pytest.raises(IndexError):
            arr.write(5, 1.0)

    def test_zeros_constructor(self):
        arr = TracedArray.zeros("g", 5)
        assert len(arr) == 5
        assert arr.snapshot() == [0.0] * 5

    def test_snapshot_does_not_trace(self):
        trace = Trace()
        arr = TracedArray("g", [1.0, 2.0], trace=trace)
        assert arr.snapshot() == [1.0, 2.0]
        assert len(trace) == 0

    def test_load_replaces_contents_untraced(self):
        trace = Trace()
        arr = TracedArray.zeros("g", 3, trace=trace)
        arr.load([1.0, 2.0, 3.0])
        assert arr.snapshot() == [1.0, 2.0, 3.0]
        assert len(trace) == 0

    def test_load_length_mismatch_raises(self):
        arr = TracedArray.zeros("g", 3)
        with pytest.raises(ValueError):
            arr.load([1.0])

    def test_holds_tuples(self):
        arr = TracedArray("g", [(1, 0.5), (2, 0.25)])
        assert arr.read(0) == (1, 0.5)


class TestRegionLayout:
    def test_regions_do_not_overlap(self):
        layout = RegionLayout()
        layout.add("a", 10, 8)   # 80 bytes -> 128 aligned
        base_b = layout.add("b", 4, 4)
        assert base_b == 128
        assert layout.byte_address("b", 0) == 128

    def test_duplicate_region_raises(self):
        layout = RegionLayout()
        layout.add("a", 1, 8)
        with pytest.raises(ValueError):
            layout.add("a", 1, 8)

    def test_byte_address_arithmetic(self):
        layout = RegionLayout()
        layout.add("a", 10, 8)
        assert layout.byte_address("a", 3) == 24

    def test_byte_address_out_of_region_raises(self):
        layout = RegionLayout()
        layout.add("a", 2, 8)
        with pytest.raises(IndexError):
            layout.byte_address("a", 2)

    def test_total_bytes_accounts_alignment(self):
        layout = RegionLayout()
        layout.add("a", 1, 4)  # 4 bytes -> 64 aligned
        assert layout.total_bytes() == 64


def _columns(trace):
    return trace._rids, trace._offs, trace._ops


class TestTraceReserve:
    """``reserve(m)`` presizes once: the next ``m`` appends reuse the
    same columns, and the recorded trace is unchanged."""

    def _append(self, trace, m):
        # Mixed append paths totalling m accesses.
        trace.record("g", 3, "read")
        trace.record_block("g", 0, m // 2, "write")
        rest = m - 1 - m // 2
        trace.record_columns(np.full(rest, trace.region_id("h")),
                             np.arange(rest) % 7, np.zeros(rest, np.uint8))

    @pytest.mark.parametrize("m", [1, 255, 256, 257, 5000])
    def test_appends_after_reserve_do_not_reallocate(self, m):
        trace = Trace()
        trace.record("h", 1, "write")
        trace.reserve(m)
        before = _columns(trace)
        self._append(trace, m)
        after = _columns(trace)
        assert all(a is b for a, b in zip(before, after))
        assert len(trace._offs) >= len(trace)

    def test_reserve_leaves_equality_and_digest_alone(self):
        reserved = Trace()
        grown = Trace()
        reserved.reserve(10_000)
        for t in (reserved, grown):
            t.record("h", 1, "write")
            self._append(t, 4000)
        assert reserved == grown
        assert reserved.signature_digest() == grown.signature_digest()

    def test_fresh_reserve_is_exact(self):
        trace = Trace()
        trace.reserve(100_000)
        assert len(trace._offs) == 100_000

    def test_small_reserves_stay_amortized(self):
        trace = Trace()
        trace.reserve(1000)
        trace.record_block("g", 0, 1000, "read")
        trace.reserve(1)
        assert len(trace._offs) == 2000

    def test_columns_are_exact_views_of_power_of_two_allocations(self):
        # Traces of nearby lengths share one allocation size, so
        # per-round traces reuse it; the visible capacity stays exact.
        a, b = Trace(), Trace()
        a.reserve(3000)
        b.reserve(3500)
        for trace, need in ((a, 3000), (b, 3500)):
            for column in _columns(trace):
                assert len(column) == need
                assert column.base is not None and column.base.size == 4096

    def test_reserve_within_capacity_is_a_noop(self):
        trace = Trace()
        before = _columns(trace)
        trace.reserve(10)
        assert all(a is b for a, b in zip(before, _columns(trace)))


class TestRecordPeriodic:
    """``record_periodic`` appends exactly the expanded stream."""

    @staticmethod
    def _expand(offsets, ops, repeats):
        period = len(offsets)
        stream = [(o, op) for o, op in zip(offsets, ops)]
        for count, stride in repeats:
            per_slot = np.broadcast_to(stride, (period,)).tolist()
            stream = [(o + r * per_slot[t % period], op) for r in range(count)
                      for t, (o, op) in enumerate(stream)]
        return stream

    @pytest.mark.parametrize("offsets,ops,repeats", [
        ((0, 1, 0, 1), (0, 0, 1, 1), ((1, 1), (8, 2))),
        ((0, 4, 0, 4), (0, 0, 1, 1), ((4, 1), (2, 8))),
        ((5,), ("write",), ((7, 1),)),
        ((2, 0), ("read", "write"), ((3, 0), (5, 11), (2, 100))),
        ((0, 1), (0, 1), ((0, 1),)),
        ((9,), (1,), ()),
        # Per-slot strides: a bitonic mirror stage, i up and partner down.
        ((0, 7, 0, 7), (0, 0, 1, 1), ((4, (1, -1, 1, -1)), (3, 8))),
        ((3, 1), ("read", "write"), ((2, 5), (3, (0, 2)))),
    ])
    def test_equals_record_batch(self, offsets, ops, repeats):
        # The batch append of the expanded stream, one scalar record each.
        periodic, batch = Trace(), Trace()
        periodic.record("x", 1, "read")
        batch.record("x", 1, "read")
        periodic.record_periodic("g", offsets, ops, repeats)
        for offset, op in self._expand(offsets, ops, repeats):
            batch.record("g", offset, op)
        assert periodic == batch

    def test_widens_past_int32(self):
        trace = Trace()
        trace.record_periodic("g", (0,), ("read",), ((3, 2**31),))
        assert trace.offsets_array("g").tolist() == [0, 2**31, 2**32]

    def test_negative_slot_stride_within_bounds_is_accepted(self):
        trace = Trace()
        trace.record_periodic("g", (0, 3), ("read", "write"), ((4, (1, -1)),))
        assert trace.offsets_array("g").tolist() == [0, 3, 1, 2, 2, 1, 3, 0]

    def test_record_open_leaves_offsets_to_the_writer(self):
        trace = Trace()
        trace.record("x", 5, "write")
        offs = trace.record_open("g", ("read", "write"), 4, max_offset=9)
        assert len(offs) == 4 and len(trace) == 5
        offs[:] = [9, 8, 7, 6]
        assert trace.offsets_array("g").tolist() == [9, 8, 7, 6]
        assert trace.offsets_array("g", "write").tolist() == [8, 6]
        with pytest.raises(ValueError):
            trace.record_open("g", ("read", "write"), 3, max_offset=1)

    def test_rejects_negative_stride_and_op_mismatch(self):
        with pytest.raises(ValueError):
            Trace().record_periodic("g", (0,), ("read",), ((2, -1),))
        with pytest.raises(ValueError):
            Trace().record_periodic("g", (0, 1), ("read",), ((2, 1),))
