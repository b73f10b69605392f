"""Tests for the traced memory substrate (repro.sgx.memory)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sgx.memory import (
    CACHELINE_BYTES,
    MemoryAccess,
    RegionLayout,
    Trace,
    TracedArray,
)


class TestMemoryAccess:
    def test_cacheline_of_first_element(self):
        assert MemoryAccess("g", 0, "read").cacheline(8) == 0

    def test_cacheline_boundary_8_byte_items(self):
        # 8 elements of 8 bytes fill one 64-byte line.
        assert MemoryAccess("g", 7, "read").cacheline(8) == 0
        assert MemoryAccess("g", 8, "read").cacheline(8) == 1

    def test_cacheline_boundary_4_byte_items(self):
        assert MemoryAccess("g", 15, "read").cacheline(4) == 0
        assert MemoryAccess("g", 16, "read").cacheline(4) == 1

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([1, 2, 4, 8, 16]))
    def test_cacheline_matches_byte_arithmetic(self, offset, itemsize):
        access = MemoryAccess("r", offset, "write")
        assert access.cacheline(itemsize) == (offset * itemsize) // CACHELINE_BYTES


class TestTrace:
    def test_records_in_order(self):
        trace = Trace()
        trace.record("a", 1, "read")
        trace.record("b", 2, "write")
        assert [a.region for a in trace] == ["a", "b"]
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
        assert [a.offset for a in trace.project("g")] == [0, 3]

    def test_offsets_filters_by_op(self):
        trace = Trace()
        trace.record("g", 0, "read")
        trace.record("g", 1, "write")
        trace.record("g", 2, "read")
        assert trace.offsets("g") == [0, 1, 2]
        assert trace.offsets("g", op="write") == [1]

    def test_cachelines_projection(self):
        trace = Trace()
        for offset in (0, 7, 8, 17):
            trace.record("g", offset, "read")
        assert trace.cachelines("g", itemsize=8) == [0, 0, 1, 2]

    def test_signature_is_hashable(self):
        trace = Trace()
        trace.record("g", 0, "read")
        assert hash(trace.signature()) == hash((("g", 0, "read"),))


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
        assert trace.signature() == (("g", 2, "read"), ("g", 3, "write"))

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


class TestTraceMemmap:
    """Opt-in disk-backed columns must be invisible to every Trace API."""

    def _fill(self, trace, n=3000):
        for i in range(n):
            trace.record("g" if i % 3 else "h", i * 7, "read" if i % 2
                         else "write")
        trace.record_block("g", 10, 40, "write")

    def test_roundtrip_matches_ram_trace(self, tmp_path):
        ram, disk = Trace(), Trace(memmap_dir=str(tmp_path))
        for t in (ram, disk):
            self._fill(t)
        assert ram == disk
        assert list(ram) == list(disk)
        assert ram.signature() == disk.signature()

    def test_growth_and_widening_stay_memmapped(self, tmp_path):
        trace = Trace(memmap_dir=str(tmp_path))
        # Offset past int32 forces the int64 widening path; enough
        # records force capacity doubling.
        trace.record("g", 2**40, "read")
        for i in range(5000):
            trace.record("g", i, "read")
        ref = Trace()
        ref.record("g", 2**40, "read")
        for i in range(5000):
            ref.record("g", i, "read")
        assert trace == ref
        assert isinstance(trace._offs, np.memmap)
        assert trace._offs.dtype == np.int64

    def test_region_id_widening_memmapped(self, tmp_path):
        trace = Trace(memmap_dir=str(tmp_path))
        ref = Trace()
        for t in (trace, ref):
            for r in range(300):  # past uint8's 255 regions
                t.record(f"r{r}", r, "read")
        assert trace == ref
        assert isinstance(trace._rids, np.memmap)

    def test_enclave_opt_in(self, tmp_path):
        from repro.sgx.enclave import Enclave

        enclave = Enclave(trace_memmap_dir=str(tmp_path))
        assert enclave.trace._memmap_dir == str(tmp_path)
        enclave.reset_trace()
        assert enclave.trace._memmap_dir == str(tmp_path)


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
        trace.record_batch("h", np.arange(rest) % 7, "read")

    @pytest.mark.parametrize("m", [1, 255, 256, 257, 5000])
    @pytest.mark.parametrize("memmap", [False, True])
    def test_appends_after_reserve_do_not_reallocate(self, m, memmap,
                                                     tmp_path):
        trace = Trace(memmap_dir=str(tmp_path) if memmap else None)
        trace.record("h", 1, "write")
        trace.reserve(m)
        before = _columns(trace)
        self._append(trace, m)
        after = _columns(trace)
        assert all(a is b for a, b in zip(before, after))
        assert len(trace._offs) >= len(trace)
        if memmap:
            assert all(isinstance(c, np.memmap) for c in after)

    @pytest.mark.parametrize("memmap", [False, True])
    def test_reserve_leaves_equality_and_digest_alone(self, memmap,
                                                      tmp_path):
        reserved = Trace(memmap_dir=str(tmp_path) if memmap else None)
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

    def test_reserve_within_capacity_is_a_noop(self):
        trace = Trace()
        before = _columns(trace)
        trace.reserve(10)
        assert all(a is b for a, b in zip(before, _columns(trace)))


class TestRecordPeriodic:
    """``record_periodic`` appends exactly the expanded stream."""

    @staticmethod
    def _expand(offsets, ops, repeats):
        stream = [(o, op) for o, op in zip(offsets, ops)]
        for count, stride in repeats:
            stream = [(o + r * stride, op) for r in range(count)
                      for o, op in stream]
        return stream

    @pytest.mark.parametrize("offsets,ops,repeats", [
        ((0, 1, 0, 1), (0, 0, 1, 1), ((1, 1), (8, 2))),
        ((0, 4, 0, 4), (0, 0, 1, 1), ((4, 1), (2, 8))),
        ((5,), ("write",), ((7, 1),)),
        ((2, 0), ("read", "write"), ((3, 0), (5, 11), (2, 100))),
        ((0, 1), (0, 1), ((0, 1),)),
        ((9,), (1,), ()),
    ])
    def test_equals_record_batch(self, offsets, ops, repeats):
        periodic, batch = Trace(), Trace()
        periodic.record("x", 1, "read")
        batch.record("x", 1, "read")
        periodic.record_periodic("g", offsets, ops, repeats)
        stream = self._expand(offsets, ops, repeats)
        if stream:
            offs, codes = zip(*stream)
            batch.record_batch("g", np.asarray(offs), list(codes))
        assert periodic.signature() == batch.signature()

    def test_widens_past_int32(self):
        trace = Trace()
        trace.record_periodic("g", (0,), ("read",), ((3, 2**31),))
        assert trace.offsets("g") == [0, 2**31, 2**32]

    def test_rejects_negative_stride_and_op_mismatch(self):
        with pytest.raises(ValueError):
            Trace().record_periodic("g", (0,), ("read",), ((2, -1),))
        with pytest.raises(ValueError):
            Trace().record_periodic("g", (0, 1), ("read",), ((2, 1),))
