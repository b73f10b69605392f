"""Tests for Path ORAM (repro.oram.path_oram)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.oram.path_oram import PathORAM, StashOverflow
from repro.sgx.memory import Trace


class TestBasicOperations:
    def test_unwritten_blocks_read_zero(self):
        oram = PathORAM(8, seed=0)
        assert oram.read(3) == 0.0

    def test_write_then_read(self):
        oram = PathORAM(8, seed=0)
        oram.write(2, 42.0)
        assert oram.read(2) == 42.0

    def test_overwrite(self):
        oram = PathORAM(8, seed=0)
        oram.write(2, 1.0)
        oram.write(2, 2.0)
        assert oram.read(2) == 2.0

    def test_independent_blocks(self):
        oram = PathORAM(8, seed=0)
        oram.write(0, 1.0)
        oram.write(7, 7.0)
        assert oram.read(0) == 1.0
        assert oram.read(7) == 7.0

    def test_out_of_range_rejected(self):
        oram = PathORAM(4, seed=0)
        with pytest.raises(IndexError):
            oram.read(4)
        with pytest.raises(IndexError):
            oram.write(-1, 0.0)

    def test_invalid_op_rejected(self):
        oram = PathORAM(4, seed=0)
        with pytest.raises(ValueError):
            oram.access("delete", 0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PathORAM(0)

    def test_capacity_one(self):
        oram = PathORAM(1, seed=0)
        oram.write(0, 5.0)
        assert oram.read(0) == 5.0


class TestStatefulConsistency:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["read", "write"]),
                st.integers(0, 15),
                st.floats(-100, 100),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_dict(self, ops):
        oram = PathORAM(16, seed=1)
        reference: dict[int, float] = {}
        for op, block, value in ops:
            if op == "write":
                oram.write(block, value)
                reference[block] = value
            else:
                assert oram.read(block) == reference.get(block, 0.0)

    def test_heavy_sequential_workload(self):
        oram = PathORAM(64, stash_limit=40, seed=2)
        for i in range(64):
            oram.write(i, float(i))
        for i in range(64):
            assert oram.read(i) == float(i)

    def test_repeated_hammering_one_block(self):
        oram = PathORAM(32, seed=3)
        for i in range(200):
            oram.write(5, float(i))
            assert oram.read(5) == float(i)

    def test_accumulation_pattern(self):
        # The aggregation access pattern: read-modify-write.
        oram = PathORAM(16, seed=4)
        rng = np.random.default_rng(0)
        expected = np.zeros(16)
        for _ in range(100):
            block = int(rng.integers(16))
            delta = float(rng.normal())
            current = oram.read(block)
            oram.write(block, current + delta)
            expected[block] += delta
        for i in range(16):
            assert oram.read(i) == pytest.approx(expected[i])


class TestStash:
    def test_stash_stays_bounded_under_load(self):
        oram = PathORAM(128, stash_limit=20, seed=5)
        rng = np.random.default_rng(1)
        for _ in range(600):
            oram.write(int(rng.integers(128)), 1.0)
        assert oram.stash_size <= 20

    def test_tiny_stash_overflows(self):
        oram = PathORAM(64, bucket_size=1, stash_limit=0, seed=6)
        with pytest.raises(StashOverflow):
            for i in range(64):
                oram.write(i, 1.0)


class TestObliviousStructure:
    def test_access_touches_exactly_one_path_twice(self):
        trace = Trace()
        oram = PathORAM(16, trace=trace, seed=7)
        oram.read(3)
        offsets = trace.offsets_array("oram_tree").tolist()
        # Fetch: each path bucket read + cleared; write-back: written again.
        assert len(offsets) == 3 * (oram.height + 1)
        # Path property: consecutive read buckets are parent/child.
        reads = trace.offsets_array("oram_tree", op="read").tolist()
        for parent, child in zip(reads, reads[1:]):
            assert (child - 1) // 2 == parent

    def test_bucket_count_independent_of_block(self):
        lengths = set()
        for block in (0, 7, 15):
            trace = Trace()
            oram = PathORAM(16, trace=trace, seed=8)
            oram.read(block)
            lengths.add(len(trace.offsets_array("oram_tree").tolist()))
        assert len(lengths) == 1

    def test_positions_refresh_on_access(self):
        oram = PathORAM(16, seed=9)
        seen = set()
        for _ in range(30):
            oram.read(3)
            seen.add(oram._position[3])
        assert len(seen) > 1

    def test_access_counter(self):
        oram = PathORAM(8, seed=10)
        oram.read(0)
        oram.write(1, 2.0)
        assert oram.accesses == 2
