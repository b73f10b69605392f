"""Tests for the recursive-position-map Path ORAM."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.oram.path_oram import PathORAM
from repro.oram.recursive import RecursiveMap, RecursivePathORAM
from repro.sgx.memory import Trace


class TestRecursiveMap:
    def test_small_map_is_register_resident(self):
        m = RecursiveMap(32, n_leaves=16, base_map_limit=64)
        assert m.depth == 0

    def test_large_map_uses_oram(self):
        m = RecursiveMap(256, n_leaves=128, base_map_limit=64)
        assert m.depth == 1

    def test_get_and_refresh_returns_installed_leaf(self):
        import random

        m = RecursiveMap(32, n_leaves=16, base_map_limit=64,
                         rng=random.Random(0))
        old1, new1 = m.get_and_refresh(5)
        old2, _ = m.get_and_refresh(5)
        assert old2 == new1

    def test_oram_backed_refresh_consistent(self):
        import random

        m = RecursiveMap(256, n_leaves=128, base_map_limit=64,
                         entries_per_block=8, rng=random.Random(1))
        old1, new1 = m.get_and_refresh(200)
        old2, _ = m.get_and_refresh(200)
        assert old2 == new1

    def test_leaves_in_range(self):
        import random

        m = RecursiveMap(256, n_leaves=64, base_map_limit=16,
                         rng=random.Random(2))
        for index in (0, 100, 255):
            old, new = m.get_and_refresh(index)
            assert 0 <= old < 64
            assert 0 <= new < 64

    def test_out_of_range_rejected(self):
        m = RecursiveMap(32, n_leaves=16)
        with pytest.raises(IndexError):
            m.get_and_refresh(32)


class TestRecursivePathORAM:
    def test_write_then_read(self):
        oram = RecursivePathORAM(128, seed=0, stash_limit=60)
        oram.write(100, 7.5)
        assert oram.read(100) == 7.5

    def test_unwritten_reads_zero(self):
        oram = RecursivePathORAM(128, seed=0, stash_limit=60)
        assert oram.read(3) == 0.0

    def test_out_of_range(self):
        oram = RecursivePathORAM(16, seed=0)
        with pytest.raises(IndexError):
            oram.read(16)

    @given(
        st.lists(
            st.tuples(st.sampled_from(["read", "write"]),
                      st.integers(0, 127), st.floats(-10, 10)),
            max_size=80,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_reference(self, ops):
        oram = RecursivePathORAM(128, seed=1, stash_limit=80)
        ref: dict[int, float] = {}
        for op, block, value in ops:
            if op == "write":
                oram.write(block, value)
                ref[block] = value
            else:
                assert oram.read(block) == ref.get(block, 0.0)

    def test_small_capacity_uses_base_map(self):
        oram = RecursivePathORAM(32, seed=0, base_map_limit=64)
        assert oram._map.depth == 0
        oram.write(5, 1.0)
        assert oram.read(5) == 1.0

    def test_map_accesses_visible_in_trace(self):
        # The recursive construction's point: position-map accesses hit
        # a traced ORAM tree too, unlike the flat ORAM's private map.
        trace = Trace()
        flat_trace = Trace()
        recursive = RecursivePathORAM(256, seed=0, stash_limit=80,
                                      base_map_limit=16, trace=trace)
        flat = PathORAM(256, seed=0, stash_limit=80, trace=flat_trace)
        recursive.read(7)
        flat.read(7)
        # Recursive access touches strictly more tree buckets (two
        # trees: map + data).
        assert len(trace.offsets_array("oram_tree")) > len(
            flat_trace.offsets_array("oram_tree")
        )

    def test_accumulation_workload(self):
        oram = RecursivePathORAM(64, seed=2, stash_limit=80)
        rng = np.random.default_rng(0)
        expected = np.zeros(64)
        for _ in range(150):
            block = int(rng.integers(64))
            delta = float(rng.normal())
            oram.write(block, oram.read(block) + delta)
            expected[block] += delta
        for i in range(64):
            assert oram.read(i) == pytest.approx(expected[i])

    def test_access_counter(self):
        oram = RecursivePathORAM(64, seed=0, stash_limit=80)
        oram.read(0)
        oram.write(1, 1.0)
        assert oram.accesses == 2
