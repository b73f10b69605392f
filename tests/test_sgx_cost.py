"""Tests for the cycle cost model (repro.sgx.cost).

The vectorized replayer is pinned against the element-at-a-time LRU
replayer of ``tests/oracles.py`` (``OracleCostModel``)."""

import numpy as np
import pytest

from repro.core.streams import advanced_stream_chunks, baseline_stream_chunks
from repro.sgx.cost import CostModel, CostParameters, CostReport, EpcPager
from tests.oracles import (
    OracleCostModel,
    SetAssociativeCache,
    advanced_stream,
    baseline_stream,
)


SMALL = CostParameters(
    l2_bytes=4 * 1024, l2_assoc=4,
    l3_bytes=16 * 1024, l3_assoc=4,
    epc_bytes=64 * 1024,
)


class TestSetAssociativeCache:
    def test_repeat_access_hits(self):
        cache = SetAssociativeCache(1024, 4, 64)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.hits == 1 and cache.misses == 1

    def test_capacity_eviction_lru(self):
        # Direct-mapped-ish: 1 set, 2 ways.
        cache = SetAssociativeCache(128, 2, 64)
        cache.access(0)
        cache.access(1)
        cache.access(2)       # evicts 0 (LRU)
        assert not cache.access(0)
        assert cache.access(2)

    def test_lru_refresh_on_hit(self):
        cache = SetAssociativeCache(128, 2, 64)
        cache.access(0)
        cache.access(1)
        cache.access(0)       # 1 becomes LRU
        cache.access(2)       # evicts 1
        assert cache.access(0)
        assert not cache.access(1)

    def test_distinct_sets_do_not_conflict(self):
        cache = SetAssociativeCache(2048, 4, 64)  # 8 sets
        for line in range(8):
            cache.access(line)
        assert all(cache.access(line) for line in range(8))

    def test_bad_geometry_raises(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(100, 3, 64)

    def test_reset(self):
        cache = SetAssociativeCache(1024, 4, 64)
        cache.access(0)
        cache.reset()
        assert cache.hits == 0 and cache.misses == 0
        assert not cache.access(0)


class TestEpcPager:
    def test_resident_hit(self):
        pager = EpcPager(8192, 4096)  # 2 pages
        assert pager.access(0) == "cold"
        assert pager.access(0) == "hit"

    def test_cold_fill_not_charged_as_fault(self):
        pager = EpcPager(4 * 4096, 4096)
        outcomes = [pager.access(p) for p in range(4)]
        assert outcomes == ["cold"] * 4
        assert pager.faults == 0

    def test_eviction_fault(self):
        pager = EpcPager(2 * 4096, 4096)
        pager.access(0)
        pager.access(1)
        assert pager.access(2) == "evict"
        assert pager.faults == 1
        # 0 was evicted (LRU), 1 still resident.
        assert pager.access(1) == "hit"
        assert pager.access(0) == "evict"

    def test_reset(self):
        pager = EpcPager(4096, 4096)
        pager.access(0)
        pager.reset()
        assert pager.access(0) == "cold"


class TestCostModel:
    def test_sequential_hits_are_cheap(self):
        model = CostModel(SMALL)
        first = model.charge_lines([0])
        again = model.charge_lines([0])
        assert again.cycles < first.cycles

    def test_working_set_beyond_caches_costs_dram(self):
        model = CostModel(SMALL)
        # 16 KB L3 = 256 lines; stream over 512 lines twice.
        stream = list(range(512)) * 2
        report = model.charge_lines(stream)
        assert report.dram_accesses > 500

    def test_small_working_set_stays_in_cache(self):
        model = CostModel(SMALL)
        stream = list(range(8)) * 100
        report = model.charge_lines(stream)
        assert report.l2_hits > 700

    def test_epc_thrash_dominates_cycles(self):
        model = CostModel(SMALL)
        # 64 KB EPC = 16 pages; cycle over 32 pages repeatedly.
        lines_per_page = 4096 // 64
        stream = [p * lines_per_page for p in range(32)] * 5
        report = model.charge_lines(stream)
        assert report.page_faults > 0
        assert report.cycles > report.accesses * SMALL.cycles_dram

    def test_report_counts_accesses(self):
        model = CostModel(SMALL)
        assert model.charge_lines(range(10)).accesses == 10

    def test_charge_addresses_coarsens(self):
        model = CostModel(SMALL)
        report = model.charge_addresses([0, 8, 63])  # one cacheline
        assert report.accesses == 3
        assert report.l2_hits == 2

    def test_report_merge(self):
        a = CostReport(accesses=1, cycles=10, page_faults=1)
        b = CostReport(accesses=2, cycles=20, l2_hits=2)
        m = a.merge(b)
        assert m.accesses == 3 and m.cycles == 30
        assert m.page_faults == 1 and m.l2_hits == 2

    def test_seconds_conversion(self):
        assert CostReport(cycles=3_800_000_000).seconds == pytest.approx(1.0)

    def test_locality_beats_random_order(self):
        sequential = CostModel(SMALL).charge_lines(list(range(64)) * 8)
        import random

        rng = random.Random(0)
        shuffled_stream = list(range(64)) * 8
        rng.shuffle(shuffled_stream)
        shuffled = CostModel(SMALL).charge_lines(shuffled_stream)
        # Same multiset of lines; sequential reuse must not be worse.
        assert sequential.cycles <= shuffled.cycles * 1.05


def assert_engines_agree(lines, params=SMALL):
    """Replay ``lines`` through both replayers; everything must match."""
    lines = np.asarray(lines, dtype=np.int64)
    vec = CostModel(params)
    vec_report = vec.charge_lines(lines)
    ref = OracleCostModel(params)
    ref_report = ref.charge_lines(int(x) for x in lines)
    assert vec.stats == ref.stats
    assert vec_report == ref_report
    return vec_report


class TestVectorReferenceEquivalence:
    """The vectorized replayer must reproduce the sequential reference
    byte-for-byte on adversarial patterns: every ``ReplayStats`` field
    (L2/L3 hits+misses, EPC hit/cold/evict, cycles) is compared."""

    def test_set_conflict_storm(self):
        # Every access maps to L2 set 0 with > assoc distinct lines:
        # worst case for the residency classification rules.
        n_sets = 4 * 1024 // (4 * 64)     # SMALL L2: 16 sets
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 8, size=5000) * n_sets
        assert_engines_agree(lines)

    def test_epc_thrash_just_above_capacity(self):
        # 64 KB EPC = 16 pages; cycle over 17 so every revisit evicts.
        lines_per_page = 4096 // 64
        loop = [p * lines_per_page for p in range(17)]
        report = assert_engines_agree(loop * 400)
        assert report.page_faults > 0

    def test_single_line_hot_loop(self):
        # Degenerate run-length input: one line repeated; the entire
        # chunk collapses to a single head + analytic repeat charge.
        report = assert_engines_agree([7] * 100_000)
        assert report.l2_hits == 99_999

    def test_alternating_pair_even_run(self):
        assert_engines_agree([3, 9] * 5000)

    def test_alternating_pair_odd_run_and_junction(self):
        # Odd-length alternating runs end out of phase, and the lines
        # right after a collapsed run see a perturbed reuse window --
        # the edge cases of the period-2 head collapse.
        pattern = [3, 9] * 101 + [3] + list(range(64)) + [9, 3] * 77
        assert_engines_agree(pattern * 11)

    def test_periodic_steady_state(self):
        # Long periodic loop over multiple pages: triggers the modal
        # period detection + analytic span replication.
        lines_per_page = 4096 // 64
        period = [p * lines_per_page + o for p in range(6)
                  for o in (0, 3, 5)]
        assert_engines_agree(period * 3000)

    def test_direct_mapped_assoc_one(self):
        params = CostParameters(
            l2_bytes=1024, l2_assoc=1,
            l3_bytes=4 * 1024, l3_assoc=1,
            epc_bytes=32 * 1024,
        )
        rng = np.random.default_rng(3)
        assert_engines_agree(rng.integers(0, 200, size=4000), params)

    def test_random_fuzz_across_seeds(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 3000))
            lines = rng.integers(0, int(rng.integers(2, 4000)), size=n)
            assert_engines_agree(lines)

    def test_mixed_structural_and_random(self):
        rng = np.random.default_rng(7)
        mix = np.concatenate([
            np.asarray(list(baseline_stream(40, 128)), dtype=np.int64),
            rng.integers(0, 1024, size=2000),
            np.asarray(list(advanced_stream(40, 128)), dtype=np.int64),
            np.arange(3000) % 17,
        ])
        assert_engines_agree(mix)

    def test_chunk_boundary_invariance(self):
        # The same stream split at awkward chunk boundaries must give
        # identical stats: carry-in state is part of the contract.
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 900, size=6001)
        whole = CostModel(SMALL)
        whole_report = whole.charge_lines(lines)
        split = CostModel(SMALL)
        merged = None
        for lo in range(0, lines.size, 997):
            part = split.charge_lines(lines[lo:lo + 997])
            merged = part if merged is None else merged.merge(part)
        assert split.stats == whole.stats
        assert merged == whole_report

    def test_charge_chunks_matches_charge_lines(self):
        nk, d = 64, 256
        vec = CostModel(SMALL)
        vec_report = vec.charge_chunks(advanced_stream_chunks(nk, d))
        ref = OracleCostModel(SMALL)
        ref_report = ref.charge_lines(advanced_stream(nk, d))
        assert vec.stats == ref.stats
        assert vec_report == ref_report

    def test_reference_engine_accepts_chunks(self):
        ref = OracleCostModel(SMALL)
        via_chunks = ref.charge_chunks(baseline_stream_chunks(16, 64))
        vec = CostModel(SMALL)
        via_vec = vec.charge_chunks(baseline_stream_chunks(16, 64))
        assert ref.stats == vec.stats
        assert via_chunks == via_vec

    def test_telemetry_gauges_preserved(self):
        model = CostModel(SMALL)
        model.charge_lines(np.arange(2048) % 321)
        gauges = model.stats.as_gauges()
        assert gauges
        assert all(key.startswith("cost.") for key in gauges)
