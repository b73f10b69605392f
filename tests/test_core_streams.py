"""Tests for the structural address streams (repro.core.streams).

The streams are the kernels' access patterns, generated without running
the algorithm: each chunked emitter must equal the cacheline image of
its production kernel's own trace, and the per-access generators of
``tests/oracles.py`` (still raced by the Fig. 11/12 benches) must agree
with the emitters element for element.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import (
    advanced_trace_length,
    aggregate_advanced,
    aggregate_baseline,
    aggregate_linear,
)
from repro.core.streams import (
    G_ITEMSIZE,
    G_STAR_ITEMSIZE,
    LINE_BYTES,
    advanced_stream_chunks,
    baseline_stream_chunks,
    grouped_stream_chunks,
    linear_stream_chunks,
)
from repro.core.grouping import aggregate_grouped
from repro.fl.client import LocalUpdate
from repro.oblivious.compaction import compaction_stage_offsets
from repro.oblivious.sort import merge_stage_offsets, network_access_offsets
from repro.sgx.cost import CostModel, CostParameters
from repro.sgx.memory import Trace
from tests.oracles import (
    advanced_stream,
    baseline_stream,
    grouped_stream,
    linear_stream,
)


def make_updates(seed, n_clients, d, k):
    rng = np.random.default_rng(seed)
    out = []
    for cid in range(n_clients):
        idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
        out.append(LocalUpdate(cid, idx, rng.normal(size=k)))
    return out


class TestStreamLengthsMatchTraces:
    def test_linear_stream_count(self):
        n, k, d = 3, 4, 20
        updates = make_updates(0, n, d, k)
        trace = Trace()
        aggregate_linear(updates, d, trace=trace)
        indices = np.concatenate([u.indices for u in updates])
        stream = list(linear_stream(n * k, d, indices))
        assert len(stream) == len(trace)

    def test_baseline_stream_count(self):
        n, k, d = 2, 3, 37
        updates = make_updates(1, n, d, k)
        trace = Trace()
        aggregate_baseline(updates, d, trace=trace)
        stream = list(baseline_stream(n * k, d))
        assert len(stream) == len(trace)

    def test_advanced_stream_count(self):
        n, k, d = 2, 3, 10
        updates = make_updates(2, n, d, k)
        trace = Trace()
        aggregate_advanced(updates, d, trace=trace)
        stream = list(advanced_stream(n * k, d))
        assert len(stream) == len(trace)

    def test_advanced_stream_matches_trace_cachelines(self):
        # Not just the count: the cacheline sequence itself must match.
        n, k, d = 2, 2, 6
        updates = make_updates(3, n, d, k)
        trace = Trace()
        aggregate_advanced(updates, d, trace=trace)
        traced_lines = [offset * 8 // 64 for offset in trace.columns()[1].tolist()]
        stream = list(advanced_stream(n * k, d))
        assert stream == traced_lines


def trace_cachelines(trace: Trace, nk: int) -> np.ndarray:
    """Cacheline image of a kernel trace: ``g`` (8-byte cells) first,
    then ``g_star`` (4-byte cells) from the next free line."""
    rids, offs, _ = trace.columns()
    names = trace.region_names
    g_lines = -(-nk * G_ITEMSIZE // LINE_BYTES)
    is_g = np.asarray([name == "g" for name in names], dtype=bool)[rids]
    return np.where(
        is_g,
        offs * G_ITEMSIZE // LINE_BYTES,
        g_lines + offs * G_STAR_ITEMSIZE // LINE_BYTES,
    )


class TestStreamsAreKernelTraceImages:
    """Ground truth for the cost streams: each emitter reproduces the
    production kernel's own trace, cacheline for cacheline, at any
    chunk size."""

    @staticmethod
    def _emitted(chunks, chunk_size):
        parts = list(chunks)
        assert all(0 < p.size <= chunk_size for p in parts)
        assert all(p.size == chunk_size for p in parts[:-1])
        return np.concatenate(parts) if parts else np.empty(0, np.int64)

    @given(n=st.integers(1, 4), k=st.integers(1, 6), d=st.integers(1, 70),
           chunk_size=st.integers(1, 400), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_linear_baseline_advanced(self, n, k, d, chunk_size, seed):
        updates = make_updates(seed, n, d, min(k, d))
        idx = np.concatenate([u.indices for u in updates])
        nk = len(idx)
        for kernel, chunks in (
            (aggregate_linear,
             linear_stream_chunks(nk, d, idx, chunk_size=chunk_size)),
            (aggregate_baseline,
             baseline_stream_chunks(nk, d, chunk_size=chunk_size)),
            (aggregate_advanced,
             advanced_stream_chunks(nk, d, chunk_size=chunk_size)),
        ):
            trace = Trace()
            kernel(updates, d, trace=trace)
            np.testing.assert_array_equal(
                self._emitted(chunks, chunk_size), trace_cachelines(trace, nk),
                err_msg=kernel.__name__,
            )


    @given(n=st.integers(1, 7), k=st.integers(1, 5), d=st.integers(1, 60),
           group_size=st.integers(1, 4), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_grouped(self, n, k, d, group_size, seed):
        # The grouped stream is each group's Advanced image plus the
        # carry accumulator's lines, which start past the largest group's
        # buffer and which the kernel trace does not record.
        k = min(k, d)
        updates = make_updates(seed, n, d, k)
        trace = Trace()
        aggregate_grouped(updates, d, group_size, trace=trace)
        stream = np.concatenate(list(grouped_stream_chunks(
            n, k, d, group_size, chunk_size=333)))
        acc_base = -(-(group_size * k + d) * G_ITEMSIZE // LINE_BYTES)
        np.testing.assert_array_equal(stream[stream < acc_base],
                                      trace_cachelines(trace, n * k))


class TestStreamValidation:
    def test_linear_stream_requires_matching_indices(self):
        with pytest.raises(ValueError):
            list(linear_stream(5, 10, np.asarray([1, 2])))

    def test_grouped_stream_invalid_group(self):
        with pytest.raises(ValueError):
            list(grouped_stream(4, 2, 8, 0))

    def test_grouped_equals_advanced_for_full_group(self):
        n, k, d = 4, 2, 8
        grouped = list(grouped_stream(n, k, d, group_size=n))
        mono = list(advanced_stream(n * k, d))
        # One group: advanced stream plus one accumulate + read-out pass.
        assert grouped[: len(mono)] == mono
        assert len(grouped) > len(mono)

    def test_grouped_stream_handles_remainder(self):
        stream = list(grouped_stream(5, 2, 8, group_size=2))
        assert len(stream) > 0


class TestChunkedEmitters:
    """The numpy chunk emitters must reproduce the Python generators'
    access order exactly, element for element, at any chunk size --
    they are the same stream, packaged as arrays."""

    @staticmethod
    def _concat(chunks):
        parts = [np.asarray(c) for c in chunks]
        assert all(p.ndim == 1 for p in parts)
        return np.concatenate(parts) if parts else np.empty(0, np.int64)

    def _pin(self, gen, chunked, chunk_size):
        expected = np.fromiter(gen, dtype=np.int64)
        got = self._concat(chunked)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)
        return chunk_size

    @pytest.mark.parametrize("chunk_size", [1, 7, 97, 10_000])
    def test_linear_chunks_pin_generator_order(self, chunk_size):
        rng = np.random.default_rng(5)
        nk, d = 60, 128
        indices = rng.integers(0, d, size=nk)
        self._pin(
            linear_stream(nk, d, indices),
            linear_stream_chunks(nk, d, indices, chunk_size=chunk_size),
            chunk_size,
        )

    @pytest.mark.parametrize("chunk_size", [1, 311, 10_000])
    def test_baseline_chunks_pin_generator_order(self, chunk_size):
        nk, d = 48, 96
        self._pin(
            baseline_stream(nk, d),
            baseline_stream_chunks(nk, d, chunk_size=chunk_size),
            chunk_size,
        )

    @pytest.mark.parametrize("chunk_size", [97, 1024, 100_000])
    def test_advanced_chunks_pin_generator_order(self, chunk_size):
        nk, d = 96, 160
        self._pin(
            advanced_stream(nk, d),
            advanced_stream_chunks(nk, d, chunk_size=chunk_size),
            chunk_size,
        )

    @pytest.mark.parametrize("group_size", [1, 3, 5])
    def test_grouped_chunks_pin_generator_order(self, group_size):
        n, k, d = 5, 4, 32
        self._pin(
            grouped_stream(n, k, d, group_size),
            grouped_stream_chunks(n, k, d, group_size, chunk_size=777),
            777,
        )

    def test_chunk_sizes_respected(self):
        chunks = list(baseline_stream_chunks(16, 64, chunk_size=100))
        assert all(c.size == 100 for c in chunks[:-1])
        assert 0 < chunks[-1].size <= 100

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            list(baseline_stream_chunks(4, 16, chunk_size=0))

    def test_linear_chunks_require_matching_indices(self):
        with pytest.raises(ValueError):
            list(linear_stream_chunks(5, 10, np.asarray([1, 2])))

    def test_grouped_chunks_invalid_group(self):
        with pytest.raises(ValueError):
            list(grouped_stream_chunks(4, 2, 8, 0))


class TestStreamsThroughCostModel:
    SMALL = CostParameters(
        l2_bytes=4 * 1024, l2_assoc=4,
        l3_bytes=16 * 1024, l3_assoc=4,
        epc_bytes=128 * 1024,
    )

    def _cycles(self, stream, params=None):
        return CostModel(params or self.SMALL).charge_lines(stream).cycles

    def test_advanced_gains_on_baseline_as_d_grows(self):
        # Figure 10's shape: Baseline's O(nkd) vs Advanced's
        # O((nk+d) log^2) -- the cost ratio must fall with d (here at
        # nk = d, the paper's alpha*n = 1 regime); the paper's absolute
        # crossover at d ~ 1e5 is exercised by the Figure 10 benchmark.
        ratios = []
        for d in (256, 2048):
            adv = self._cycles(advanced_stream(d, d))
            base = self._cycles(baseline_stream(d, d))
            ratios.append(adv / base)
        assert ratios[1] < ratios[0] / 2

    def test_baseline_wins_at_tiny_d(self):
        # Figure 10 left edge: trivial models favour Baseline.
        nk, d = 512, 16
        adv = self._cycles(advanced_stream(nk, d))
        base = self._cycles(baseline_stream(nk, d))
        assert base < adv

    def test_grouping_has_interior_optimum_under_small_cache(self):
        # Figure 12's U-shape: an intermediate h beats both extremes
        # once the monolithic working set outgrows the cache/EPC and
        # tiny groups repeat the d-dependent sort too many times.
        params = CostParameters(
            l2_bytes=2 * 1024, l2_assoc=4,
            l3_bytes=8 * 1024, l3_assoc=4,
            epc_bytes=32 * 1024,
        )
        n, k, d = 64, 64, 512
        costs = {
            h: self._cycles(grouped_stream(n, k, d, h), params)
            for h in (1, 8, 64)
        }
        assert costs[8] < costs[1]
        assert costs[8] < costs[64]

    def test_chunked_and_generator_charge_identically(self):
        nk, d = 128, 256
        chunked = CostModel(self.SMALL).charge_chunks(
            advanced_stream_chunks(nk, d)
        )
        generated = CostModel(self.SMALL).charge_lines(
            advanced_stream(nk, d)
        )
        assert chunked == generated


def monolithic_advanced_stream(nk: int, d: int) -> np.ndarray:
    """The Advanced stream built whole: fill, client sort, merge, fold,
    compaction, read-out."""
    m = nk + d
    pos = np.arange(1, m, dtype=np.int64)
    fold = np.empty(2 * m, dtype=np.int64)
    fold[0] = 0
    fold[1:-1:2] = pos // 8
    fold[2:-1:2] = (pos - 1) // 8
    fold[-1] = (m - 1) // 8
    whole = lambda stages: np.concatenate([np.empty(0, np.int64), *stages])
    return np.concatenate([np.arange(m, dtype=np.int64) // 8,
                           (network_access_offsets(nk) + d) // 8,
                           whole(merge_stage_offsets(m)) // 8,
                           fold,
                           whole(compaction_stage_offsets(m)) // 8,
                           np.arange(d, dtype=np.int64) // 8])


class TestAdvancedStreamIsChunked:
    """The Advanced emitter streams its sort, merge and compaction one
    stage at a time: same accesses as the whole stream, memory bounded
    by the chunk size rather than the network."""

    @pytest.mark.parametrize("nk,d", [(1, 1), (5, 11), (96, 160), (300, 724)])
    @pytest.mark.parametrize("chunk_size", [97, 4096, 1 << 19])
    def test_equals_monolithic_stream(self, nk, d, chunk_size):
        got = np.concatenate(list(advanced_stream_chunks(
            nk, d, chunk_size=chunk_size)))
        np.testing.assert_array_equal(got, monolithic_advanced_stream(nk, d))

    def test_peak_memory_bounded_at_two_to_the_sixteen(self):
        import tracemalloc

        nk, d = 30_000, 35_536  # m = 2**16: 12.5M accesses
        expected = advanced_trace_length(nk, d)
        tracemalloc.start()
        try:
            total = 0
            for chunk in advanced_stream_chunks(nk, d):
                total += chunk.size
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == expected
        # Whole-stream emission would hold >= 100 MB of int64 lines;
        # chunks are 4 MB and a stage is at most 1.6 MB.
        assert peak < 24 * 2**20, peak
