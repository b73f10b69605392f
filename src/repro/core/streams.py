"""Structural cacheline address streams for the cost model.

Every *oblivious* aggregation algorithm touches memory in an order
determined by the input shape alone, so its address stream can be
generated without running the algorithm.  These emitters produce the
streams as int64 numpy chunks of cacheline indices, laid out by a
:class:`repro.sgx.memory.RegionLayout`-style packing (``g`` first, then
``g_star``, then any auxiliary buffer).
:meth:`repro.sgx.cost.CostModel.charge_chunks` charges them to
regenerate the paper's Figures 11 and 12, where cache and EPC effects
-- invisible to a Python interpreter -- decide the winners.  Each
stream equals the cacheline image of its production kernel's own trace
(pinned by ``tests/test_core_streams.py``).

All element sizes follow the paper: 8-byte gradient weights (u32 index
+ f32 value) in ``g``, 4-byte weights in ``g_star``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..oblivious.compaction import compaction_stage_offsets
from ..oblivious.sort import merge_stage_offsets, network_stage_offsets

G_ITEMSIZE = 8
G_STAR_ITEMSIZE = 4
LINE_BYTES = 64

_G_LINE_ELEMS = LINE_BYTES // G_ITEMSIZE          # 8 weights/line
_G_STAR_LINE_ELEMS = LINE_BYTES // G_STAR_ITEMSIZE  # 16 weights/line


def _region_lines(length_elems: int, line_elems: int) -> int:
    return (length_elems + line_elems - 1) // line_elems


#: Default accesses per emitted chunk; matches the cost model's
#: internal replay block size so chunks flow through unsplit.
DEFAULT_CHUNK_ACCESSES = 1 << 19


def _rechunk(segments: Iterator[np.ndarray], chunk_size: int) -> Iterator[np.ndarray]:
    """Re-slice a stream of int64 segments into ``chunk_size`` pieces.

    Yields views into the source segments where possible (a chunk that
    falls inside one segment is not copied); callers must treat the
    chunks as read-only.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    buf: list[np.ndarray] = []
    have = 0
    for seg in segments:
        while seg.size:
            take = min(seg.size, chunk_size - have)
            buf.append(seg[:take])
            have += take
            seg = seg[take:]
            if have == chunk_size:
                yield buf[0] if len(buf) == 1 else np.concatenate(buf)
                buf, have = [], 0
    if have:
        yield buf[0] if len(buf) == 1 else np.concatenate(buf)


def _linear_segments(nk: int, indices: np.ndarray, block: int) -> Iterator[np.ndarray]:
    g_lines = _region_lines(nk, _G_LINE_ELEMS)
    idx = np.asarray(indices, dtype=np.int64)
    for start in range(0, nk, block):
        stop = min(start + block, nk)
        out = np.empty((stop - start, 3), dtype=np.int64)
        out[:, 0] = np.arange(start, stop, dtype=np.int64) // _G_LINE_ELEMS
        target = g_lines + idx[start:stop] // _G_STAR_LINE_ELEMS
        out[:, 1] = target
        out[:, 2] = target
        yield out.reshape(-1)


def linear_stream_chunks(
    nk: int, d: int, indices: np.ndarray,
    chunk_size: int = DEFAULT_CHUNK_ACCESSES,
) -> Iterator[np.ndarray]:
    """Linear: scan of g interleaved with g*[index] touches.

    The only *data-dependent* stream here; ``indices`` is the real
    concatenated index sequence.  Chunks hold ``chunk_size`` accesses
    (the last one fewer).
    """
    if len(indices) != nk:
        raise ValueError("indices length must equal nk")
    block = max(1, chunk_size // 3)
    yield from _rechunk(_linear_segments(nk, indices, block), chunk_size)


def _baseline_segments(nk: int, d: int, block: int) -> Iterator[np.ndarray]:
    g_lines = _region_lines(nk, _G_LINE_ELEMS)
    gstar_lines = _region_lines(d, _G_STAR_LINE_ELEMS)
    # Per input weight: one g touch then (read, write) on every g* line.
    tail = np.repeat(g_lines + np.arange(gstar_lines, dtype=np.int64), 2)
    for start in range(0, nk, block):
        stop = min(start + block, nk)
        out = np.empty((stop - start, 1 + tail.size), dtype=np.int64)
        out[:, 0] = np.arange(start, stop, dtype=np.int64) // _G_LINE_ELEMS
        out[:, 1:] = tail
        yield out.reshape(-1)


def baseline_stream_chunks(
    nk: int, d: int, chunk_size: int = DEFAULT_CHUNK_ACCESSES
) -> Iterator[np.ndarray]:
    """Baseline: per input weight, one g touch then a read and a write
    of every g* cacheline, in chunks of ``chunk_size`` accesses."""
    gstar_lines = _region_lines(d, _G_STAR_LINE_ELEMS)
    block = max(1, chunk_size // (1 + 2 * gstar_lines))
    yield from _rechunk(_baseline_segments(nk, d, block), chunk_size)


def _advanced_segments(nk: int, d: int) -> Iterator[np.ndarray]:
    m = nk + d
    yield np.arange(m, dtype=np.int64) // _G_LINE_ELEMS
    # The client sort covers g[d:m); the merge and compaction all of g.
    for stage in network_stage_offsets(nk):
        yield (stage + d) // _G_LINE_ELEMS
    for stage in merge_stage_offsets(m):
        yield np.floor_divide(stage, _G_LINE_ELEMS, out=stage)
    # Folding: read 0, (read pos, write pos-1) pairs, final write.
    fold = np.empty(2 * m, dtype=np.int64)
    fold[0] = 0
    pos = np.arange(1, m, dtype=np.int64)
    fold[1:-1:2] = pos // _G_LINE_ELEMS
    fold[2:-1:2] = (pos - 1) // _G_LINE_ELEMS
    fold[-1] = (m - 1) // _G_LINE_ELEMS
    yield fold
    for stage in compaction_stage_offsets(m):
        yield np.floor_divide(stage, _G_LINE_ELEMS, out=stage)
    yield np.arange(d, dtype=np.int64) // _G_LINE_ELEMS


def advanced_stream_chunks(
    nk: int, d: int, chunk_size: int = DEFAULT_CHUNK_ACCESSES
) -> Iterator[np.ndarray]:
    """Advanced: fill + client sort + merge + folding + compaction +
    output scan, in chunks of ``chunk_size`` accesses."""
    yield from _rechunk(_advanced_segments(nk, d), chunk_size)


def _grouped_segments(n: int, k: int, d: int, group_size: int) -> Iterator[np.ndarray]:
    full_groups, rem = divmod(n, group_size)
    sizes = [group_size] * full_groups + ([rem] if rem else [])
    m_max = group_size * k + d
    acc_base = _region_lines(m_max, _G_LINE_ELEMS)
    acc_lines = _region_lines(d, _G_STAR_LINE_ELEMS)
    acc = acc_base + np.arange(acc_lines, dtype=np.int64)
    for h in sizes:
        yield from _advanced_segments(h * k, d)
        yield np.repeat(acc, 2)
    yield acc


def grouped_stream_chunks(
    n: int, k: int, d: int, group_size: int,
    chunk_size: int = DEFAULT_CHUNK_ACCESSES,
) -> Iterator[np.ndarray]:
    """Grouped Advanced (Section 5.3): per-group Advanced + carry pass.

    Groups reuse the same enclave working buffer (that is the point of
    the optimization), so each group's stream starts at line 0 again;
    the carry accumulator is a separate region after the buffer.
    Chunks hold ``chunk_size`` accesses (the last one fewer).
    """
    if group_size < 1:
        raise ValueError("group size must be positive")
    yield from _rechunk(_grouped_segments(n, k, d, group_size), chunk_size)
