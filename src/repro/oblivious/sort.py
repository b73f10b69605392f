"""Batcher's bitonic sorting network (Section 5.2's oblivious sort).

A sorting network compares and swaps positions in a schedule fixed by
the input *length* alone, so applying it with the register-oblivious
:func:`repro.oblivious.primitives.o_swap` at every comparator yields a
fully oblivious sort: the access trace is the same for every input of a
given length (the core of the paper's Proposition 5.2 proof).

Stage ``(k, j)`` of the network pairs ``i`` with ``i + j`` for every
``i`` whose bit ``j`` is clear; viewed as ``(n // 2j, 2, j)``, a column
holds those pairs at ``[:, 0, :]`` / ``[:, 1, :]`` and each row of ``2j``
elements shares one direction.  Everything here is built from those
strides:

* :func:`bitonic_sort_traced_columns` -- the oblivious kernel over
  numpy key/payload columns: each stage is one masked ``np.where`` swap
  through the views, and with a trace every comparator's four accesses
  (read i, read j, write i, write j) are appended one network *stage*
  at a time, straight from the strides (the comparators within a stage
  touch disjoint pairs, so batching preserves the exact access
  sequence of the comparator-at-a-time formulation that
  ``tests/oracles.py`` keeps);
* :func:`bitonic_sort_numpy` -- the same network without a trace;
* :func:`network_stage_offsets` / :func:`network_access_offsets` -- the
  recorded offset stream, per stage or whole, for the cost model.

All require no padding from callers: non-power-of-two inputs raise,
because the aggregation algorithms pad with dummy weights themselves
(the padding *is* part of the algorithm in the paper).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .. import obs
from ..sgx.memory import OP_READ, OP_WRITE, tile_strided


def is_power_of_two(n: int) -> bool:
    """True when n is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (>= 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def bitonic_stages(n: int) -> Iterator[tuple[int, int]]:
    """Batcher's bitonic schedule as its ``(k, j)`` stages, in order.

    ``n`` must be a power of two.  The schedule depends only on ``n``;
    this data-independence is what makes the sort oblivious.  Stage
    ``(k, j)`` compares every ``i`` with bit ``j`` clear against
    ``i + j``, ascending iff bit ``k`` of ``i`` is clear.  Viewing a
    column as ``(n // 2j, 2, j)`` puts those pairs at ``[:, 0, :]`` and
    ``[:, 1, :]`` in increasing-``i`` order, with the direction fixed
    per row of ``2j`` elements.
    """
    if not is_power_of_two(n):
        raise ValueError(f"bitonic network needs a power-of-two length, got {n}")
    k = 2
    while k <= n:
        j = k // 2
        while j >= 1:
            yield k, j
            j //= 2
        k *= 2


#: Per-comparator op pattern: read i, read j, write i, write j.
_RRWW = (OP_READ, OP_READ, OP_WRITE, OP_WRITE)


def _stage_pattern(n: int, j: int):
    """Stage ``j``'s comparator offsets as one ``i, i + j, i, i + j``
    period and its nested ``(count, stride)`` repeats: ``j`` consecutive
    ``i`` per row, one row every ``2j`` elements (see
    :func:`repro.sgx.memory.tile_strided`)."""
    return (0, j, 0, j), ((j, 1), (n // (2 * j), 2 * j))


#: Stages with ``j < _LANE_SPLIT`` and at least ``_LANE_MIN_ROWS`` rows
#: run one lane ``t < j`` at a time, so every ufunc call walks a long
#: 1-D strided view instead of ``n // 2j`` rows of ``j`` elements; with
#: fewer rows the extra per-lane calls cost more than they save.
_LANE_SPLIT = 8
_LANE_MIN_ROWS = 256


def _compare_exchange(columns: tuple[np.ndarray, ...], k: int, j: int) -> None:
    """Apply stage ``(k, j)`` to every column in place through views."""
    views = [c.reshape(-1, 2, j) for c in columns]
    block_start = np.arange(0, len(columns[0]), 2 * j)
    ascending = ((block_start & k) == 0)[:, None]
    lanes = (
        [slice(t, t + 1) for t in range(j)]
        if j < _LANE_SPLIT and len(block_start) >= _LANE_MIN_ROWS
        else [slice(None)]
    )
    for lane in lanes:
        swap = (views[0][:, 0, lane] > views[0][:, 1, lane]) == ascending
        for v in views:
            lo = v[:, 0, lane]
            hi = v[:, 1, lane]
            lo[...], hi[...] = np.where(swap, hi, lo), np.where(swap, lo, hi)


def odd_even_merge_network(n: int) -> Iterator[tuple[int, int, bool]]:
    """Batcher's odd-even mergesort comparator schedule.

    The second classic O(n log^2 n) sorting network; slightly fewer
    comparators than the bitonic network and every comparator is
    ascending.  Only the sorting-network ablation benchmark uses it, to
    count comparators against the bitonic network; the oblivious sort
    always runs the bitonic network.  ``n`` must be a power of two.
    """
    if not is_power_of_two(n):
        raise ValueError(f"odd-even merge network needs a power of two, got {n}")
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(k):
                    left = i + j
                    right = i + j + k
                    if left // (2 * p) == right // (2 * p):
                        yield left, right, True
            k //= 2
        p *= 2


def comparator_count(n: int) -> int:
    """Number of comparators in the length-n network: n/2 * s(s+1)/2 stages."""
    if not is_power_of_two(n):
        raise ValueError("power-of-two length required")
    stages = n.bit_length() - 1
    return (n // 2) * stages * (stages + 1) // 2


def bitonic_sort_traced_columns(
    trace, region: str, keys: np.ndarray, *payloads: np.ndarray
) -> None:
    """Batched oblivious sort over 1-D numpy columns, recording into ``trace``.

    Sorts ``keys`` (and permutes each payload identically) one network
    stage at a time through ``(n // 2j, 2, j)`` views of every column,
    with no index arrays, gathers or scatters.  With a trace, each
    stage's ``read i, read j, write i, write j`` comparator accesses are
    written straight into the trace columns from the same strides
    (:meth:`Trace.record_periodic`), after one up-front
    :meth:`Trace.reserve` for the whole network.  Because comparators
    within a stage are disjoint, both the data result and the recorded
    access sequence are identical to the comparator-at-a-time
    formulation; ``trace=None`` degrades to a pure
    :func:`bitonic_sort_numpy`.
    """
    n = len(keys)
    for p in payloads:
        if len(p) != n:
            raise ValueError("payload length mismatch")
    if not is_power_of_two(n):
        raise ValueError(f"bitonic network needs a power-of-two length, got {n}")
    if n == 1:
        return
    columns = (keys,) + payloads
    with obs.span("kernel.bitonic_sort", n=n, traced=trace is not None):
        if trace is not None:
            trace.reserve(4 * comparator_count(n))
        for k, j in bitonic_stages(n):
            if trace is not None:
                offsets, repeats = _stage_pattern(n, j)
                trace.record_periodic(region, offsets, _RRWW, repeats)
            _compare_exchange(columns, k, j)


def bitonic_sort_numpy(keys: np.ndarray, *payloads: np.ndarray) -> None:
    """Apply the same network to numpy arrays in place, stage-vectorized.

    ``keys`` drives the comparisons; each payload array is permuted
    identically.  All arrays must share a power-of-two length.
    """
    bitonic_sort_traced_columns(None, "", keys, *payloads)


def network_stage_offsets(n: int) -> Iterator[np.ndarray]:
    """The traced sort's element offsets, one stage (``2n``) at a time.

    Each comparator touches offsets ``i, j, i, j`` (two reads, two
    writes), built from the same strides the sort records.  Lets the
    cost model stream the network without materializing all of it.
    """
    for _, j in bitonic_stages(n):
        out = np.empty(2 * n, dtype=np.int64)
        tile_strided(*_stage_pattern(n, j), out)
        yield out


def network_access_offsets(n: int) -> np.ndarray:
    """Element offsets touched by the traced sort, in order.

    Because the schedule is length-determined, this stream is exactly
    the adversary-visible access pattern of the oblivious sort.
    """
    out = np.empty(4 * comparator_count(n), dtype=np.int64)
    for s, (_, j) in enumerate(bitonic_stages(n)):
        tile_strided(*_stage_pattern(n, j), out[2 * n * s : 2 * n * (s + 1)])
    return out
