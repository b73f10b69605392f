"""Batcher's bitonic sorting network (Section 5.2's oblivious sort).

A sorting network compares and swaps positions in a schedule fixed by
the input *length* alone, so applying it with the register-oblivious
:func:`repro.oblivious.primitives.o_swap` at every comparator yields a
fully oblivious sort: the access trace is the same for every input of a
given length (the core of the paper's Proposition 5.2 proof).

Two entry points share one stage-vectorized network:

* :func:`bitonic_sort_traced_columns` -- the oblivious kernel over
  numpy key/payload columns: stage-vectorized compare-exchanges, and
  with a trace every comparator's four accesses (read i, read j, write
  i, write j) appended one network *stage* at a time (the comparators
  within a stage touch disjoint pairs, so batching preserves the exact
  access sequence of the comparator-at-a-time formulation that
  ``tests/oracles.py`` keeps);
* :func:`bitonic_sort_numpy` -- the same network without a trace.

All require no padding from callers: non-power-of-two inputs raise,
because the aggregation algorithms pad with dummy weights themselves
(the padding *is* part of the algorithm in the paper).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .. import obs


def is_power_of_two(n: int) -> bool:
    """True when n is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (>= 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def bitonic_stages(n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Batcher's bitonic comparator schedule, one network stage per item.

    ``n`` must be a power of two.  The schedule depends only on ``n``;
    this data-independence is what makes the sort oblivious.

    Yields ``(i_lo, i_hi, ascending)`` numpy arrays holding every
    comparator of one ``(k, j)`` stage, ordered by increasing ``i_lo``
    -- the order a comparator-at-a-time loop visits them.
    Comparators within a stage touch disjoint position pairs, so a
    stage can be applied (and its accesses recorded) as one batch.
    """
    if not is_power_of_two(n):
        raise ValueError(f"bitonic network needs a power-of-two length, got {n}")
    idx = np.arange(n)
    k = 2
    while k <= n:
        j = k // 2
        while j >= 1:
            partner = idx ^ j
            lower = idx < partner
            i_lo = idx[lower]
            i_hi = partner[lower]
            ascending = (i_lo & k) == 0
            yield i_lo, i_hi, ascending
            j //= 2
        k *= 2


def _comparator_offsets(i_lo: np.ndarray, i_hi: np.ndarray) -> np.ndarray:
    """Flattened ``i, j, i, j`` offset stream of one stage's comparators."""
    offs = np.empty((len(i_lo), 4), dtype=np.int64)
    offs[:, 0] = i_lo
    offs[:, 1] = i_hi
    offs[:, 2] = i_lo
    offs[:, 3] = i_hi
    return offs.reshape(-1)


#: Per-comparator op pattern: read i, read j, write i, write j.
_RRWW = np.array([0, 0, 1, 1], dtype=np.uint8)


def _record_stage(trace, region: str, i_lo: np.ndarray, i_hi: np.ndarray) -> None:
    trace.record_batch(
        region, _comparator_offsets(i_lo, i_hi), np.tile(_RRWW, len(i_lo))
    )


def odd_even_merge_network(n: int) -> Iterator[tuple[int, int, bool]]:
    """Batcher's odd-even mergesort comparator schedule.

    The second classic O(n log^2 n) sorting network; slightly fewer
    comparators than the bitonic network and every comparator is
    ascending.  Offered as an alternative backend for the oblivious
    sort (see the sorting-network ablation benchmark); ``n`` must be a
    power of two.
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
    """Batched oblivious sort over numpy columns, recording into ``trace``.

    Sorts ``keys`` (and permutes each payload identically) with
    stage-vectorized compare-exchanges while appending each stage's
    ``read i, read j, write i, write j`` comparator accesses to
    ``region`` as one batch.  Because comparators within a stage are
    disjoint, both the data result and the recorded access sequence are
    identical to the comparator-at-a-time formulation;
    ``trace=None`` degrades to a pure :func:`bitonic_sort_numpy`.
    """
    n = len(keys)
    for p in payloads:
        if len(p) != n:
            raise ValueError("payload length mismatch")
    if n == 1:
        return
    with obs.span("kernel.bitonic_sort", n=n, traced=trace is not None):
        for i_lo, i_hi, ascending in bitonic_stages(n):
            if trace is not None:
                _record_stage(trace, region, i_lo, i_hi)
            a = keys[i_lo]
            b = keys[i_hi]
            swap = (a > b) == ascending
            sw_lo = i_lo[swap]
            sw_hi = i_hi[swap]
            keys[sw_lo], keys[sw_hi] = keys[sw_hi].copy(), keys[sw_lo].copy()
            for p in payloads:
                p[sw_lo], p[sw_hi] = p[sw_hi].copy(), p[sw_lo].copy()


def bitonic_sort_numpy(keys: np.ndarray, *payloads: np.ndarray) -> None:
    """Apply the same network to numpy arrays in place, stage-vectorized.

    ``keys`` drives the comparisons; each payload array is permuted
    identically.  All arrays must share a power-of-two length.
    """
    bitonic_sort_traced_columns(None, "", keys, *payloads)


def network_access_offsets(n: int) -> np.ndarray:
    """Element offsets touched by the traced sort, in order.

    Each comparator touches offsets ``i, j, i, j`` (two reads, two
    writes).  Because the schedule is length-determined, this stream is
    exactly the adversary-visible access pattern of the oblivious sort
    and feeds the cycle cost model.
    """
    chunks = [
        _comparator_offsets(i_lo, i_hi) for i_lo, i_hi, _ in bitonic_stages(n)
    ]
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)
