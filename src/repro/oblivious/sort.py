"""Batcher's bitonic sorting network (Section 5.2's oblivious sort).

A sorting network compares and swaps positions in a schedule fixed by
the input *length* alone, so applying it with the register-oblivious
:func:`repro.oblivious.primitives.o_swap` at every comparator yields a
fully oblivious sort: the access trace is the same for every input of a
given length (the core of the paper's Proposition 5.2 proof).

The network runs at any length ``n``, in its all-ascending form: every
comparator puts the smaller key at the lower position.  Merge ``k``
(``k = 2, 4, ...`` up to the power of two at or above ``n``) opens with
a *mirror* stage that pairs ``i`` with ``block + k - 1 - (i - block)``
inside each block of ``k``; its later stages pair ``i`` with ``i + j``
for every ``i`` whose bit ``j`` is clear.  This is the power-of-two
network over ``n`` real elements and a virtual ``+inf`` tail: a tail
element never moves, so every comparator whose upper end is ``>= n`` is
dropped and nothing is padded.  The schedule still depends on ``n``
alone.

Every stage splits a column into rows of ``2j`` elements.  Full rows
are one ``(rows, 2, j)`` reshape view whose halves ``[:, 0]`` and
``[:, 1]`` hold the pairs (``[:, 1, ::-1]`` for a mirror stage); the
one partial row at the end is a short contiguous slice (reversed for a
mirror stage).  Everything here is built from those strides:

* :func:`bitonic_sort_traced_columns` -- the oblivious kernel over
  numpy key/payload columns: each stage is one ``min``/``max`` on the
  keys and one masked ``np.where`` swap per payload through the views,
  and with a trace every comparator's four accesses
  (read i, read j, write i, write j) are written one network *stage* at
  a time, straight from the strides (the comparators within a stage
  touch disjoint pairs, so batching preserves the exact access
  sequence of the comparator-at-a-time formulation that
  ``tests/oracles.py`` keeps);
* :func:`bitonic_sort_numpy` -- the same network without a trace;
* :func:`bitonic_merge_traced_columns` -- the half-cleaner stages
  :func:`merge_stages` alone, which sort a column that falls, then
  rises (Advanced aggregation merges its client run with the dummies
  this way);
* :func:`network_stage_offsets` / :func:`merge_stage_offsets` /
  :func:`network_access_offsets` -- the recorded offset stream, per
  stage or whole, for the cost model.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .. import obs
from ..sgx.memory import OP_READ, OP_WRITE, tile_strided


def bitonic_stages(n: int) -> Iterator[tuple[int, bool]]:
    """The network's stages as ``(j, mirror)`` pairs, in order.

    Each merge ``k`` yields ``(k // 2, True)`` -- its mirror stage --
    then ``(j, False)`` for ``j = k // 4, ..., 1``.  Merges run while
    ``k // 2 < n``; lengths 0 and 1 have no stages.
    """
    if n < 0:
        raise ValueError(f"sort length must be non-negative, got {n}")
    k = 2
    while k // 2 < n:
        yield k // 2, True
        j = k // 4
        while j >= 1:
            yield j, False
            j //= 2
        k *= 2


def merge_stages(n: int) -> Iterator[tuple[int, bool]]:
    """The stages that sort a V-shaped column, as ``(j, False)`` pairs.

    A column that falls, then rises, then runs into the virtual
    ``+inf`` tail is a bitonic sequence of length ``P``, the power of
    two at or above ``n``; the half-cleaners ``j = P/2, ..., 1`` sort it.
    These are the last merge of the full network with its mirror stage
    replaced by the plain ``j = P/2`` stage.
    """
    j = (1 << max(n - 1, 0).bit_length()) // 2
    while j >= 1:
        yield j, False
        j //= 2


def _stage_rows(n: int, j: int) -> tuple[int, int]:
    """``(full, part)``: the stage's full rows of ``2j`` elements and the
    comparators of its partial last row (``0`` when it has none)."""
    full, tail = divmod(n, 2 * j)
    return full, max(0, tail - j)


def _comparators(n: int, stages: Iterator[tuple[int, bool]]) -> int:
    total = 0
    for j, _ in stages:
        full, part = _stage_rows(n, j)
        total += full * j + part
    return total


def comparator_count(n: int) -> int:
    """Number of comparators in the length-``n`` network (any ``n >= 0``)."""
    return _comparators(n, bitonic_stages(n))


def merge_comparator_count(n: int) -> int:
    """Number of comparators in :func:`merge_stages` at length ``n``."""
    return _comparators(n, merge_stages(n))


#: Per-comparator op pattern: read i, read j, write i, write j.
_RRWW = (OP_READ, OP_READ, OP_WRITE, OP_WRITE)

#: Per-slot stride of a mirror stage's ``i, partner, i, partner`` period:
#: ``i`` climbs while its partner descends.
_MIRROR_STRIDE = (1, -1, 1, -1)


def _stage_offsets(n: int, j: int, mirror: bool, out: np.ndarray) -> int:
    """Write stage ``(j, mirror)``'s ``i, partner, i, partner`` offsets at
    the start of ``out`` and return how many were written.

    The full rows are one tile; the partial row, if any, is a second
    short tile of its ``part`` comparators: the first ones of a plain
    row, the last ones of a mirror row (``i`` from ``end + j - part``
    up, its partner from ``n - 1`` down).
    """
    full, part = _stage_rows(n, j)
    width = 2 * j
    if mirror:
        period, stride = (0, width - 1, 0, width - 1), _MIRROR_STRIDE
    else:
        period, stride = (0, j, 0, j), 1
    body = 4 * j * full
    tile_strided(period, ((j, stride), (full, width)), out[:body])
    if part:
        end = full * width
        lo = end + j - part if mirror else end
        hi = n - 1 if mirror else end + j
        tile_strided((lo, hi, lo, hi), ((part, stride),),
                     out[body : body + 4 * part])
    return body + 4 * part


#: Stages with ``j < _LANE_SPLIT`` and at least ``_LANE_MIN_ROWS`` rows
#: run one lane ``t < j`` at a time, so every ufunc call walks a long
#: 1-D strided view instead of ``rows`` rows of ``j`` elements; with
#: fewer rows the extra per-lane calls cost more than they save.
_LANE_SPLIT = 8
_LANE_MIN_ROWS = 256


def _swap(pairs: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Order every ``(lo, hi)`` view pair ascending by the first pair's
    keys, permuting the other pairs identically.

    The keys themselves become ``(min, max)``, which is what the
    conditional swap leaves (ties included) without a masked select.
    """
    (key_lo, key_hi), *rest = pairs
    if rest:
        swap = key_lo > key_hi
        for lo, hi in rest:
            lo[...], hi[...] = np.where(swap, hi, lo), np.where(swap, lo, hi)
    low = np.minimum(key_lo, key_hi)
    np.maximum(key_lo, key_hi, out=key_hi)
    key_lo[...] = low


def _compare_exchange(columns: tuple[np.ndarray, ...], j: int, mirror: bool) -> None:
    """Apply stage ``(j, mirror)`` to every column in place through views."""
    n = len(columns[0])
    full, part = _stage_rows(n, j)
    end = full * 2 * j
    if full:
        views = [c[:end].reshape(full, 2, j) for c in columns]
        halves = [(v[:, 0], v[:, 1, ::-1] if mirror else v[:, 1]) for v in views]
        lanes = (
            [slice(t, t + 1) for t in range(j)]
            if j < _LANE_SPLIT and full >= _LANE_MIN_ROWS
            else [slice(None)]
        )
        for lane in lanes:
            _swap([(lo[:, lane], hi[:, lane]) for lo, hi in halves])
    if part:
        lo = slice(end + j - part, end + j) if mirror else slice(end, end + part)
        hi = slice(n - 1, end + j - 1, -1) if mirror else slice(end + j, n)
        _swap([(c[lo], c[hi]) for c in columns])


def _run_stages(
    span: str, stages, trace, region: str, base: int,
    keys: np.ndarray, payloads: tuple[np.ndarray, ...],
) -> None:
    """Apply the ``stages(n)`` schedule to the columns in place, recording
    each comparator's ``read i, read j, write i, write j`` at offsets
    shifted by ``base`` when ``trace`` is given."""
    n = len(keys)
    for p in payloads:
        if len(p) != n:
            raise ValueError("payload length mismatch")
    if n <= 1:
        return
    columns = (keys,) + payloads
    with obs.span(span, n=n, traced=trace is not None):
        offsets = None
        if trace is not None:
            offsets = trace.record_open(region, _RRWW,
                                        4 * _comparators(n, stages(n)),
                                        max_offset=base + n - 1)
            pos = 0
        for j, mirror in stages(n):
            if offsets is not None:
                pos += _stage_offsets(n, j, mirror, offsets[pos:])
            _compare_exchange(columns, j, mirror)
        if base and offsets is not None:
            offsets += base


def bitonic_sort_traced_columns(
    trace, region: str, keys: np.ndarray, *payloads: np.ndarray,
    base: int = 0,
) -> None:
    """Batched oblivious sort over 1-D numpy columns, recording into ``trace``.

    Sorts ``keys`` (and permutes each payload identically) one network
    stage at a time through row views of every column, with no index
    arrays, gathers or scatters.  With a trace, the whole network's
    accesses are opened at once (:meth:`Trace.record_open` writes the
    region and the repeating ``read, read, write, write`` ops), and each
    stage tiles its offsets into place from the same strides, with a
    per-slot stride of ``(1, -1, 1, -1)`` on a mirror stage.  Because
    comparators within a stage are disjoint, both the data result and
    the recorded access sequence are identical to the
    comparator-at-a-time formulation; ``trace=None`` degrades to a pure
    :func:`bitonic_sort_numpy`.  The columns may be a slice of a
    larger region that starts at element ``base``: the trace then
    records offsets ``base + i``.
    """
    _run_stages("kernel.bitonic_sort", bitonic_stages, trace, region, base,
                keys, payloads)


def bitonic_merge_traced_columns(
    trace, region: str, keys: np.ndarray, *payloads: np.ndarray
) -> None:
    """Sort V-shaped ``keys`` (non-increasing, then non-decreasing) in
    place with the :func:`merge_stages` half-cleaners, recording like
    :func:`bitonic_sort_traced_columns`.

    The schedule depends on ``len(keys)`` alone; only its correctness
    needs the V shape.
    """
    _run_stages("kernel.bitonic_merge", merge_stages, trace, region, 0,
                keys, payloads)


def bitonic_sort_numpy(keys: np.ndarray, *payloads: np.ndarray) -> None:
    """Apply the same network to numpy arrays in place, stage-vectorized.

    ``keys`` drives the comparisons; each payload array is permuted
    identically.  All arrays must share one length.
    """
    bitonic_sort_traced_columns(None, "", keys, *payloads)


def _stages_offsets(n: int, stages) -> Iterator[np.ndarray]:
    for j, mirror in stages:
        full, part = _stage_rows(n, j)
        out = np.empty(4 * (full * j + part), dtype=np.int64)
        _stage_offsets(n, j, mirror, out)
        yield out


def network_stage_offsets(n: int) -> Iterator[np.ndarray]:
    """The traced sort's element offsets, one stage at a time.

    Each comparator touches offsets ``i, j, i, j`` (two reads, two
    writes), built by the same stage writer the sort records with.
    Lets the cost model stream the network without materializing all
    of it.
    """
    return _stages_offsets(n, bitonic_stages(n))


def merge_stage_offsets(n: int) -> Iterator[np.ndarray]:
    """:func:`network_stage_offsets` of the traced merge."""
    return _stages_offsets(n, merge_stages(n))


def network_access_offsets(n: int) -> np.ndarray:
    """Element offsets touched by the traced sort, in order.

    Because the schedule is length-determined, this stream is exactly
    the adversary-visible access pattern of the oblivious sort.
    """
    out = np.empty(4 * comparator_count(n), dtype=np.int64)
    pos = 0
    for j, mirror in bitonic_stages(n):
        pos += _stage_offsets(n, j, mirror, out[pos:])
    return out
