"""OLIVE's server-side aggregation algorithms (Sections 3.3 and 5).

Every aggregator is one kernel ``aggregate_<name>(updates, d, *,
trace=None)``.  With ``trace=None`` it only computes; given a
:class:`repro.sgx.memory.Trace` the same body also records the exact
adversary-visible access pattern against the trace regions (used by
the security analysis, the attack evaluation, and the obliviousness
property tests).  The wall-clock benchmarks therefore time the very
code whose access pattern the obliviousness tests check.

Recording is *batched*: kernels compute on numpy columns and append
whole access blocks to the trace (the columnar engine of
:mod:`repro.sgx.memory`), producing byte-for-byte the access sequence
of the original element-at-a-time formulation -- the trace-equivalence
regression tests pin this against the reference recorders in
``tests/oracles.py``.

Algorithms:

=============  =========================  ================================
name           paper                      complexity (time / space)
=============  =========================  ================================
``linear``     Alg. 5, "Linear"           O(nk) / O(m)
``baseline``   Alg. 3, "Baseline"         O(nk d / c) / O(m)
``advanced``   Alg. 4, "Advanced"         O(nk log^2 nk + m log m) / O(m)
``path_oram``  Sec. 5, ORAM baseline      O(m log d) ORAM accesses
=============  =========================  ================================

with ``m = nk + d``.  ``advanced`` sorts only the nk client entries,
merges them with the d dummies (already in index order) and compacts
the fold's survivors to the front where the paper runs a second sort
of all m; with unique ``(index, input position)`` keys its output
equals the paper's two-sort instantiation bit for bit.

``linear`` is fully oblivious for dense gradients (Prop. 3.1) but leaks
every sparse index (Prop. 3.2); ``baseline`` is fully oblivious at
cacheline granularity (Prop. 5.1); ``advanced`` is fully oblivious at
word granularity (Prop. 5.2).

Region naming convention: the concatenated input gradients live in
region ``"g"`` (one 8-byte cell per ``(index, value)`` weight) and the
aggregation buffer in region ``"g_star"`` (4-byte weights, c = 16 per
64-byte cacheline, matching the paper's Section 5.1 arithmetic).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..fl.client import LocalUpdate
from ..fl.sparsify import densify
from ..oblivious.compaction import compact_traced_columns, compaction_access_count
from ..oblivious.sort import (
    bitonic_merge_traced_columns,
    bitonic_sort_traced_columns,
    comparator_count,
    merge_comparator_count,
)
from ..oram.path_oram import PathORAM
from ..sgx.memory import OP_READ, OP_WRITE, Trace

#: Dummy index written by oblivious folding; larger than any model index.
M0 = (1 << 31) - 1

#: Weights per 64-byte cacheline in the aggregation buffer (4-byte weights).
WEIGHTS_PER_CACHELINE = 16

#: Sweep targets per Baseline block: bounds the (inputs x lines) matrix.
BASELINE_BLOCK_CELLS = 1 << 16

G_REGION = "g"
G_STAR_REGION = "g_star"


def _kernel_span(name: str, traced_name: str | None = None):
    """Wrap an aggregation kernel in a telemetry span.

    An untraced call opens ``name``; a traced one opens ``traced_name``
    (default ``name + "_traced"``) and records the number of accesses
    the call appended to the trace.  With telemetry disabled the
    wrapper is one ``enabled()`` check per kernel *call* (never per
    element), preserving the no-op fast path.
    """
    traced_name = traced_name or f"{name}_traced"

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(updates, d, *, trace=None, **kwargs):
            if not obs.enabled():
                return fn(updates, d, trace=trace, **kwargs)
            before = len(trace) if trace is not None else 0
            span_name = name if trace is None else traced_name
            with obs.span(span_name, n_updates=len(updates), d=d) as sp:
                out = fn(updates, d, trace=trace, **kwargs)
                if trace is not None:
                    sp.set(trace_accesses=len(trace) - before)
                return out

        return wrapper

    return deco


def _concat_updates(
    updates: Sequence[LocalUpdate],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate client updates into flat index/value arrays."""
    if not updates:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    idx = np.concatenate([u.indices for u in updates]).astype(np.int64)
    val = np.concatenate([u.values for u in updates]).astype(np.float64)
    return idx, val


def _validate(indices: np.ndarray, d: int) -> None:
    if len(indices) and (indices.min() < 0 or indices.max() >= d):
        raise ValueError("gradient index out of model range")


# ----------------------------------------------------------------------
# Linear (Algorithm 5) -- not oblivious for sparse input
# ----------------------------------------------------------------------


@_kernel_span("kernel.linear")
def aggregate_linear(
    updates: Sequence[LocalUpdate], d: int, *, trace: Trace | None = None
) -> np.ndarray:
    """Linear aggregation: plain scatter-add.

    The scan of ``g`` is fixed-order, but every input weight triggers a
    read+write of ``g_star[index]`` -- the data-dependent accesses of
    Proposition 3.2 that the attack of Section 4 consumes.  Recorded as
    one batched ``(g read, g_star read, g_star write)`` triple per
    input weight.
    """
    idx, val = _concat_updates(updates)
    _validate(idx, d)
    nk = len(idx)
    if trace is not None and nk:
        g_id = trace.region_id(G_REGION)
        gstar_id = trace.region_id(G_STAR_REGION)
        offs = np.empty((nk, 3), dtype=np.int64)
        offs[:, 0] = np.arange(nk)
        offs[:, 1] = idx
        offs[:, 2] = idx
        rids = np.tile(
            np.array([g_id, gstar_id, gstar_id], dtype=np.uint16), nk
        )
        ops = np.tile(
            np.array([OP_READ, OP_READ, OP_WRITE], dtype=np.uint8), nk
        )
        trace.record_columns(rids, offs.reshape(-1), ops)
    return densify(idx, val, d)


# ----------------------------------------------------------------------
# Baseline (Algorithm 3) -- cacheline-level fully oblivious
# ----------------------------------------------------------------------


def _baseline_targets(
    idx: np.ndarray, d: int, cacheline_weights: int
) -> np.ndarray:
    """Per-input sweep targets: one touched weight per cacheline.

    Row ``p`` holds, for input weight ``p``, the ``g_star`` offsets the
    sweep touches -- the position congruent to ``idx[p] mod c`` in each
    line, with the final partial line clamped to ``d - 1`` so every
    input sweeps the same lines.  Each row hits its own index exactly
    once: only the final line clamps, and an index in the final line is
    reached there unclamped.
    """
    n_lines = (d + cacheline_weights - 1) // cacheline_weights
    lines = np.arange(n_lines, dtype=np.int64) * cacheline_weights
    return np.minimum(lines[None, :] + (idx % cacheline_weights)[:, None], d - 1)


@_kernel_span("kernel.baseline")
def aggregate_baseline(
    updates: Sequence[LocalUpdate], d: int, *,
    trace: Trace | None = None,
    cacheline_weights: int = WEIGHTS_PER_CACHELINE,
) -> np.ndarray:
    """Baseline aggregation (Algorithm 3).

    For every input weight the whole aggregation buffer is swept, one
    touched weight per cacheline (the position congruent to the secret
    index modulo c); the true update is merged in registers via
    ``o_mov``.  Word-level addresses depend on ``index mod c`` only,
    so the cacheline-level trace is input-independent (Prop. 5.1).

    Inputs are processed in blocks of about
    :data:`BASELINE_BLOCK_CELLS` sweep targets.  Each block's targets
    are computed once; with a trace they are recorded as each input's
    ``g`` read followed by its interleaved read/write sweep of
    ``g_star``, and the sweep itself is one scatter-add over the same
    targets that adds the value at the hit and zero elsewhere -- the
    Theta(nk * d / c) read-modify-writes of the algorithm.
    """
    idx, val = _concat_updates(updates)
    _validate(idx, d)
    nk = len(idx)
    g_star = np.zeros(d)
    if nk == 0:
        return g_star
    n_lines = (d + cacheline_weights - 1) // cacheline_weights
    width = 1 + 2 * n_lines
    if trace is not None:
        g_id = trace.region_id(G_REGION)
        gstar_id = trace.region_id(G_STAR_REGION)
        # Per input weight: (g, pos, read) then per line
        # (g_star, target, read), (g_star, target, write).
        rids_row = np.full(width, gstar_id, dtype=np.uint16)
        rids_row[0] = g_id
        ops_row = np.empty(width, dtype=np.uint8)
        ops_row[0] = OP_READ
        ops_row[1::2] = OP_READ
        ops_row[2::2] = OP_WRITE
    block = max(1, BASELINE_BLOCK_CELLS // n_lines)
    for start in range(0, nk, block):
        idx_blk = idx[start:start + block]
        val_blk = val[start:start + block]
        targets = _baseline_targets(idx_blk, d, cacheline_weights)
        if trace is not None:
            rows = len(idx_blk)
            offs = np.empty((rows, width), dtype=np.int64)
            offs[:, 0] = np.arange(start, start + rows)
            offs[:, 1::2] = targets
            offs[:, 2::2] = targets
            trace.record_columns(
                np.tile(rids_row, rows), offs.reshape(-1),
                np.tile(ops_row, rows),
            )
        np.add.at(
            g_star, targets.ravel(),
            ((targets == idx_blk[:, None]) * val_blk[:, None]).ravel(),
        )
    return g_star


# ----------------------------------------------------------------------
# Advanced (Algorithm 4) -- fully oblivious
# ----------------------------------------------------------------------


def _fold_sorted(idx: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized oblivious-folding semantics on an index-sorted array.

    The last element of every equal-index run keeps ``(index, run
    sum)``; every other position becomes ``(M0, 0)``.  Each run is
    summed in order from zero, as Algorithm 4's carry adds it, so a
    run's sum never depends on the runs before it.
    """
    m = len(idx)
    if m == 0:
        return idx.copy(), val.copy()
    last = np.empty(m, dtype=bool)
    last[:-1] = idx[:-1] != idx[1:]
    last[-1] = True
    run_id = np.empty(m, dtype=np.int64)
    run_id[0] = 0
    np.cumsum(last[:-1], out=run_id[1:])
    out_idx = np.full(m, M0, dtype=np.int64)
    out_val = np.zeros(m)
    out_idx[last] = idx[last]
    out_val[last] = np.bincount(run_id, weights=val)
    return out_idx, out_val


def advanced_trace_length(nk: int, d: int) -> int:
    """Accesses one traced :func:`aggregate_advanced` call records:
    fill, client sort, merge, fold, compaction and read-out."""
    m = nk + d
    return (m + 4 * comparator_count(nk) + 4 * merge_comparator_count(m)
            + 2 * m + compaction_access_count(m) + d)


@_kernel_span("kernel.advanced")
def aggregate_advanced(
    updates: Sequence[LocalUpdate], d: int, *, trace: Trace | None = None
) -> np.ndarray:
    """Advanced aggregation (Algorithm 4, stage-vectorized).

    initialization -> bitonic sort of the client entries -> bitonic
    merge with the dummies -> folding -> compaction -> first d values.
    ``g`` holds the d dummies ``(j, 0)`` in descending index order,
    then the nk client entries.  Sort keys are ``(index << 32) | input
    position`` (dummy ``j`` takes position ``nk + j``), so they are
    unique: the order every phase produces is the one any correct
    sorting network gives, and the result equals Algorithm 4's two-sort
    instantiation bit for bit.  Sorting ``g[d:]`` leaves a falling run
    and a rising one, which the merge's half-cleaners sort; after the
    fold the d survivors are already in index order, so an
    order-preserving compaction moves them to the front where the
    paper runs a second sort.

    Every phase touches memory in an order fixed by ``(nk, d)`` alone:
    the fill and read-out are linear, the sort, merge and compaction
    follow length-determined schedules, and oblivious folding is one
    linear pass whose conditional carry/flush happens in registers
    (Prop. 5.2).  With a trace, every phase appends its accesses in
    batches -- the exact sequence of the element-at-a-time formulation
    in ``tests/oracles.py``.
    """
    idx, val = _concat_updates(updates)
    _validate(idx, d)
    nk = len(idx)
    m = nk + d
    if d > M0 or m > 1 << 32:
        raise ValueError("Advanced keys need d <= M0 and nk + d <= 2**32")

    # Initialization (lines 1-3): d dummies, falling, then the inputs.
    # The kernel's whole trace is length-determined, so it is reserved
    # once and appends in place.
    keys = np.empty(m, dtype=np.int64)
    dummies = np.arange(d - 1, -1, -1, dtype=np.int64)
    keys[:d] = (dummies << 32) | (nk + dummies)
    keys[d:] = (idx << 32) | np.arange(nk, dtype=np.int64)
    vals = np.concatenate([np.zeros(d), val])
    if trace is not None:
        trace.reserve(advanced_trace_length(nk, d))
        trace.record_block(G_REGION, 0, m, "write")

    # Oblivious sort by index (lines 4-5): the client run, then the
    # merge of the falling dummy run with the rising client run.
    bitonic_sort_traced_columns(trace, G_REGION, keys[d:], vals[d:], base=d)
    bitonic_merge_traced_columns(trace, G_REGION, keys, vals)

    # Oblivious folding (lines 6-14): one linear pass whose conditional
    # carry/flush happens in registers; the trace is read 0, then
    # (read pos, write pos-1) pairs, then the final write of m-1.
    if trace is not None and m:
        trace.record(G_REGION, 0, "read")
        trace.record_periodic(G_REGION, (1, 0), ("read", "write"), ((m - 1, 1),))
        trace.record(G_REGION, m - 1, "write")
    folded_idx, folded_val = _fold_sorted(keys >> 32, vals)

    # Survivors to the front (lines 15-16) and output (line 17).
    compact_traced_columns(trace, G_REGION, folded_idx, folded_val, dead=M0)
    if trace is not None:
        trace.record_block(G_REGION, 0, d, "read")
    if not np.array_equal(folded_idx[:d], np.arange(d)):
        raise AssertionError("folding lost a model index")
    return folded_val[:d].copy()


# ----------------------------------------------------------------------
# Path ORAM baseline
# ----------------------------------------------------------------------


@_kernel_span("kernel.path_oram", traced_name="kernel.path_oram")
def aggregate_path_oram(
    updates: Sequence[LocalUpdate], d: int, *,
    trace: Trace | None = None,
    bucket_size: int = 4,
    stash_limit: int = 20,
    seed: int | None = None,
) -> np.ndarray:
    """ORAM-based aggregation: g* lives entirely inside a Path ORAM.

    Initialize d zero blocks, read-modify-write one block per input
    weight, then read out all d blocks -- the general-purpose scheme the
    paper compares against (Section 5, "ORAM-based method").  Nothing
    else records into ``trace`` meanwhile, so the ORAM defers its path
    records and appends them in one call when the kernel exits.
    """
    idx, val = _concat_updates(updates)
    _validate(idx, d)
    oram = PathORAM(d, bucket_size=bucket_size, stash_limit=stash_limit,
                    trace=trace, seed=seed)
    access = oram.access
    with oram.deferred_trace():
        for index, value in zip(idx.tolist(), val.tolist()):
            current = access("read", index)
            access("write", index, current + value)
        out = [access("read", j) for j in range(d)]
    return np.asarray(out, dtype=np.float64)


# ----------------------------------------------------------------------
# Uniform front-end
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AggregatorSpec:
    """Descriptor for one aggregation algorithm and its kernel."""

    name: str
    oblivious_sparse: str  # 'none' | 'cacheline' | 'full'
    kernel: Callable[..., np.ndarray]

    def run(
        self, updates: Sequence[LocalUpdate], d: int,
        trace: Trace | None = None,
    ) -> np.ndarray:
        """Aggregate, recording the adversary-visible pattern into ``trace``."""
        return self.kernel(updates, d, trace=trace)

    def run_traced(
        self, updates: Sequence[LocalUpdate], d: int, trace: Trace
    ) -> np.ndarray:
        """``run`` with a required trace, kept for the round benchmark."""
        return self.kernel(updates, d, trace=trace)


AGGREGATORS: dict[str, AggregatorSpec] = {
    spec.name: spec for spec in (
        AggregatorSpec("linear", "none", aggregate_linear),
        AggregatorSpec("baseline", "cacheline", aggregate_baseline),
        AggregatorSpec("advanced", "full", aggregate_advanced),
        AggregatorSpec("path_oram", "full", aggregate_path_oram),
    )
}
