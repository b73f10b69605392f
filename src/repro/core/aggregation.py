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

=============  =========================  ==========================
name           paper                      complexity (time / space)
=============  =========================  ==========================
``linear``     Alg. 5, "Linear"           O(nk) / O(nk + d)
``baseline``   Alg. 3, "Baseline"         O(nk d / c) / O(nk + d)
``advanced``   Alg. 4, "Advanced"         O((nk+d) log^2 (nk+d)) / O(nk+d)
``path_oram``  Sec. 5, ORAM baseline      O((nk+d) log d) ORAM accesses
=============  =========================  ==========================

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
from ..oblivious.sort import (
    bitonic_sort_traced_columns,
    comparator_count,
    next_power_of_two,
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
    sum)``; every other position becomes ``(M0, 0)``.
    """
    m = len(idx)
    if m == 0:
        return idx.copy(), val.copy()
    last = np.empty(m, dtype=bool)
    last[:-1] = idx[:-1] != idx[1:]
    last[-1] = True
    csum = np.cumsum(val)
    run_totals = csum[last]
    run_totals[1:] -= csum[last][:-1]
    out_idx = np.full(m, M0, dtype=np.int64)
    out_val = np.zeros(m)
    out_idx[last] = idx[last]
    out_val[last] = run_totals
    return out_idx, out_val


@_kernel_span("kernel.advanced")
def aggregate_advanced(
    updates: Sequence[LocalUpdate], d: int, *, trace: Trace | None = None
) -> np.ndarray:
    """Advanced aggregation (Algorithm 4, stage-vectorized).

    initialization -> bitonic sort by index -> folding -> bitonic sort
    -> first d values.  Every phase touches memory in an order fixed by
    ``nk + d`` alone: the fill is linear, both bitonic sorts follow the
    length-determined comparator network, and oblivious folding is one
    linear pass whose conditional carry/flush happens in registers
    (Prop. 5.2).  With a trace, every phase appends its accesses in
    batches: the fill and output scans as contiguous blocks, each sort
    stage as one comparator batch, and the folding pass as the
    ``read 0, (read pos, write pos-1)..., write m-1`` stream -- the
    exact sequence of the element-at-a-time formulation.
    """
    idx, val = _concat_updates(updates)
    _validate(idx, d)
    base = len(idx) + d
    m = next_power_of_two(base)
    work_idx = np.full(m, M0, dtype=np.int64)
    work_val = np.zeros(m)
    work_idx[: len(idx)] = idx
    work_val[: len(val)] = val
    work_idx[len(idx) : base] = np.arange(d)  # zero-valued initialization

    # Initialization (lines 1-3): inputs, d zero-valued weights, padding.
    # The kernel's whole trace (fill, two sorts, fold, read-out) is
    # length-determined, so it is reserved once and appends in place.
    if trace is not None:
        trace.reserve(3 * m + d + 8 * comparator_count(m))
        trace.record_block(G_REGION, 0, m, "write")

    # First oblivious sort by index (lines 4-5).
    bitonic_sort_traced_columns(trace, G_REGION, work_idx, work_val)

    # Oblivious folding (lines 6-14): one linear pass whose conditional
    # carry/flush happens in registers; the trace is read 0, then
    # (read pos, write pos-1) pairs, then the final write of m-1.
    if trace is not None:
        offs = np.empty(2 * m, dtype=np.int64)
        ops = np.empty(2 * m, dtype=np.uint8)
        offs[0] = 0
        ops[0] = OP_READ
        offs[1 : 2 * m - 1 : 2] = np.arange(1, m)
        ops[1 : 2 * m - 1 : 2] = OP_READ
        offs[2 : 2 * m - 1 : 2] = np.arange(0, m - 1)
        ops[2 : 2 * m - 1 : 2] = OP_WRITE
        offs[2 * m - 1] = m - 1
        ops[2 * m - 1] = OP_WRITE
        trace.record_batch(G_REGION, offs, ops)
    folded_idx, folded_val = _fold_sorted(work_idx, work_val)

    # Second oblivious sort (lines 15-16) and output (line 17).
    bitonic_sort_traced_columns(trace, G_REGION, folded_idx, folded_val)
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
