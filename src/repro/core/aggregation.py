"""OLIVE's server-side aggregation algorithms (Sections 3.3 and 5).

Four aggregators, each in two interchangeable implementations:

* a **traced** implementation producing the exact adversary-visible
  access pattern against the :class:`repro.sgx.memory.Trace` regions
  (used by the security analysis, the attack evaluation, and the
  obliviousness property tests);
* a **fast** implementation (numpy-vectorized, same arithmetic and the
  same asymptotic work) used by the wall-clock benchmarks.

The traced implementations are *batched*: they compute on numpy columns
and append whole access blocks to the trace (the columnar engine of
:mod:`repro.sgx.memory`), producing byte-for-byte the access sequence
of the original element-at-a-time formulation -- the trace-equivalence
regression tests pin this against a reference recorder.  This makes the
traced path 1-2 orders of magnitude faster, so the security experiments
scale with n, k, and d almost like the fast path does.

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
from typing import Sequence

import numpy as np

from .. import obs
from ..fl.client import LocalUpdate
from ..fl.sparsify import densify
from ..oblivious.sort import bitonic_sort_traced_columns, next_power_of_two
from ..oram.path_oram import PathORAM
from ..sgx.memory import OP_READ, OP_WRITE, Trace

#: Dummy index written by oblivious folding; larger than any model index.
M0 = (1 << 31) - 1

#: Weights per 64-byte cacheline in the aggregation buffer (4-byte weights).
WEIGHTS_PER_CACHELINE = 16

G_REGION = "g"
G_STAR_REGION = "g_star"


def _kernel_span(name: str):
    """Wrap an aggregation kernel in a telemetry span.

    Records input shape and, for traced kernels, the number of accesses
    the call appended to the trace.  With telemetry disabled the
    wrapper is one ``enabled()`` check per kernel *call* (never per
    element), preserving the no-op fast path.
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(updates, d, *args, **kwargs):
            if not obs.enabled():
                return fn(updates, d, *args, **kwargs)
            trace = kwargs.get("trace")
            if trace is None and args and isinstance(args[0], Trace):
                trace = args[0]
            before = len(trace) if trace is not None else 0
            with obs.span(name, n_updates=len(updates), d=d) as sp:
                out = fn(updates, d, *args, **kwargs)
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
def aggregate_linear(updates: Sequence[LocalUpdate], d: int) -> np.ndarray:
    """Fast Linear aggregation: plain scatter-add."""
    idx, val = _concat_updates(updates)
    _validate(idx, d)
    return densify(idx, val, d)


@_kernel_span("kernel.linear_traced")
def aggregate_linear_traced(
    updates: Sequence[LocalUpdate], d: int, trace: Trace
) -> np.ndarray:
    """Traced Linear aggregation.

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
    g_star = np.zeros(d)
    np.add.at(g_star, idx, val)  # in-order accumulation, like the scan
    return g_star


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
    input sweeps the same lines.
    """
    n_lines = (d + cacheline_weights - 1) // cacheline_weights
    lines = np.arange(n_lines, dtype=np.int64) * cacheline_weights
    return np.minimum(lines[None, :] + (idx % cacheline_weights)[:, None], d - 1)


@_kernel_span("kernel.baseline")
def aggregate_baseline(
    updates: Sequence[LocalUpdate], d: int,
    cacheline_weights: int = WEIGHTS_PER_CACHELINE,
) -> np.ndarray:
    """Fast Baseline aggregation.

    Performs the same Theta(nk * d / c) element-update work as the
    traced version (one vectorized pass over the congruent stripe of
    ``g_star`` per input weight), so wall-clock comparisons against
    Advanced reproduce the paper's crossovers.
    """
    idx, val = _concat_updates(updates)
    _validate(idx, d)
    g_star = np.zeros(d)
    n_lines = (d + cacheline_weights - 1) // cacheline_weights
    lines = np.arange(n_lines)
    for index, value in zip(idx.tolist(), val.tolist()):
        offset = index % cacheline_weights
        stripe = np.minimum(lines * cacheline_weights + offset, d - 1)
        hits = stripe == index
        g_star[stripe] = g_star[stripe] + hits * value
    return g_star


@_kernel_span("kernel.baseline_traced")
def aggregate_baseline_traced(
    updates: Sequence[LocalUpdate], d: int, trace: Trace,
    cacheline_weights: int = WEIGHTS_PER_CACHELINE,
) -> np.ndarray:
    """Traced Baseline aggregation (Algorithm 3).

    For every input weight the whole aggregation buffer is swept, one
    touched weight per cacheline (the position congruent to the secret
    index modulo c); the true update is merged in registers via
    ``o_mov``.  Word-level addresses depend on ``index mod c`` only,
    so the cacheline-level trace is input-independent (Prop. 5.1).
    Each input weight's ``g`` read plus interleaved read/write sweep of
    ``g_star`` is appended as one block.
    """
    idx, val = _concat_updates(updates)
    _validate(idx, d)
    nk = len(idx)
    g_star = np.zeros(d)
    if nk == 0:
        return g_star
    targets = _baseline_targets(idx, d, cacheline_weights)
    n_lines = targets.shape[1]
    if trace is not None:
        g_id = trace.region_id(G_REGION)
        gstar_id = trace.region_id(G_STAR_REGION)
        # Per input weight: (g, pos, read) then per line
        # (g_star, target, read), (g_star, target, write).
        width = 1 + 2 * n_lines
        offs = np.empty((nk, width), dtype=np.int64)
        offs[:, 0] = np.arange(nk)
        offs[:, 1::2] = targets
        offs[:, 2::2] = targets
        rids_row = np.full(width, gstar_id, dtype=np.uint16)
        rids_row[0] = g_id
        ops_row = np.empty(width, dtype=np.uint8)
        ops_row[0] = OP_READ
        ops_row[1::2] = OP_READ
        ops_row[2::2] = OP_WRITE
        trace.record_columns(
            np.tile(rids_row, nk), offs.reshape(-1), np.tile(ops_row, nk)
        )
    # The o_mov merge changes only the true index's weight.  A clamped
    # final line can make the sweep hit ``d - 1`` more than once for
    # index d-1; replicate the per-hit sequential adds exactly.
    hits_per_input = (targets == idx[:, None]).sum(axis=1)
    if np.all(hits_per_input == 1):
        np.add.at(g_star, idx, val)
    else:
        for index, value, hits in zip(
            idx.tolist(), val.tolist(), hits_per_input.tolist()
        ):
            for _ in range(hits):
                g_star[index] = g_star[index] + value
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


def _advanced_core(
    idx: np.ndarray, val: np.ndarray, d: int, trace: Trace | None
) -> np.ndarray:
    """Algorithm 4 on numpy columns, optionally recording the trace.

    initialization -> bitonic sort by index -> folding -> bitonic sort
    -> first d values.  With a trace, every phase appends its accesses
    in batches: the fill and output scans as contiguous blocks, each
    sort stage as one comparator batch, and the folding pass as the
    ``read 0, (read pos, write pos-1)..., write m-1`` stream -- the
    exact sequence of the element-at-a-time formulation.
    """
    base = len(idx) + d
    m = next_power_of_two(base)
    work_idx = np.full(m, M0, dtype=np.int64)
    work_val = np.zeros(m)
    work_idx[: len(idx)] = idx
    work_val[: len(val)] = val
    work_idx[len(idx) : base] = np.arange(d)  # zero-valued initialization

    # Initialization (lines 1-3): inputs, d zero-valued weights, padding.
    if trace is not None:
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


@_kernel_span("kernel.advanced")
def aggregate_advanced(updates: Sequence[LocalUpdate], d: int) -> np.ndarray:
    """Fast Advanced aggregation (Algorithm 4, stage-vectorized).

    Identical network and arithmetic to the traced version (same core,
    no trace); validated against it in the test suite.
    """
    idx, val = _concat_updates(updates)
    _validate(idx, d)
    return _advanced_core(idx, val, d, trace=None)


@_kernel_span("kernel.advanced_traced")
def aggregate_advanced_traced(
    updates: Sequence[LocalUpdate], d: int, trace: Trace
) -> np.ndarray:
    """Traced Advanced aggregation (Algorithm 4, batched).

    Every phase touches memory in an order fixed by ``nk + d`` alone:
    the fill is linear, both bitonic sorts follow the length-determined
    comparator network, and oblivious folding is one linear pass whose
    conditional carry/flush happens in registers (Prop. 5.2).
    """
    idx, val = _concat_updates(updates)
    _validate(idx, d)
    return _advanced_core(idx, val, d, trace)


# ----------------------------------------------------------------------
# Path ORAM baseline
# ----------------------------------------------------------------------


@_kernel_span("kernel.path_oram")
def aggregate_path_oram(
    updates: Sequence[LocalUpdate], d: int,
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
    """Descriptor for one aggregation algorithm."""

    name: str
    oblivious_sparse: str  # 'none' | 'cacheline' | 'full'

    def run(self, updates: Sequence[LocalUpdate], d: int) -> np.ndarray:
        """Fast-path aggregation."""
        return _FAST[self.name](updates, d)

    def run_traced(
        self, updates: Sequence[LocalUpdate], d: int, trace: Trace
    ) -> np.ndarray:
        """Traced aggregation recording the adversary-visible pattern."""
        return _TRACED[self.name](updates, d, trace)


_FAST = {
    "linear": aggregate_linear,
    "baseline": aggregate_baseline,
    "advanced": aggregate_advanced,
    "path_oram": aggregate_path_oram,
}

_TRACED = {
    "linear": aggregate_linear_traced,
    "baseline": aggregate_baseline_traced,
    "advanced": aggregate_advanced_traced,
    "path_oram": lambda updates, d, trace: aggregate_path_oram(
        updates, d, trace=trace
    ),
}

AGGREGATORS: dict[str, AggregatorSpec] = {
    "linear": AggregatorSpec("linear", oblivious_sparse="none"),
    "baseline": AggregatorSpec("baseline", oblivious_sparse="cacheline"),
    "advanced": AggregatorSpec("advanced", oblivious_sparse="full"),
    "path_oram": AggregatorSpec("path_oram", oblivious_sparse="full"),
}
