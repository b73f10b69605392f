"""Trace-equivalence regression tests for the columnar trace engine.

The batched oblivious kernels (stage-batched bitonic sort, block-form
aggregator scans, batch trace appends) must record **byte-for-byte**
the access sequence of the original element-at-a-time formulation --
batching may change how the trace is stored, never what the adversary
sees.  The slow reference recorders (one scalar ``Trace.record`` per
access) live in ``tests/oracles.py``; this module pins the trace of
every batched kernel against them with ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import aggregation
from repro.core.aggregation import (
    _baseline_targets,
    aggregate_advanced,
    aggregate_baseline,
    aggregate_linear,
    aggregate_path_oram,
)
from repro.fl.client import LocalUpdate
from repro.oblivious.primitives import o_access, o_write
from repro.oblivious.sort import bitonic_sort_traced_columns
from repro.oram.path_oram import PathORAM
from repro.sgx.memory import Trace, TracedArray
from tests.oracles import (
    OraclePathORAM,
    apply_network_traced,
    bitonic_network,
    bitonic_sort_traced,
    oblivious_shuffle_traced,
    ref_advanced_traced,
    ref_baseline_traced,
    ref_linear_traced,
    trace_tuples,
)
from tests.oracles import aggregate_path_oram as ref_path_oram_traced


def ref_bitonic_sort_traced(array, key=lambda w: w):
    """Comparator-at-a-time bitonic sort with scalar trace records."""
    apply_network_traced(array, bitonic_network(len(array)), key=key)


def make_updates(n, k, d, seed=0):
    rng = np.random.default_rng(seed)
    updates = []
    for c in range(n):
        idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
        updates.append(LocalUpdate(client_id=c, indices=idx,
                                   values=rng.standard_normal(k)))
    return updates


# ----------------------------------------------------------------------
# Aggregator equivalence
# ----------------------------------------------------------------------

CASES = [(1, 1, 3), (2, 3, 10), (4, 5, 33), (5, 8, 64)]


@pytest.mark.parametrize("n,k,d", CASES)
def test_linear_trace_matches_reference(n, k, d):
    updates = make_updates(n, k, d)
    new_trace, ref_trace = Trace(), Trace()
    out_new = aggregate_linear(updates, d, trace=new_trace)
    out_ref = ref_linear_traced(updates, d, ref_trace)
    assert new_trace == ref_trace
    assert out_new.tobytes() == out_ref.tobytes()
    assert aggregate_linear(updates, d).tobytes() == out_ref.tobytes()


@pytest.mark.parametrize("n,k,d", CASES)
def test_baseline_trace_matches_reference(n, k, d):
    updates = make_updates(n, k, d)
    new_trace, ref_trace = Trace(), Trace()
    out_new = aggregate_baseline(updates, d, trace=new_trace)
    out_ref = ref_baseline_traced(updates, d, ref_trace)
    assert new_trace == ref_trace
    assert out_new.tobytes() == out_ref.tobytes()
    assert aggregate_baseline(updates, d).tobytes() == out_ref.tobytes()


def test_baseline_trace_clamped_final_line():
    # d not a multiple of c: the clamped final line sweeps d-1 for
    # every input whose offset lies past the end; index d-1 itself sits
    # in that final line and is still hit exactly once.
    d = 19
    updates = [LocalUpdate(client_id=0,
                           indices=np.array([0, 3, d - 1], dtype=np.int64),
                           values=np.array([1.0, 2.0, 3.0]))]
    new_trace, ref_trace = Trace(), Trace()
    out_new = aggregate_baseline(updates, d, trace=new_trace)
    out_ref = ref_baseline_traced(updates, d, ref_trace)
    assert new_trace == ref_trace
    assert out_new.tobytes() == out_ref.tobytes()
    assert aggregate_baseline(updates, d).tobytes() == out_ref.tobytes()


@pytest.mark.parametrize("c", [1, 3, 16, 32])
@pytest.mark.parametrize("block_cells", [1, 7, aggregation.BASELINE_BLOCK_CELLS])
def test_baseline_blocks_match_reference_at_any_line_width(
    c, block_cells, monkeypatch
):
    # Blocking the sweep (here down to one input per block) changes
    # neither the trace nor a single output bit, at any cacheline width.
    monkeypatch.setattr(aggregation, "BASELINE_BLOCK_CELLS", block_cells)
    d = 37
    updates = make_updates(3, 5, d, seed=c)
    new_trace, ref_trace = Trace(), Trace()
    out_new = aggregate_baseline(updates, d, trace=new_trace,
                                 cacheline_weights=c)
    out_ref = ref_baseline_traced(updates, d, ref_trace, cacheline_weights=c)
    out_fast = aggregate_baseline(updates, d, cacheline_weights=c)
    assert new_trace == ref_trace
    assert out_new.tobytes() == out_ref.tobytes() == out_fast.tobytes()


@pytest.mark.parametrize("c", [1, 2, 3, 4, 8, 16, 32])
def test_baseline_sweep_hits_each_index_exactly_once(c):
    # The invariant behind Baseline's single merge per input: the sweep
    # row of index i touches g_star[i] once and only once, including
    # when d is not a multiple of c and the final line is clamped.
    for d in range(1, 513):
        idx = np.arange(d, dtype=np.int64)
        hits = (_baseline_targets(idx, d, c) == idx[:, None]).sum(axis=1)
        assert (hits == 1).all(), (d, c)


@pytest.mark.parametrize("n,k,d", CASES)
def test_advanced_trace_matches_reference(n, k, d):
    updates = make_updates(n, k, d)
    new_trace, ref_trace = Trace(), Trace()
    out_new = aggregate_advanced(updates, d, trace=new_trace)
    out_ref = ref_advanced_traced(updates, d, ref_trace)
    assert new_trace == ref_trace
    assert np.allclose(out_new, out_ref)


# ----------------------------------------------------------------------
# Oblivious-primitive / kernel equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_bitonic_sort_traced_matches_comparator_loop(n):
    rng = np.random.default_rng(n)
    values = rng.integers(0, 50, size=n).tolist()
    t_new, t_ref = Trace(), Trace()
    a_new = TracedArray("s", list(values), trace=t_new)
    a_ref = TracedArray("s", list(values), trace=t_ref)
    bitonic_sort_traced(a_new)
    ref_bitonic_sort_traced(a_ref)
    assert t_new == t_ref
    assert a_new.snapshot() == a_ref.snapshot()


@pytest.mark.parametrize("n", [2, 8, 32])
def test_bitonic_sort_columns_matches_comparator_loop(n):
    rng = np.random.default_rng(n)
    keys = rng.integers(0, 50, size=n).astype(np.int64)
    payload = rng.standard_normal(n)
    t_new, t_ref = Trace(), Trace()
    a_ref = TracedArray(
        "s", list(zip(keys.tolist(), payload.tolist())), trace=t_ref
    )
    k2, p2 = keys.copy(), payload.copy()
    bitonic_sort_traced_columns(t_new, "s", k2, p2)
    ref_bitonic_sort_traced(a_ref, key=lambda w: w[0])
    assert t_new == t_ref
    ref_keys = [w[0] for w in a_ref.snapshot()]
    assert k2.tolist() == ref_keys


def test_o_access_trace_is_one_pass():
    n = 7
    trace = Trace()
    arr = TracedArray("a", list(range(100, 100 + n)), trace=trace)
    for secret in range(n):
        assert o_access(arr, secret) == 100 + secret
    sig = trace_tuples(trace)
    assert len(sig) == n * n  # exactly one read per element per access
    one_pass = tuple(("a", i, "read") for i in range(n))
    for s in range(n):
        assert sig[s * n : (s + 1) * n] == one_pass


def test_o_write_trace_is_one_pass():
    n = 5
    trace = Trace()
    arr = TracedArray("a", [0] * n, trace=trace)
    o_write(arr, 3, 42)
    expected = []
    for i in range(n):
        expected.extend([("a", i, "read"), ("a", i, "write")])
    assert trace_tuples(trace) == tuple(expected)
    assert arr.snapshot() == [0, 0, 0, 42, 0]


def test_shuffle_trace_matches_stagewise_recording():
    # The shuffle composes tag-assignment with the (now stage-batched)
    # bitonic sort; its trace must still equal a comparator-at-a-time
    # recording of the same network plus the tag read/write prologue.
    import random

    values = list(range(8))
    t1 = Trace()
    a1 = TracedArray("h", list(values), trace=t1)
    oblivious_shuffle_traced(a1, random.Random(123))
    t2 = Trace()
    a2 = TracedArray("h", list(values), trace=t2)
    oblivious_shuffle_traced(a2, random.Random(456))
    # Obliviousness: same length input -> identical trace regardless of
    # the random tags (Definition 2.2), and the batched sort preserves it.
    assert t1 == t2


# ----------------------------------------------------------------------
# Batch-append APIs vs scalar record
# ----------------------------------------------------------------------


def test_record_block_equals_scalar_loop():
    t_block, t_loop = Trace(), Trace()
    t_block.record_block("r", 3, 9, "write")
    for o in range(3, 9):
        t_loop.record("r", o, "write")
    assert t_block == t_loop


def test_record_columns_equals_scalar_loop():
    t_cols, t_loop = Trace(), Trace()
    a = t_cols.region_id("a")
    b = t_cols.region_id("b")
    t_cols.record_columns(
        np.array([a, b, a, b], dtype=np.uint16),
        np.array([0, 7, 2, 7], dtype=np.int64),
        np.array([0, 0, 1, 1], dtype=np.uint8),
    )
    for region, off, op in [("a", 0, "read"), ("b", 7, "read"),
                            ("a", 2, "write"), ("b", 7, "write")]:
        t_loop.record(region, off, op)
    assert t_cols == t_loop


def test_traced_array_block_apis_equal_scalar_loops():
    t_block, t_loop = Trace(), Trace()
    a_block = TracedArray("x", list(range(10)), trace=t_block)
    a_loop = TracedArray("x", list(range(10)), trace=t_loop)

    assert a_block.read_block(2, 6) == [a_loop.read(o) for o in range(2, 6)]
    a_block.write_block(1, 4, [9, 9, 9])
    for o in range(1, 4):
        a_loop.write(o, 9)

    assert t_block == t_loop
    assert a_block.snapshot() == a_loop.snapshot()


def test_signature_digest_tracks_signature():
    # Equal digests iff equal per-access tuple projections (the oracle).
    t1, t2, t3 = Trace(), Trace(), Trace()
    for t in (t1, t2):
        t.record("a", 1, "read")
        t.record("b", 2, "write")
    # Same sequence, different interning order: t3 interns b first but
    # records the same accesses.
    t3.region_id("b")
    t3.record("a", 1, "read")
    t3.record("b", 2, "write")
    assert trace_tuples(t1) == trace_tuples(t3)
    assert t1.signature_digest() == t2.signature_digest()
    assert t1.signature_digest() == t3.signature_digest()
    t2.record("a", 3, "read")
    assert trace_tuples(t1) != trace_tuples(t2)
    assert t1.signature_digest() != t2.signature_digest()


@pytest.mark.parametrize("n,k,d", [(1, 1, 2), (5, 4, 33), (10, 12, 256)])
def test_path_oram_trace_matches_per_bucket_recording(n, k, d):
    # The production ORAM appends each aggregation's paths in one
    # columnar call; the oracle records one scalar access per bucket
    # read, clear and write-back.
    updates = make_updates(n, k, d, seed=n + d)
    t_cols, t_loop = Trace(), Trace()
    out = aggregate_path_oram(updates, d, trace=t_cols, seed=d)
    ref = ref_path_oram_traced(updates, d, trace=t_loop, seed=d)
    assert t_cols == t_loop
    assert out.tobytes() == ref.tobytes()


def test_path_oram_scalar_accesses_record_immediately():
    # Outside a deferred block every access is in the trace on return,
    # so an ORAM sharing its trace (the recursive position map) keeps
    # its interleaving with other recorders.
    t_cols, t_loop = Trace(), Trace()
    oram = PathORAM(40, trace=t_cols, seed=2)
    ref = OraclePathORAM(40, trace=t_loop, seed=2)
    for i in range(30):
        oram.write(i % 40, float(i))
        ref.write(i % 40, float(i))
        t_cols.record("other", i, "read")
        t_loop.record("other", i, "read")
        assert len(t_cols) == len(t_loop)
    assert t_cols == t_loop
