"""Equivalence suite: the Path ORAM access core against its oracle.

``repro.oram.path_oram.PathORAM`` computes paths with shifts, places
write-back entries by their deepest fitting level, and records one
columnar trace append per access (or one per aggregation).  The
textbook per-bucket access it replaced is kept verbatim in
``tests/oracles.py`` as ``OraclePathORAM``.  These tests pin the two to
each other -- returned values, bucket contents, stash order, positions,
the recorded trace, and the op that overflows the stash -- and check
the adversary-visible shape of every access directly.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from repro.core.aggregation import aggregate_path_oram
from repro.fl.client import LocalUpdate
from repro.oram.path_oram import TREE_REGION, PathORAM, StashOverflow
from repro.oram.recursive import RecursivePathORAM
from repro.sgx.memory import OP_READ, OP_WRITE, Trace
from tests import oracles


def _drive(oram, ops):
    """Apply ``ops`` until one overflows; returns (values, failing op)."""
    values = []
    for i, (op, block, value) in enumerate(ops):
        try:
            values.append(oram.access(op, block, value))
        except StashOverflow:
            return values, i
    return values, None


def _state(oram):
    tree = oram._tree
    buckets = tree.snapshot() if hasattr(tree, "snapshot") else list(tree)
    return buckets, list(oram._stash), list(oram._position), oram.accesses


def _updates(n, k, d, seed):
    rng = np.random.default_rng(seed)
    return [
        LocalUpdate(c, np.sort(rng.choice(d, size=k, replace=False)),
                    rng.normal(size=k))
        for c in range(n)
    ]


@st.composite
def _workloads(draw):
    capacity = draw(st.integers(1, 200))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["read", "write"]),
                  st.integers(0, capacity - 1),
                  st.floats(-100, 100, allow_nan=False)),
        max_size=150,
    ))
    return (capacity, draw(st.sampled_from([1, 2, 4])),
            draw(st.sampled_from([0, 2, 20, 80])), ops,
            draw(st.booleans()), draw(st.integers(0, 2**32 - 1)))


class TestOracleEquivalence:
    @given(_workloads())
    @settings(max_examples=60, deadline=None)
    def test_access_sequence_matches_oracle(self, workload):
        capacity, z, stash_limit, ops, traced, seed = workload
        results = []
        for cls in (PathORAM, oracles.OraclePathORAM):
            trace = Trace() if traced else None
            oram = cls(capacity, bucket_size=z, stash_limit=stash_limit,
                       trace=trace, seed=seed)
            values, failed_at = _drive(oram, ops)
            results.append((values, failed_at, _state(oram),
                            trace.signature_digest() if traced else None))
        assert results[0] == results[1]

    def test_overflow_raises_at_the_oracles_op(self):
        ops = [("write", i, 1.0) for i in range(64)]
        failures = []
        for cls in (PathORAM, oracles.OraclePathORAM):
            trace = Trace()
            oram = cls(64, bucket_size=1, stash_limit=0, trace=trace, seed=6)
            _, failed_at = _drive(oram, ops)
            failures.append((failed_at, trace.signature_digest(), _state(oram)))
        assert failures[0][0] is not None
        assert failures[0] == failures[1]

    @pytest.mark.parametrize("n,k,d,seed", [(12, 9, 97, 5), (40, 38, 378, 1)])
    def test_aggregate_matches_oracle(self, n, k, d, seed):
        updates = _updates(n, k, d, seed)
        t_prod, t_oracle = Trace(), Trace()
        prod = aggregate_path_oram(updates, d, trace=t_prod, seed=seed)
        ref = oracles.aggregate_path_oram(updates, d, trace=t_oracle,
                                          seed=seed)
        assert prod.tobytes() == ref.tobytes()
        assert t_prod.signature_digest() == t_oracle.signature_digest()
        assert t_prod == t_oracle
        assert prod.tobytes() == aggregate_path_oram(
            updates, d, seed=seed).tobytes()

    def test_aggregate_pinned_to_recorded_digests(self):
        # Recorded with the per-bucket access before the lean core.
        updates = _updates(12, 9, 97, 5)
        trace = Trace()
        out = aggregate_path_oram(updates, 97, trace=trace, seed=5)
        assert len(trace) == 7512
        assert trace.signature_digest() == (
            "737f1352b63cebf8b441ba9643178095565bde38b1f716b04c66f9c63b299ebc")
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "565261b5f501177b3d5013d0bdd9e67c8d4d86a71306f4979a01a4ca38bd6a28")

    def test_mid_batch_overflow_leaves_the_oracles_prefix(self):
        updates = _updates(30, 20, 200, 2)
        traces = []
        for fn in (aggregate_path_oram, oracles.aggregate_path_oram):
            trace = Trace()
            with pytest.raises(StashOverflow):
                fn(updates, 200, trace=trace, bucket_size=1, stash_limit=2,
                   seed=3)
            traces.append(trace)
        assert 0 < len(traces[0]) < 3 * 9 * (2 * 600 + 200)
        assert traces[0] == traces[1]

    def test_deferred_and_immediate_traces_agree(self):
        rng = random.Random(4)
        ops = [(rng.choice(["read", "write"]), rng.randrange(50), 1.0)
               for _ in range(80)]
        t_now, t_later = Trace(), Trace()
        now = PathORAM(50, trace=t_now, seed=9)
        later = PathORAM(50, trace=t_later, seed=9)
        _drive(now, ops)
        with later.deferred_trace():
            _drive(later, ops)
            assert len(t_later) == 0
        assert t_now == t_later
        assert _state(now) == _state(later)


class TestRecursivePinned:
    """RecursivePathORAM hands the map's old leaf to the data ORAM's
    access call.  Values and the shared trace are pinned to digests
    recorded when it wrote the old leaf into the data ORAM's private
    position list instead."""

    @pytest.mark.parametrize("capacity,base_map_limit,seed,n_ops,length,"
                             "trace_digest,value_digest", [
        (256, 16, 0, 150, 30879,
         "64e5ed04d5ad4293a47997a128bade967c7e1069606e7d08dc514cb383b91e6b",
         "b9c74d956adcf99e9b92bfa1e55c3e46f0eae55c1bebf5b5103d6c2ef168247e"),
        (32, 64, 3, 100, 3186,
         "3a01e17c301f58c7b20b5ecb08e5b51cda5c5ab1a1677415a9ce73dcaea5c94e",
         "1d374c5e7b6890bdb461891184b88d71be94fbfa492df3fdf85daeba2475501e"),
    ])
    def test_trace_and_values_unchanged(self, capacity, base_map_limit,
                                        seed, n_ops, length, trace_digest,
                                        value_digest):
        trace = Trace()
        oram = RecursivePathORAM(capacity, stash_limit=80,
                                 base_map_limit=base_map_limit,
                                 trace=trace, seed=seed)
        rng = random.Random(seed + 100)
        h = hashlib.sha256()
        for _ in range(n_ops):
            block = rng.randrange(capacity)
            if rng.random() < 0.5:
                oram.write(block, oram.read(block) + rng.random())
            else:
                h.update(repr(oram.read(block)).encode())
        for block in range(capacity):
            h.update(repr(oram.read(block)).encode())
        assert len(trace) == length
        assert trace.signature_digest() == trace_digest
        assert h.hexdigest() == value_digest
        assert oram.stash_size == 0

    def test_forced_leaf_out_of_range_rejected(self):
        oram = PathORAM(16, seed=0)
        with pytest.raises(IndexError):
            oram.access("read", 0, leaf=oram.n_leaves)


class TestObliviousness:
    @staticmethod
    def _paths(trace, oram):
        """Per-access (offsets, ops) rows of the bucket-tree trace."""
        per_access = 3 * (oram.height + 1)
        rids, _, ops = trace.columns()
        offs = trace.offsets_array(TREE_REGION)
        ops = ops[rids == trace.region_index(TREE_REGION)]
        assert offs.size % per_access == 0
        return (offs.reshape(-1, per_access).astype(np.int64),
                ops.reshape(-1, per_access))

    def test_every_access_is_a_root_to_leaf_path(self):
        trace = Trace()
        oram = PathORAM(100, trace=trace, seed=11)
        rng = random.Random(0)
        for _ in range(200):
            oram.access(rng.choice(["read", "write"]), rng.randrange(100),
                        1.0)
        offs, ops = self._paths(trace, oram)
        assert offs.shape[0] == 200
        h = oram.height
        fetch, write_back = offs[:, : 2 * (h + 1)], offs[:, 2 * (h + 1):]
        reads = fetch[:, 0::2]
        # Each bucket is read then cleared, root to leaf ...
        assert np.array_equal(fetch[:, 1::2], reads)
        assert (ops[:, : 2 * (h + 1) : 2] == OP_READ).all()
        assert (ops[:, 1 : 2 * (h + 1) : 2] == OP_WRITE).all()
        # ... along a valid path from the root to a leaf bucket ...
        assert (reads[:, 0] == 0).all()
        assert np.array_equal((reads[:, 1:] - 1) // 2, reads[:, :-1])
        assert (reads[:, -1] >= oram.n_leaves - 1).all()
        # ... then the same path is written back leaf to root.
        assert np.array_equal(write_back, reads[:, ::-1])
        assert (ops[:, 2 * (h + 1):] == OP_WRITE).all()

    def test_trace_length_depends_only_on_nnz_and_d(self):
        d, nnz = 150, 60
        lengths = set()
        for seed in range(4):
            updates = [
                LocalUpdate(0, np.full(nnz, seed * 7 % d), np.ones(nnz)),
            ] if seed % 2 else _updates(3, nnz // 3, d, seed)
            trace = Trace()
            aggregate_path_oram(updates, d, trace=trace, seed=seed,
                                stash_limit=80)
            lengths.add(len(trace))
        height = (d - 1).bit_length()
        assert lengths == {3 * (height + 1) * (2 * nnz + d)}

    def test_fetched_leaves_are_uniform(self):
        # Same input every time: hammer one block and check the leaf
        # each access fetches is uniform over the leaves.
        trace = Trace()
        oram = PathORAM(64, trace=trace, seed=12)
        for _ in range(6400):
            oram.read(5)
        offs, _ = self._paths(trace, oram)
        leaves = offs[:, 2 * oram.height] - (oram.n_leaves - 1)
        counts = np.bincount(leaves, minlength=oram.n_leaves)
        assert counts.size == oram.n_leaves
        assert chisquare(counts).pvalue > 1e-3
