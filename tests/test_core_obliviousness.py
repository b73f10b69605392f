"""Machine checks of the paper's obliviousness propositions.

Proposition 3.1: Linear is fully oblivious for *dense* gradients.
Proposition 3.2: Linear is NOT oblivious for sparsified gradients (the
    adversary recovers the exact index sets).
Proposition 5.1: Baseline is fully oblivious at cacheline granularity.
Proposition 5.2: Advanced is fully oblivious (word granularity).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import (
    aggregate_advanced,
    aggregate_baseline,
    aggregate_linear,
)
from repro.core.obliviousness import (
    check_oblivious,
    empirical_statistical_distance,
    leaked_index_sets,
    trace_distance,
    trace_key,
    traces_equal,
)
from repro.fl.client import LocalUpdate
from repro.sgx.memory import Trace

ITEMSIZES = {"g": 8, "g_star": 4}


def sparse_updates(seed, n_clients=4, d=30, k=5):
    rng = np.random.default_rng(seed)
    out = []
    for cid in range(n_clients):
        idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
        out.append(LocalUpdate(cid, idx, rng.normal(size=k)))
    return out


def dense_updates(seed, n_clients=4, d=30):
    rng = np.random.default_rng(seed)
    return [
        LocalUpdate(cid, np.arange(d, dtype=np.int64), rng.normal(size=d))
        for cid in range(n_clients)
    ]


def run_traced(aggregator, updates, d):
    trace = Trace()
    aggregator(updates, d, trace=trace)
    return trace


class TestProposition31:
    """Linear is fully oblivious for dense gradients."""

    def test_dense_traces_identical(self):
        d = 30
        t1 = run_traced(aggregate_linear, dense_updates(1, d=d), d)
        t2 = run_traced(aggregate_linear, dense_updates(2, d=d), d)
        assert traces_equal(t1, t2)

    def test_check_oblivious_over_many_inputs(self):
        d = 20
        report = check_oblivious(
            lambda s: run_traced(aggregate_linear, dense_updates(s, d=d), d),
            inputs=range(8),
        )
        assert report.oblivious
        assert report.trials == 8


class TestProposition32:
    """Linear leaks everything on sparse input."""

    def test_sparse_traces_differ(self):
        d = 30
        t1 = run_traced(aggregate_linear, sparse_updates(1, d=d), d)
        t2 = run_traced(aggregate_linear, sparse_updates(2, d=d), d)
        assert not traces_equal(t1, t2)
        assert trace_distance(t1, t2) > 0

    def test_statistical_distance_is_one(self):
        # Deterministic disjoint traces: TV distance 1 (the paper's
        # "delta = 1, not oblivious" worst case).
        d = 30
        dist = empirical_statistical_distance(
            lambda ups: run_traced(aggregate_linear, ups, d),
            sparse_updates(1, d=d),
            sparse_updates(2, d=d),
            samples=5,
        )
        assert dist == 1.0

    def test_adversary_recovers_exact_index_sets(self):
        d = 30
        updates = sparse_updates(3, d=d)
        trace = run_traced(aggregate_linear, updates, d)
        boundaries = [0]
        for u in updates:
            boundaries.append(boundaries[-1] + u.k)
        recovered = leaked_index_sets(trace, "g_star", boundaries)
        for u, leak in zip(updates, recovered):
            assert leak == frozenset(u.indices.tolist())

    def test_check_oblivious_finds_witness(self):
        d = 20
        report = check_oblivious(
            lambda s: run_traced(aggregate_linear, sparse_updates(s, d=d), d),
            inputs=range(5),
        )
        assert not report.oblivious
        assert report.first_mismatch_trial is not None


class TestProposition51:
    """Baseline: cacheline-level fully oblivious, word-level leaky-ish."""

    @pytest.mark.parametrize("d", [16, 30, 37, 64])
    def test_cacheline_traces_identical(self, d):
        t1 = run_traced(aggregate_baseline, sparse_updates(1, d=d), d)
        t2 = run_traced(aggregate_baseline, sparse_updates(2, d=d), d)
        assert traces_equal(t1, t2, granularity="cacheline",
                            itemsizes=ITEMSIZES)

    def test_word_traces_may_differ(self):
        # Word-granularity addresses depend on (index mod 16); with d=30
        # two different index sets almost surely differ.
        d = 30
        t1 = run_traced(aggregate_baseline, sparse_updates(1, d=d), d)
        t2 = run_traced(aggregate_baseline, sparse_updates(2, d=d), d)
        assert not traces_equal(t1, t2)

    def test_every_cacheline_swept_per_weight(self):
        d = 64
        updates = [LocalUpdate(0, np.asarray([5]), np.asarray([1.0]))]
        trace = run_traced(aggregate_baseline, updates, d)
        lines = set(trace.cachelines("g_star", itemsize=4))
        assert lines == {0, 1, 2, 3}

    def test_check_oblivious_at_cacheline(self):
        d = 37
        report = check_oblivious(
            lambda s: run_traced(
                aggregate_baseline, sparse_updates(s, d=d), d
            ),
            inputs=range(6),
            granularity="cacheline",
            itemsizes=ITEMSIZES,
        )
        assert report.oblivious


class TestProposition52:
    """Advanced is fully oblivious at word granularity."""

    @pytest.mark.parametrize("d", [8, 20, 33])
    def test_traces_identical_across_inputs(self, d):
        t1 = run_traced(aggregate_advanced, sparse_updates(1, d=d), d)
        t2 = run_traced(aggregate_advanced, sparse_updates(2, d=d), d)
        assert traces_equal(t1, t2)

    def test_extreme_inputs_same_trace(self):
        # All clients hitting one index vs spread indices: same trace.
        d = 16
        k = 4
        concentrated = [
            LocalUpdate(c, np.zeros(k, dtype=np.int64), np.ones(k))
            for c in range(3)
        ]
        spread = [
            LocalUpdate(c, np.arange(k, dtype=np.int64) + c, np.ones(k))
            for c in range(3)
        ]
        t1 = run_traced(aggregate_advanced, concentrated, d)
        t2 = run_traced(aggregate_advanced, spread, d)
        assert traces_equal(t1, t2)

    def test_check_oblivious_many_inputs(self):
        d = 16
        report = check_oblivious(
            lambda s: run_traced(
                aggregate_advanced, sparse_updates(s, d=d, k=3), d
            ),
            inputs=range(10),
        )
        assert report.oblivious

    @given(st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_trace_depends_only_on_shape(self, seed_a, seed_b):
        d = 12
        t1 = run_traced(
            aggregate_advanced, sparse_updates(seed_a, d=d, k=3), d
        )
        t2 = run_traced(
            aggregate_advanced, sparse_updates(seed_b, d=d, k=3), d
        )
        assert traces_equal(t1, t2)

    def test_different_shapes_allowed_to_differ(self):
        # Obliviousness is defined over equal-length inputs; different k
        # naturally yields a different (public-shape) trace.
        d = 16
        t1 = run_traced(aggregate_advanced, sparse_updates(1, d=d, k=2), d)
        t2 = run_traced(aggregate_advanced, sparse_updates(1, d=d, k=6), d)
        assert len(t1) != len(t2)


class TestTraceKeyHelpers:
    def test_trace_key_granularities(self):
        trace = Trace()
        trace.record("g_star", 17, "read")
        assert trace_key(trace) == (("g_star", 17, "read"),)
        assert trace_key(trace, "cacheline", itemsizes={"g_star": 4}) == (
            ("g_star", 1, "read"),
        )

    def test_trace_key_unknown_granularity(self):
        with pytest.raises(ValueError):
            trace_key(Trace(), "page")

    def test_trace_distance_zero_for_equal(self):
        t = Trace()
        t.record("g", 0, "read")
        assert trace_distance(t, t) == 0

    def test_trace_distance_counts_length_difference(self):
        t1, t2 = Trace(), Trace()
        t1.record("g", 0, "read")
        assert trace_distance(t1, t2) == 1
