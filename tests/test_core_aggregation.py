"""Tests for the aggregation algorithms (repro.core.aggregation).

Correctness: every aggregator must compute exactly the Linear
scatter-add result, on arbitrary sparse inputs including duplicate
indices across clients.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import (
    AGGREGATORS,
    M0,
    aggregate_advanced,
    aggregate_baseline,
    aggregate_linear,
    aggregate_path_oram,
)
from repro.fl.client import LocalUpdate
from repro.sgx.memory import Trace


def make_updates(seed, n_clients=4, d=25, k=5):
    rng = np.random.default_rng(seed)
    updates = []
    for cid in range(n_clients):
        idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
        val = rng.normal(size=k)
        updates.append(LocalUpdate(cid, idx, val))
    return updates


@st.composite
def updates_strategy(draw):
    d = draw(st.integers(2, 40))
    n_clients = draw(st.integers(1, 5))
    updates = []
    for cid in range(n_clients):
        k = draw(st.integers(1, d))
        idx = draw(
            st.lists(st.integers(0, d - 1), min_size=k, max_size=k)
        )
        val = draw(
            st.lists(st.floats(-50, 50), min_size=k, max_size=k)
        )
        updates.append(
            LocalUpdate(cid, np.asarray(idx, dtype=np.int64), np.asarray(val))
        )
    return d, updates


class TestAgreement:
    def test_all_fast_aggregators_match_linear(self):
        d = 25
        updates = make_updates(0, d=d)
        ref = aggregate_linear(updates, d)
        assert np.allclose(aggregate_baseline(updates, d), ref)
        assert np.allclose(aggregate_advanced(updates, d), ref)
        assert np.allclose(aggregate_path_oram(updates, d, seed=0), ref)

    def test_all_traced_aggregators_match_linear(self):
        d = 25
        updates = make_updates(1, d=d)
        ref = aggregate_linear(updates, d)
        assert np.allclose(aggregate_linear(updates, d, trace=Trace()), ref)
        assert np.allclose(aggregate_baseline(updates, d, trace=Trace()), ref)
        assert np.allclose(aggregate_advanced(updates, d, trace=Trace()), ref)

    @given(updates_strategy())
    @settings(max_examples=30, deadline=None)
    def test_advanced_matches_linear_property(self, case):
        d, updates = case
        ref = aggregate_linear(updates, d)
        assert np.allclose(aggregate_advanced(updates, d), ref)

    @given(updates_strategy())
    @settings(max_examples=15, deadline=None)
    def test_baseline_matches_linear_property(self, case):
        d, updates = case
        ref = aggregate_linear(updates, d)
        assert np.allclose(aggregate_baseline(updates, d), ref)

    @given(updates_strategy())
    @settings(max_examples=10, deadline=None)
    def test_traced_advanced_matches_fast(self, case):
        d, updates = case
        fast = aggregate_advanced(updates, d)
        traced = aggregate_advanced(updates, d, trace=Trace())
        assert np.allclose(fast, traced)


class TestAdvancedTraceReservation:
    @pytest.mark.parametrize("n,k,d", [(1, 1, 200), (3, 5, 25), (20, 30, 600)])
    def test_fresh_trace_is_sized_exactly_once(self, n, k, d):
        # The kernel reserves its whole length-determined trace up front:
        # no growth copies and no doubling overshoot.
        trace = Trace()
        aggregate_advanced(make_updates(n, n, d, k), d, trace=trace)
        assert len(trace._offs) == len(trace)

    def test_reservation_keeps_the_trace(self):
        updates = make_updates(2, n_clients=3, d=40, k=6)
        reserved, grown = Trace(), Trace()
        aggregate_advanced(updates, 40, trace=reserved)
        for access in reserved:
            grown.record(access.region, access.offset, access.op)
        assert reserved == grown
        assert reserved.signature_digest() == grown.signature_digest()


class TestEdgeCases:
    def test_no_updates_yields_zeros(self):
        for name, spec in AGGREGATORS.items():
            if name == "path_oram":
                continue  # covered below with seed control
            out = spec.run([], 7)
            assert np.allclose(out, 0.0), name
        assert np.allclose(aggregate_path_oram([], 7, seed=0), 0.0)

    def test_single_client_single_weight(self):
        updates = [LocalUpdate(0, np.asarray([3]), np.asarray([2.5]))]
        for name, spec in AGGREGATORS.items():
            assert np.allclose(
                spec.run(updates, 5), [0, 0, 0, 2.5, 0]
            ), name

    def test_duplicate_indices_within_one_client(self):
        updates = [
            LocalUpdate(0, np.asarray([1, 1, 2]), np.asarray([1.0, 2.0, 4.0]))
        ]
        expected = [0.0, 3.0, 4.0]
        assert np.allclose(aggregate_linear(updates, 3), expected)
        assert np.allclose(aggregate_advanced(updates, 3), expected)
        assert np.allclose(
            aggregate_advanced(updates, 3, trace=Trace()), expected
        )

    def test_all_clients_same_index(self):
        updates = [
            LocalUpdate(c, np.asarray([4]), np.asarray([1.0])) for c in range(5)
        ]
        for name, spec in AGGREGATORS.items():
            out = spec.run(updates, 6)
            assert out[4] == pytest.approx(5.0), name

    def test_d_one(self):
        updates = [LocalUpdate(0, np.asarray([0]), np.asarray([1.5]))]
        assert np.allclose(aggregate_advanced(updates, 1), [1.5])
        assert np.allclose(aggregate_advanced(updates, 1, trace=Trace()), [1.5])

    def test_index_out_of_range_rejected(self):
        updates = [LocalUpdate(0, np.asarray([9]), np.asarray([1.0]))]
        for name, spec in AGGREGATORS.items():
            with pytest.raises(ValueError):
                spec.run(updates, 5)

    def test_negative_index_rejected(self):
        updates = [LocalUpdate(0, np.asarray([-1]), np.asarray([1.0]))]
        with pytest.raises(ValueError):
            aggregate_advanced(updates, 5)

    def test_m0_larger_than_any_model(self):
        # The dummy index must sort after every real index.
        assert M0 > 10**9


class TestAggregatorRegistry:
    def test_registry_complete(self):
        assert set(AGGREGATORS) == {"linear", "baseline", "advanced", "path_oram"}

    def test_obliviousness_labels(self):
        assert AGGREGATORS["linear"].oblivious_sparse == "none"
        assert AGGREGATORS["baseline"].oblivious_sparse == "cacheline"
        assert AGGREGATORS["advanced"].oblivious_sparse == "full"
        assert AGGREGATORS["path_oram"].oblivious_sparse == "full"

    def test_run_traced_smoke(self):
        updates = make_updates(2, d=16, k=3)
        for name, spec in AGGREGATORS.items():
            trace = Trace()
            out = spec.run_traced(updates, 16, trace)
            assert np.allclose(out, aggregate_linear(updates, 16)), name
            assert len(trace) > 0, name

    def test_one_kernel_traced_or_not(self):
        # run() with and without a trace, and the run_traced delegate,
        # all go through the same kernel: identical output bytes, and
        # (Path ORAM's random leaves aside) identical traces.
        updates = make_updates(3, d=40, k=6)
        for name, spec in AGGREGATORS.items():
            t_run, t_delegate = Trace(), Trace()
            plain = spec.run(updates, 40)
            traced = spec.run(updates, 40, trace=t_run)
            delegated = spec.run_traced(updates, 40, t_delegate)
            assert plain.tobytes() == traced.tobytes() == delegated.tobytes(), name
            assert len(t_run) == len(t_delegate) > 0, name
            if name != "path_oram":
                assert t_run.signature() == t_delegate.signature(), name
