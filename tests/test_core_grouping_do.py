"""Tests for the grouping optimization (Sec. 5.3) and the DO path (5.4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import aggregate_advanced, aggregate_linear
from repro.core.do_aggregation import (
    DoParameters,
    aggregate_do,
    do_padding_counts,
    do_padding_overhead,
    expected_padding_per_bin,
)
from repro.core.grouping import (
    aggregate_grouped,
    split_groups,
)
from repro.core.obliviousness import traces_equal
from repro.fl.client import LocalUpdate
from repro.sgx.memory import Trace


def make_updates(seed, n_clients=9, d=20, k=4):
    rng = np.random.default_rng(seed)
    out = []
    for cid in range(n_clients):
        idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
        out.append(LocalUpdate(cid, idx, rng.normal(size=k)))
    return out


class TestSplitGroups:
    def test_even_split(self):
        groups = split_groups(make_updates(0, n_clients=9), 3)
        assert [len(g) for g in groups] == [3, 3, 3]

    def test_remainder_group(self):
        groups = split_groups(make_updates(0, n_clients=7), 3)
        assert [len(g) for g in groups] == [3, 3, 1]

    def test_group_larger_than_n(self):
        groups = split_groups(make_updates(0, n_clients=4), 100)
        assert len(groups) == 1

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            split_groups([], 0)


class TestGroupedAggregation:
    @pytest.mark.parametrize("h", [1, 2, 3, 5, 9, 20])
    def test_matches_ungrouped(self, h):
        d = 20
        updates = make_updates(1, d=d)
        ref = aggregate_linear(updates, d)
        assert np.allclose(aggregate_grouped(updates, d, h), ref)

    @given(st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_group_size_never_changes_result(self, h):
        d = 16
        updates = make_updates(2, n_clients=7, d=d, k=3)
        ref = aggregate_linear(updates, d)
        assert np.allclose(aggregate_grouped(updates, d, h), ref)

    def test_traced_matches_and_is_oblivious(self):
        d = 12
        h = 2
        ref = aggregate_linear(make_updates(3, n_clients=4, d=d, k=3), d)
        t1, t2 = Trace(), Trace()
        out = aggregate_grouped(make_updates(3, n_clients=4, d=d, k=3),
                                d, h, trace=t1)
        aggregate_grouped(make_updates(4, n_clients=4, d=d, k=3),
                          d, h, trace=t2)
        assert np.allclose(out, ref)
        assert traces_equal(t1, t2)

    def test_grouped_trace_differs_from_monolithic(self):
        # Grouping genuinely changes the work pattern (smaller sorts).
        d = 12
        updates = make_updates(5, n_clients=4, d=d, k=3)
        grouped, mono = Trace(), Trace()
        aggregate_grouped(updates, d, 2, trace=grouped)
        aggregate_advanced(updates, d, trace=mono)
        assert len(grouped) != len(mono)


class TestDoParameters:
    def test_per_bin_epsilon_composition(self):
        params = DoParameters(epsilon=2.0, sensitivity=4)
        assert params.per_bin_epsilon() == pytest.approx(0.5)

    def test_invalid_sensitivity(self):
        with pytest.raises(ValueError):
            DoParameters(epsilon=1.0, sensitivity=0).per_bin_epsilon()

    def test_padding_counts_shape_and_sign(self):
        params = DoParameters(epsilon=5.0, sensitivity=1)
        counts = do_padding_counts(10, params, np.random.default_rng(0))
        assert counts.shape == (10,)
        assert counts.min() >= 0


class TestDoAggregation:
    def test_aggregate_value_unchanged_by_padding(self):
        d = 15
        updates = make_updates(0, n_clients=5, d=d, k=3)
        ref = aggregate_linear(updates, d)
        params = DoParameters(epsilon=2.0, sensitivity=3)
        out, _ = aggregate_do(updates, d, params, np.random.default_rng(0))
        assert np.allclose(out, ref)

    def test_observed_histogram_covers_true_counts(self):
        d = 10
        updates = make_updates(1, n_clients=4, d=d, k=2)
        true_hist = np.zeros(d, dtype=int)
        for u in updates:
            np.add.at(true_hist, u.indices, 1)
        params = DoParameters(epsilon=2.0, sensitivity=2)
        _, observed = aggregate_do(updates, d, params, np.random.default_rng(0))
        assert np.all(observed >= true_hist)  # one-sided noise only

    def test_histogram_is_noisy(self):
        d = 10
        updates = make_updates(2, n_clients=3, d=d, k=2)
        params = DoParameters(epsilon=1.0, sensitivity=2)
        _, observed = aggregate_do(updates, d, params, np.random.default_rng(0))
        true_hist = np.zeros(d, dtype=int)
        for u in updates:
            np.add.at(true_hist, u.indices, 1)
        assert not np.array_equal(observed, true_hist)


class TestDoCostAnalysis:
    def test_expected_padding_scales_with_sensitivity(self):
        low = expected_padding_per_bin(DoParameters(1.0, sensitivity=1))
        high = expected_padding_per_bin(DoParameters(1.0, sensitivity=50))
        assert high > low * 10

    def test_fl_scale_overhead_is_prohibitive(self):
        # The paper's point: at realistic FL scale (d large, k large),
        # DO padding dwarfs the fully-oblivious working set.
        report = do_padding_overhead(
            n=100, k=500, d=50_000, params=DoParameters(1.0, sensitivity=500)
        )
        assert report["overhead_ratio"] > 10

    def test_tiny_scale_overhead_modest(self):
        report = do_padding_overhead(
            n=100, k=2, d=20, params=DoParameters(5.0, sensitivity=1)
        )
        assert report["overhead_ratio"] < 5

    def test_report_keys(self):
        report = do_padding_overhead(10, 2, 20, DoParameters(1.0, 2))
        assert set(report) == {
            "do_elements", "advanced_elements", "overhead_ratio",
            "expected_dummies",
        }


def _dense_sum(updates, d):
    out = np.zeros(d)
    for u in updates:
        np.add.at(out, u.indices, u.values)
    return out


class TestUnpaddedLengths:
    """Advanced, grouped and DO aggregate correctly when the sorted
    length (nk + d for Advanced, nk + dummies for DO) is not a power of
    two: the network runs truncated, with no padding."""

    @pytest.mark.parametrize("n,k,d", [(1, 1, 2), (2, 3, 7), (5, 9, 50),
                                       (12, 30, 1000), (3, 1, 2)])
    def test_advanced_matches_dense_sum(self, n, k, d):
        assert (n * k + d) & (n * k + d - 1)
        updates = make_updates(n * 100 + k, n_clients=n, d=d, k=k)
        trace = Trace()
        out = aggregate_advanced(updates, d, trace=trace)
        np.testing.assert_allclose(out, _dense_sum(updates, d), atol=1e-12)
        assert max(trace.offsets_array("g")) == n * k + d - 1

    @pytest.mark.parametrize("h", [1, 2, 3, 5])
    def test_grouped_matches_dense_sum(self, h):
        d = 37
        updates = make_updates(6, n_clients=7, d=d, k=5)
        out = aggregate_grouped(updates, d, h, trace=Trace())
        np.testing.assert_allclose(out, _dense_sum(updates, d), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_do_matches_dense_sum(self, seed):
        d = 23
        updates = make_updates(seed, n_clients=5, d=d, k=3)
        params = DoParameters(epsilon=2.0, sensitivity=3)
        out, observed = aggregate_do(updates, d, params,
                                     np.random.default_rng(seed))
        np.testing.assert_allclose(out, _dense_sum(updates, d), atol=1e-12)
        true_hist = np.bincount(
            np.concatenate([u.indices for u in updates]), minlength=d)
        assert np.all(observed >= true_hist)
