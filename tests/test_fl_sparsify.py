"""Tests for sparsification and clipping (repro.fl.sparsify).

The sparsifiers work row-wise on ``(C, d)`` delta stacks; a single
delta is the one-row stack ``delta[None]``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fl.sparsify import densify, l2_clip, random_k, threshold, top_k, top_ratio


class TestTopK:
    def test_picks_largest_magnitudes(self):
        delta = np.asarray([0.1, -5.0, 0.2, 3.0, -0.05])
        idx, val = top_k(delta[None], 2)
        assert idx.tolist() == [[1, 3]]
        assert val.tolist() == [[-5.0, 3.0]]

    def test_k_equals_d_keeps_everything(self):
        delta = np.asarray([1.0, -2.0, 3.0])
        idx, val = top_k(delta[None], 3)
        assert idx.tolist() == [[0, 1, 2]]
        assert val.tolist() == [[1.0, -2.0, 3.0]]

    def test_indices_sorted_ascending(self):
        delta = np.asarray([5.0, 1.0, 4.0, 2.0, 3.0])
        idx, _ = top_k(delta[None], 3)
        assert idx[0].tolist() == sorted(idx[0].tolist())

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            top_k(np.asarray([[1.0]]), 0)
        with pytest.raises(ValueError):
            top_k(np.asarray([[1.0]]), 2)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50),
           st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_selected_dominate_unselected(self, values, k):
        delta = np.asarray(values)
        k = min(k, delta.size)
        (idx,), (val,) = top_k(delta[None], k)
        assert len(idx) == k
        chosen = set(idx.tolist())
        if k < delta.size:
            min_chosen = min(abs(v) for v in val)
            max_rest = max(
                abs(delta[i]) for i in range(delta.size) if i not in chosen
            )
            assert min_chosen >= max_rest - 1e-12

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_values_match_indices(self, values):
        delta = np.asarray(values)
        (idx,), (val,) = top_k(delta[None], max(1, delta.size // 2))
        assert np.array_equal(delta[idx], val)

    def test_rows_are_independent(self):
        # A row's selection must not depend on the rows stacked with it.
        rng = np.random.default_rng(0)
        deltas = rng.normal(size=(5, 30))
        idx, val = top_k(deltas, 4)
        for c in range(5):
            (solo_idx,), (solo_val,) = top_k(deltas[c : c + 1], 4)
            assert np.array_equal(idx[c], solo_idx)
            assert np.array_equal(val[c], solo_val)


class TestTopRatio:
    def test_ratio_sets_k(self):
        delta = np.arange(100, dtype=float)
        idx, _ = top_ratio(delta[None], 0.1)
        assert idx.shape == (1, 10)

    def test_small_ratio_keeps_at_least_one(self):
        idx, _ = top_ratio(np.asarray([[1.0, 2.0]]), 0.001)
        assert idx.shape == (1, 1)

    def test_ratio_one_is_dense(self):
        idx, _ = top_ratio(np.arange(7, dtype=float)[None] + 1, 1.0)
        assert idx.shape == (1, 7)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            top_ratio(np.asarray([[1.0]]), 0.0)
        with pytest.raises(ValueError):
            top_ratio(np.asarray([[1.0]]), 1.5)


class TestThreshold:
    def test_keeps_above_tau(self):
        delta = np.asarray([0.1, -2.0, 0.5, 3.0])
        (idx,), (val,) = threshold(delta[None], 0.5)
        assert idx.tolist() == [1, 2, 3]
        assert val.tolist() == [-2.0, 0.5, 3.0]

    def test_empty_result_possible(self):
        (idx,), _ = threshold(np.asarray([[0.1, 0.2]]), 10.0)
        assert len(idx) == 0

    def test_ragged_rows(self):
        idx, val = threshold(np.asarray([[0.1, 2.0, 3.0], [5.0, 0.0, 0.2]]),
                             1.0)
        assert [i.tolist() for i in idx] == [[1, 2], [0]]
        assert [v.tolist() for v in val] == [[2.0, 3.0], [5.0]]

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            threshold(np.asarray([[1.0]]), -1.0)


class TestRandomK:
    def test_count_and_range(self):
        rng = np.random.default_rng(0)
        (idx,), _ = random_k(np.arange(20, dtype=float)[None], 5, [rng])
        assert len(idx) == 5
        assert len(set(idx.tolist())) == 5
        assert all(0 <= i < 20 for i in idx)

    def test_data_independent_choice(self):
        # Same rng state, different data -> same indices chosen.
        a_idx, _ = random_k(np.arange(20, dtype=float)[None],
                            5, [np.random.default_rng(42)])
        b_idx, _ = random_k(np.zeros((1, 20)), 5, [np.random.default_rng(42)])
        assert np.array_equal(a_idx, b_idx)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            random_k(np.asarray([[1.0]]), 0, [np.random.default_rng(0)])
        with pytest.raises(ValueError, match="one Generator per row"):
            random_k(np.zeros((2, 3)), 1, [np.random.default_rng(0)])


class TestDensify:
    def test_roundtrip_with_top_k(self):
        delta = np.asarray([0.0, 5.0, 0.0, -3.0])
        (idx,), (val,) = top_k(delta[None], 2)
        assert np.array_equal(densify(idx, val, 4), delta)

    def test_duplicate_indices_accumulate(self):
        dense = densify(np.asarray([1, 1]), np.asarray([2.0, 3.0]), 3)
        assert dense.tolist() == [0.0, 5.0, 0.0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            densify(np.asarray([5]), np.asarray([1.0]), 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            densify(np.asarray([1, 2]), np.asarray([1.0]), 5)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=30),
           st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_sparsify_densify_preserves_topk_coords(self, values, alpha):
        delta = np.asarray(values)
        (idx,), (val,) = top_ratio(delta[None], alpha)
        dense = densify(idx, val, delta.size)
        assert np.array_equal(dense[idx], delta[idx])


class TestClip:
    def test_below_bound_untouched(self):
        v = np.asarray([[0.3, 0.4]])
        assert np.array_equal(l2_clip(v, 1.0), v)

    def test_above_bound_scaled_to_clip(self):
        v = np.asarray([[3.0, 4.0]])
        (clipped,) = l2_clip(v, 1.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)
        # Direction preserved.
        assert clipped[1] / clipped[0] == pytest.approx(4.0 / 3.0)

    def test_zero_vector_safe(self):
        assert np.array_equal(l2_clip(np.zeros((1, 3)), 1.0), np.zeros((1, 3)))

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            l2_clip(np.asarray([[1.0]]), 0.0)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20),
           st.floats(0.1, 10))
    @settings(max_examples=50, deadline=None)
    def test_norm_never_exceeds_bound(self, values, clip):
        (out,) = l2_clip(np.asarray(values)[None], clip)
        assert np.linalg.norm(out) <= clip * (1 + 1e-9)

    def test_returns_copy(self):
        v = np.asarray([[0.1]])
        out = l2_clip(v, 1.0)
        out[0, 0] = 99.0
        assert v[0, 0] == 0.1
