"""Deep property-based tests across module boundaries."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.aggregation import (
    aggregate_advanced,
    aggregate_linear,
    aggregate_path_oram,
)
from repro.core.do_aggregation import DoParameters, aggregate_do
from repro.core.grouping import aggregate_grouped
from repro.fl.client import LocalUpdate
from repro.fl.sparsify import densify, l2_clip, top_k
from repro.oblivious.sort import bitonic_sort_numpy
from repro.sgx import crypto


@st.composite
def sparse_round(draw, max_d=32, max_clients=4):
    d = draw(st.integers(2, max_d))
    n = draw(st.integers(1, max_clients))
    updates = []
    for cid in range(n):
        k = draw(st.integers(1, d))
        idx = draw(st.lists(st.integers(0, d - 1), min_size=k, max_size=k))
        val = draw(st.lists(
            st.floats(-20, 20, allow_nan=False), min_size=k, max_size=k
        ))
        updates.append(LocalUpdate(
            cid, np.asarray(idx, dtype=np.int64), np.asarray(val)
        ))
    return d, updates


class TestAggregatorUniversalAgreement:
    @given(sparse_round())
    @settings(max_examples=15, deadline=None)
    def test_path_oram_matches_linear(self, case):
        d, updates = case
        ref = aggregate_linear(updates, d)
        out = aggregate_path_oram(updates, d, seed=0, stash_limit=60)
        assert np.allclose(out, ref)

    @given(sparse_round(), st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_grouped_matches_linear(self, case, h):
        d, updates = case
        ref = aggregate_linear(updates, d)
        assert np.allclose(aggregate_grouped(updates, d, h), ref)

    @given(sparse_round(), st.floats(0.5, 8.0))
    @settings(max_examples=10, deadline=None)
    def test_do_matches_linear(self, case, epsilon):
        d, updates = case
        k_max = max(u.k for u in updates)
        ref = aggregate_linear(updates, d)
        out, hist = aggregate_do(
            updates, d, DoParameters(epsilon=epsilon, sensitivity=k_max),
            np.random.default_rng(0),
        )
        assert np.allclose(out, ref)
        true_hist = np.zeros(d, dtype=int)
        for u in updates:
            np.add.at(true_hist, u.indices, 1)
        assert np.all(hist >= true_hist)

    @given(sparse_round())
    @settings(max_examples=20, deadline=None)
    def test_aggregation_is_linear_in_values(self, case):
        # agg(2 * updates) == 2 * agg(updates): aggregation is a linear
        # operator on the value vectors.
        d, updates = case
        doubled = [
            LocalUpdate(u.client_id, u.indices, 2 * u.values) for u in updates
        ]
        assert np.allclose(
            aggregate_advanced(doubled, d), 2 * aggregate_advanced(updates, d)
        )

    @given(sparse_round())
    @settings(max_examples=20, deadline=None)
    def test_aggregation_permutation_invariant(self, case):
        # Client order must not matter.
        d, updates = case
        assert np.allclose(
            aggregate_advanced(updates, d),
            aggregate_advanced(list(reversed(updates)), d),
        )


class TestSparsifyProperties:
    @given(st.lists(st.floats(-100, 100, allow_nan=False),
                    min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_topk_densify_error_is_optimal(self, values):
        # Among all k-sparse approximations, top-k (by |.|) minimizes
        # the L2 reconstruction error.
        delta = np.asarray(values)
        k = max(1, delta.size // 3)
        (idx,), (val,) = top_k(delta[None], k)
        approx = densify(idx, val, delta.size)
        topk_err = np.linalg.norm(delta - approx)
        rng = np.random.default_rng(0)
        for _ in range(5):
            rand_idx = rng.choice(delta.size, size=k, replace=False)
            rand_approx = densify(
                rand_idx.astype(np.int64), delta[rand_idx], delta.size
            )
            assert topk_err <= np.linalg.norm(delta - rand_approx) + 1e-9

    @given(st.lists(st.floats(-100, 100, allow_nan=False),
                    min_size=1, max_size=30),
           st.floats(0.01, 50))
    @settings(max_examples=40, deadline=None)
    def test_clip_is_idempotent(self, values, clip):
        v = np.asarray(values)[None]
        once = l2_clip(v, clip)
        twice = l2_clip(once, clip)
        assert np.allclose(once, twice)


class TestSortProperties:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=128))
    @settings(max_examples=30, deadline=None)
    def test_sort_is_idempotent(self, values):
        keys = np.asarray(values, dtype=np.int64)
        bitonic_sort_numpy(keys)
        snapshot = keys.copy()
        bitonic_sort_numpy(keys)
        assert np.array_equal(keys, snapshot)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=128))
    @settings(max_examples=30, deadline=None)
    def test_sort_preserves_multiset(self, values):
        keys = np.asarray(values, dtype=np.int64)
        before = sorted(keys.tolist())
        bitonic_sort_numpy(keys)
        assert sorted(keys.tolist()) == before


class TestCryptoProperties:
    KEY = crypto.generate_key(b"prop")

    @given(st.binary(max_size=300), st.integers(0, 255), st.integers(0, 63))
    @settings(max_examples=40, deadline=None)
    def test_any_single_byte_flip_rejected(self, message, xor, pos):
        assume(xor != 0)
        ct = crypto.seal(self.KEY, message)
        raw = bytearray(ct.to_bytes())
        pos = pos % len(raw)
        raw[pos] ^= xor
        forged = crypto.Ciphertext.from_bytes(bytes(raw))
        with pytest.raises(crypto.AuthenticationError):
            crypto.open_sealed(self.KEY, forged)

    # min_size=8: a k-byte message XORed with a random keystream equals
    # itself with probability 2^-8k, so 1-byte drafts flake ~0.4% of
    # the time; 8 bytes puts the false-failure odds at 2^-64.
    @given(st.binary(min_size=8, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_ciphertext_hides_plaintext_prefix(self, message):
        ct = crypto.seal(self.KEY, message)
        assert ct.body != message
