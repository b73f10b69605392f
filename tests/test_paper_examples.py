"""Fidelity tests pinned to concrete examples from the paper's text."""

import numpy as np

from repro.core.aggregation import (
    M0,
    aggregate_advanced,
    _fold_sorted,
)
from repro.fl.client import LocalUpdate
from repro.sgx.memory import Trace


class TestFigure9RunningExample:
    """The paper's worked Advanced example: n=3, k=2, d=4.

    g1 = [(1,0.2),(4,0.5)], g2 = [(2,0.6),(4,0.2)], g3 = [(1,0.1),(4,0.2)]
    => g* = [0.3, 0.6, 0.0, 0.9]   (paper uses 1-based indices).
    """

    def _updates(self):
        # Paper indices are 1-based; ours 0-based.
        return [
            LocalUpdate(0, np.asarray([0, 3]), np.asarray([0.2, 0.5])),
            LocalUpdate(1, np.asarray([1, 3]), np.asarray([0.6, 0.2])),
            LocalUpdate(2, np.asarray([0, 3]), np.asarray([0.1, 0.2])),
        ]

    def test_fast_advanced_matches_paper(self):
        result = aggregate_advanced(self._updates(), 4)
        assert np.allclose(result, [0.3, 0.6, 0.0, 0.9])

    def test_traced_advanced_matches_paper(self):
        result = aggregate_advanced(self._updates(), 4, trace=Trace())
        assert np.allclose(result, [0.3, 0.6, 0.0, 0.9])

    def test_folding_intermediate_state(self):
        # After the first sort the example's vector is
        # [(1,.2),(1,.1),(1,0),(2,.6),(2,0),(3,0),(4,.5),(4,.2),(4,.2),(4,0)]
        # (paper Figure 9, line 4-5 state); folding must leave the run
        # totals on the last element of each run and M0 elsewhere.
        idx = np.asarray([0, 0, 0, 1, 1, 2, 3, 3, 3, 3], dtype=np.int64)
        val = np.asarray([0.2, 0.1, 0.0, 0.6, 0.0, 0.0, 0.5, 0.2, 0.2, 0.0])
        out_idx, out_val = _fold_sorted(idx, val)
        keep = out_idx != M0
        assert out_idx[keep].tolist() == [0, 1, 2, 3]
        assert np.allclose(out_val[keep], [0.3, 0.6, 0.0, 0.9])
        assert np.allclose(out_val[~keep], 0.0)


class TestPaperDefaultParameters:
    """(N, q, T, alpha, sigma) = (1000, 0.1, 3, 0.1, 1.12): the privacy
    budget of the paper's default attack setting is realistic."""

    def test_default_budget(self):
        from repro.dp.accountant import epsilon_for

        eps = epsilon_for(q=0.1, noise_multiplier=1.12, steps=3, delta=1e-5)
        assert 0.1 < eps < 3.0

    def test_extreme_sigma_is_overstrict(self):
        # Figure 7: "sigma over 4 ... is over-strict in practical
        # privacy degree" -- i.e. the budget becomes tiny.
        from repro.dp.accountant import epsilon_for

        strict = epsilon_for(q=0.1, noise_multiplier=4.0, steps=3, delta=1e-5)
        default = epsilon_for(q=0.1, noise_multiplier=1.12, steps=3,
                              delta=1e-5)
        assert strict < default / 4


class TestSection51CachelineArithmetic:
    """Section 5.1: 4-byte weights, 64-byte lines => c = 16, 'up to
    16x speedup' for the Baseline sweep."""

    def test_weights_per_cacheline(self):
        from repro.core.aggregation import WEIGHTS_PER_CACHELINE

        assert WEIGHTS_PER_CACHELINE == 64 // 4 == 16

    def test_baseline_touches_d_over_c_lines_per_weight(self):
        from repro.core.aggregation import aggregate_baseline

        d = 64
        updates = [LocalUpdate(0, np.asarray([9]), np.asarray([1.0]))]
        trace = Trace()
        aggregate_baseline(updates, d, trace=trace)
        # 1 weight: 1 read of g + (d/16) read+write pairs on g_star.
        assert len(trace) == 1 + 2 * (d // 16)


class TestSection53MemoryArithmetic:
    """Section 5.3's sizing example: each sorted cell is 8 bytes
    (u32 index + f32 value); the N=10^4 MNIST case needs ~122 MB."""

    def test_paper_memory_estimate(self):
        n_participants = 3000       # q*N with q=0.3, N=10^4
        k = 5089                    # alpha=0.1 of 50890
        d = 50890
        cell_bytes = 8
        total = (n_participants * k + d) * cell_bytes
        assert 110e6 < total < 130e6   # the paper's ~122 MB

    def test_advanced_working_set_formula(self):
        from repro.core.streams import advanced_stream_chunks

        # Advanced sorts exactly nk + d cells, with no power-of-two
        # padding; the cost model's fill scan touches each 8-byte cell.
        nk, d = 16_000, 50_890
        m = nk + d
        fill = next(advanced_stream_chunks(nk, d, chunk_size=m))
        assert fill.size == m == 66_890
        assert int(fill[-1]) == (m * 8 - 1) // 64
