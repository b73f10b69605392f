"""Order-preserving oblivious compaction (repro.oblivious.compaction)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.oblivious.compaction import (
    compact_traced_columns,
    compaction_access_count,
    compaction_stage_offsets,
)
from repro.sgx.memory import Trace, TracedArray
from tests.oracles import compact_traced

DEAD = 1 << 40
LENGTHS = [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 255, 256, 257]


def compact(live, payload, trace=None):
    """Compact ``payload`` by the mask; returns ``(dest, payload)``."""
    dest = np.where(live, np.cumsum(live) - 1, DEAD).astype(np.int64)
    payload = payload.copy()
    compact_traced_columns(trace, "g", dest, payload, dead=DEAD)
    return dest, payload


def assert_stable_partition(live, payload):
    dest, out = compact(live, payload)
    count = int(live.sum())
    assert dest[:count].tolist() == list(range(count))
    assert (dest[count:] == DEAD).all()
    assert out[:count].tobytes() == payload[live].tobytes()


class TestMatchesStablePartition:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_random_masks(self, n):
        rng = np.random.default_rng(n)
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            for _ in range(5):
                live = rng.random(n) < density
                assert_stable_partition(live, rng.normal(size=n))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_all_live_and_none_live(self, n):
        payload = np.arange(n, dtype=np.float64)
        assert_stable_partition(np.ones(n, dtype=bool), payload)
        assert_stable_partition(np.zeros(n, dtype=bool), payload)

    @given(st.lists(st.booleans(), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_any_mask(self, bits):
        live = np.asarray(bits, dtype=bool)
        assert_stable_partition(live, np.arange(len(bits), dtype=np.float64))

    def test_payload_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            compact_traced_columns(None, "g", np.zeros(4, np.int64),
                                   np.zeros(3), dead=DEAD)


class TestTrace:
    def test_stage_pattern(self):
        # n = 3: shift 1 (read i, read i+1, write i; last slot read,
        # write), then shift 2.
        trace = Trace()
        compact(np.asarray([False, True, True]), np.zeros(3), trace)
        _, offsets, ops = trace.columns()
        assert offsets.tolist() == [0, 1, 0, 1, 2, 1, 2, 2,
                                    0, 2, 0, 1, 1, 2, 2]
        assert ops.tolist() == [0, 0, 1, 0, 0, 1, 0, 1,
                                0, 0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_trace_depends_on_length_alone(self, n):
        rng = np.random.default_rng(n + 1)
        traces = []
        for density in (0.0, 0.3, 1.0):
            trace = Trace()
            compact(rng.random(n) < density, rng.normal(size=n), trace)
            traces.append(trace)
        assert traces[0] == traces[1] == traces[2]
        assert len(traces[0]) == compaction_access_count(n)
        stages = list(compaction_stage_offsets(n))
        expected = np.concatenate(stages) if stages else np.empty(0, np.int64)
        np.testing.assert_array_equal(traces[0].columns()[1], expected)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 13, 33])
    def test_matches_element_at_a_time_reference(self, n):
        rng = np.random.default_rng(n)
        live = rng.random(n) < 0.5
        values = rng.normal(size=n)
        trace = Trace()
        dest, out = compact(live, values, trace)
        dead = (DEAD, 0.0)
        ref_trace = Trace()
        cells = [(int(r), float(v)) if ok else dead
                 for r, v, ok in zip(np.cumsum(live) - 1, values, live)]
        g = TracedArray("g", cells, trace=ref_trace)
        compact_traced(g, dead)
        assert trace == ref_trace
        count = int(live.sum())
        assert g.snapshot()[:count] == list(zip(dest[:count].tolist(),
                                                out[:count].tolist()))
