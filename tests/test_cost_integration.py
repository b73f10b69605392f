"""Integration of traced runs with the cost model via region layouts.

The structural streams (repro.core.streams) are the fast path for the
cost model; this file verifies the slow path -- charging a *recorded*
trace through a RegionLayout -- agrees with it, closing the loop
between the two representations of an access pattern.
"""

import numpy as np

from repro.core.aggregation import aggregate_advanced
from repro.core.streams import advanced_stream_chunks
from repro.fl.client import LocalUpdate
from repro.sgx.cost import CostModel, CostParameters
from repro.sgx.memory import RegionLayout, Trace

SMALL = CostParameters(
    l2_bytes=4 * 1024, l2_assoc=4,
    l3_bytes=16 * 1024, l3_assoc=4,
    epc_bytes=128 * 1024,
)


def _updates(n, k, d, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for cid in range(n):
        idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
        out.append(LocalUpdate(cid, idx, rng.normal(size=k)))
    return out


def trace_to_lines(trace: Trace, layout: RegionLayout):
    """Cacheline stream of a recorded trace under a layout."""
    for access in trace:
        yield layout.byte_address(access.region, access.offset) // 64


class TestTraceChargesLikeStream:
    def test_advanced_trace_equals_structural_stream(self):
        n, k, d = 3, 4, 12
        trace = Trace()
        aggregate_advanced(_updates(n, k, d), d, trace=trace)

        from repro.oblivious.sort import next_power_of_two

        m = next_power_of_two(n * k + d)
        layout = RegionLayout()
        layout.add("g", m, 8)

        recorded = list(trace_to_lines(trace, layout))
        structural = np.concatenate(
            list(advanced_stream_chunks(n * k, d))).tolist()
        assert recorded == structural

    def test_same_cycles_either_way(self):
        n, k, d = 2, 3, 10
        trace = Trace()
        aggregate_advanced(_updates(n, k, d), d, trace=trace)
        from repro.oblivious.sort import next_power_of_two

        layout = RegionLayout()
        layout.add("g", next_power_of_two(n * k + d), 8)
        via_trace = CostModel(SMALL).charge_lines(
            trace_to_lines(trace, layout)
        )
        via_stream = CostModel(SMALL).charge_chunks(
            advanced_stream_chunks(n * k, d)
        )
        assert via_trace.cycles == via_stream.cycles
        assert via_trace.accesses == via_stream.accesses


class TestEnclaveAllocCostPath:
    def test_alloc_layout_supports_cost_charging(self):
        from repro.sgx.enclave import Enclave

        enclave = Enclave(seed=0)
        a = enclave.alloc(32, itemsize=8, name="bufA")
        b = enclave.alloc(64, itemsize=4, name="bufB")
        for i in range(32):
            a.read(i)
        for i in range(64):
            b.write(i, 1.0)
        report = CostModel(SMALL).charge_lines(
            trace_to_lines(enclave.trace, enclave.layout)
        )
        assert report.accesses == 96
        # Sequential scans are cache-friendly: mostly hits after the
        # first touch of each line.
        assert report.l2_hits > 70

    def test_distinct_regions_occupy_distinct_lines(self):
        from repro.sgx.enclave import Enclave

        enclave = Enclave(seed=0)
        a = enclave.alloc(8, itemsize=8, name="first")
        b = enclave.alloc(8, itemsize=8, name="second")
        a.read(0)
        b.read(0)
        lines = list(trace_to_lines(enclave.trace, enclave.layout))
        assert lines[0] != lines[1]
