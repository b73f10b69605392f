"""Microbenchmark: columnar trace engine vs element-at-a-time recording.

Times the traced aggregators in two formulations on the same workload:

* **reference** -- the seed element-at-a-time implementation (one
  scalar ``Trace.record`` per access, scalar ``o_mov``/``o_swap``
  comparators), kept verbatim in ``tests/oracles.py``;
* **batched** -- the production kernels (stage-batched bitonic sort,
  block-form scans, vectorized appends into the columnar arrays).

Both produce byte-for-byte identical traces (pinned here by signature
digest and in ``tests/test_trace_engine_equivalence.py``); the numbers
quantify the speedup and the storage savings of the structure-of-arrays
layout over one frozen dataclass per access.

Set ``TRACE_BENCH_QUICK=1`` to run a reduced workload (CI).
"""

import os
import sys
import time

import numpy as np

from repro import obs
from repro.core.aggregation import (
    aggregate_advanced,
    aggregate_baseline,
    aggregate_linear,
)
from repro.sgx.memory import MemoryAccess, Trace
from tests.oracles import (
    ref_advanced_traced,
    ref_baseline_traced,
    ref_linear_traced,
)

from .common import make_synthetic_updates, print_table, save_results

QUICK = bool(os.environ.get("TRACE_BENCH_QUICK"))
#: Table 1 scaled workload (full) / CI workload (quick).
N, K, D = (8, 10, 128) if QUICK else (20, 30, 600)
MIN_SPEEDUP = 5.0 if QUICK else 10.0


PAIRS = [
    ("linear", ref_linear_traced, aggregate_linear),
    ("baseline", ref_baseline_traced, aggregate_baseline),
    ("advanced", ref_advanced_traced, aggregate_advanced),
]


def _object_trace_bytes(n_accesses: int) -> int:
    """Storage of the seed object-per-access layout for n accesses."""
    sample = MemoryAccess(region="g_star", offset=123456, op="read")
    # One dataclass instance plus its boxed offset plus the list slot.
    per_access = sys.getsizeof(sample) + sys.getsizeof(sample.offset) + 8
    return n_accesses * per_access


def test_trace_engine_speedup(benchmark):
    updates = make_synthetic_updates(N, K, D, seed=0)

    def experiment():
        series = []
        for name, ref, new in PAIRS:
            ref_trace, new_trace = Trace(), Trace()
            t0 = time.perf_counter()
            out_ref = ref(updates, D, ref_trace)
            t_ref = time.perf_counter() - t0
            t0 = time.perf_counter()
            out_new = new(updates, D, trace=new_trace)
            t_new = time.perf_counter() - t0
            assert np.allclose(out_ref, out_new)
            assert ref_trace.signature_digest() == new_trace.signature_digest()
            n = len(new_trace)
            series.append({
                "aggregator": name,
                "trace_len": n,
                "ref_seconds": t_ref,
                "new_seconds": t_new,
                "speedup": t_ref / t_new,
                "ref_ops_per_sec": n / t_ref,
                "new_ops_per_sec": n / t_new,
                "columnar_bytes": new_trace.nbytes,
                "object_bytes_est": _object_trace_bytes(n),
            })
        return series

    series = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        [r["aggregator"], r["trace_len"], f"{r['ref_seconds']:.4f}",
         f"{r['new_seconds']:.4f}", f"{r['speedup']:.1f}x",
         f"{r['new_ops_per_sec']:.3g}",
         f"{r['object_bytes_est'] / max(r['columnar_bytes'], 1):.1f}x"]
        for r in series
    ]
    print_table(
        f"Trace engine: element-at-a-time vs columnar (n={N}, k={K}, d={D})",
        ["aggregator", "accesses", "ref s", "new s", "speedup",
         "ops/s (new)", "memory saved"],
        rows,
    )
    save_results("trace_engine", {
        "workload": {"n": N, "k": K, "d": D, "quick": QUICK},
        "series": series,
    })
    benchmark.extra_info["series"] = series

    by_name = {r["aggregator"]: r for r in series}
    # The acceptance bar: traced advanced >= 10x faster (5x quick mode),
    # with identical traces (asserted access-for-access above).
    assert by_name["advanced"]["speedup"] >= MIN_SPEEDUP
    # Columnar storage is far smaller than one object per access.
    for r in series:
        assert r["columnar_bytes"] < r["object_bytes_est"]


#: Telemetry may cost at most this fraction of the traced advanced
#: kernel when disabled (the production default).
MAX_TELEMETRY_OVERHEAD = 0.02


def test_telemetry_overhead_guard():
    """Disabled telemetry must be unmeasurable on the traced hot loop.

    Bounds the overhead analytically: (number of spans the instrumented
    Table-1 traced advanced aggregation opens) x (measured cost of one
    disabled-path span) must stay under 2% of the kernel's own wall
    time.  The disabled path is one attribute check returning a shared
    no-op context manager, so this holds with orders of magnitude of
    margin -- the assert catches anyone adding per-element spans or
    fattening the disabled path.
    """
    updates = make_synthetic_updates(N, K, D, seed=0)
    tel = obs.get_telemetry()
    prev_enabled, prev_sinks = tel.enabled, list(tel.sinks)
    tel.configure(enabled=False, sinks=[])
    try:
        def timed_kernel():
            trace = Trace()
            t0 = time.perf_counter()
            aggregate_advanced(updates, D, trace=trace)
            return time.perf_counter() - t0

        t_kernel = min(timed_kernel() for _ in range(3))

        # How many spans would one such kernel call open when enabled?
        sink = obs.MemorySink()
        with obs.session(sinks=[sink], keep_state=True):
            aggregate_advanced(updates, D, trace=Trace())
        n_spans = len(sink.spans())
        assert n_spans >= 1  # the kernel is instrumented

        # Measured cost of the disabled fast path per span and counter.
        reps = 100_000
        t0 = time.perf_counter()
        for _ in range(reps):
            with obs.span("noop", n=reps):
                pass
            obs.add("noop.counter")
        per_span = (time.perf_counter() - t0) / reps

        overhead = (n_spans * per_span) / t_kernel
    finally:
        tel.configure(enabled=prev_enabled, sinks=prev_sinks)

    print_table(
        "Telemetry no-op overhead on traced advanced "
        f"(n={N}, k={K}, d={D})",
        ["kernel s", "spans/call", "noop span s", "overhead", "budget"],
        [[f"{t_kernel:.4f}", n_spans, f"{per_span:.3g}",
          f"{overhead:.5%}", f"{MAX_TELEMETRY_OVERHEAD:.0%}"]],
    )
    save_results("telemetry_overhead", {
        "workload": {"n": N, "k": K, "d": D, "quick": QUICK},
        "kernel_seconds": t_kernel,
        "spans_per_call": n_spans,
        "noop_span_seconds": per_span,
        "overhead_fraction": overhead,
        "budget_fraction": MAX_TELEMETRY_OVERHEAD,
    })
    assert overhead < MAX_TELEMETRY_OVERHEAD
