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

It also records ``sort_pad_ratio``: the untraced bitonic sort at
2^15 + 1 elements over the sort at 2^16 (median of 5).  The network
runs at exactly n, so the ratio is ~0.5; a sort that padded to the next
power of two would read ~1.0, and the CI regression gate caps it.

And it records ``advanced_trace_ratio``: the Advanced kernel's trace
length over the paper's two-sort Algorithm 4 (``3m + d + 8 C(m)``
accesses, ``m = nk + d``) at the ``wide`` round shape.  It is a count,
not a timing, so its CI ceiling cannot flake; a kernel that went back
to two full sorts would read 1.0.

Set ``TRACE_BENCH_QUICK=1`` to run a reduced workload (CI).
"""

import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.aggregation import (
    advanced_trace_length,
    aggregate_advanced,
    aggregate_baseline,
    aggregate_linear,
)
from repro.oblivious.sort import bitonic_sort_numpy, comparator_count
from repro.sgx.memory import Trace
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


@dataclass(frozen=True)
class _AccessRecord:
    """One access as the seed layout stored it: a frozen dataclass."""

    region: str
    offset: int
    op: str


def _object_trace_bytes(n_accesses: int) -> int:
    """Storage of the seed object-per-access layout for n accesses."""
    sample = _AccessRecord(region="g_star", offset=123456, op="read")
    # One dataclass instance plus its boxed offset plus the list slot.
    per_access = sys.getsizeof(sample) + sys.getsizeof(sample.offset) + 8
    return n_accesses * per_access


#: ``sort_pad_ratio`` times the untraced sort at one past a power of
#: two against the next power of two.  The network runs at exactly n,
#: so the ratio sits near 0.5; sorting a padded 2^16 would read ~1.0.
PAD_PROBE_N = (1 << 15) + 1
PAD_PROBE_REPEATS = 9


def _sort_pad_ratio() -> dict:
    """Fastest untraced sort time of int64 keys at ``PAD_PROBE_N`` over
    that at ``2 * (PAD_PROBE_N - 1)``.  Keys only: a payload scales both
    sizes alike and would only lengthen the bench.

    The two sizes alternate, so a burst of host load lands on both, and
    each keeps its minimum: noise only ever adds time.
    """
    rng = np.random.default_rng(0)
    sizes = {"probe": PAD_PROBE_N, "power": 2 * (PAD_PROBE_N - 1)}
    keys = {name: rng.integers(0, n, size=n, dtype=np.int64)
            for name, n in sizes.items()}
    best = dict.fromkeys(sizes, math.inf)
    for _ in range(PAD_PROBE_REPEATS):
        for name in sizes:
            k = keys[name].copy()
            t0 = time.perf_counter()
            bitonic_sort_numpy(k)
            best[name] = min(best[name], time.perf_counter() - t0)
    return {"probe_seconds": best["probe"], "power_seconds": best["power"],
            "ratio": best["probe"] / best["power"]}


#: The ``wide`` round's shape: 7 uploads of k = 5,089 on the d = 50,890
#: MNIST MLP.
WIDE_N, WIDE_K, WIDE_D = 7, 5089, 50890


def _advanced_trace_ratio() -> float:
    """Advanced trace length over the two-sort one at the ``wide`` shape."""
    nk, d = WIDE_N * WIDE_K, WIDE_D
    m = nk + d
    return advanced_trace_length(nk, d) / (3 * m + d + 8 * comparator_count(m))


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
    sort_pad_ratio = _sort_pad_ratio()
    print_table(
        "Untraced bitonic sort: one past a power of two vs the next one",
        [f"n={PAD_PROBE_N}", f"n={2 * (PAD_PROBE_N - 1)}", "ratio"],
        [[f"{sort_pad_ratio['probe_seconds']:.4f}",
          f"{sort_pad_ratio['power_seconds']:.4f}",
          f"{sort_pad_ratio['ratio']:.2f}"]],
    )
    advanced_trace_ratio = _advanced_trace_ratio()
    print(f"Advanced trace length over the two-sort one at n={WIDE_N}, "
          f"k={WIDE_K}, d={WIDE_D}: {advanced_trace_ratio:.4f}")
    save_results("trace_engine", {
        "workload": {"n": N, "k": K, "d": D, "quick": QUICK},
        "series": series,
        "sort_pad_ratio": sort_pad_ratio["ratio"],
        "sort_pad_seconds": sort_pad_ratio,
        "advanced_trace_ratio": advanced_trace_ratio,
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
