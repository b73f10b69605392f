"""Figure 11: aggregation cost vs number of clients at LOW sparsity.

At alpha = 0.1 the per-client payload is large; growing n inflates the
nk term that Advanced must sort (poor locality) while Baseline's
sequential sweeps stay cache-friendly.  Paper shape: Advanced's
advantage shrinks as n grows and Baseline eventually overtakes it --
an effect of the memory hierarchy, reproduced here by charging the
algorithms' structural address streams to the scaled SGX cost model
(see EXPERIMENTS.md for the scaling).

The sweep itself is charged through the vectorized replayer fed by the
chunked numpy stream emitters.  The run additionally times the
sequential reference pipeline (per-access Python generator + Python
LRU, the pre-vectorization implementation kept in ``tests/oracles.py``)
against the vectorized one on the largest common sweep point, asserts
that both replayers produce identical ``ReplayStats``, and records the
measured replay speedup in ``bench_results/fig11.json``.  The cycles
are modeled (cost-model output), not measured.

Set ``COST_BENCH_QUICK=1`` (the CI default) to stop the sweep at
n = 256; the full sweep extends to the paper's n = 1000.

Wall-clock of the vectorized implementations is also reported for
reference, but the cycle model is the series that carries the paper's
cache/EPC story.

The ``two_sort`` series charge the paper's Algorithm 4 (two bitonic
sorts of all nk + d entries; the chunked emitter and per-access
generator in ``tests/oracles.py``) and carry the figure's shape
claims; the ``advanced`` series charge the production kernel's
stream (client sort, merge, compaction).  The replay race runs on the
paper's stream, so ``replay_speedup`` stays comparable across kernels.
"""

import os
import time

from repro.core.aggregation import aggregate_advanced, aggregate_baseline
from repro.core.streams import advanced_stream_chunks, baseline_stream_chunks
from repro.sgx.cost import CostModel, CostParameters
from tests.oracles import (
    OracleCostModel,
    baseline_stream,
    two_sort_advanced_stream,
    two_sort_advanced_stream_chunks,
)

from .common import make_synthetic_updates, print_table, save_results

QUICK = bool(os.environ.get("COST_BENCH_QUICK"))
D = 1024              # paper: 50,890 (MNIST MLP); scaled with the machine
ALPHA = 0.1
N_SWEEP = (16, 64, 256) if QUICK else (16, 64, 256, 1000)
#: Sweep point at which the reference pipeline is raced against the
#: vectorized one.  The reference replayer alone needs minutes at
#: n = 1000, so the head-to-head stays on n = 256 (15.8M accesses on
#: the Advanced stream) in both modes.
SPEEDUP_N = 256
#: Noise-tolerant floor for the asserted speedup: shared CI runners
#: time the single-threaded reference loop with up to ~2x jitter, so
#: the hard assert sits well below the ~10x measured on a quiet
#: machine; the measured value is what gets recorded and gated by
#: benchmarks/check_regression.py.
MIN_SPEEDUP = 4.0

# Scaled machine for this figure: the paper's n = 10^4 point needs
# ~122 MB of sort buffer against a 96 MB EPC; here n = 256 needs
# 256 KB against a 128 KB EPC -- the same working-set/EPC ratio.
MACHINE = CostParameters(
    l2_bytes=4 * 1024, l2_assoc=4,
    l3_bytes=32 * 1024, l3_assoc=8,
    epc_bytes=128 * 1024,
)


def _timed_replay(model_cls, charge, runs=1):
    """Best-of-``runs`` wall seconds plus the last (model, report)."""
    best = float("inf")
    model = report = None
    for _ in range(runs):
        model = model_cls(MACHINE)
        t0 = time.perf_counter()
        report = charge(model)
        best = min(best, time.perf_counter() - t0)
    return best, model, report


def _measure_speedup(nk: int) -> dict:
    """Reference vs vectorized replay pipeline on both streams.

    Both pipelines replay the same accesses: the reference one drives
    the per-access Python generators through the sequential LRU, the
    vectorized one consumes the chunked numpy emitters.  Equality of
    the resulting ``ReplayStats`` and ``CostReport`` is asserted per
    stream, so the recorded speedup is between replayers that provably
    agree access-for-access.
    """
    out = {}
    for name, gen, chunked in (
        ("baseline", baseline_stream, baseline_stream_chunks),
        ("two_sort", two_sort_advanced_stream, two_sort_advanced_stream_chunks),
    ):
        t_vec, vec_model, vec_report = _timed_replay(
            CostModel, lambda m: m.charge_chunks(chunked(nk, D)), runs=2
        )
        t_ref, ref_model, ref_report = _timed_replay(
            OracleCostModel, lambda m: m.charge_lines(gen(nk, D))
        )
        assert vec_model.stats == ref_model.stats, (
            f"{name}: vectorized ReplayStats diverged from reference"
        )
        assert vec_report == ref_report, (
            f"{name}: vectorized CostReport diverged from reference"
        )
        out[f"{name}_ref_seconds"] = round(t_ref, 3)
        out[f"{name}_vec_seconds"] = round(t_vec, 3)
        out[f"{name}_speedup"] = round(t_ref / t_vec, 2)
    return out


def test_fig11_cost_vs_num_clients(benchmark):
    def experiment():
        k = int(ALPHA * D)
        series = {"n": [], "baseline_cycles": [], "two_sort_cycles": [],
                  "advanced_cycles": [], "baseline_wall": [],
                  "advanced_wall": [], "two_sort_page_faults": [],
                  "advanced_page_faults": []}
        for n in N_SWEEP:
            nk = n * k
            base = CostModel(MACHINE).charge_chunks(
                baseline_stream_chunks(nk, D)
            )
            paper = CostModel(MACHINE).charge_chunks(
                two_sort_advanced_stream_chunks(nk, D)
            )
            adv = CostModel(MACHINE).charge_chunks(
                advanced_stream_chunks(nk, D)
            )
            updates = make_synthetic_updates(n, k, D, seed=0)
            t0 = time.perf_counter()
            aggregate_baseline(updates, D)
            t_base = time.perf_counter() - t0
            t0 = time.perf_counter()
            aggregate_advanced(updates, D)
            t_adv = time.perf_counter() - t0
            series["n"].append(n)
            series["baseline_cycles"].append(base.cycles)
            series["two_sort_cycles"].append(paper.cycles)
            series["advanced_cycles"].append(adv.cycles)
            series["baseline_wall"].append(t_base)
            series["advanced_wall"].append(t_adv)
            series["two_sort_page_faults"].append(paper.page_faults)
            series["advanced_page_faults"].append(adv.page_faults)
        series["quick"] = QUICK
        series.update(_measure_speedup(SPEEDUP_N * k))
        # Headline replay speedup: the paper's Advanced stream dominates
        # this figure's replay time (it is the stream whose locality
        # collapse the figure demonstrates).
        series["replay_speedup"] = series["two_sort_speedup"]
        series["replay_speedup_n"] = SPEEDUP_N
        return series

    series = benchmark.pedantic(experiment, rounds=1, iterations=1)
    n_pts = len(series["n"])
    rows = [
        [series["n"][i], series["baseline_cycles"][i],
         series["two_sort_cycles"][i],
         series["two_sort_cycles"][i] / series["baseline_cycles"][i],
         series["advanced_cycles"][i],
         series["advanced_cycles"][i] / series["baseline_cycles"][i]]
        for i in range(n_pts)
    ]
    print_table(
        f"Figure 11: simulated cycles vs n (alpha={ALPHA}, d={D})",
        ["n", "baseline cycles", "paper advanced cycles", "paper/base",
         "production advanced cycles", "production/base"], rows,
    )
    print_table(
        f"Replay pipelines at n={SPEEDUP_N} (reference vs vectorized)",
        ["stream", "reference s", "vectorized s", "speedup"],
        [[s, series[f"{s}_ref_seconds"], series[f"{s}_vec_seconds"],
          series[f"{s}_speedup"]] for s in ("baseline", "two_sort")],
    )
    save_results("fig11", series)
    benchmark.extra_info.update(series)

    # Shape: the paper's Advanced loses ground to Baseline as n grows
    # (the ratio of advanced/baseline cost increases with n), the
    # Figure 11 story.
    ratios = [
        series["two_sort_cycles"][i] / series["baseline_cycles"][i]
        for i in range(n_pts)
    ]
    assert ratios[-1] > 2 * ratios[0]
    # The collapse is driven by EPC paging, as in the paper's analysis.
    assert series["two_sort_page_faults"][-1] > 0
    assert series["two_sort_page_faults"][0] == 0
    # The vectorized replay must beat the sequential reference clearly
    # even under CI timer noise.
    assert series["replay_speedup"] >= MIN_SPEEDUP
