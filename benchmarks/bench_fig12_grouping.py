"""Figure 12: the client-grouping optimization for Advanced (Sec. 5.3).

Sweeps the group size h and charges the grouped-Advanced address
stream to the scaled SGX cost model.  Paper shape: a U-shaped curve --
tiny groups repeat the d-dependent sort too many times, huge groups
thrash the cache/EPC, and an interior optimum h (a few hundred clients
in the paper, a few here at the scaled sizes) is several times faster
than the monolithic run.

The sweep runs on the vectorized replayer fed by the chunked numpy
stream emitters; the sequential reference replayer of
``tests/oracles.py`` is run on a sample of the sweep (the U-curve's two
extremes and its optimum) and its ``ReplayStats`` asserted identical,
so the recorded curve is backed by both replayers.  The cycles are
modeled (cost-model output), not measured.

The functional equivalence of grouped and monolithic aggregation is
asserted too (the optimization must not change results).
"""

import numpy as np

from repro.core.aggregation import aggregate_advanced
from repro.core.grouping import aggregate_grouped
from repro.core.streams import advanced_stream_chunks, grouped_stream_chunks
from repro.sgx.cost import CostModel, CostParameters
from tests.oracles import OracleCostModel, grouped_stream

from .common import make_synthetic_updates, print_table, save_results

N_CLIENTS = 64
K = 64
D = 512
H_SWEEP = (1, 2, 4, 8, 16, 32, 64)

# Scaled machine (see EXPERIMENTS.md): L2 2 KB / L3 8 KB / EPC 32 KB,
# so the h = 64 monolithic working set (64 KB) is 2x the EPC, matching
# the paper's 122 MB-vs-96 MB regime at n = 10^4.
MACHINE = CostParameters(
    l2_bytes=2 * 1024, l2_assoc=4,
    l3_bytes=8 * 1024, l3_assoc=4,
    epc_bytes=32 * 1024,
)


def test_fig12_grouping_optimization(benchmark):
    def experiment():
        series = {"h": [], "cycles": [], "page_faults": []}
        for h in H_SWEEP:
            report = CostModel(MACHINE).charge_chunks(
                grouped_stream_chunks(N_CLIENTS, K, D, h)
            )
            series["h"].append(h)
            series["cycles"].append(report.cycles)
            series["page_faults"].append(report.page_faults)
        mono = CostModel(MACHINE).charge_chunks(
            advanced_stream_chunks(N_CLIENTS * K, D)
        )
        series["monolithic_cycles"] = mono.cycles
        return series

    series = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        [series["h"][i], series["cycles"][i], series["page_faults"][i]]
        for i in range(len(H_SWEEP))
    ]
    print_table(
        f"Figure 12: grouped Advanced cycles vs h (n={N_CLIENTS}, k={K}, d={D})",
        ["h", "cycles", "EPC page faults"], rows,
    )
    save_results("fig12", series)
    benchmark.extra_info.update(series)

    # Functional equivalence at the optimum.
    updates = make_synthetic_updates(N_CLIENTS, K, D, seed=0)
    best_h = series["h"][int(np.argmin(series["cycles"]))]
    assert np.allclose(
        aggregate_grouped(updates, D, best_h),
        aggregate_advanced(updates, D),
    )

    # Engine equivalence on a sample of the curve: both replayers must
    # agree access-for-access at the extremes and the optimum.
    for h in sorted({H_SWEEP[0], best_h, H_SWEEP[-1]}):
        vec = CostModel(MACHINE)
        vec_report = vec.charge_chunks(
            grouped_stream_chunks(N_CLIENTS, K, D, h)
        )
        ref = OracleCostModel(MACHINE)
        ref_report = ref.charge_lines(grouped_stream(N_CLIENTS, K, D, h))
        assert vec.stats == ref.stats, (
            f"h={h}: vectorized ReplayStats diverged from reference"
        )
        assert vec_report == ref_report

    # Shape: U-curve with an interior optimum beating both extremes.
    costs = series["cycles"]
    assert 1 < best_h < N_CLIENTS
    assert min(costs) < costs[0] / 2        # beats tiny groups
    assert min(costs) < costs[-1] / 2       # beats monolithic
    # Large-h degradation is paging-driven.
    assert series["page_faults"][-1] > series["page_faults"][len(H_SWEEP) // 2]
