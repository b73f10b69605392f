"""Figure 10: aggregation time vs model size d (synthetic gradients).

Sweeps d at the paper's alpha = 0.01 and n = 100 (so nk = d) and times
the four aggregators.  Paper shape: Advanced is roughly an order of
magnitude faster than Baseline at large d and far faster than
PathORAM; Baseline wins only when the model is trivially small; the
non-oblivious Linear lower-bounds everyone.  Every aggregator,
Path ORAM included, is measured at every point of the sweep.

The ``advanced_two_sort`` column is the paper's Algorithm 4 -- two
bitonic sorts of all nk + d entries, ``tests/oracles.py::
two_sort_advanced`` -- and carries the paper's shape claims; the
``advanced`` column is the production kernel, which sorts only the nk
client entries, merges the dummies and compacts instead of the second
sort.  Both are measured wall time.
"""

import time

from repro.core.aggregation import (
    aggregate_advanced,
    aggregate_baseline,
    aggregate_linear,
    aggregate_path_oram,
)
from tests.oracles import two_sort_advanced

from .common import make_synthetic_updates, print_table, save_results

D_SWEEP = (1024, 4096, 16384, 65536)
ALPHA = 0.01
N_CLIENTS = 100


def _time(fn, *args, **kwargs):
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def test_fig10_aggregation_time_vs_model_size(benchmark):
    def experiment():
        series = {"d": [], "linear": [], "baseline": [],
                  "advanced_two_sort": [], "advanced": [], "path_oram": []}
        for d in D_SWEEP:
            k = max(1, int(ALPHA * d))
            updates = make_synthetic_updates(N_CLIENTS, k, d, seed=0)
            series["d"].append(d)
            series["linear"].append(_time(aggregate_linear, updates, d))
            series["baseline"].append(_time(aggregate_baseline, updates, d))
            series["advanced_two_sort"].append(
                _time(two_sort_advanced, updates, d))
            series["advanced"].append(_time(aggregate_advanced, updates, d))
            series["path_oram"].append(
                _time(aggregate_path_oram, updates, d, seed=0))
        return series

    series = benchmark.pedantic(experiment, rounds=1, iterations=1)

    columns = ("linear", "baseline", "advanced_two_sort", "advanced",
               "path_oram")
    rows = [
        [d] + [f"{series[k][i]:.4g}" for k in columns]
        for i, d in enumerate(series["d"])
    ]
    print_table(
        f"Figure 10: aggregation seconds (alpha={ALPHA}, n={N_CLIENTS})",
        ["d", "linear", "baseline", "advanced (paper, two sorts)",
         "advanced (production)", "path_oram"], rows,
    )
    save_results("fig10", series)
    benchmark.extra_info.update({k: series[k] for k in ("d",) + columns[1:]})

    # Shape checks, on the paper's Advanced.
    paper = series["advanced_two_sort"]
    last = len(D_SWEEP) - 1
    # Advanced beats Baseline at the largest model, clearly.
    assert paper[last] < series["baseline"][last] / 2
    # PathORAM is the slowest oblivious scheme at scale.
    assert series["path_oram"][last] > paper[last]
    # Linear (non-oblivious) lower-bounds everything.
    assert series["linear"][last] < series["advanced"][last]
    # Advanced's relative advantage grows with d.
    ratio_small = paper[0] / max(series["baseline"][0], 1e-9)
    ratio_large = paper[last] / max(series["baseline"][last], 1e-9)
    assert ratio_large < ratio_small
