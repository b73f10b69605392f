"""Path ORAM access core: the production class vs the per-bucket oracle.

Times the ORAM aggregation kernel -- one read and one write access per
input weight, then d read-outs -- two ways on the same updates:

* **production** -- ``repro.core.aggregation.aggregate_path_oram`` over
  ``repro.oram.path_oram.PathORAM`` (shift-computed paths, write-back by
  deepest fitting level, one columnar trace append per aggregation);
* **oracle** -- the same kernel over the per-bucket access it replaced,
  kept verbatim in ``tests/oracles.py`` (``OraclePathORAM``: one scalar
  trace record per bucket read, clear and write-back, ``_is_ancestor``
  greedy).

Each is timed untraced and traced.  Before any number is reported the
two are asserted identical on the workload: aggregate bytes, trace, and
the final tree, stash and position map.

The workload is the round benchmark's ``oram`` shape: ``tiny_mlp``
(d = 378) with 40 clients of k = 38, about 1,500 read-modify-writes.
Set ``ORAM_BENCH_QUICK=1`` for the CI run (that workload only, with
the speedup floor also enforced by the regression gate); the full run
adds a d = 4,096 model at the paper's alpha = 0.01 with n = 100.
"""

import os
import time

from repro.core.aggregation import aggregate_path_oram
from repro.oram.path_oram import PathORAM
from repro.sgx.memory import Trace
from tests import oracles

from .common import make_synthetic_updates, print_table, save_results

QUICK = bool(os.environ.get("ORAM_BENCH_QUICK"))

#: (n clients, k per client, d) -- the round benchmark's ``oram`` shape
#: first, then (full mode) a Fig. 10 point.
WORKLOADS = ((40, 38, 378),) if QUICK else ((40, 38, 378), (100, 41, 4096))
REPS = 3
SEED = 0
MIN_ORAM_SPEEDUP = 2.5


def _best(fn, updates, d, traced, reps=REPS):
    """Best-of-``reps`` wall seconds of one traced/untraced kernel call."""
    best = float("inf")
    for _ in range(reps):
        trace = Trace() if traced else None
        t0 = time.perf_counter()
        fn(updates, d, trace=trace, seed=SEED)
        best = min(best, time.perf_counter() - t0)
    return best


def _rmw_state(oram, updates, d):
    """Drive the kernel's access sequence through ``oram`` directly."""
    for u in updates:
        for index, value in zip(u.indices.tolist(), u.values.tolist()):
            oram.write(index, oram.read(index) + value)
    out = [oram.read(j) for j in range(d)]
    tree = oram._tree
    buckets = tree.snapshot() if hasattr(tree, "snapshot") else list(tree)
    return out, buckets, oram._stash, oram._position


def _assert_identical(updates, d):
    """Production and oracle agree: bytes, trace, tree, stash, positions."""
    t_prod, t_oracle = Trace(), Trace()
    prod = aggregate_path_oram(updates, d, trace=t_prod, seed=SEED)
    ref = oracles.aggregate_path_oram(updates, d, trace=t_oracle, seed=SEED)
    assert prod.tobytes() == ref.tobytes(), "aggregate bytes diverged"
    assert t_prod.signature_digest() == t_oracle.signature_digest(), (
        "trace diverged from the per-bucket oracle")

    t_prod, t_oracle = Trace(), Trace()
    oram = PathORAM(d, trace=t_prod, seed=SEED)
    with oram.deferred_trace():
        prod_state = _rmw_state(oram, updates, d)
    ref_state = _rmw_state(
        oracles.OraclePathORAM(d, trace=t_oracle, seed=SEED), updates, d)
    assert prod_state == ref_state, "ORAM state diverged from the oracle"
    assert t_prod == t_oracle


def test_oram_access_core_speedup():
    series = []
    for n, k, d in WORKLOADS:
        updates = make_synthetic_updates(n, k, d, seed=SEED)
        _assert_identical(updates, d)
        row = {"n": n, "k": k, "d": d, "accesses": 2 * n * k + d}
        for traced in (False, True):
            tag = "traced" if traced else "untraced"
            prod = _best(aggregate_path_oram, updates, d, traced)
            oracle = _best(oracles.aggregate_path_oram, updates, d, traced)
            row[f"{tag}_seconds"] = prod
            row[f"{tag}_oracle_seconds"] = oracle
            row[f"{tag}_speedup"] = oracle / prod
        series.append(row)

    print_table(
        "Path ORAM aggregation kernel: production vs per-bucket oracle "
        f"(best of {REPS})",
        ["n", "k", "d", "accesses", "oracle s", "production s", "speedup",
         "traced oracle s", "traced production s", "traced speedup"],
        [[r["n"], r["k"], r["d"], r["accesses"],
          f"{r['untraced_oracle_seconds']:.4f}",
          f"{r['untraced_seconds']:.4f}", f"{r['untraced_speedup']:.1f}x",
          f"{r['traced_oracle_seconds']:.4f}",
          f"{r['traced_seconds']:.4f}", f"{r['traced_speedup']:.1f}x"]
         for r in series],
    )

    head = series[0]
    save_results("oram", {
        "workload": {"quick": QUICK, "seed": SEED,
                     "speedup_baseline": "per-bucket Path ORAM "
                                         "(tests/oracles.py)"},
        "series": series,
        "oram_speedup": head["untraced_speedup"],
        "oram_traced_speedup": head["traced_speedup"],
    })

    # The floor is also enforced by the CI regression gate on the
    # saved payload (min_oram_speedup).
    assert head["untraced_speedup"] >= MIN_ORAM_SPEEDUP
    assert head["traced_speedup"] >= MIN_ORAM_SPEEDUP
