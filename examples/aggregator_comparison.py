"""Aggregator comparison: correctness, obliviousness, and speed.

A compact tour of the four server-side aggregation algorithms on one
synthetic round: all compute the same result; they differ in what the
side channel sees and what they cost.  Also demonstrates the Section
5.3 grouping optimization and the Section 5.4 differentially-oblivious
alternative with its padding-overhead analysis.

Run:  python examples/aggregator_comparison.py
"""

import time

import numpy as np

from repro.core import (
    AGGREGATORS,
    DoParameters,
    aggregate_do,
    aggregate_grouped,
    do_padding_overhead,
    traces_equal,
)
from repro.fl import LocalUpdate
from repro.sgx import Trace

N, K, D = 50, 20, 2000


def make_round(seed):
    rng = np.random.default_rng(seed)
    updates = []
    for cid in range(N):
        idx = np.sort(rng.choice(D, size=K, replace=False)).astype(np.int64)
        updates.append(LocalUpdate(cid, idx, rng.normal(size=K)))
    return updates


def main() -> None:
    print(f"== Aggregator comparison: n={N} clients, k={K}, d={D} ==\n")
    updates = make_round(0)
    reference = AGGREGATORS["linear"].run(updates, D)

    print(f"{'algorithm':<12} {'seconds':<10} {'oblivious (sparse)':<20} correct")
    for name, spec in AGGREGATORS.items():
        start = time.perf_counter()
        result = spec.run(updates, D)
        elapsed = time.perf_counter() - start
        ok = np.allclose(result, reference)
        print(f"{name:<12} {elapsed:<10.4f} {spec.oblivious_sparse:<20} {ok}")

    # Trace-level proof on a smaller instance (traced runs are slow).
    print("\ntrace comparison on a small instance (n=4, k=3, d=24):")
    small_a = [LocalUpdate(c, np.sort(np.random.default_rng(c).choice(
        24, 3, replace=False)).astype(np.int64), np.ones(3)) for c in range(4)]
    small_b = [LocalUpdate(c, np.sort(np.random.default_rng(c + 50).choice(
        24, 3, replace=False)).astype(np.int64), np.ones(3)) for c in range(4)]
    for name in ("linear", "baseline", "advanced"):
        ta, tb = Trace(), Trace()
        AGGREGATORS[name].run(small_a, 24, trace=ta)
        AGGREGATORS[name].run(small_b, 24, trace=tb)
        word = traces_equal(ta, tb)
        line = traces_equal(ta, tb, granularity="cacheline",
                            itemsizes={"g": 8, "g_star": 4})
        print(f"  {name:<10} word-identical: {word!s:<6} "
              f"cacheline-identical: {line}")

    # Grouping (Section 5.3) -- same result, cache-sized work units.
    grouped = aggregate_grouped(updates, D, group_size=10)
    print(f"\ngrouped advanced (h=10) matches: "
          f"{np.allclose(grouped, reference)}")

    # Differentially oblivious alternative (Section 5.4).
    params = DoParameters(epsilon=1.0, sensitivity=K)
    agg, histogram = aggregate_do(updates, D, params,
                                  np.random.default_rng(0))
    overhead = do_padding_overhead(N, K, D, params)
    print(f"\nDO aggregation matches: {np.allclose(agg, reference)}")
    print(f"DO padding overhead vs fully-oblivious Advanced: "
          f"{overhead['overhead_ratio']:.1f}x "
          f"({overhead['expected_dummies']:.0f} expected dummies) -- the")
    print("paper's reason to prefer full obliviousness in FL.")


if __name__ == "__main__":
    main()
