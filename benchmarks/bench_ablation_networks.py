"""Ablation: sorting-network choice and ORAM position-map storage.

Two design decisions the paper discusses:

* Section 5.2 chooses Batcher's bitonic network over asymptotically
  better alternatives ("AKS ... has a huge constant").  We compare the
  two practical Batcher networks -- bitonic vs odd-even mergesort --
  in comparator count and vectorized wall time.
* Figure 10's Path ORAM comparator cites "oblivious reading of the
  position maps" as a main cost.  We quantify it: flat Path ORAM
  (enclave-private map) vs the Zerotrace-style recursive construction
  whose map lives in a second ORAM.
"""

import time
from typing import Iterator

import numpy as np

from repro.oblivious.sort import bitonic_sort_numpy, comparator_count
from repro.oram.path_oram import PathORAM
from repro.oram.recursive import RecursivePathORAM

from .common import print_table, save_results

SIZES = (64, 256, 1024, 4096)

#: A non-power-of-two length: the bitonic network runs truncated there,
#: with no padding to the next power of two.
TRUNCATED_N = 3000


def odd_even_merge_network(n: int) -> Iterator[tuple[int, int, bool]]:
    """Batcher's odd-even mergesort comparator schedule ``(i, j, True)``.

    The second classic O(n log^2 n) sorting network; slightly fewer
    comparators than the bitonic network and every comparator is
    ascending.  Only this ablation uses it, to count comparators against
    the bitonic network; the oblivious sort always runs the bitonic
    network.  ``n`` must be a power of two.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"odd-even merge network needs a power of two, got {n}")
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(k):
                    left = i + j
                    right = i + j + k
                    if left // (2 * p) == right // (2 * p):
                        yield left, right, True
            k //= 2
        p *= 2


def test_ablation_sorting_networks(benchmark):
    def experiment():
        series = []
        for n in SIZES:
            bitonic = comparator_count(n)
            odd_even = sum(1 for _ in odd_even_merge_network(n))
            keys = np.random.default_rng(0).integers(0, 1 << 30, size=n,
                                                     dtype=np.int64)
            start = time.perf_counter()
            bitonic_sort_numpy(keys.copy())
            bitonic_time = time.perf_counter() - start
            series.append({
                "n": n,
                "bitonic_comparators": bitonic,
                "odd_even_comparators": odd_even,
                "saving": 1.0 - odd_even / bitonic,
                "bitonic_seconds": bitonic_time,
            })
        return series

    series = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        [r["n"], r["bitonic_comparators"], r["odd_even_comparators"],
         f"{r['saving']:.0%}"]
        for r in series
    ]
    print_table(
        "Ablation: sorting networks (comparator counts)",
        ["n", "bitonic", "odd-even merge", "odd-even saving"], rows,
    )
    padded_n = 1 << (TRUNCATED_N - 1).bit_length()
    truncated = {
        "n": TRUNCATED_N,
        "bitonic_comparators": comparator_count(TRUNCATED_N),
        "padded_n": padded_n,
        "padded_comparators": comparator_count(padded_n),
    }
    print_table(
        "Ablation: truncated bitonic network at a non-power-of-two length",
        ["n", "bitonic (truncated)", f"padded to {padded_n}"],
        [[TRUNCATED_N, truncated["bitonic_comparators"],
          truncated["padded_comparators"]]],
    )
    save_results("ablation_networks", {"series": series,
                                       "truncated": truncated})
    benchmark.extra_info["series"] = series
    benchmark.extra_info["truncated"] = truncated

    for r in series:
        assert r["odd_even_comparators"] < r["bitonic_comparators"]
    # The saving approaches ~1/3 at scale but never flips the
    # asymptotics: both are Theta(n log^2 n).
    assert 0.1 < series[-1]["saving"] < 0.5
    # Dropping the comparators that reach past n saves about the padded
    # fraction of the work.
    assert truncated["bitonic_comparators"] < truncated["padded_comparators"]


def test_ablation_recursive_position_map(benchmark):
    def experiment():
        capacity = 512
        ops = 120
        rng = np.random.default_rng(0)
        blocks = rng.integers(0, capacity, size=ops)

        flat = PathORAM(capacity, stash_limit=80, seed=0)
        start = time.perf_counter()
        for b in blocks:
            flat.write(int(b), 1.0)
        flat_time = (time.perf_counter() - start) / ops

        recursive = RecursivePathORAM(capacity, stash_limit=80,
                                      base_map_limit=16, seed=0)
        start = time.perf_counter()
        for b in blocks:
            recursive.write(int(b), 1.0)
        recursive_time = (time.perf_counter() - start) / ops
        return {
            "flat_per_access": flat_time,
            "recursive_per_access": recursive_time,
            "overhead": recursive_time / flat_time,
        }

    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print_table(
        "Ablation: Path ORAM position-map storage (seconds per access)",
        ["variant", "per access", "overhead"],
        [
            ["flat (private map)", f"{result['flat_per_access']:.3g}", "1.0x"],
            ["recursive (ORAM map)", f"{result['recursive_per_access']:.3g}",
             f"{result['overhead']:.1f}x"],
        ],
    )
    save_results("ablation_recursive_oram", result)
    benchmark.extra_info.update(result)

    # The oblivious position map costs a real constant factor -- the
    # paper's "main factor" in Path ORAM's Figure 10 cost.
    assert result["overhead"] > 1.3
