"""Differentially oblivious aggregation and its cost analysis (Sec. 5.4).

DO relaxes full obliviousness: the access pattern only needs to be
(epsilon, delta)-DP across neighbouring inputs.  The standard
construction for aggregation-like workloads (Allen et al., Mazloom &
Gordon) is:

1. pad the gradient multiset with zero-valued dummies so the observed
   per-index histogram equals ``true + one-sided noise``;
2. obliviously shuffle the padded multiset;
3. linearly scatter into g* (now safe: the adversary sees only the
   noised histogram in random order).

The paper's conclusion -- reproduced by :func:`do_padding_overhead` and
benchmarked in the ablation suite -- is that DO does not pay off in FL:
padding can only add *non-negative* noise (forcing a large truncated
shift), and the histogram sensitivity of one client is its whole top-k
set, so the expected padding scales like ``d * k / epsilon`` elements,
which quickly exceeds the fully-oblivious Advanced working set of
``nk + d``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..fl.client import LocalUpdate
from ..fl.sparsify import densify
from ..oblivious.compaction import pad_with_dummies, truncated_geometric_noise
from ..oblivious.shuffle import oblivious_shuffle_numpy
from .aggregation import M0, _concat_updates, _validate


@dataclass(frozen=True)
class DoParameters:
    """Privacy parameters of the DO access-pattern guarantee."""

    epsilon: float
    sensitivity: int  # histogram sensitivity: one client's k

    def per_bin_epsilon(self) -> float:
        """Epsilon available to each of the d histogram bins.

        One client changes up to ``sensitivity`` bins by 1 each, so by
        composition each bin's geometric mechanism runs at
        ``epsilon / sensitivity``.
        """
        if self.sensitivity < 1:
            raise ValueError("sensitivity must be >= 1")
        return self.epsilon / self.sensitivity


def do_padding_counts(
    d: int, params: DoParameters, rng: np.random.Generator, cap: int | None = None
) -> np.ndarray:
    """Dummy count per model index (one-sided truncated geometric)."""
    eps_bin = params.per_bin_epsilon()
    if cap is None:
        # Shift large enough that truncation mass is ~delta-negligible.
        cap = int(np.ceil(20.0 / eps_bin))
    return truncated_geometric_noise(rng, eps_bin, size=d, cap=cap)


def expected_padding_per_bin(params: DoParameters, cap: int | None = None) -> float:
    """Expected dummies per bin: the truncation shift dominates (~cap)."""
    eps_bin = params.per_bin_epsilon()
    if cap is None:
        cap = int(np.ceil(20.0 / eps_bin))
    return float(cap)


def do_padding_overhead(n: int, k: int, d: int, params: DoParameters) -> dict:
    """Working-set comparison: DO padding vs fully-oblivious Advanced.

    Returns the element counts each approach must sort/shuffle; the
    ratio > 1 regime is where the paper declares DO a dead end for FL.
    """
    expected_dummies = d * expected_padding_per_bin(params)
    do_elements = n * k + expected_dummies
    advanced_elements = n * k + d
    return {
        "do_elements": float(do_elements),
        "advanced_elements": float(advanced_elements),
        "overhead_ratio": float(do_elements / advanced_elements),
        "expected_dummies": float(expected_dummies),
    }


def aggregate_do(
    updates: Sequence[LocalUpdate],
    d: int,
    params: DoParameters,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """DO aggregation; returns (aggregate, observed histogram).

    The observed histogram is what the adversary learns from the
    post-shuffle linear scatter: per-index access counts equal to
    ``true counts + padding noise`` -- an (epsilon, ~0)-DP view.
    """
    rng = rng or np.random.default_rng()
    idx, val = _concat_updates(updates)
    _validate(idx, d)
    dummy_counts = do_padding_counts(d, params, rng)
    idx, val = pad_with_dummies(idx, val, dummy_counts, M0)
    # Oblivious shuffle of the padded multiset, then the linear scatter
    # in which the adversary observes one access per element.
    oblivious_shuffle_numpy(idx, val, rng=rng)
    aggregate = densify(idx, val, d)
    histogram = np.bincount(idx, minlength=d).astype(np.int64)
    return aggregate, histogram
