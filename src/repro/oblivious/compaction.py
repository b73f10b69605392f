"""Oblivious padding / compaction helpers for the DO aggregation path.

The differentially oblivious scheme of Section 5.4 hides the per-index
histogram of gradient indices by *padding*: appending dummy weights so
the adversary-visible histogram is a noised version of the true one.
Padding is the only randomization available to a DO mechanism built on
data structures (only one-sided, non-negative noise can be realized by
adding dummies -- Case et al., cited in the paper), which is one of the
two reasons the paper concludes DO is unattractive for FL.

These helpers stay deliberately simple: they operate on index/value
numpy arrays and return padded copies whose length is again under the
caller's control.
"""

from __future__ import annotations

import numpy as np


def pad_with_dummies(
    indices: np.ndarray,
    values: np.ndarray,
    dummy_counts: np.ndarray,
    dummy_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Append ``dummy_counts[i]`` zero-valued dummies for model index i.

    Dummies carry the *real* index (so the observed histogram is
    ``true + noise``) but a zero value, leaving the aggregate unchanged.
    ``dummy_index`` is unused here (every dummy carries a real index);
    it mirrors :func:`pad_to_length`'s sentinel argument.
    """
    if len(dummy_counts) == 0:
        return indices.copy(), values.copy()
    if np.any(dummy_counts < 0):
        raise ValueError("dummy counts must be non-negative (one-sided noise)")
    extra_idx = np.repeat(
        np.arange(len(dummy_counts), dtype=indices.dtype), dummy_counts
    )
    padded_idx = np.concatenate([indices, extra_idx])
    padded_val = np.concatenate([values, np.zeros(len(extra_idx), dtype=values.dtype)])
    return padded_idx, padded_val


def pad_to_length(
    indices: np.ndarray,
    values: np.ndarray,
    length: int,
    dummy_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Pad with ``(dummy_index, 0.0)`` records up to ``length``."""
    if length < len(indices):
        raise ValueError("cannot pad below current length")
    extra = length - len(indices)
    padded_idx = np.concatenate(
        [indices, np.full(extra, dummy_index, dtype=indices.dtype)]
    )
    padded_val = np.concatenate([values, np.zeros(extra, dtype=values.dtype)])
    return padded_idx, padded_val


def truncated_geometric_noise(
    rng: np.random.Generator, epsilon: float, size: int, cap: int
) -> np.ndarray:
    """One-sided truncated-geometric padding noise per histogram bin.

    Shifted-and-truncated geometric noise gives a pure-epsilon DP
    histogram with only non-negative values; ``cap`` bounds the shift
    (noise is drawn in ``[0, 2*cap]`` around the shift ``cap``).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if cap < 0:
        raise ValueError("cap must be non-negative")
    alpha = np.exp(-epsilon)
    support = np.arange(0, 2 * cap + 1)
    weights = alpha ** np.abs(support - cap)
    weights /= weights.sum()
    return rng.choice(support, size=size, p=weights)
