"""Oblivious compaction, and the padding helpers of the DO path.

:func:`compact_traced_columns` is an order-preserving oblivious
compaction (Goodrich, SPAA 2011; Sasy, Johnson and Goldberg, CCS 2022):
every live element moves left by the number of dead elements before
it, one power-of-two shift per stage, least significant bit first.
Each stage is one full-width masked pass whose accesses depend on the
column length alone, and no two live elements ever meet in a stage
(DESIGN.md, "Advanced aggregation").  Advanced aggregation runs it in
place of Algorithm 4's second sort.

The differentially oblivious scheme of Section 5.4 hides the per-index
histogram of gradient indices by *padding*: appending dummy weights so
the adversary-visible histogram is a noised version of the true one.
Padding is the only randomization available to a DO mechanism built on
data structures (only one-sided, non-negative noise can be added as
dummies -- Case et al., cited in the paper), which is one of the
two reasons the paper concludes DO is unattractive for FL.  The padding
helpers operate on index/value numpy arrays and return padded copies
whose length is again under the caller's control.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..sgx.memory import OP_READ, OP_WRITE, tile_strided

_RRW = (OP_READ, OP_READ, OP_WRITE)
_RW = (OP_READ, OP_WRITE)


def compaction_shifts(n: int) -> list[int]:
    """The stage shifts ``1, 2, 4, ...`` below ``n``: ``ceil(log2 n)``
    stages, enough for any shift up to ``n - 1``."""
    return [1 << t for t in range(max(n - 1, 0).bit_length())]


def _stage_patterns(n: int, s: int):
    """Stage ``s``'s accesses as ``(offsets, ops, repeats)`` pieces:
    ``read i, read i + s, write i`` for ``i < n - s``, then ``read i,
    write i`` for the last ``s`` slots, which nothing enters."""
    return (((0, s, 0), _RRW, ((n - s, 1),)),
            ((n - s, n - s), _RW, ((s, 1),)))


def compaction_access_count(n: int) -> int:
    """Accesses :func:`compact_traced_columns` records at length ``n``."""
    return sum(3 * n - s for s in compaction_shifts(n))


def compaction_stage_offsets(n: int) -> Iterator[np.ndarray]:
    """The traced compaction's element offsets, one stage at a time."""
    for s in compaction_shifts(n):
        out = np.empty(3 * n - s, dtype=np.int64)
        pos = 0
        for offsets, _, repeats in _stage_patterns(n, s):
            size = len(offsets) * repeats[0][0]
            tile_strided(offsets, repeats, out[pos : pos + size])
            pos += size
        yield out


def compact_traced_columns(
    trace, region: str, dest: np.ndarray, *payloads: np.ndarray, dead: int
) -> None:
    """Move the live elements to the front in order, obliviously, in place.

    ``dest[i]`` is ``dead`` for a dead element and the rank of a live
    one among the live elements (0, 1, ... in array order), so the
    element at ``i`` moves left by ``i - dest[i]``.  Stage ``s`` moves
    every live element whose remaining shift has bit ``s`` set, which
    the element itself carries: its remaining shift is its position
    minus ``dest``.  Afterwards ``dest`` reads ``0, 1, ..., L - 1``
    then ``dead``, the payloads' first ``L`` slots hold the live
    elements' payloads in order, and their later slots hold stale
    values.  With a trace, each stage records the
    :func:`_stage_patterns` accesses to ``region``.
    """
    n = len(dest)
    for p in payloads:
        if len(p) != n:
            raise ValueError("payload length mismatch")
    position = np.arange(n, dtype=dest.dtype)
    for s in compaction_shifts(n):
        if trace is not None:
            for offsets, ops, repeats in _stage_patterns(n, s):
                trace.record_periodic(region, offsets, ops, repeats)
        move = ((position - dest) & s).astype(bool)
        move &= dest != dead
        enter = move[s:]
        kept = np.where(move, dead, dest)
        np.copyto(kept[: n - s], dest[s:], where=enter)
        dest[...] = kept
        for p in payloads:
            np.copyto(p[: n - s], p[s:], where=enter)


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
