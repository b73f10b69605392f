"""Gradient sparsification and clipping (Algorithm 1, EncClient).

Top-k sparsification -- keeping the k coordinates of largest absolute
value -- is the communication-cost reducer whose *data-dependent index
choice* creates the side channel the paper attacks.  Threshold and
random-k variants are included for the generality claim of Section 3.3
(any data-dependent sparsification leaks; random-k is the
data-independent strawman that does not).

Every function works row-wise on a ``(C, d)`` stack of client deltas
(a lone client is ``C = 1``): numpy's axis-1 ``argpartition``/``sort``/
``nonzero`` run the same per-row routine the 1-D calls do, so a row's
result does not depend on the rows stacked with it.
"""

from __future__ import annotations

import numpy as np


def top_k(deltas: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of each row's k largest-|.| coordinates, as
    ``(C, k)`` arrays.

    Indices are sorted ascending per row (the wire order the paper's
    clients use; the attack treats them as a set regardless).
    """
    d = deltas.shape[1]
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    chosen = np.argpartition(np.abs(deltas), d - k, axis=1)[:, d - k :]
    chosen.sort(axis=1)
    values = np.take_along_axis(deltas, chosen, axis=1)
    return chosen.astype(np.int64), values.astype(np.float64)


def top_ratio(
    deltas: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k with k = ceil(alpha * d) (the paper's 'sparse ratio')."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("sparse ratio must be in (0, 1]")
    k = max(1, int(np.ceil(alpha * deltas.shape[1])))
    return top_k(deltas, k)


def threshold(
    deltas: np.ndarray, tau: float
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Every coordinate with |value| >= tau, per row.

    The output is ragged (a row may even be empty), so indices and
    values come back as per-row lists.
    """
    if tau < 0:
        raise ValueError("threshold must be non-negative")
    mask = np.abs(deltas) >= tau
    cuts = np.cumsum(mask.sum(axis=1))[:-1]
    rows, cols = np.nonzero(mask)              # row-major: cols ascending per row
    return (np.split(cols.astype(np.int64), cuts),
            np.split(deltas[rows, cols].astype(np.float64), cuts))


def random_k(
    deltas: np.ndarray, k: int, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """k uniformly random coordinates per row -- data-independent,
    leak-free.

    Row ``c`` draws its indices from its own Generator ``rngs[c]`` (a
    per-row loop); the value gather is vectorized.
    """
    c, d = deltas.shape
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    if len(rngs) != c:
        raise ValueError("one Generator per row required")
    chosen = np.empty((c, k), dtype=np.int64)
    for i, rng in enumerate(rngs):
        chosen[i] = np.sort(rng.choice(d, size=k, replace=False))
    values = np.take_along_axis(deltas, chosen, axis=1)
    return chosen, values.astype(np.float64)


def l2_clip(values: np.ndarray, clip: float) -> np.ndarray:
    """Scale each row of ``(C, k)`` values to L2 norm at most ``clip``
    (Alg. 1 line 21); returns a copy.

    Row norms are computed via a batched matmul -- one BLAS dot per
    row, the exact kernel ``np.linalg.norm`` uses for 1-D input.
    """
    if clip <= 0:
        raise ValueError("clipping bound must be positive")
    out = values.astype(np.float64, copy=True)
    if out.shape[1] == 0:
        return out
    norms = np.sqrt(
        np.matmul(out[:, None, :], out[:, :, None])[:, 0, 0]
    )
    over = norms > clip
    if np.any(over):
        out[over] = out[over] * (clip / norms[over])[:, None]
    return out


def densify(indices: np.ndarray, values: np.ndarray, d: int) -> np.ndarray:
    """Expand a sparse gradient back to a dense length-d vector.

    Duplicate indices accumulate (matching the server-side aggregation
    semantics of Algorithm 5).
    """
    if len(indices) != len(values):
        raise ValueError("indices/values length mismatch")
    if len(indices) and (indices.min() < 0 or indices.max() >= d):
        raise ValueError("index out of range")
    dense = np.zeros(d)
    np.add.at(dense, indices, values)
    return dense
