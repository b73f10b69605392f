"""FL client: local training, sparsification, clipping, encryption.

Implements ``EncClient`` of Algorithm 1: starting from the current
global weights, run local SGD over the private shard, take the model
delta, top-k sparsify it, L2-clip the surviving values, and encrypt the
``(index, value)`` records for the enclave under the RA-negotiated key
(the sealing step is :func:`repro.runtime.jobs.run_clients`, one
:func:`~repro.sgx.crypto.seal_batch` per shape batch).

There is one client path and it is batched: :func:`client_updates`
trains C same-shape clients as one model stack (leading client axis,
see :mod:`repro.fl.models`), then sparsifies and clips row-wise.  A
lone client is the ``C = 1`` case.  Per-client randomness comes from
each client's own Generators (the caller supplies them), so a client's
update is the same bits whatever cohort it trains in -- pinned against
the scalar reference loop in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import ClientData
from .models import Sequential
from .sparsify import l2_clip, random_k, threshold, top_k, top_ratio


@dataclass(frozen=True)
class LocalUpdate:
    """A sparse model delta produced by one client in one round."""

    client_id: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.values):
            raise ValueError("indices/values length mismatch")

    @property
    def k(self) -> int:
        """Number of sparsified coordinates in this update."""
        return len(self.indices)


#: Supported client-side sparsifiers.  ``top_k`` is the paper's default
#: (data-dependent, leaky); ``threshold`` is the other data-dependent
#: family called out in Section 3.3 (it additionally leaks k itself);
#: ``random_k`` is the data-independent strawman that does not leak but
#: discards signal.
SPARSIFIERS = ("top_k", "threshold", "random_k")

#: Local optimizers: ``fedavg`` shares a multi-epoch weight delta
#: (DP-FedAVG); ``fedsgd`` shares one full-batch gradient step
#: (DP-FedSGD) -- the paper treats both uniformly as "gradients".
ALGORITHMS = ("fedavg", "fedsgd")


@dataclass(frozen=True)
class TrainingConfig:
    """Client-side hyperparameters of Algorithm 1."""

    local_epochs: int = 1
    local_lr: float = 0.1
    batch_size: int = 32
    sparse_ratio: float = 0.1
    clip: float = 1.0
    sparsifier: str = "top_k"
    threshold_tau: float = 0.01
    algorithm: str = "fedavg"

    def __post_init__(self) -> None:
        if self.sparsifier not in SPARSIFIERS:
            raise ValueError(f"unknown sparsifier {self.sparsifier!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        # Reject here what would otherwise upload zero-trained or
        # non-finite updates, or fail only mid-round inside a worker.
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.sparse_ratio <= 1.0:
            raise ValueError(
                f"sparse_ratio must be in (0, 1], got {self.sparse_ratio}")
        if not self.clip > 0.0:
            raise ValueError(f"clip must be positive, got {self.clip}")
        if not (math.isfinite(self.local_lr) and self.local_lr > 0.0):
            raise ValueError(
                f"local_lr must be finite and positive, got {self.local_lr}")
        if not self.threshold_tau >= 0.0:
            raise ValueError(
                f"threshold_tau must be >= 0, got {self.threshold_tau}")


def train_stack(
    model: Sequential,
    xs: np.ndarray,
    ys: np.ndarray,
    config: TrainingConfig,
    train_rngs: list[np.random.Generator],
) -> None:
    """Local optimization, in place, on a C-client model stack.

    ``xs``/``ys`` stack C same-shape shards.  FedAVG runs
    ``local_epochs`` of minibatch SGD, drawing one permutation per
    epoch from each client's ``train_rngs[c]`` (leaving the stream
    positioned for the sparsifier); FedSGD takes one full-batch step.
    Dropout masks come from the model's own per-client Generators.
    """
    c, n = ys.shape[0], ys.shape[1]
    if config.algorithm == "fedsgd":
        model.begin_training(n)
        model.train_step(xs, ys, config.local_lr)
        return
    model.begin_training(config.local_epochs * n)
    row_index = np.arange(c)[:, None]
    for _ in range(config.local_epochs):
        orders = np.empty((c, n), dtype=np.int64)
        for i, rng in enumerate(train_rngs):
            orders[i] = rng.permutation(n)
        # One gather for the whole epoch; per-step batches are views.
        ex = xs[row_index, orders]
        ey = ys[row_index, orders]
        for start in range(0, n, config.batch_size):
            stop = start + config.batch_size
            model.train_step(ex[:, start:stop], ey[:, start:stop],
                             config.local_lr)


def local_deltas(
    model: Sequential,
    global_weights: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    config: TrainingConfig,
    train_rngs: list[np.random.Generator],
    dropout_rngs: dict[int, list[np.random.Generator]],
) -> np.ndarray:
    """Train C clients from ``global_weights``; returns the ``(C, d)``
    delta stack.

    ``model`` is only the architecture template (it is not modified);
    ``dropout_rngs`` maps each dropout layer's index in ``model.layers``
    to the C clients' Generators for that layer.
    """
    stack = model.replicate(ys.shape[0], global_weights)
    for i, rngs in dropout_rngs.items():
        stack.layers[i].rngs = rngs
    train_stack(stack, xs, ys, config, train_rngs)
    return stack.flat_stack() - global_weights


def sparsify(
    deltas: np.ndarray,
    config: TrainingConfig,
    rngs: list[np.random.Generator],
):
    """Apply the configured sparsifier to a ``(C, d)`` delta stack.

    Returns per-row ``(indices, values)``: ``(C, k)`` arrays for the
    fixed-k sparsifiers, per-row lists for ``threshold``.  A threshold
    row where nothing reaches tau falls back to its single largest
    coordinate -- a client never sends an empty update.
    """
    if config.sparsifier == "top_k":
        return top_ratio(deltas, config.sparse_ratio)
    if config.sparsifier == "threshold":
        indices, values = threshold(deltas, config.threshold_tau)
        for c, idx in enumerate(indices):
            if len(idx) == 0:
                best_idx, best_val = top_k(deltas[c : c + 1], 1)
                indices[c], values[c] = best_idx[0], best_val[0]
        return indices, values
    k = max(1, int(np.ceil(config.sparse_ratio * deltas.shape[1])))
    return random_k(deltas, k, rngs)


def client_updates(
    model: Sequential,
    global_weights: np.ndarray,
    datas: list[ClientData],
    config: TrainingConfig,
    train_rngs: list[np.random.Generator],
    dropout_rngs: dict[int, list[np.random.Generator]],
    clip_override: float | None = None,
) -> list[LocalUpdate]:
    """EncClient lines 15-22 for C same-shape client shards: train,
    sparsify, L2-clip.

    ``train_rngs[c]`` drives client c's batch order and then its
    ``random_k`` draw; ``dropout_rngs`` is as in :func:`local_deltas`.
    ``clip_override`` supports server-broadcast adaptive clipping
    (Andrew et al.): when set -- including to an invalid ``0.0``, which
    :func:`~repro.fl.sparsify.l2_clip` rejects loudly rather than
    silently falling back to ``config.clip`` -- it replaces
    ``config.clip`` this round.
    """
    deltas = local_deltas(
        model, global_weights,
        np.stack([d.x for d in datas]), np.stack([d.y for d in datas]),
        config, train_rngs, dropout_rngs,
    )
    indices, values = sparsify(deltas, config, train_rngs)
    clip = clip_override if clip_override is not None else config.clip
    if config.sparsifier == "threshold":
        # Ragged rows clip one at a time.
        values = [l2_clip(val[None], clip)[0] for val in values]
    else:
        values = l2_clip(values, clip)
    return [
        LocalUpdate(client_id=data.client_id, indices=idx, values=val)
        for data, idx, val in zip(datas, indices, values)
    ]
