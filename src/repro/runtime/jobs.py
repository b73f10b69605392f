"""The client core: EncClient of Algorithm 1 for a chunk of clients.

:func:`run_clients` trains a chunk of the sampled cohort as stacked
tensors (:func:`~repro.fl.client.client_updates`), then seals each
update under its client key.  Every client's randomness
-- batch order, dropout masks, random-k, QSGD dither, AE nonce -- is
derived from its ``(round, client)`` identity (see
:mod:`repro.runtime.seeding`), so a client produces the same bits in
any chunk, at any position, after any number of retries.
Each shape batch is sealed in one :func:`~repro.sgx.crypto.seal_batch`
call; :func:`encode_update` is the one encoder of an upload and
:func:`seal_update` seals one upload through the same AE path.
:func:`replay_indices` runs one keyed local-training replay (the attack
teacher) through the same core.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..fl.client import LocalUpdate, TrainingConfig, client_updates
from ..fl.datasets import ClientData
from ..fl.models import Sequential
from ..sgx import crypto
from .seeding import STREAM_MODEL, STREAM_TRAIN, derive_nonce, derive_rng


@dataclass(frozen=True)
class ClientJobResult:
    """What one client upload produced."""

    client_id: int
    ciphertext: crypto.Ciphertext
    train_seconds: float


def encode_update(
    update: LocalUpdate, *, quantize_bits: int | None = None,
    q_rng: np.random.Generator | None = None,
) -> bytes:
    """EncClient line 22's plaintext: one update in its wire format.

    With ``quantize_bits`` the values are QSGD-quantized first, dithered
    by ``q_rng``.
    """
    if quantize_bits is not None:
        from ..fl.quantize import quantize_stochastic

        q = quantize_stochastic(update, quantize_bits, q_rng)
        return crypto.encode_quantized_gradient(q.indices, q.levels, q.scale)
    return crypto.encode_sparse_gradient(update.indices, update.values)


def seal_update(
    update: LocalUpdate, key: bytes, nonce: bytes | None = None, *,
    quantize_bits: int | None = None,
    q_rng: np.random.Generator | None = None,
) -> crypto.Ciphertext:
    """EncClient line 22 for one update: encode it and seal it under
    ``key``.  ``nonce=None`` draws a random nonce."""
    return crypto.seal(key, encode_update(update, quantize_bits=quantize_bits,
                                          q_rng=q_rng), nonce=nonce)


def run_clients(
    model: Sequential,
    clients: dict[int, ClientData],
    cids: list[int],
    weights: np.ndarray,
    *,
    round_index: int,
    entropy: int,
    training: TrainingConfig,
    clip: float | None,
    quantize_bits: int | None,
    keys: dict[int, bytes],
) -> list[ClientJobResult]:
    """Train, sparsify, clip and seal one chunk of clients, in ``cids``
    order; pure in its arguments.

    ``keys`` holds every client's key.  Clients whose shards share a
    shape train as one stacked batch; the uniform-k payloads of a batch
    encode in one record-array pass, and each batch seals in one call.
    Each result's ``train_seconds`` is its batch's measured training
    time amortized over the batch's clients.
    """
    with obs.span("client_batch", n=len(cids)):
        batches: dict[tuple, list[int]] = {}
        for cid in cids:
            data = clients[cid]
            batches.setdefault((data.x.shape, data.y.shape), []).append(cid)

        results: dict[int, ClientJobResult] = {}
        for batch in batches.values():
            train_rngs = [derive_rng(entropy, STREAM_TRAIN, round_index, c)
                          for c in batch]
            dropout_rngs = {
                i: [derive_rng(entropy, STREAM_MODEL, round_index, c, i)
                    for c in batch]
                for i in model.dropout_indices
            }
            t0 = time.perf_counter()
            updates = client_updates(
                model, weights, [clients[c] for c in batch], training,
                train_rngs, dropout_rngs, clip_override=clip,
            )
            per_client = (time.perf_counter() - t0) / len(batch)
            if obs.enabled():
                # One observation per client (amortized), so the
                # histogram counts clients, not batches.
                for _ in batch:
                    obs.observe("runtime.train_s", per_client)
            if quantize_bits is not None:
                # The dither draws from its own sub-stream of the
                # client's identity, so it is chunk-invariant too.
                payloads = [
                    encode_update(u, quantize_bits=quantize_bits,
                                  q_rng=derive_rng(entropy, STREAM_TRAIN,
                                                   round_index, c, 1))
                    for c, u in zip(batch, updates)]
            elif all(u.indices.shape == updates[0].indices.shape
                     for u in updates):
                # Uniform-k sparsifiers (top_k, random_k).
                payloads = crypto.encode_sparse_gradients_batch(
                    np.stack([u.indices for u in updates]),
                    np.stack([u.values for u in updates]),
                )
            else:
                payloads = [encode_update(u) for u in updates]
            sealed = crypto.seal_batch(
                [keys[c] for c in batch], payloads,
                [derive_nonce(entropy, round_index, c) for c in batch])
            for c, ciphertext in zip(batch, sealed):
                results[c] = ClientJobResult(c, ciphertext, per_client)
        return [results[c] for c in cids]


def replay_indices(
    model: Sequential,
    weights: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    training: TrainingConfig,
    *,
    entropy: int,
    stream: int,
    key: tuple[int, ...],
) -> np.ndarray:
    """One local-training replay from ``weights`` on ``(x, y)`` through
    the client core; returns the update's index set.

    The replay is keyed ``(*key, 0)`` on ``stream`` for training and
    ``(*key, 0, layer)`` for each dropout layer.
    """
    key = (*key, 0)
    dropout_rngs = {i: [derive_rng(entropy, stream, *key, i)]
                    for i in model.dropout_indices}
    [update] = client_updates(
        model, weights, [ClientData(client_id=-1, x=x, y=y)], training,
        [derive_rng(entropy, stream, *key)], dropout_rngs,
    )
    return update.indices
