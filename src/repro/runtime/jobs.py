"""The unit of cohort work: one client's local round, self-contained.

A :class:`ClientJob` carries everything needed to reproduce one
client's contribution -- identity ``(round, client)``, the training
hyperparameters, and the base entropy -- but never live RNG state.
:func:`execute_client_jobs_batch` runs a chunk of jobs through the
client core: derive each client's Generators from its identity (see
:mod:`repro.runtime.seeding`), train the chunk as one model stack
replicated from the context's template
(:func:`~repro.fl.client.client_updates`), and return either the
sealed ciphertext (enclave mode) or the plain sparse update
(reference-simulation mode).  Because the core is a pure function of
``(context, jobs)``, a job produces the same bits in any chunk, at any
position, on any attempt.

Jobs and results are plain immutable dataclasses; the state every job
reads (model template, client shards, broadcast weights) lives in one
:class:`WorkerContext` per runtime.
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


@dataclass
class WorkerContext:
    """State shared by every job a runtime runs.

    ``weights`` is the broadcast global model for the current round.
    Jobs treat the whole context as read-only (training replicates the
    template).
    """

    model: Sequential
    clients: dict[int, ClientData]
    weights: np.ndarray


@dataclass(frozen=True)
class ClientJob:
    """One client's work order for one round."""

    round_index: int
    client_id: int
    entropy: int
    training: TrainingConfig
    clip: float | None = None
    quantize_bits: int | None = None
    key: bytes | None = None      # seal the update when set (enclave mode)
    attempt: int = 0              # injected transient failures before it


@dataclass(frozen=True)
class ClientJobResult:
    """What one client upload produced."""

    client_id: int
    round_index: int
    ciphertext: crypto.Ciphertext | None
    indices: np.ndarray | None    # plain mode only (no key)
    values: np.ndarray | None
    upload_bytes: int
    train_seconds: float
    attempt: int

    def to_update(self) -> LocalUpdate:
        """The plain-mode sparse update (enclave mode decrypts instead)."""
        if self.indices is None or self.values is None:
            raise ValueError("sealed result: decrypt through the enclave")
        return LocalUpdate(client_id=self.client_id,
                           indices=self.indices, values=self.values)


@dataclass(frozen=True)
class TrainTask:
    """A generic local-training replay task (attack teacher, ablations).

    Unlike :class:`ClientJob` it carries its own start weights (teacher
    replay starts from a different ``theta^t`` per round) and a free-form
    ``seed_key`` identifying the task in the derivation namespace.
    """

    seed_key: tuple[int, ...]     # e.g. (round, label, shard)
    stream: int
    entropy: int
    weights: np.ndarray
    x: np.ndarray
    y: np.ndarray
    training: TrainingConfig


def _finalize_result(
    job: ClientJob, update: LocalUpdate, train_seconds: float,
    nonce: bytes | None, q_rng: np.random.Generator | None,
    payload: bytes | None,
) -> ClientJobResult:
    """Package one client's update: plain, or sealed under its key.

    ``nonce`` and ``q_rng`` are derived from the job's identity for the
    whole chunk at once; ``payload`` is the pre-encoded sparse gradient
    when the chunk encoded in one pass.
    """
    if job.key is None:
        return ClientJobResult(
            client_id=job.client_id, round_index=job.round_index,
            ciphertext=None, indices=update.indices, values=update.values,
            upload_bytes=0, train_seconds=train_seconds, attempt=job.attempt,
        )
    if job.quantize_bits is not None:
        from ..fl.quantize import quantize_stochastic

        # Quantization draws from its own sub-stream of the client's
        # identity so the dither is chunk- and retry-invariant too.
        q = quantize_stochastic(update, job.quantize_bits, q_rng)
        payload = crypto.encode_quantized_gradient(q.indices, q.levels, q.scale)
    elif payload is None:
        payload = crypto.encode_sparse_gradient(update.indices, update.values)
    ciphertext = crypto.seal(job.key, payload, nonce=nonce)
    return ClientJobResult(
        client_id=job.client_id, round_index=job.round_index,
        ciphertext=ciphertext, indices=None, values=None,
        upload_bytes=len(ciphertext.to_bytes()),
        train_seconds=train_seconds, attempt=job.attempt,
    )


def execute_client_jobs_batch(
    ctx: WorkerContext, jobs: list[ClientJob]
) -> list[ClientJobResult]:
    """Run one chunk of client jobs as stacked tensors; pure in (ctx, jobs).

    The mega-cohort hot path: jobs sharing a shard shape and training
    configuration train as one :func:`~repro.fl.client.client_updates`
    call (batched matmuls over a leading client axis), then seal in one
    contiguous pass.  Per-client randomness is derived from each job's
    ``(round, client)`` identity, so every returned result -- indices,
    values, and ciphertext bytes -- is bit-identical to training that
    job alone (``tests/oracles.py::execute_client_job``).

    Injected faults are **not** interpreted here; the cohort runtime
    settles them from the fault plan before a chunk is formed.
    ``train_seconds`` of each result is the chunk's measured training
    time amortized over its clients.
    """
    if not jobs:
        return []
    with obs.span("client_batch", n=len(jobs)):
        dropout_indices = ctx.model.dropout_indices
        # Batch compatibility requires identical tensor shapes and training
        # hyperparameters; everything per-client (rng streams, keys, clip
        # application) rides along per row.
        groups: dict[tuple, list[int]] = {}
        for pos, job in enumerate(jobs):
            data = ctx.clients[job.client_id]
            key = (data.x.shape, data.y.shape, job.training, job.clip,
                   job.entropy, job.round_index)
            groups.setdefault(key, []).append(pos)

        results: list[ClientJobResult | None] = [None] * len(jobs)
        for positions in groups.values():
            chunk = [jobs[p] for p in positions]
            datas = [ctx.clients[j.client_id] for j in chunk]
            entropy, round_index = chunk[0].entropy, chunk[0].round_index
            cids = [j.client_id for j in chunk]
            train_rngs = [derive_rng(entropy, STREAM_TRAIN, round_index, c)
                          for c in cids]
            dropout_rngs = {
                i: [derive_rng(entropy, STREAM_MODEL, round_index, c, i)
                    for c in cids]
                for i in dropout_indices
            }
            t0 = time.perf_counter()
            updates = client_updates(
                ctx.model, ctx.weights, datas, chunk[0].training,
                train_rngs, dropout_rngs, clip_override=chunk[0].clip,
            )
            per_client = (time.perf_counter() - t0) / len(chunk)
            if obs.enabled():
                # One observation per client (amortized), so the
                # histogram counts clients, not chunks.
                for _ in chunk:
                    obs.observe("runtime.train_s", per_client)
            sealed = any(j.key is not None for j in chunk)
            nonces = [derive_nonce(entropy, round_index, c) for c in cids] \
                if sealed else [None] * len(chunk)
            if sealed and any(j.quantize_bits is not None for j in chunk):
                q_rngs = [derive_rng(entropy, STREAM_TRAIN, round_index, c, 1)
                          for c in cids]
            else:
                q_rngs = [None] * len(chunk)
            payloads: list[bytes | None] = [None] * len(chunk)
            if sealed and all(
                j.key is not None and j.quantize_bits is None for j in chunk
            ):
                k0 = updates[0].indices.shape
                if all(u.indices.shape == k0 for u in updates):
                    # Uniform-k sparsifiers (top_k, random_k): encode the
                    # whole chunk's payloads in one record-array pass.
                    payloads = crypto.encode_sparse_gradients_batch(
                        np.stack([u.indices for u in updates]),
                        np.stack([u.values for u in updates]),
                    )
            for pos, job, update, nonce, q_rng, payload in zip(
                positions, chunk, updates, nonces, q_rngs, payloads
            ):
                results[pos] = _finalize_result(job, update, per_client,
                                                nonce, q_rng, payload)
        return results  # type: ignore[return-value]


def execute_train_task(ctx: WorkerContext, task: TrainTask) -> np.ndarray:
    """Run one generic replay task through the client core; returns the
    update's index set.

    The task's streams are keyed ``(*seed_key, 0)`` for training and
    ``(*seed_key, 0, layer)`` for each dropout layer.
    """
    key = (*task.seed_key, 0)
    data = ClientData(client_id=-1, x=task.x, y=task.y)
    dropout_rngs = {
        i: [derive_rng(task.entropy, task.stream, *key, i)]
        for i in ctx.model.dropout_indices
    }
    [update] = client_updates(
        ctx.model, task.weights, [data], task.training,
        [derive_rng(task.entropy, task.stream, *key)], dropout_rngs,
    )
    return update.indices
