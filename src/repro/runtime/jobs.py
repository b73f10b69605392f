"""The unit of cohort work: one client's local round, self-contained.

A :class:`ClientJob` carries everything needed to reproduce one
client's contribution -- identity ``(round, client)``, the training
hyperparameters, and the base entropy -- but never live RNG state.
:func:`execute_client_job` derives all randomness from the job's
identity (see :mod:`repro.runtime.seeding`), clones the worker's model
template, trains on the worker's shard table, and returns either the
sealed ciphertext (enclave mode) or the plain sparse update
(reference-simulation mode).  Because the function is a pure function
of ``(context, job)``, it can run on any executor, any worker, any
number of times (retries), and produce the same bits.

Jobs and results are plain immutable dataclasses; the state every job
reads (model template, client shards, broadcast weights) lives in a
:class:`WorkerContext` installed once per executor.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..fl.client import (
    LocalUpdate,
    TrainingConfig,
    compute_update,
    compute_updates_batch,
)
from ..fl.datasets import ClientData
from ..fl.models import Dropout, Sequential
from ..sgx import crypto
from .seeding import (
    STREAM_MODEL,
    STREAM_TRAIN,
    derive_nonce,
    derive_nonces_batch,
    derive_rng,
    derive_rngs_batch,
    reseed_model,
)


class TransientWorkerError(RuntimeError):
    """An injected (or real) transient execution failure; retryable."""


@dataclass
class WorkerContext:
    """State shared by every job an executor runs.

    ``weights`` is the broadcast global model for the current round.
    Jobs treat the whole context as read-only, so thread workers can
    share one instance.
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
    delay_s: float = 0.0          # injected straggler latency, slept in-job
    fail_attempts: int = 0        # attempts < fail_attempts raise transiently
    attempt: int = 0
    # Flight recorder: the coordinator's open round span, so a client
    # span opened on a worker thread joins the same trace.
    trace_ctx: obs.TraceContext | None = None


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


def _train_once(
    model_template: Sequential,
    weights: np.ndarray,
    data: ClientData,
    training: TrainingConfig,
    entropy: int,
    stream_train: int,
    stream_model: int,
    key_parts: tuple[int, ...],
    clip: float | None = None,
) -> LocalUpdate:
    """Clone the template, re-key its randomness, run one local round."""
    model = copy.deepcopy(model_template)
    reseed_model(model, entropy, stream_model, *key_parts)
    rng = derive_rng(entropy, stream_train, *key_parts)
    return compute_update(model, weights, data, training, rng,
                          clip_override=clip)


def execute_client_job(ctx: WorkerContext, job: ClientJob) -> ClientJobResult:
    """Run one client job inside a worker; pure in ``(ctx, job)``.

    Raises :class:`TransientWorkerError` while the injected failure
    budget is unspent -- the coordinator retries with backoff and the
    successful attempt returns bits identical to a never-failed run
    (the derivation ignores ``attempt``).
    """
    with obs.span("client", parent=job.trace_ctx, client=job.client_id,
                  attempt=job.attempt):
        return _execute_client_job(ctx, job)


def _execute_client_job(ctx: WorkerContext, job: ClientJob) -> ClientJobResult:
    if job.attempt < job.fail_attempts:
        raise TransientWorkerError(
            f"injected transient failure for client {job.client_id} "
            f"(attempt {job.attempt}/{job.fail_attempts})"
        )
    if job.delay_s > 0.0:
        time.sleep(job.delay_s)
    t0 = time.perf_counter()
    data = ctx.clients[job.client_id]
    update = _train_once(
        ctx.model, ctx.weights, data, job.training, job.entropy,
        STREAM_TRAIN, STREAM_MODEL, (job.round_index, job.client_id),
        clip=job.clip,
    )
    train_seconds = time.perf_counter() - t0
    obs.observe("runtime.train_s", train_seconds)

    if job.key is None:
        return ClientJobResult(
            client_id=job.client_id, round_index=job.round_index,
            ciphertext=None, indices=update.indices, values=update.values,
            upload_bytes=0, train_seconds=train_seconds, attempt=job.attempt,
        )

    if job.quantize_bits is not None:
        from ..fl.quantize import quantize_stochastic

        # Quantization draws from its own sub-stream of the client's
        # identity so the dither is executor- and retry-invariant too.
        q_rng = derive_rng(job.entropy, STREAM_TRAIN,
                           job.round_index, job.client_id, 1)
        q = quantize_stochastic(update, job.quantize_bits, q_rng)
        payload = crypto.encode_quantized_gradient(q.indices, q.levels, q.scale)
    else:
        payload = crypto.encode_sparse_gradient(update.indices, update.values)
    nonce = derive_nonce(job.entropy, job.round_index, job.client_id)
    ciphertext = crypto.seal(job.key, payload, nonce=nonce)
    return ClientJobResult(
        client_id=job.client_id, round_index=job.round_index,
        ciphertext=ciphertext, indices=None, values=None,
        upload_bytes=len(ciphertext.to_bytes()),
        train_seconds=train_seconds, attempt=job.attempt,
    )


def _finalize_result(
    job: ClientJob, update: LocalUpdate, train_seconds: float,
    nonce: bytes | None = None,
    q_rng: np.random.Generator | None = None,
    payload: bytes | None = None,
) -> ClientJobResult:
    """Package one client's update exactly as :func:`execute_client_job`.

    Shared by the serial and batched paths so the sealed bytes (payload
    encoding, nonce derivation, quantization sub-stream) are produced by
    one code path.  The batch path pre-derives ``nonce``/``q_rng`` for a
    whole chunk (one vectorized mixing pass); when absent they are
    derived per client, identically.
    """
    if job.key is None:
        return ClientJobResult(
            client_id=job.client_id, round_index=job.round_index,
            ciphertext=None, indices=update.indices, values=update.values,
            upload_bytes=0, train_seconds=train_seconds, attempt=job.attempt,
        )
    if job.quantize_bits is not None:
        from ..fl.quantize import quantize_stochastic

        if q_rng is None:
            q_rng = derive_rng(job.entropy, STREAM_TRAIN,
                               job.round_index, job.client_id, 1)
        q = quantize_stochastic(update, job.quantize_bits, q_rng)
        payload = crypto.encode_quantized_gradient(q.indices, q.levels, q.scale)
    elif payload is None:
        payload = crypto.encode_sparse_gradient(update.indices, update.values)
    if nonce is None:
        nonce = derive_nonce(job.entropy, job.round_index, job.client_id)
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
    configuration train as one :func:`~repro.fl.client.compute_updates_batch`
    call (batched matmuls over a leading client axis), then seal in one
    contiguous pass.  Per-client randomness is derived from each job's
    ``(round, client)`` identity exactly as the serial path does, so
    every returned result -- indices, values, and ciphertext bytes --
    is bit-identical to :func:`execute_client_job` on the same job.

    Injected delay/failure faults are **not** interpreted here; the
    vectorized executor adjudicates them before a chunk is formed
    (faulty rows never enter the batch).
    """
    if not jobs:
        return []
    with obs.span("client_batch", parent=jobs[0].trace_ctx, n=len(jobs)):
        return _execute_client_jobs_batch(ctx, jobs)


def _execute_client_jobs_batch(
    ctx: WorkerContext, jobs: list[ClientJob]
) -> list[ClientJobResult]:
    dropout_indices = [
        i for i, layer in enumerate(ctx.model.layers)
        if isinstance(layer, Dropout)
    ]
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
        # One vectorized SeedSequence pass per stream for the whole
        # chunk (bit-identical to per-client derive_rng).
        train_rngs = derive_rngs_batch(entropy, STREAM_TRAIN, round_index, cids)
        by_layer = {
            i: derive_rngs_batch(entropy, STREAM_MODEL, round_index, cids, i)
            for i in dropout_indices
        }
        dropout_rngs = [
            {i: by_layer[i][c] for i in dropout_indices}
            for c in range(len(chunk))
        ]
        t0 = time.perf_counter()
        updates = compute_updates_batch(
            ctx.model, ctx.weights, datas, chunk[0].training,
            train_rngs, dropout_rngs, clip_override=chunk[0].clip,
        )
        per_client = (time.perf_counter() - t0) / len(chunk)
        if obs.enabled():
            # One observation per client (amortized) so the latency
            # histogram is comparable across executors.
            for _ in chunk:
                obs.observe("runtime.train_s", per_client)
        sealed = any(j.key is not None for j in chunk)
        nonces = derive_nonces_batch(entropy, round_index, cids) if sealed \
            else [None] * len(chunk)
        if sealed and any(j.quantize_bits is not None for j in chunk):
            q_rngs = derive_rngs_batch(entropy, STREAM_TRAIN, round_index,
                                       cids, 1)
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
                                            nonce=nonce, q_rng=q_rng,
                                            payload=payload)
    return results  # type: ignore[return-value]


def execute_train_task(ctx: WorkerContext, task: TrainTask) -> np.ndarray:
    """Run one generic replay task; returns the update's index set."""
    data = ClientData(client_id=-1, x=task.x, y=task.y)
    update = _train_once(
        ctx.model, task.weights, data, task.training, task.entropy,
        task.stream, task.stream, (*task.seed_key, 0),
    )
    return update.indices
