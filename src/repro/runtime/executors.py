"""Pluggable cohort executors: serial, thread pool, vectorized.

All expose the same tiny surface -- ``start(model, clients, d)``,
``broadcast(weights)``, ``submit(job)`` returning a future, and
``shutdown()`` -- and all produce the *same bits* per job (pinned by
the determinism suite): the loop executors run
:func:`repro.runtime.jobs.execute_client_job` per client, while the
vectorized executor batches whole chunks of the cohort through
:func:`repro.runtime.jobs.execute_client_jobs_batch`.

* :class:`SerialExecutor` executes lazily at ``result()`` time in the
  coordinator thread: zero overhead, exact per-client span timings,
  and the default everywhere.
* :class:`ThreadExecutor` shares the context read-only across a
  ``ThreadPoolExecutor``; each job deep-copies the model template, so
  no training state is shared.  Numpy releases the GIL in the heavy
  kernels and injected client latency overlaps fully.
* :class:`VectorizedExecutor` trains the whole cohort as stacked numpy
  tensors (leading client axis) in chunks of ``vector_chunk`` clients:
  the mega-cohort path, an order of magnitude past the loop executors
  while remaining bit-identical to them.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable

import numpy as np

from ..fl.datasets import ClientData
from ..fl.models import Sequential
from .jobs import (
    ClientJob,
    ClientJobResult,
    TrainTask,
    TransientWorkerError,
    WorkerContext,
    execute_client_job,
    execute_client_jobs_batch,
    execute_train_task,
)

EXECUTORS = ("serial", "thread", "vectorized")


class _LazyFuture:
    """A future that runs its thunk on first ``result()`` call.

    Lets the serial executor keep the submit/collect protocol of the
    pooled executors while executing in the coordinator thread at
    collection time -- so per-client telemetry spans wrap real work.
    """

    def __init__(self, fn: Callable[[], ClientJobResult]) -> None:
        self._fn = fn
        self._done = False
        self._result: ClientJobResult | None = None
        self._exc: BaseException | None = None

    def result(self, timeout: float | None = None):
        if not self._done:
            try:
                self._result = self._fn()
            except BaseException as exc:  # re-raised like a real future
                self._exc = exc
            self._done = True
        if self._exc is not None:
            raise self._exc
        return self._result

    def cancel(self) -> bool:
        return False


class SerialExecutor:
    """In-line execution in submission order; the reference executor."""

    kind = "serial"

    def __init__(self) -> None:
        self._ctx: WorkerContext | None = None

    def start(self, model: Sequential, clients: dict[int, ClientData],
              d: int) -> None:
        self._ctx = WorkerContext(model=model, clients=clients,
                                  weights=np.zeros(max(d, 1)))

    def broadcast(self, weights: np.ndarray) -> None:
        assert self._ctx is not None
        self._ctx.weights = weights

    def submit(self, job: ClientJob) -> _LazyFuture:
        assert self._ctx is not None
        ctx = self._ctx
        return _LazyFuture(lambda: execute_client_job(ctx, job))

    def submit_task(self, task: TrainTask) -> _LazyFuture:
        assert self._ctx is not None
        ctx = self._ctx
        return _LazyFuture(lambda: execute_train_task(ctx, task))

    def shutdown(self) -> None:
        self._ctx = None


class ThreadExecutor:
    """Shared-context thread pool; jobs clone the model per call."""

    kind = "thread"

    def __init__(self, workers: int = 4) -> None:
        self.workers = max(1, int(workers))
        self._ctx: WorkerContext | None = None
        self._pool: ThreadPoolExecutor | None = None

    def start(self, model: Sequential, clients: dict[int, ClientData],
              d: int) -> None:
        self._ctx = WorkerContext(model=model, clients=clients,
                                  weights=np.zeros(max(d, 1)))
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="cohort"
        )

    def broadcast(self, weights: np.ndarray) -> None:
        assert self._ctx is not None
        self._ctx.weights = weights

    def submit(self, job: ClientJob) -> Future:
        assert self._pool is not None and self._ctx is not None
        return self._pool.submit(execute_client_job, self._ctx, job)

    def submit_task(self, task: TrainTask) -> Future:
        assert self._pool is not None and self._ctx is not None
        return self._pool.submit(execute_train_task, self._ctx, task)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._ctx = None


class _BatchFuture:
    """A future whose value is produced by a deferred batch flush."""

    def __init__(self, flush: Callable[[], None]) -> None:
        self._flush = flush
        self._done = False
        self._result: ClientJobResult | None = None
        self._exc: BaseException | None = None

    def set_result(self, result: ClientJobResult) -> None:
        self._result = result
        self._done = True

    def set_exception(self, exc: BaseException) -> None:
        self._exc = exc
        self._done = True

    def result(self, timeout: float | None = None):
        if not self._done:
            self._flush()
        assert self._done, "flush did not resolve this future"
        if self._exc is not None:
            raise self._exc
        return self._result

    def cancel(self) -> bool:
        return False


class VectorizedExecutor:
    """Whole-cohort tensor execution: the mega-cohort hot path.

    Submitted jobs accumulate until the first ``result()`` call, then
    flush through :func:`repro.runtime.jobs.execute_client_jobs_batch`
    in contiguous chunks of ``vector_chunk`` clients (bounding peak
    memory at mega-cohort scale).  Fault semantics match the serial
    path: injected transient failures raise per-job at flush time (the
    coordinator's retry resubmits the job, which flushes as its own
    small batch -- still bit-identical, since derivation ignores the
    attempt counter), and injected straggler delay is slept once per
    flush at the chunk maximum (stragglers overlap, as they do under a
    pooled executor).
    """

    kind = "vectorized"

    def __init__(self, vector_chunk: int = 8192) -> None:
        self.vector_chunk = max(1, int(vector_chunk))
        self._ctx: WorkerContext | None = None
        self._queue: list[tuple[ClientJob, _BatchFuture]] = []

    def start(self, model: Sequential, clients: dict[int, ClientData],
              d: int) -> None:
        self._ctx = WorkerContext(model=model, clients=clients,
                                  weights=np.zeros(max(d, 1)))

    def broadcast(self, weights: np.ndarray) -> None:
        assert self._ctx is not None
        self._ctx.weights = weights

    def submit(self, job: ClientJob) -> _BatchFuture:
        assert self._ctx is not None
        future = _BatchFuture(self._flush)
        self._queue.append((job, future))
        return future

    def submit_task(self, task: TrainTask) -> _LazyFuture:
        assert self._ctx is not None
        ctx = self._ctx
        return _LazyFuture(lambda: execute_train_task(ctx, task))

    def _flush(self) -> None:
        """Resolve every queued future in one batched pass."""
        ctx = self._ctx
        assert ctx is not None
        queue, self._queue = self._queue, []

        # Injected transient failures leave the batch before training:
        # their futures raise, the coordinator retries, and the
        # resubmission flushes cleanly.
        runnable: list[tuple[ClientJob, _BatchFuture]] = []
        for job, future in queue:
            if job.attempt < job.fail_attempts:
                future.set_exception(TransientWorkerError(
                    f"injected transient failure for client {job.client_id} "
                    f"(attempt {job.attempt}/{job.fail_attempts})"
                ))
            else:
                runnable.append((job, future))
        if not runnable:
            return

        # Admitted straggler delays overlap: one sleep at the maximum.
        delay = max(job.delay_s for job, _ in runnable)
        if delay > 0.0:
            time.sleep(delay)

        for start in range(0, len(runnable), self.vector_chunk):
            chunk = runnable[start : start + self.vector_chunk]
            # Faults were adjudicated above; strip them from the job
            # identity only where present (replace() costs add up at
            # mega-cohort scale, and fault-free is the common case).
            jobs = [
                job if job.delay_s == 0.0 and job.fail_attempts == 0
                else dataclasses.replace(job, delay_s=0.0, fail_attempts=0)
                for job, _ in chunk
            ]
            try:
                results = execute_client_jobs_batch(ctx, jobs)
            except BaseException as exc:
                for _, future in chunk:
                    future.set_exception(exc)
                continue
            for (_, future), result in zip(chunk, results):
                future.set_result(result)

    def shutdown(self) -> None:
        # Resolve anything still queued so abandoned futures cannot
        # deadlock a caller holding them past shutdown.
        if self._queue and self._ctx is not None:
            self._flush()
        self._queue = []
        self._ctx = None


def make_executor(kind: str, workers: int, vector_chunk: int = 8192):
    """Build an executor by name (see :data:`EXECUTORS`)."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(workers)
    if kind == "vectorized":
        return VectorizedExecutor(vector_chunk=vector_chunk)
    raise ValueError(f"unknown executor {kind!r} (choose from {EXECUTORS})")
