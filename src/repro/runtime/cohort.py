"""The cohort runtime: parallel, fault-tolerant client execution.

:class:`CohortRuntime` is the engine OLIVE's round loop submits the
sampled cohort through.  It owns a pluggable executor (serial, thread
pool, or vectorized whole-cohort batching), applies the deterministic
fault plan per ``(round, client)``, retries transient failures with
exponential backoff, drops stragglers past the per-client timeout, and
enforces the minimum-quorum completion policy.

Two invariants the tests pin:

1. **Executor invariance** -- every executor produces bit-identical
   per-client results and round outcomes for the same configuration,
   regardless of worker count or completion order (all randomness is
   derived from ``(round, client)`` identity, and deliveries are
   finalized in client-id order).
2. **Fault isolation** -- injected faults only ever *exclude* clients;
   the surviving clients' updates are bit-identical to a fault-free
   run, so the aggregate differs exactly by the excluded contributions.
"""

from __future__ import annotations

import dataclasses
import math
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .. import obs
from ..fl.client import TrainingConfig
from ..fl.datasets import ClientData
from ..fl.models import Sequential
from ..sgx.crypto import Ciphertext
from .config import QuorumNotMetError, RuntimeConfig
from .executors import make_executor
from .faults import ClientFaultPlan, FaultInjector
from .jobs import ClientJob, ClientJobResult, TrainTask, TransientWorkerError

#: Terminal per-client statuses after one round.
STATUS_OK = "ok"
STATUS_DROPPED = "dropped"              # fault-injected or forced dropout
STATUS_STRAGGLER = "straggler"          # injected delay beyond the timeout
STATUS_FAILED = "failed"                # retries exhausted / timed out
STATUS_REJECTED = "rejected"            # enclave refused the ciphertext

#: Failure *reasons*: why a non-ok status happened, one level finer
#: than the status (a STATUS_FAILED client timed out or kept failing
#: transiently; a STATUS_REJECTED upload was corrupt, replayed, or from
#: an unsampled client -- the enclave's ``EnclaveSecurityError.reason``
#: is recorded verbatim for rejects).
REASON_DROPOUT = "dropout"              # fault-injected dropout
REASON_FORCED = "forced"                # caller-forced dropout
REASON_STRAGGLER = "straggler"          # injected delay beyond the timeout
REASON_TIMEOUT = "timeout"              # wall-clock attempt timeout
REASON_TRANSIENT = "transient"          # transient worker failures


def record_failure_reason(outcome: "ClientOutcome", reason: str) -> None:
    """Attach a failure reason to one outcome and count it.

    Counters land under ``runtime.failure_reason.<reason>`` so a sweep
    can read off *why* clients were lost, not just how many.
    """
    outcome.reason = reason
    obs.add(f"runtime.failure_reason.{reason}")


@dataclass
class ClientOutcome:
    """What happened to one sampled client this round."""

    client_id: int
    status: str
    attempts: int = 0
    retries: int = 0
    latency_s: float = 0.0
    plan: ClientFaultPlan | None = None
    result: ClientJobResult | None = None
    reason: str | None = None           # why, when status != ok


@dataclass(frozen=True)
class Delivery:
    """One upload arriving at the aggregator, in canonical cid order.

    ``duplicate`` marks the second copy of a replayed ciphertext;
    ``corrupt`` marks in-transit tampering.  Both are transport faults
    the enclave must reject -- the runtime stages them, the enclave (or
    the plain-mode caller) adjudicates.
    """

    client_id: int
    ciphertext: Ciphertext | None
    result: ClientJobResult
    duplicate: bool = False
    corrupt: bool = False


@dataclass
class CohortResult:
    """Everything one cohort execution produced."""

    round_index: int
    sampled: list[int]
    outcomes: dict[int, ClientOutcome]
    deliveries: list[Delivery] = field(default_factory=list)

    @property
    def completed(self) -> list[int]:
        """Clients whose jobs finished (pre-enclave-verification)."""
        return [cid for cid, o in sorted(self.outcomes.items())
                if o.status == STATUS_OK]

    @property
    def failure_reasons(self) -> dict[str, int]:
        """Histogram of failure reasons across non-ok outcomes."""
        hist: dict[str, int] = {}
        for o in self.outcomes.values():
            if o.reason is not None:
                hist[o.reason] = hist.get(o.reason, 0) + 1
        return dict(sorted(hist.items()))

    def ciphertext_bytes(self, accepted: Iterable[int] | None = None) -> dict[int, bytes]:
        """Sealed upload bytes per client, in canonical delivery order.

        One entry per client -- the *original* delivery, never a
        replayed duplicate (exactly the copy the enclave accepted).
        ``accepted`` restricts the map to those clients; this is what
        the audit recorder commits to, so the bytes here must be the
        bytes that crossed the aggregation boundary, corruption
        included.
        """
        wanted = None if accepted is None else {int(c) for c in accepted}
        blobs: dict[int, bytes] = {}
        for delivery in self.deliveries:
            cid = delivery.client_id
            if delivery.duplicate or cid in blobs:
                continue
            if wanted is not None and cid not in wanted:
                continue
            if delivery.ciphertext is not None:
                blobs[cid] = delivery.ciphertext.to_bytes()
        return blobs


def _tamper(ciphertext: Ciphertext) -> Ciphertext:
    """Flip one bit of the body: AE verification must reject this."""
    body = bytearray(ciphertext.body)
    if body:
        body[-1] ^= 0x01
        return Ciphertext(nonce=ciphertext.nonce, body=bytes(body),
                          tag=ciphertext.tag)
    # Empty body: corrupt the tag instead.
    tag = bytearray(ciphertext.tag)
    tag[-1] ^= 0x01
    return Ciphertext(nonce=ciphertext.nonce, body=ciphertext.body,
                      tag=bytes(tag))


class CohortRuntime:
    """Executes sampled cohorts through a pluggable, seeded executor."""

    def __init__(
        self,
        config: RuntimeConfig,
        model: Sequential,
        clients: list[ClientData],
        entropy: int,
        keys: dict[int, bytes] | None = None,
    ) -> None:
        self.config = config
        self.entropy = int(entropy)
        self.keys = keys
        self.injector = FaultInjector(config.faults, self.entropy)
        self._model = model
        self._clients = {c.client_id: c for c in clients}
        self._d = model.num_params
        self._executor = None

    # -- lifecycle -----------------------------------------------------
    def _ensure_executor(self):
        if self._executor is None:
            self._executor = make_executor(self.config.executor,
                                           self.config.workers,
                                           vector_chunk=self.config.vector_chunk)
            self._executor.start(self._model, self._clients, self._d)
        return self._executor

    def close(self) -> None:
        """Release the executor's worker pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "CohortRuntime":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort cleanup for leaked runtimes
        try:
            self.close()
        except Exception:
            pass

    # -- cohort execution ----------------------------------------------
    def run_cohort(
        self,
        round_index: int,
        cohort: list[int],
        weights: np.ndarray,
        training: TrainingConfig,
        clip: float | None = None,
        quantize_bits: int | None = None,
        forced_dropouts: set[int] | None = None,
    ) -> CohortResult:
        """Execute one sampled cohort; returns outcomes + deliveries.

        Jobs for all admitted clients are submitted up front (so pooled
        executors overlap them) and collected in **client-id order** --
        the canonical order that makes aggregation input, and therefore
        every downstream bit, independent of completion order.
        """
        cfg = self.config
        forced = forced_dropouts or set()
        executor = self._ensure_executor()
        executor.broadcast(weights)
        # Flight recorder: ship the open (round) span's context with
        # every job so worker-side client spans join the round's trace
        # even across thread boundaries.
        trace_ctx = obs.current_context()

        outcomes: dict[int, ClientOutcome] = {}
        pending: dict[int, tuple[ClientJob, object]] = {}
        for cid in sorted(cohort):
            plan = self.injector.plan(round_index, cid)
            if cid in forced or plan.dropped:
                outcomes[cid] = ClientOutcome(cid, STATUS_DROPPED, plan=plan)
                record_failure_reason(
                    outcomes[cid],
                    REASON_FORCED if cid in forced else REASON_DROPOUT)
                obs.add("runtime.dropouts")
                continue
            if (cfg.client_timeout_s is not None
                    and plan.delay_s > cfg.client_timeout_s):
                # Analytic straggler drop: the injected delay is known,
                # so the coordinator gives up without burning wall
                # clock -- and deterministically.
                outcomes[cid] = ClientOutcome(cid, STATUS_STRAGGLER,
                                              plan=plan,
                                              latency_s=plan.delay_s)
                record_failure_reason(outcomes[cid], REASON_STRAGGLER)
                obs.add("runtime.stragglers_dropped")
                continue
            job = ClientJob(
                round_index=round_index, client_id=cid, entropy=self.entropy,
                training=training, clip=clip, quantize_bits=quantize_bits,
                key=self.keys.get(cid) if self.keys is not None else None,
                delay_s=plan.delay_s, fail_attempts=plan.fail_attempts,
                trace_ctx=trace_ctx,
            )
            pending[cid] = (job, plan, executor.submit(job))

        for cid in sorted(pending):
            job, plan, future = pending[cid]
            with obs.span("train", client=cid, executor=executor.kind):
                outcome = self._collect(executor, cid, job, future, plan)
            outcomes[cid] = outcome

        result = CohortResult(round_index=round_index,
                              sampled=sorted(cohort), outcomes=outcomes)
        for cid in result.completed:
            outcome = outcomes[cid]
            assert outcome.result is not None
            plan = outcome.plan
            ciphertext = outcome.result.ciphertext
            corrupt = bool(plan and plan.corrupt and ciphertext is not None)
            if corrupt:
                ciphertext = _tamper(ciphertext)
                obs.add("runtime.corrupted")
            result.deliveries.append(Delivery(
                client_id=cid, ciphertext=ciphertext,
                result=outcome.result, corrupt=corrupt,
            ))
            if plan and plan.replay and ciphertext is not None:
                # The network delivers the same bytes twice; exactly
                # one copy may count.
                result.deliveries.append(Delivery(
                    client_id=cid, ciphertext=ciphertext,
                    result=outcome.result, duplicate=True, corrupt=corrupt,
                ))
                obs.add("runtime.replays_injected")
        obs.gauge("runtime.completed_cohort", len(result.completed))
        return result

    def _collect(self, executor, cid: int, job: ClientJob, future,
                 plan: ClientFaultPlan) -> ClientOutcome:
        """Wait for one client with retry + exponential backoff."""
        cfg = self.config
        t0 = time.perf_counter()
        attempt = 0
        retries = 0
        while True:
            try:
                res = future.result(timeout=self._wall_timeout(job))
                latency = time.perf_counter() - t0
                obs.observe("runtime.client_latency_s", latency)
                return ClientOutcome(cid, STATUS_OK, attempts=attempt + 1,
                                     retries=retries, latency_s=latency,
                                     plan=plan, result=res)
            except (TransientWorkerError, FutureTimeoutError) as exc:
                timed_out = isinstance(exc, FutureTimeoutError)
                if timed_out:
                    obs.add("runtime.timeouts")
                    future.cancel()
                else:
                    obs.add("runtime.transient_failures")
                if attempt >= cfg.max_retries:
                    obs.add("runtime.failures")
                    latency = time.perf_counter() - t0
                    outcome = ClientOutcome(cid, STATUS_FAILED,
                                            attempts=attempt + 1,
                                            retries=retries,
                                            latency_s=latency, plan=plan)
                    record_failure_reason(
                        outcome,
                        REASON_TIMEOUT if timed_out else REASON_TRANSIENT)
                    return outcome
                backoff = min(cfg.backoff_base_s * (2.0 ** attempt),
                              cfg.backoff_cap_s)
                if backoff > 0:
                    obs.observe("runtime.backoff_s", backoff)
                    time.sleep(backoff)
                attempt += 1
                retries += 1
                obs.add("runtime.retries")
                job = dataclasses.replace(job, attempt=attempt)
                future = executor.submit(job)

    def _wall_timeout(self, job: ClientJob) -> float | None:
        """Wall-clock bound for one attempt (injected delay + timeout)."""
        if self.config.client_timeout_s is None:
            return None
        # The injected delay was admitted (<= timeout), so grant it on
        # top of the compute budget; queue wait under a saturated pool
        # is covered by the generous 4x factor.
        return job.delay_s + 4.0 * self.config.client_timeout_s

    # -- policies -------------------------------------------------------
    def quorum_threshold(self, sampled: int) -> int:
        """Clients that must survive for the round to complete."""
        return math.ceil(self.config.min_quorum * sampled)

    def check_quorum(self, survivors: int, sampled: int) -> None:
        """Abort the round when the completion policy is unmet."""
        need = self.quorum_threshold(sampled)
        if survivors < need:
            obs.add("runtime.quorum_failed")
            raise QuorumNotMetError(
                f"only {survivors}/{sampled} clients survived; "
                f"quorum requires {need}"
            )
        obs.add("runtime.quorum_met")

    # -- generic replay tasks (attack teacher, ablations) ---------------
    def map_train_tasks(self, tasks: list[TrainTask]) -> list[np.ndarray]:
        """Run independent local-training replays; order-preserving."""
        executor = self._ensure_executor()
        futures = [executor.submit_task(t) for t in tasks]
        return [f.result() for f in futures]


def run_train_tasks(
    model: Sequential,
    tasks: list[TrainTask],
    config: RuntimeConfig | None = None,
) -> list[np.ndarray]:
    """One-shot convenience: execute replay tasks on a fresh runtime."""
    runtime = CohortRuntime(config or RuntimeConfig(), model, [], entropy=0)
    try:
        return runtime.map_train_tasks(tasks)
    finally:
        runtime.close()
