"""The cohort runtime: fault-tolerant client execution in one batched flush.

:class:`CohortRuntime` is the engine OLIVE's round loop submits the
sampled cohort through.  It applies the deterministic fault plan per
``(round, client)``, settles retries of injected transient failures and
drops stragglers past the per-client timeout from that plan, trains the
survivors as stacked tensors in ``vector_chunk``-sized chunks, and
sets the minimum-quorum threshold the shard service enforces.

Two invariants the tests pin:

1. **Oracle equivalence** -- the runtime's per-client results, outcomes
   and runtime counters equal the per-client loop that trains, retries
   and backs off one client at a time
   (``tests/oracles.py::run_cohort_loop``), bit for bit: all randomness
   is derived from ``(round, client)`` identity, and deliveries are
   finalized in client-id order.
2. **Fault isolation** -- injected faults only ever *exclude* clients;
   the surviving clients' updates are bit-identical to a fault-free
   run, so the aggregate differs exactly by the excluded contributions.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .. import obs
from ..fl.client import TrainingConfig
from ..fl.datasets import ClientData
from ..fl.models import Sequential
from ..sgx.crypto import Ciphertext
from .config import RuntimeConfig
from .faults import ClientFaultPlan, FaultInjector
from .jobs import ClientJobResult, run_clients

#: Terminal per-client statuses after one round.
STATUS_OK = "ok"
STATUS_DROPPED = "dropped"              # fault-injected or forced dropout
STATUS_STRAGGLER = "straggler"          # injected delay beyond the timeout
STATUS_FAILED = "failed"                # transient-failure retries exhausted
STATUS_REJECTED = "rejected"            # enclave refused the ciphertext

#: Failure *reasons*: why a non-ok status happened, one level finer
#: than the status (a STATUS_FAILED client kept failing transiently; a
#: STATUS_REJECTED upload was corrupt, replayed, or from
#: an unsampled client -- the enclave's ``EnclaveSecurityError.reason``
#: is recorded verbatim for rejects).
REASON_DROPOUT = "dropout"              # fault-injected dropout
REASON_FORCED = "forced"                # caller-forced dropout
REASON_STRAGGLER = "straggler"          # injected delay beyond the timeout
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
    """What happened to one sampled client this round.

    ``latency_s`` of a trained client has two parts: the wait it was
    charged -- injected delay plus its backoff schedule, slept (once,
    overlapped with every other client's wait) -- and its amortized
    share of its chunk's measured training time, ``train_seconds``.
    A client that exhausted its retries carries only its backoff
    schedule; a dropped straggler carries its injected delay, which is
    never slept.
    """

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
    the enclave must reject -- the runtime stages them, the enclave
    adjudicates.
    """

    client_id: int
    ciphertext: Ciphertext
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

    def ciphertext_bytes(self, accepted: Iterable[int]) -> dict[int, bytes]:
        """Sealed upload bytes of the ``accepted`` clients, in canonical
        delivery order.

        One entry per client -- the *original* delivery, never a
        replayed duplicate (exactly the copy the enclave accepted).
        This is what the audit recorder commits to, so the bytes here
        must be the bytes that crossed the aggregation boundary,
        corruption included.
        """
        wanted = {int(c) for c in accepted}
        blobs: dict[int, bytes] = {}
        for delivery in self.deliveries:
            cid = delivery.client_id
            if delivery.duplicate or cid in blobs or cid not in wanted:
                continue
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
    """Executes sampled cohorts through the batched client core."""

    def __init__(
        self,
        config: RuntimeConfig,
        model: Sequential,
        clients: list[ClientData],
        entropy: int,
        keys: dict[int, bytes],
    ) -> None:
        self.config = config
        self.model = model
        self.clients = {c.client_id: c for c in clients}
        self.entropy = int(entropy)
        self.keys = keys
        self.injector = FaultInjector(config.faults, self.entropy)

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

        Four steps: plan each client's faults and drop dropouts and
        stragglers past ``client_timeout_s``; settle injected transient
        failures from the plan (:meth:`_settle_retries`); sleep once
        for the longest admitted wait, so stragglers and backoffs
        overlap; train the survivors in ``vector_chunk``-sized chunks.
        Deliveries are built in **client-id order** -- the canonical
        order that makes aggregation input, and therefore every
        downstream bit, independent of chunking.
        """
        cfg = self.config
        forced = forced_dropouts or set()

        outcomes: dict[int, ClientOutcome] = {}
        survivors: list[int] = []
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
            outcomes[cid] = outcome = self._settle_retries(cid, plan)
            if outcome.status == STATUS_OK:
                survivors.append(cid)

        chunk = cfg.vector_chunk
        with obs.span("train", clients=len(survivors),
                      chunks=math.ceil(len(survivors) / chunk)):
            wait = max((o.latency_s for o in outcomes.values()
                        if o.status in (STATUS_OK, STATUS_FAILED)),
                       default=0.0)
            if wait > 0.0:
                time.sleep(wait)
            for start in range(0, len(survivors), chunk):
                for res in run_clients(
                        self.model, self.clients,
                        survivors[start:start + chunk], weights,
                        round_index=round_index, entropy=self.entropy,
                        training=training, clip=clip,
                        quantize_bits=quantize_bits, keys=self.keys):
                    outcome = outcomes[res.client_id]
                    outcome.result = res
                    outcome.latency_s += res.train_seconds
                    obs.observe("runtime.client_latency_s",
                                outcome.latency_s)

        result = CohortResult(round_index=round_index,
                              sampled=sorted(cohort), outcomes=outcomes)
        for cid in result.completed:
            outcome = outcomes[cid]
            assert outcome.result is not None
            plan = outcome.plan
            ciphertext = outcome.result.ciphertext
            corrupt = bool(plan and plan.corrupt)
            if corrupt:
                ciphertext = _tamper(ciphertext)
                obs.add("runtime.corrupted")
            result.deliveries.append(Delivery(
                client_id=cid, ciphertext=ciphertext, corrupt=corrupt,
            ))
            if plan and plan.replay:
                # The network delivers the same bytes twice; exactly
                # one copy may count.
                result.deliveries.append(Delivery(
                    client_id=cid, ciphertext=ciphertext,
                    duplicate=True, corrupt=corrupt,
                ))
                obs.add("runtime.replays_injected")
        obs.gauge("runtime.completed_cohort", len(result.completed))
        return result

    def _settle_retries(self, cid: int,
                        plan: ClientFaultPlan) -> ClientOutcome:
        """The retry loop's result for one admitted client, from its plan.

        Attempt ``a`` fails while ``a < plan.fail_attempts``; after a
        failed attempt with retries left the client backs off
        ``min(backoff_base_s * 2**a, backoff_cap_s)``.  With
        ``f = plan.fail_attempts`` and ``r = max_retries``: if ``f <= r``
        the client succeeds on attempt ``f`` after ``f`` retries,
        otherwise it fails after ``r + 1`` attempts.  The counters and
        backoff observations are the ones that loop would emit.  The
        returned ``latency_s`` is the client's wait before training:
        its backoff schedule, plus its injected delay if it succeeds.
        """
        cfg = self.config
        retries = min(plan.fail_attempts, cfg.max_retries)
        failures = min(plan.fail_attempts, cfg.max_retries + 1)
        backoffs = [min(cfg.backoff_base_s * (2.0 ** a), cfg.backoff_cap_s)
                    for a in range(retries)]
        if failures:
            obs.add("runtime.transient_failures", failures)
        for backoff in backoffs:
            if backoff > 0:
                obs.observe("runtime.backoff_s", backoff)
        if retries:
            obs.add("runtime.retries", retries)
        outcome = ClientOutcome(cid, STATUS_OK, attempts=retries + 1,
                                retries=retries, latency_s=sum(backoffs),
                                plan=plan)
        if plan.fail_attempts > cfg.max_retries:
            obs.add("runtime.failures")
            outcome.status = STATUS_FAILED
            record_failure_reason(outcome, REASON_TRANSIENT)
        else:
            outcome.latency_s += plan.delay_s
        return outcome

    # -- policies -------------------------------------------------------
    def quorum_threshold(self, sampled: int) -> int:
        """Clients that must survive for the round to complete."""
        return math.ceil(self.config.min_quorum * sampled)
