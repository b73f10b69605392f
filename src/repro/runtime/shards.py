"""Sharded multi-enclave aggregation: crash recovery, failover, deadlines.

Every round aggregates here (Algorithm 1, line 12).  *Leaf* enclaves
each obliviously aggregate one shard of the cohort's ciphertexts --
sized EPC-aware from the upload bytes the untrusted host observes --
and a *root* enclave combines the sealed partial aggregates over
mutually attested leaf<->root channels.  A single enclave is the
one-leaf topology whose ``oblivious_batch`` covers the cohort: one
kernel call folds every accepted upload.  Ingest is asynchronous: a
leaf folds uploads into its partial aggregate as they arrive (in
batches of ``oblivious_batch``, each through the caller's oblivious
kernel) instead of waiting for a per-round barrier, and unseals each
slice of arrivals up to the next fold in one ECALL.  A traced round
threads one :class:`~repro.sgx.memory.Trace` through every leaf fold
in execution order: what an adversary holding every leaf host
observes.  A sealed checkpoint follows every fold, so a crash re-runs
only uploads not yet folded and no fold appears twice.

The topology is born robustness-first, with a full server-side fault
model (:class:`repro.runtime.faults.EnclaveFaultConfig`):

* **leaf crash mid-shard** -- volatile state is lost back to the last
  sealed checkpoint (:meth:`repro.sgx.enclave.Enclave.export_round_state`);
  a process crash restarts the same enclave in place, a fatal machine
  crash fails the shard over to a surviving sibling, which unseals the
  crashed leaf's checkpoint (same measurement, same platform sealing
  key) and resumes *without double-counting or losing accepted
  uploads* -- the enclave's accepted-digest set travels inside the
  checkpoint;
* **straggler leaf / per-shard deadline** -- injected delays are
  adjudicated against ``shard_deadline_s`` analytically (no wall clock
  is spent and, more importantly, decisions are a pure function of the
  fault plan, so recovered rounds replay bit-identically);
* **EPC oversubscription** -- a shard whose staging working set
  exceeds the leaf's EPC is charged the SGX paging penalty from the
  cost model's parameters and flagged;
* **root restart** -- the root checkpoints after every combine but the
  last and rolls back to its last checkpoint, refusing replayed
  partials.

**Degraded completion**: a shard whose retry/failover budget is
exhausted fails; the round completes with the surviving shards when
the caller's global quorum still holds, else it aborts with
:class:`QuorumNotMetError` and no privacy budget is spent.

**Determinism**: every recovery path re-processes deliveries in the
same canonical order from a checkpoint that is a fold-aligned prefix
of that order, so the partial aggregate's floating-point additions --
and therefore the released aggregate -- are bit-identical to both the
fault-free sharded run and a deterministic replay of the faulted run
(pinned in ``tests/test_shards.py``).
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .. import obs
from ..fl.client import LocalUpdate
from ..sgx import crypto
from ..sgx.cost import CLOCK_HZ, CostParameters
from ..sgx.enclave import DEFAULT_EPC_BYTES, Enclave, EnclaveSecurityError
from ..sgx.memory import Trace
from .cohort import Delivery
from .config import QuorumNotMetError
from .faults import EnclaveFaultConfig, EnclaveFaultInjector

#: Sealed-partial wire-format version tag.
PARTIAL_MAGIC = b"OLVPART1"

#: Domain prefix of the sealed-partial commitment audit logs record.
_PARTIAL_DOMAIN = b"olive-partial:"

#: Coordinator-side bookkeeping bytes per staged upload (digest, pointers).
_PER_UPLOAD_OVERHEAD = 96
#: Fixed per-leaf enclave overhead (code, heap, keystore) in the sizing model.
_LEAF_FIXED_BYTES = 8 * 1024 * 1024
#: Share of a leaf's EPC the planner fills before adding a leaf.
_EPC_UTILIZATION = 0.8
#: Most leaves an EPC-aware plan spawns.
_MAX_SHARDS = 64
#: Modeled retry backoff: ``_BACKOFF_BASE_S * 2**(attempt - 1)``, capped.
_BACKOFF_BASE_S = 0.01
_BACKOFF_CAP_S = 1.0
#: The paging price of an oversubscribed leaf: the cost model's page
#: size and EWB/ELDU round trip at the paper machine's clock.
_PAGING = CostParameters()
_PAGE_FAULT_S = _PAGING.cycles_epc_page_fault / CLOCK_HZ


def _core():
    # Imported lazily: repro.core imports repro.runtime at package load,
    # so a top-level import here would be circular.
    from ..core import aggregation, grouping

    return aggregation, grouping


def partial_digest(blob: bytes) -> str:
    """Commitment to one sealed shard partial."""
    return hashlib.sha256(_PARTIAL_DOMAIN + blob).hexdigest()


@dataclass(frozen=True)
class ShardConfig:
    """How the sharded aggregation service is laid out and defended.

    ``shards=None`` sizes the leaf count EPC-aware from the observed
    upload bytes (see :func:`plan_shards`); an explicit count overrides
    it (and may deliberately oversubscribe the EPC -- the paging
    penalty is then charged and flagged).  ``oblivious_batch`` is the
    async-ingest granularity: uploads are folded into the partial
    aggregate through the service's kernel every that-many accepted
    uploads, and a sealed checkpoint is cut after every fold
    (checkpoints are fold-aligned by construction, which is what makes
    recovery bit-identical).
    """

    shards: int | None = None
    epc_bytes: int = DEFAULT_EPC_BYTES
    oblivious_batch: int = 64
    shard_deadline_s: float | None = None
    max_shard_retries: int = 2
    faults: EnclaveFaultConfig = field(default_factory=EnclaveFaultConfig)

    def __post_init__(self) -> None:
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be >= 1 when set")
        if self.epc_bytes < 1:
            raise ValueError("epc_bytes must be positive")
        if self.oblivious_batch < 1:
            raise ValueError("oblivious_batch must be >= 1")
        if self.shard_deadline_s is not None and self.shard_deadline_s <= 0:
            raise ValueError("shard_deadline_s must be positive when set")
        if self.max_shard_retries < 0:
            raise ValueError("max_shard_retries must be >= 0")


def _leaf_footprint(d: int, upload_bytes: int) -> tuple[int, int]:
    """A leaf's round working set as ``(fixed bytes, bytes per upload)``.

    The fixed part is the dense partial aggregate (``8d`` bytes) and
    the enclave's own overhead; each staged upload adds its ciphertext,
    its decrypted sparse form, and replay-defence bookkeeping.  The
    planner sizes leaves with it and :meth:`ShardedAggregator._run_shard`
    charges paging against it.
    """
    return (_LEAF_FIXED_BYTES + 8 * d,
            2 * max(1, upload_bytes) + _PER_UPLOAD_OVERHEAD)


def plan_shards(
    n_uploads: int, d: int, upload_bytes: int, config: ShardConfig
) -> int:
    """EPC-aware leaf count for one round's upload volume.

    The shard count is the smallest that fits every leaf's working set
    (:func:`_leaf_footprint`) inside 80% of the EPC, clamped to 64
    leaves -- the same EPC-pressure reasoning the cost model charges
    paging penalties for (Figures 11-12), applied at sizing time
    instead of after the fact.
    """
    if config.shards is not None:
        return config.shards
    if n_uploads <= 0:
        return 1
    fixed, per_upload = _leaf_footprint(d, upload_bytes)
    budget = int(_EPC_UTILIZATION * config.epc_bytes) - fixed
    capacity = max(1, budget // per_upload) if budget > 0 else 1
    return max(1, min(_MAX_SHARDS, math.ceil(n_uploads / capacity)))


@dataclass
class ShardOutcome:
    """What happened to one shard this round."""

    shard_index: int
    leaf_index: int               # executing leaf at completion (or last try)
    assigned: int                 # deliveries routed to this shard
    accepted: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    deduped: int = 0              # replayed/duplicate uploads refused
    attempts: int = 1
    crashes: int = 0
    restarts: int = 0             # in-place recoveries from checkpoint
    failovers: int = 0            # reassignments to a sibling leaf
    checkpoints: int = 0
    deadline_misses: int = 0
    epc_oversubscribed: bool = False
    completed: bool = False
    #: Modeled parallel-leaf latency: the measured leaf wall plus the
    #: analytic paging, backoff and deadline charges.
    latency_s: float = 0.0
    wall_s: float = 0.0           # measured coordinator wall


@dataclass
class ShardRoundReport:
    """How one sharded aggregation round went (its sum is returned beside).

    It holds nothing ``d``-sized, so a per-round history of reports
    grows with the cohort, not with the model.
    """

    round_index: int
    n_shards: int
    accepted_clients: list[int]
    rejected: dict[int, str]      # non-duplicate rejects: cid -> reason
    outcomes: list[ShardOutcome]
    degraded: bool                # at least one shard failed permanently
    root_restarts: int = 0
    latency_s: float = 0.0        # max shard latency + combine
    wall_s: float = 0.0
    #: (shard, leaf, :func:`partial_digest` of the sealed blob) per
    #: completed shard, in combine order -- the evidence the audit
    #: subsystem commits to, so failover and degraded rounds stay
    #: verifiable against deterministic replay.
    partials: list[tuple[int, int, str]] = field(default_factory=list)
    #: Accepted updates of the completed shards by client id, in fold
    #: order (shard order, then ingest order).
    updates: dict[int, LocalUpdate] = field(default_factory=dict)
    #: ``(trace position, position in updates)`` where each leaf fold of
    #: a traced round starts, in execution order (empty when the round
    #: is untraced).
    folds: list[tuple[int, int]] = field(default_factory=list)

    @property
    def completion_rate(self) -> float:
        """Completed shards / shards (1.0 for an empty topology)."""
        if not self.outcomes:
            return 1.0
        done = sum(1 for o in self.outcomes if o.completed)
        return done / len(self.outcomes)

    @property
    def failed_shards(self) -> list[int]:
        """Shard indices that failed permanently this round."""
        return [o.shard_index for o in self.outcomes if not o.completed]


@dataclass
class _Leaf:
    """Coordinator-side handle on one leaf enclave."""

    index: int
    enclave: Enclave
    channel_key: bytes            # attested leaf<->root session key
    alive: bool = True


class _LeafRound:
    """One leaf's volatile in-enclave round state (lost on crash).

    The partial aggregate and the pending (not yet folded) batch live
    *inside* the enclave; the coordinator only holds this handle.  A
    crash drops the object; recovery rebuilds it from the sealed
    checkpoint through :meth:`Enclave.restore_round_state`.  ``folded``
    lists the updates already inside ``partial``, in fold order.
    """

    def __init__(self, leaf: _Leaf, d: int,
                 fold: Callable[[list[LocalUpdate], int], np.ndarray],
                 quantize_bits: int | None,
                 folded: list[LocalUpdate] | None = None) -> None:
        self.leaf = leaf
        self.d = d
        self.partial = np.zeros(d)
        self.pending: list[LocalUpdate] = []
        self.folded: list[LocalUpdate] = folded or []
        self.accepted = len(self.folded)
        self._fold = fold
        self._quantize_bits = quantize_bits

    def ingest(self, deliveries: list[Delivery]) -> list:
        """Decrypt/verify a slice of uploads in one ECALL and stage the
        accepted ones for the next fold; returns the enclave's verdict
        per upload (see :meth:`Enclave.load_gradient`)."""
        results = self.leaf.enclave.load_gradient(
            deliveries, self.d, self._quantize_bits)
        for delivery, result in zip(deliveries, results):
            if not isinstance(result, EnclaveSecurityError):
                self.pending.append(LocalUpdate(delivery.client_id, *result))
                self.accepted += 1
        return results

    def slice_end(self, pos: int, limit: int, batch_every: int) -> int:
        """Where the ingest slice starting at ``pos`` ends (exclusive).

        A slice ends where the per-upload loop could next fold or cut a
        checkpoint, so folding and checkpointing after each slice puts
        them at the same positions.  A fold happens when the
        ``batch_every``-th upload since the last one is accepted, so the
        slice holds at most that many uploads.  Right after a fold a
        checkpoint follows every refused upload until the next
        acceptance, so the slice is then one upload.  ``limit`` is the
        crash position or the end of the shard.
        """
        if self.accepted and not self.pending \
                and self.accepted % batch_every == 0:
            return min(limit, pos + 1)
        return min(limit, pos + batch_every - self.accepted % batch_every)

    def fold(self) -> None:
        """Fold the pending batch through the oblivious kernel."""
        if not self.pending:
            return
        self.partial += self._fold(self.pending, len(self.folded))
        self.folded.extend(self.pending)
        self.pending = []

    def checkpoint(self, round_index: int) -> crypto.Ciphertext:
        """Seal the fold-aligned recovery state (pending must be empty)."""
        assert not self.pending, "checkpoints must be fold-aligned"
        return self.leaf.enclave.export_round_state(
            round_index=round_index, partial=self.partial
        )

    def seal_partial(self, round_index: int, shard_index: int) -> bytes:
        """Seal the finished partial for the root over the channel key."""
        self.fold()
        accepted = sorted(self.leaf.enclave._loaded_clients)
        arr = np.ascontiguousarray(self.partial, dtype=np.float64)
        payload = b"".join((
            PARTIAL_MAGIC,
            struct.pack(">III", round_index, shard_index, self.leaf.index),
            struct.pack(">I", len(accepted)),
            np.asarray(accepted, dtype=">u8").tobytes(),
            struct.pack(">I", arr.size),
            arr.tobytes(),
        ))
        nonce = hashlib.sha256(b"partial-nonce:" + payload).digest()[:16]
        ct = crypto.seal(self.leaf.channel_key, payload, nonce=nonce)
        return ct.to_bytes()


def _open_partial(
    channel_key: bytes, blob: bytes
) -> tuple[int, int, int, list[int], np.ndarray]:
    """Root-side verify+decode of one sealed partial aggregate.

    Bytes too short to be a ciphertext, a failed tag and an
    authenticated payload too short for its own counts all raise
    :class:`EnclaveSecurityError` (``reason="corrupt"``).
    """
    try:
        payload = crypto.open_sealed(channel_key,
                                     crypto.Ciphertext.from_bytes(blob))
    except (crypto.AuthenticationError, ValueError) as exc:
        raise EnclaveSecurityError(
            "partial aggregate failed authentication", reason="corrupt"
        ) from exc
    if payload[:8] != PARTIAL_MAGIC:
        raise EnclaveSecurityError(
            "unrecognized partial format", reason="corrupt"
        )
    try:
        off = len(PARTIAL_MAGIC)
        round_index, shard_index, leaf_index = struct.unpack_from(
            ">III", payload, off)
        off += 12
        (count,) = struct.unpack_from(">I", payload, off)
        off += 4
        ids = np.frombuffer(payload, dtype=">u8", count=count, offset=off)
        off += 8 * count
        (size,) = struct.unpack_from(">I", payload, off)
        off += 4
        vec = np.frombuffer(payload, dtype=np.float64, count=size,
                            offset=off).copy()
    except (struct.error, ValueError) as exc:
        raise EnclaveSecurityError(
            f"truncated partial aggregate ({exc})", reason="corrupt"
        ) from exc
    return round_index, shard_index, leaf_index, [int(v) for v in ids], vec


class ShardedAggregator:
    """The hierarchical aggregation service: leaves + root + coordinator.

    The *coordinator* (this class's control flow) is untrusted: it
    routes ciphertexts, stores sealed checkpoints, retries, and
    reassigns shards -- but every integrity decision (replay defence,
    double-count defence, checkpoint authenticity, partial
    authenticity) is made inside an enclave.  A lying coordinator can
    delay or drop work, never double-count it.

    ``aggregator`` and ``group_size`` pick the leaf kernel, as in
    :class:`repro.core.olive.OliveConfig`.
    """

    def __init__(
        self,
        root: Enclave,
        config: ShardConfig,
        entropy: int = 0,
        aggregator: str = "advanced",
        group_size: int | None = None,
    ) -> None:
        if aggregator not in _core()[0].AGGREGATORS:
            raise ValueError(f"unknown aggregator {aggregator!r}")
        self.root = root
        self.config = config
        self.entropy = int(entropy)
        self.aggregator = aggregator
        self.group_size = group_size
        self.injector = EnclaveFaultInjector(config.faults, self.entropy)
        self._leaves: list[_Leaf] = []

    # -- leaf pool ------------------------------------------------------
    def _spawn_leaf(self) -> _Leaf:
        """Provision one more leaf enclave (attest + key replication)."""
        index = len(self._leaves)
        with obs.span("shard.spawn_leaf", leaf=index):
            enclave = Enclave(
                code_identity=self.root.code_identity,
                attestation_service=self.root.attestation_service,
                epc_bytes=self.config.epc_bytes,
                seed=(self.entropy * 1_000_003 + index) & 0x7FFFFFFF,
            )
            # Mutual attestation gates both the keystore replication and
            # the leaf<->root channel key.
            self.root.replicate_keys_to(enclave)
            channel_key = self.root.attest_peer(enclave.quote())
            leaf = _Leaf(index=index, enclave=enclave,
                         channel_key=channel_key)
            self._leaves.append(leaf)
            obs.add("shard.leaves_spawned")
        return leaf

    def ensure_leaves(self, count: int) -> None:
        """Grow the leaf pool to at least ``count`` live enclaves."""
        while sum(1 for lf in self._leaves if lf.alive) < count:
            self._spawn_leaf()

    def pool_state(self) -> dict:
        """The leaf pool as a checkpoint records it: how many leaves were
        spawned and the indices of the dead ones."""
        return {"spawned": len(self._leaves),
                "dead": [lf.index for lf in self._leaves if not lf.alive]}

    def restore_pool(self, spawned: int, dead: Iterable[int]) -> None:
        """Rebuild the pool :meth:`pool_state` recorded.

        Leaves are spawned by index up to ``spawned`` and ``dead`` ones
        marked lost.  A leaf's seed derives from its index, so these are
        the leaves the checkpointed run held, and later rounds fail over
        and seal partials under the same leaf indices.
        """
        if spawned < len(self._leaves):
            raise ValueError(
                f"cannot restore a pool of {spawned} leaves over "
                f"{len(self._leaves)} already spawned")
        while len(self._leaves) < spawned:
            self._spawn_leaf()
        for index in dead:
            self._leaves[index].alive = False

    def _next_leaf(self, after_index: int) -> _Leaf:
        """The failover target: next surviving leaf, else a fresh spawn."""
        n = len(self._leaves)
        for offset in range(1, n + 1):
            candidate = self._leaves[(after_index + offset) % n]
            if candidate.alive:
                return candidate
        return self._spawn_leaf()

    # -- round orchestration -------------------------------------------
    def aggregate_round(
        self,
        round_index: int,
        deliveries: list[Delivery],
        d: int,
        sampled: set[int] | None = None,
        quantize_bits: int | None = None,
        min_accepted: int = 0,
        trace: Trace | None = None,
    ) -> tuple[np.ndarray, ShardRoundReport]:
        """Run one sharded aggregation round; returns (sum, report).

        ``min_accepted`` is the caller's global quorum threshold: when
        shard failures (after retries and failover) leave fewer
        accepted uploads, the round aborts with
        :class:`QuorumNotMetError` before anything leaves the root.
        ``trace``, when given, records every leaf fold in execution
        order (see :attr:`ShardRoundReport.folds`).
        """
        t0 = time.perf_counter()
        cfg = self.config
        aggregation, grouping = _core()
        updates: dict[int, LocalUpdate] = {}
        folds: list[tuple[int, int]] = []

        def fold(batch: list[LocalUpdate], first: int) -> np.ndarray:
            # ``first`` counts the shard's own folded updates; ``updates``
            # holds the earlier completed shards'.  The spec is looked up
            # per call, so patches of AggregatorSpec.run apply.
            if trace is not None:
                folds.append((len(trace), len(updates) + first))
            if self.group_size is not None:
                return grouping.aggregate_grouped(batch, d, self.group_size,
                                                  trace=trace)
            return aggregation.AGGREGATORS[self.aggregator].run(batch, d,
                                                                trace)

        sampled = set(sampled if sampled is not None
                      else self.root.sampled_clients)

        # Canonical delivery order: by client id, original before its
        # replayed duplicate.  Grouped so one client's copies land in
        # one shard (the cross-shard double-count defence then only
        # fires for genuinely mis-routed uploads).
        ordered = sorted(
            deliveries, key=lambda dv: (dv.client_id, dv.duplicate))
        groups: list[list[Delivery]] = []
        for dv in ordered:
            if groups and groups[-1][0].client_id == dv.client_id:
                groups[-1].append(dv)
            else:
                groups.append([dv])

        # Each upload's size is measured once: the plan takes the
        # round's largest, each shard's paging check its own largest.
        group_bytes = [max(dv.ciphertext.nbytes for dv in grp)
                       for grp in groups]
        n_shards = plan_shards(len(groups), d, max(group_bytes, default=0),
                               cfg)
        self.ensure_leaves(min(n_shards, len(groups)) or 1)

        with obs.span("shard.round", index=round_index, shards=n_shards,
                      uploads=len(ordered)):
            shard_groups = [groups[i::n_shards] for i in range(n_shards)]
            outcomes: list[ShardOutcome] = []
            sealed_partials: list[tuple[int, int, bytes]] = []
            rejected: dict[int, str] = {}
            for shard_index in range(n_shards):
                flat = [dv for grp in shard_groups[shard_index]
                        for dv in grp]
                outcome, blob, folded = self._run_shard(
                    round_index, shard_index, flat, sampled, d,
                    max(group_bytes[shard_index::n_shards], default=0),
                    quantize_bits, rejected, fold,
                )
                outcomes.append(outcome)
                if outcome.completed and blob is not None:
                    sealed_partials.append(
                        (shard_index, outcome.leaf_index, blob))
                    updates.update((u.client_id, u) for u in folded)
            degraded = any(not o.completed for o in outcomes)
            if degraded:
                obs.add("shard.degraded_rounds")

            aggregate, accepted, root_restarts, combine_wall = self._combine(
                round_index, sealed_partials, d)

            if len(accepted) < min_accepted:
                obs.add("shard.quorum_failed")
                raise QuorumNotMetError(
                    f"only {len(accepted)} uploads accepted across "
                    f"{sum(1 for o in outcomes if o.completed)}/"
                    f"{n_shards} surviving shards; quorum requires "
                    f"{min_accepted}"
                )

            latency = max((o.latency_s for o in outcomes), default=0.0)
            report = ShardRoundReport(
                round_index=round_index, n_shards=n_shards,
                accepted_clients=accepted,
                rejected=rejected, outcomes=outcomes, degraded=degraded,
                root_restarts=root_restarts,
                latency_s=latency + combine_wall,
                wall_s=time.perf_counter() - t0,
                partials=[(shard, leaf, partial_digest(blob))
                          for shard, leaf, blob in sealed_partials],
                updates=updates,
                folds=folds,
            )
            obs.gauge("shard.completion_rate", report.completion_rate)
            obs.gauge("shard.round_latency_s", report.latency_s)
        return aggregate, report

    # -- one shard ------------------------------------------------------
    def _run_shard(
        self,
        round_index: int,
        shard_index: int,
        deliveries: list[Delivery],
        sampled: set[int],
        d: int,
        upload_bytes: int,
        quantize_bits: int | None,
        rejected: dict[int, str],
        fold: Callable[[list[LocalUpdate], int], np.ndarray],
    ) -> tuple[ShardOutcome, bytes | None, list[LocalUpdate]]:
        """Ingest one shard with retry, restart, failover, and deadline.

        ``upload_bytes`` is the shard's largest upload.  Returns the
        outcome, the sealed partial (``None`` on failure) and the
        shard's accepted updates in fold order.
        """
        cfg = self.config
        t0 = time.perf_counter()
        # A leaf whose machine died stays in the pool (indices are
        # stable), but no shard may start on it.
        alive = [lf for lf in self._leaves if lf.alive]
        leaf = alive[shard_index % len(alive)] if alive else self._spawn_leaf()
        outcome = ShardOutcome(shard_index=shard_index,
                               leaf_index=leaf.index,
                               assigned=len(deliveries))

        fixed, per_upload = _leaf_footprint(d, upload_bytes)
        working_set = fixed + len(deliveries) * per_upload
        if working_set > cfg.epc_bytes:
            outcome.epc_oversubscribed = True
            obs.add("shard.epc_oversubscribed")
            excess_pages = math.ceil(
                (working_set - cfg.epc_bytes) / _PAGING.page_bytes)
            outcome.latency_s += excess_pages * _PAGE_FAULT_S

        ckpt: crypto.Ciphertext | None = None
        ckpt_pos = 0
        ckpt_folded = 0
        resume_pos = 0
        attempt = 0
        batch_every = cfg.oblivious_batch

        leaf.enclave.begin_round(sampled=sampled)
        state = _LeafRound(leaf, d, fold, quantize_bits)

        while True:
            plan = self.injector.leaf_plan(round_index, shard_index, attempt)

            # Deadline adjudication is analytic: the injected delay is
            # part of the fault plan, so the coordinator abandons the
            # attempt deterministically and without burning wall clock.
            if (cfg.shard_deadline_s is not None
                    and plan.delay_s > cfg.shard_deadline_s):
                outcome.deadline_misses += 1
                obs.add("shard.deadline_misses")
                obs.event("shard.deadline_miss", shard=shard_index,
                          leaf=leaf.index, attempt=attempt,
                          delay_s=plan.delay_s)
                outcome.latency_s += cfg.shard_deadline_s
                if attempt >= cfg.max_shard_retries:
                    return self._shard_failed(outcome, t0)
                attempt += 1
                outcome.attempts += 1
                outcome.latency_s += self._backoff(attempt)
                # The slow leaf is abandoned for this shard (it stays
                # alive for others); a sibling resumes from the sealed
                # checkpoint.
                leaf, state = self._reassign(
                    leaf, state, ckpt, ckpt_folded, sampled, outcome,
                    kill=False, move=True)
                resume_pos = ckpt_pos
                continue

            outcome.latency_s += plan.delay_s
            crash_pos = None
            if plan.crash_fraction is not None:
                remaining = len(deliveries) - resume_pos
                crash_pos = resume_pos + int(plan.crash_fraction * remaining)

            with obs.span("shard.ingest", hist="shard.ingest_s",
                          shard=shard_index, leaf=leaf.index,
                          attempt=attempt):
                pos = resume_pos
                crashed = False
                limit = len(deliveries) if crash_pos is None else crash_pos
                while pos < len(deliveries):
                    if pos == crash_pos:
                        crashed = True
                        break
                    end = state.slice_end(pos, limit, batch_every)
                    batch = deliveries[pos:end]
                    for delivery, result in zip(batch, state.ingest(batch)):
                        if isinstance(result, EnclaveSecurityError):
                            self._refused(delivery, result, outcome, rejected)
                    pos = end
                    if (state.accepted % batch_every == 0
                            and state.pending):
                        state.fold()
                    if (state.accepted and not state.pending
                            and state.accepted % batch_every == 0
                            and pos > ckpt_pos):
                        with obs.span("shard.checkpoint",
                                      shard=shard_index, leaf=leaf.index):
                            ckpt = state.checkpoint(round_index)
                        ckpt_pos = pos
                        ckpt_folded = len(state.folded)
                        outcome.checkpoints += 1
                        obs.add("shard.checkpoints")

            if not crashed:
                blob = state.seal_partial(round_index, shard_index)
                outcome.accepted = state.accepted
                outcome.leaf_index = leaf.index
                outcome.completed = True
                outcome.wall_s = time.perf_counter() - t0
                outcome.latency_s += outcome.wall_s
                obs.add("shard.uploads_accepted", state.accepted)
                obs.observe("shard.latency_s", outcome.latency_s)
                return outcome, blob, state.folded

            # Crash: volatile state (partial + pending batch + the
            # enclave's post-checkpoint digest entries) is gone.
            outcome.crashes += 1
            obs.add("shard.crashes")
            obs.event("shard.crash", shard=shard_index, leaf=leaf.index,
                      attempt=attempt, fatal=bool(plan.fatal),
                      position=pos, resumed_from=ckpt_pos)
            if attempt >= cfg.max_shard_retries:
                if plan.fatal:
                    leaf.alive = False
                    obs.add("shard.leaves_lost")
                return self._shard_failed(outcome, t0)
            attempt += 1
            outcome.attempts += 1
            outcome.latency_s += self._backoff(attempt)
            leaf, state = self._reassign(
                leaf, state, ckpt, ckpt_folded, sampled, outcome,
                kill=plan.fatal, move=plan.fatal)
            resume_pos = ckpt_pos

    def _refused(self, delivery: Delivery, exc: EnclaveSecurityError,
                 outcome: ShardOutcome, rejected: dict[int, str]) -> None:
        """Account for one upload the leaf enclave refused."""
        if exc.reason in ("duplicate", "replay"):
            # Replayed bytes or a second contribution: the enclave
            # already holds exactly one accepted copy.
            outcome.deduped += 1
            obs.add("shard.uploads_deduped")
            return
        outcome.rejected[exc.reason] = (
            outcome.rejected.get(exc.reason, 0) + 1)
        obs.add("shard.uploads_rejected")
        obs.add(f"shard.reject_reason.{exc.reason}")
        if not delivery.duplicate:
            rejected[delivery.client_id] = exc.reason

    def _backoff(self, attempt: int) -> float:
        backoff = min(_BACKOFF_BASE_S * (2.0 ** (attempt - 1)),
                      _BACKOFF_CAP_S)
        obs.observe("shard.backoff_s", backoff)
        return backoff

    def _reassign(
        self,
        leaf: _Leaf,
        lost: _LeafRound,
        ckpt: crypto.Ciphertext | None,
        ckpt_folded: int,
        sampled: set[int],
        outcome: ShardOutcome,
        kill: bool,
        move: bool,
    ) -> tuple[_Leaf, _LeafRound]:
        """Recover one shard onto a restarted or failed-over leaf.

        ``kill`` marks the current leaf's machine dead (fatal crash);
        ``move`` reassigns the shard to the next surviving sibling
        (fatal crash or deadline miss -- a stalled-but-alive leaf keeps
        serving other shards).  Neither set is a process restart in
        place.  The new state keeps the first ``ckpt_folded`` updates
        of ``lost``: those the checkpoint's partial holds.
        """
        if kill:
            leaf.alive = False
            obs.add("shard.leaves_lost")
            obs.event("shard.leaf_lost", leaf=leaf.index,
                      shard=outcome.shard_index)
        if move:
            target = self._next_leaf(leaf.index)
            outcome.failovers += 1
            obs.add("shard.failovers")
            obs.event("shard.failover", shard=outcome.shard_index,
                      source=leaf.index, target=target.index,
                      from_checkpoint=ckpt is not None)
            with obs.span("shard.failover", source=leaf.index,
                          target=target.index):
                leaf = target
        else:
            outcome.restarts += 1
            obs.add("shard.restarts")
            obs.event("shard.restart", shard=outcome.shard_index,
                      leaf=leaf.index, from_checkpoint=ckpt is not None)

        state = _LeafRound(leaf, lost.d, lost._fold, lost._quantize_bits,
                           lost.folded[:ckpt_folded])
        if ckpt is not None:
            with obs.span("shard.restore", leaf=leaf.index):
                _, partial = leaf.enclave.restore_round_state(ckpt)
            assert partial is not None
            assert state.accepted == len(leaf.enclave._loaded_clients)
            state.partial = partial
            obs.add("shard.recoveries")
        else:
            leaf.enclave.begin_round(sampled=sampled)
        outcome.leaf_index = leaf.index
        return leaf, state

    # -- root combine ---------------------------------------------------
    def _combine(
        self,
        round_index: int,
        sealed_partials: list[tuple[int, int, bytes]],
        d: int,
    ) -> tuple[np.ndarray, list[int], int, float]:
        """Combine sealed partials in shard order, surviving restarts."""
        t0 = time.perf_counter()
        cfg = self.config
        root = self.root
        plan = self.injector.root_plan(round_index)
        n = len(sealed_partials)
        restart_at = None
        if plan.restart_fraction is not None and n:
            restart_at = int(plan.restart_fraction * n)

        channel_keys = {lf.index: lf.channel_key for lf in self._leaves}
        partial = np.zeros(d)
        ckpt: crypto.Ciphertext | None = None
        ckpt_pos = 0
        pos = 0
        restarts = 0
        with obs.span("shard.combine", partials=n):
            while pos < n:
                if restart_at is not None and pos == restart_at:
                    # Root crash between combines: volatile sum lost,
                    # recover from the root's own sealed checkpoint.
                    restart_at = None
                    restarts += 1
                    obs.add("shard.root_restarts")
                    obs.event("shard.root_restart", position=pos,
                              resumed_from=ckpt_pos,
                              from_checkpoint=ckpt is not None)
                    if ckpt is not None:
                        with obs.span("shard.restore", leaf="root"):
                            _, restored = root.restore_round_state(ckpt)
                        assert restored is not None
                        partial = restored
                    else:
                        root.begin_round()
                        partial = np.zeros(d)
                    pos = ckpt_pos
                    continue
                shard_index, leaf_index, blob = sealed_partials[pos]
                digest = hashlib.sha256(blob).digest()
                if root.has_digest(digest):
                    # Already combined (a coordinator replaying from
                    # zero after a restart): skip, never double-count.
                    pos += 1
                    continue
                _, decoded_shard, _, ids, vec = _open_partial(
                    channel_keys[leaf_index], blob)
                if decoded_shard != shard_index or vec.size != d:
                    raise EnclaveSecurityError(
                        "partial aggregate metadata mismatch",
                        reason="corrupt",
                    )
                root.record_partial(digest, ids)
                partial += vec
                pos += 1
                if pos < n:  # a restart never lands after the last one
                    ckpt = root.export_round_state(round_index=round_index,
                                                   partial=partial)
                    ckpt_pos = pos
        accepted = sorted(root._loaded_clients)
        if cfg.faults.active:
            obs.gauge("shard.partials_combined", n)
        return partial, accepted, restarts, time.perf_counter() - t0

    def _shard_failed(
        self, outcome: ShardOutcome, t0: float
    ) -> tuple[ShardOutcome, None, list[LocalUpdate]]:
        outcome.completed = False
        outcome.wall_s = time.perf_counter() - t0
        obs.add("shard.failed")
        obs.event("shard.failed", shard=outcome.shard_index,
                  leaf=outcome.leaf_index, crashes=outcome.crashes,
                  deadline_misses=outcome.deadline_misses)
        obs.observe("shard.latency_s", outcome.latency_s)
        return outcome, None, []
