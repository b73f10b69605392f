"""The OLIVE system: Algorithm 1 end to end.

Ties every substrate together: clients attest the enclave and exchange
keys (RA provisioning), each round the enclave securely samples
participants, clients train locally and send encrypted top-k-sparsified
clipped deltas, the enclave verifies/decrypts them, aggregates them
with a chosen (oblivious) algorithm, perturbs with enclave-private
Gaussian noise, and releases only the differentially private averaged
update.  A privacy accountant tracks the client-level (epsilon, delta)
budget across rounds.

Setting ``aggregator="linear"`` reproduces the *vulnerable*
configuration analysed in Section 3.3 (TEE without obliviousness);
``"advanced"``/``"baseline"``/``"path_oram"`` are the defenses of
Section 5.  Running a round with ``traced=True`` records the adversary-
visible access pattern for the attack framework.

Local training for the sampled cohort executes through the cohort
runtime (:mod:`repro.runtime`): the whole cohort trains as stacked
tensors in one batched flush, with per-``(round, client)`` seed
derivation (bit-identical results however the cohort is chunked),
deterministic fault injection, retries and per-client timeouts settled
from the fault plan, and a minimum-quorum completion policy.  The DP
accountant charges every released round at the configured sampling
rate: clients lost after the enclave's draw buy no amplification.

Every round aggregates through the shard service
(:class:`repro.runtime.ShardedAggregator`) with the system's enclave as
its root.  A single enclave is the one-leaf topology: one leaf folds
every accepted upload through one kernel call, so aggregate and trace
equal one kernel run over the whole cohort.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..dp.accountant import PrivacyAccountant
from ..dp.adaptive_clipping import AdaptiveClipper
from ..dp.mechanisms import validate_noise_config
from ..fl.client import LocalUpdate, TrainingConfig
from ..fl.datasets import ClientData
from ..fl.models import Sequential, accuracy
from ..runtime import (
    STATUS_REJECTED,
    CohortResult,
    CohortRuntime,
    RuntimeConfig,
    ShardConfig,
    ShardedAggregator,
    ShardRoundReport,
    record_failure_reason,
)
from ..sgx.enclave import Enclave, provision_enclave_with_clients
from ..sgx.memory import Trace
from .aggregation import AGGREGATORS


@dataclass(frozen=True)
class OliveConfig:
    """All hyperparameters of one OLIVE deployment."""

    sample_rate: float = 0.1
    server_lr: float = 1.0
    noise_multiplier: float = 1.12
    delta: float = 1e-5
    aggregator: str = "advanced"
    group_size: int | None = None  # Section 5.3 optimization when set
    training: TrainingConfig = field(default_factory=TrainingConfig)
    expected_clients: int | None = None
    adaptive_clipping: bool = False
    clip_target_quantile: float = 0.5
    clip_learning_rate: float = 0.2
    quantize_bits: int | None = None  # QSGD upload compression when set

    def __post_init__(self) -> None:
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.group_size is not None and self.aggregator != "advanced":
            raise ValueError("grouping only applies to the advanced aggregator")
        validate_noise_config(self.noise_multiplier, self.expected_clients,
                              sample_rate=self.sample_rate, delta=self.delta)


@dataclass
class OliveRoundLog:
    """Per-round record: participants, trace, updates, budget."""

    round_index: int
    participants: list[int]
    updates: dict[int, LocalUpdate]
    trace: Trace | None
    weights_before: np.ndarray
    weights_after: np.ndarray
    epsilon: float
    cohort: CohortResult
    shard_report: ShardRoundReport


class OliveSystem:
    """An OLIVE server (enclave inside) plus its registered clients."""

    def __init__(
        self,
        model: Sequential,
        clients: list[ClientData],
        config: OliveConfig,
        seed: int = 0,
        runtime: RuntimeConfig | None = None,
        shards: ShardConfig | None = None,
        audit=None,
    ) -> None:
        self.model = model
        self.clients = clients
        self.config = config
        self.enclave = Enclave(seed=seed)
        self.client_keys = provision_enclave_with_clients(
            self.enclave, [c.client_id for c in clients]
        )
        self.global_weights = model.get_flat()
        self.accountant = PrivacyAccountant(
            sampling_rate=config.sample_rate,
            noise_multiplier=config.noise_multiplier,
            delta=config.delta,
        )
        self.history: list[OliveRoundLog] = []
        # The next round to release.  It keys the round's sampling,
        # noise, client streams and shard faults, advances only when a
        # round releases, and is checkpointed -- a resumed run continues
        # its trajectory instead of replaying round 0's randomness.
        self.round_index = 0
        self.clipper: AdaptiveClipper | None = None
        if config.adaptive_clipping:
            self.clipper = AdaptiveClipper(
                initial_clip=config.training.clip,
                target_quantile=config.clip_target_quantile,
                learning_rate=config.clip_learning_rate,
            )
        self.runtime_config = runtime or RuntimeConfig()
        self.runtime = CohortRuntime(
            self.runtime_config, copy.deepcopy(model), clients,
            entropy=seed, keys=self.client_keys,
        )
        # The system's enclave is the shard service's *root*; leaves are
        # spawned (attested, keys replicated) on first use.  Without a
        # ShardConfig: one leaf whose batch holds everyone, one fold.
        # Verifiable rounds: when an AuditRecorder is attached, every
        # completed round appends a chained commitment record (accepted
        # ciphertext Merkle root + released-aggregate digest + sealed
        # shard-partial digests) to its append-only log.
        self.audit = audit
        self.shard_service = ShardedAggregator(
            self.enclave,
            shards or ShardConfig(shards=1,
                                  oblivious_batch=max(1, len(clients))),
            entropy=seed, aggregator=config.aggregator,
            group_size=config.group_size,
        )

    @property
    def d(self) -> int:
        """Model dimensionality."""
        return self.global_weights.size

    def close(self) -> None:
        """Nothing to release (the cohort runtime holds no pool); kept
        so ``with OliveSystem(...)`` and ``close()`` callers work."""

    def __enter__(self) -> "OliveSystem":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run_round(
        self, traced: bool = False, dropouts: set[int] | None = None
    ) -> OliveRoundLog:
        """One full Algorithm 1 round.

        ``dropouts`` models clients that were securely sampled but
        failed to upload (battery, network); the cohort runtime can
        additionally inject dropouts, stragglers, transient failures
        and transport faults.  The enclave proceeds with the surviving
        set (subject to ``min_quorum``); the DP *denominator* stays the
        expected participant count qN, so the guarantee is unaffected
        (dropouts only add averaging noise, the standard DP-FedAVG
        treatment), and the accountant charges the round at q.  An empty
        Poisson draw releases a noise-only round, charged like any other.
        ``traced=True`` records every leaf fold, at any shard count.

        The round is number :attr:`round_index`, which advances only
        when the round releases: a round that aborts (e.g. on
        :class:`~repro.runtime.QuorumNotMetError`) and is run again
        re-draws the same cohort and noise, so the untrusted host
        cannot reroll the sample by forcing aborts.
        """
        self.enclave.reset_trace()
        # Explicit round boundary: reset the replay-defence state even
        # on paths that skip secure sampling (audits, replays).
        self.enclave.begin_round()
        weights_before = self.global_weights.copy()
        dropouts = dropouts or set()
        r = self.round_index

        with obs.span(
            "round", hist="round.wall_s", index=r,
            aggregator=self.config.aggregator, traced=traced,
        ):
            # Line 4: secure sampling inside the enclave.
            with obs.span("sample"):
                participants = self.enclave.sample_clients(
                    [c.client_id for c in self.clients],
                    self.config.sample_rate, r,
                )
            obs.add("round.clients_sampled", len(participants))

            # Lines 6-11: local training, encryption, enclave
            # verification -- executed through the cohort runtime.
            clip = (self.clipper.clip if self.clipper
                    else self.config.training.clip)
            cohort = self.runtime.run_cohort(
                r, participants, weights_before,
                self.config.training, clip=clip,
                quantize_bits=self.config.quantize_bits,
                forced_dropouts=dropouts,
            )

            # Lines 8-12: leaf enclaves unseal, verify and fold the
            # uploads; the root combines their sealed partials.  Quorum is
            # enforced inside: QuorumNotMetError aborts before noise.
            trace = self.enclave.trace if traced else None
            aggregate, shard_report = self.shard_service.aggregate_round(
                r, cohort.deliveries, self.d,
                sampled=set(participants),
                quantize_bits=self.config.quantize_bits,
                min_accepted=self.runtime.quorum_threshold(
                    len(participants)),
                trace=trace,
            )
            obs.add("runtime.quorum_met")
            for cid, reason in shard_report.rejected.items():
                outcome = cohort.outcomes.get(cid)
                if outcome is not None:
                    outcome.status = STATUS_REJECTED
                    record_failure_reason(outcome, reason)
            accepted = shard_report.accepted_clients
            obs.add("round.clients_dropped",
                    len(participants) - len(accepted))
            if trace is not None:
                obs.add("trace.accesses_recorded", len(trace))
                obs.gauge("trace.accesses", len(trace))
                obs.gauge("trace.nbytes", trace.nbytes)

            # Line 12 (cont.): enclave-private perturbation.
            sigma = self.config.noise_multiplier * clip
            with obs.span("noise", sigma=sigma):
                noise = self.enclave.gauss_vector(sigma, self.d, r)
            denominator = self.config.expected_clients
            if denominator is None:
                denominator = max(
                    1.0, self.config.sample_rate * len(self.clients))
            mean_update = (aggregate + noise) / denominator

            # Lines 13-14: only the DP update leaves the enclave.
            self.global_weights = (
                weights_before + self.config.server_lr * mean_update
            )
            self.model.set_flat(self.global_weights)
            with obs.span("accountant"):
                self.accountant.step()
                # One read per round: the gauge, the round log and the
                # audit record all carry this value.
                epsilon = self.accountant.epsilon
            obs.gauge("dp.epsilon", epsilon)
            if self.clipper is not None:
                # Quantile feedback (Andrew et al.): clients report whether
                # their pre-clip norm fit the bound; the enclave updates C.
                with obs.span("clip_update"):
                    bits = [
                        int(float(np.linalg.norm(u.values))
                            <= clip * (1 - 1e-9))
                        for u in shard_report.updates.values()
                    ]
                    self.clipper.update(bits)
                obs.gauge("dp.clip", self.clipper.clip)

        log = OliveRoundLog(
            round_index=r,
            participants=accepted,
            updates=shard_report.updates,
            trace=trace,
            weights_before=weights_before,
            weights_after=self.global_weights.copy(),
            epsilon=epsilon,
            cohort=cohort,
            shard_report=shard_report,
        )
        if self.audit is not None:
            self.audit.record_round(
                log.round_index,
                accepted=log.participants,
                ciphertexts=cohort.ciphertext_bytes(log.participants),
                weights_after=log.weights_after,
                epsilon=log.epsilon,
                clip=clip,
                traced=traced,
                forced_dropouts=sorted(dropouts),
                partials=shard_report.partials,
                degraded=shard_report.degraded,
                n_shards=shard_report.n_shards,
            )
        self.history.append(log)
        self.round_index = r + 1
        return log

    def run(self, rounds: int, traced: bool = False) -> list[OliveRoundLog]:
        """Run several Algorithm 1 rounds; returns their logs."""
        return [self.run_round(traced=traced) for _ in range(rounds)]

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Test accuracy of the current (DP) global model."""
        self.model.set_flat(self.global_weights)
        return accuracy(self.model, x, y)
