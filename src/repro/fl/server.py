"""Reference (non-TEE) federated training loops.

Provides the DP-FedAVG simulation the rest of the repository builds on:

* :class:`FederatedSimulation` -- client-level DP-FedAVG with top-k
  sparsified updates, recording per-round participants, their sparse
  updates (ground truth for the attack evaluation), and the global
  model trajectory.  This is the *plain CDP-FL* path: the server sees
  raw updates, exactly the trust problem OLIVE removes.
* :func:`run_ldp_round` / scheme hooks used by the Table 1 comparison,
  where clients perturb locally (LDP-FL) or rely on shuffle
  amplification (Shuffle-DP-FL).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ..dp.mechanisms import gaussian_perturb, validate_noise_config
from ..runtime import CohortRuntime, RuntimeConfig
from .client import LocalUpdate, TrainingConfig, train_stack
from .datasets import ClientData
from .models import Sequential, accuracy
from .sparsify import densify


@dataclass(frozen=True)
class ServerConfig:
    """Server-side hyperparameters of Algorithm 1."""

    sample_rate: float = 0.1
    server_lr: float = 1.0
    noise_multiplier: float = 1.12
    expected_clients: int | None = None  # q*N denominator; default q*len(clients)

    def __post_init__(self) -> None:
        validate_noise_config(self.noise_multiplier, self.expected_clients,
                              sample_rate=self.sample_rate)


@dataclass
class RoundLog:
    """Everything one round produced (attack ground truth included)."""

    round_index: int
    participants: list[int]
    updates: dict[int, LocalUpdate]
    weights_before: np.ndarray
    weights_after: np.ndarray


@dataclass
class FederatedSimulation:
    """Client-level DP-FedAVG over sparse updates (paper Section 3.2).

    The aggregation itself is the plain dense scatter-add; the OLIVE
    system (:mod:`repro.core.olive`) replaces it with enclave-resident
    oblivious aggregation without changing the learning semantics.
    """

    model: Sequential
    clients: list[ClientData]
    training: TrainingConfig = field(default_factory=TrainingConfig)
    server: ServerConfig = field(default_factory=ServerConfig)
    seed: int = 0
    runtime_config: RuntimeConfig = field(default_factory=RuntimeConfig)

    def __post_init__(self) -> None:
        faults = self.runtime_config.faults
        if faults.corrupt_rate > 0 or faults.replay_rate > 0:
            raise ValueError(
                "transport faults (corrupt/replay) need the encrypted "
                "OLIVE path; the plain simulation has no ciphertexts"
            )
        self._rng = np.random.default_rng(self.seed)
        self.history: list[RoundLog] = []
        self.global_weights = self.model.get_flat()
        self.runtime = CohortRuntime(
            self.runtime_config, copy.deepcopy(self.model), self.clients,
            entropy=self.seed,
        )

    @property
    def d(self) -> int:
        """Model dimensionality."""
        return self.global_weights.size

    def close(self) -> None:
        """Nothing to release (the cohort runtime holds no pool); kept
        so ``with FederatedSimulation(...)`` and ``close()`` callers
        work."""

    def __enter__(self) -> "FederatedSimulation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _sample_participants(self) -> list[int]:
        """Poisson sampling: each client joins independently with
        probability q.  An empty draw stays empty (a noise-only round),
        as in the enclave: forcing a participant would raise every
        client's inclusion probability above the q the accountant
        charges."""
        mask = self._rng.random(len(self.clients)) < self.server.sample_rate
        return [c.client_id for c, m in zip(self.clients, mask) if m]

    def run_round(self, participants: list[int] | None = None) -> RoundLog:
        """One DP-FedAVG round; returns its log.

        Local training executes through the cohort runtime: chunking
        and injected faults change wall clock and who completes, never
        the surviving clients' update bits.
        """
        if participants is None:
            participants = self._sample_participants()
        weights_before = self.global_weights.copy()
        cohort = self.runtime.run_cohort(
            len(self.history), participants, weights_before, self.training,
        )
        updates: dict[int, LocalUpdate] = {
            d.client_id: d.result.to_update() for d in cohort.deliveries
        }
        self.runtime.check_quorum(len(updates), len(participants))

        aggregate = np.zeros(self.d)
        for update in updates.values():
            aggregate += densify(update.indices, update.values, self.d)
        denominator = self.server.expected_clients
        if denominator is None:
            denominator = max(1.0, self.server.sample_rate * len(self.clients))
        mean_update = gaussian_perturb(
            aggregate, self.training.clip, self.server.noise_multiplier,
            denominator, self._rng,
        )
        self.global_weights = weights_before + self.server.server_lr * mean_update
        self.model.set_flat(self.global_weights)

        log = RoundLog(
            round_index=len(self.history),
            participants=sorted(updates),
            updates=updates,
            weights_before=weights_before,
            weights_after=self.global_weights.copy(),
        )
        self.history.append(log)
        return log

    def run(self, rounds: int) -> list[RoundLog]:
        """Run several rounds; returns their logs."""
        return [self.run_round() for _ in range(rounds)]

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Test accuracy of the current global model."""
        self.model.set_flat(self.global_weights)
        return accuracy(self.model, x, y)


def run_ldp_round(
    model: Sequential,
    global_weights: np.ndarray,
    participants: list[ClientData],
    training: TrainingConfig,
    local_sigma: float,
    rng: np.random.Generator,
    server_lr: float = 1.0,
) -> np.ndarray:
    """One LDP/Shuffle-style round: dense local perturbation, plain mean.

    Each client clips its dense delta to the training clip bound and
    adds ``N(0, (local_sigma * clip)^2)`` per coordinate before sending;
    the server (or shuffler output) is simply averaged.  Used by the
    Table 1 utility comparison.  Clients train one after another on
    ``model`` itself (its dropout Generator carries across clients),
    drawing batch order and noise from the shared ``rng``.
    """
    d = global_weights.size
    aggregate = np.zeros(d)
    for data in participants:
        model.set_flat(global_weights)
        train_stack(model, data.x[None], data.y[None], training, [rng])
        delta = model.get_flat() - global_weights
        norm = np.linalg.norm(delta)
        if norm > training.clip:
            delta = delta * (training.clip / norm)
        noisy = delta + rng.normal(0.0, local_sigma * training.clip, size=d)
        aggregate += noisy
    mean_update = aggregate / max(len(participants), 1)
    return global_weights + server_lr * mean_update
