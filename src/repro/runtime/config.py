"""Configuration of the cohort execution engine."""

from __future__ import annotations

from dataclasses import dataclass, field

from .executors import EXECUTORS
from .faults import FaultConfig


class QuorumNotMetError(RuntimeError):
    """Too few clients survived the round for the completion policy.

    The enclave refuses to aggregate and release: the round is aborted
    with the global model unchanged and no privacy budget consumed
    (nothing data-dependent left the enclave).
    """


@dataclass(frozen=True)
class RuntimeConfig:
    """How the sampled cohort is executed each round.

    ``client_timeout_s`` bounds how long the coordinator waits on any
    single client: injected straggler delays beyond it are dropped
    *analytically* (no wall clock spent, and deterministically -- the
    delay is part of the fault plan), while genuine non-completion is
    retried then dropped.  That wall-clock bound only applies on the
    ``thread`` executor: ``serial`` and ``vectorized`` run each job
    inline when its result is collected, so a client that never
    finishes blocks the round there.

    ``min_quorum`` is the fraction of the *sampled* cohort that must
    survive decryption for the enclave to aggregate and release; below
    it the round aborts with :class:`QuorumNotMetError`.

    ``realized_accounting`` selects whether the DP accountant charges
    each round at the realized cohort fraction (survivors / N) instead
    of the configured sampling rate; ``None`` (default) enables it
    exactly when fault injection is active, keeping fault-free
    deployments on the paper's fixed-q accounting.

    ``vector_chunk`` bounds how many clients the ``vectorized``
    executor stacks into one tensor batch -- peak memory grows with
    ``chunk * d`` while throughput saturates well below the default,
    so mega-cohorts stream through in constant space.  Ignored by the
    loop executors.
    """

    executor: str = "serial"
    workers: int = 4
    vector_chunk: int = 8192
    client_timeout_s: float | None = None
    max_retries: int = 2
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 1.0
    min_quorum: float = 0.0
    faults: FaultConfig = field(default_factory=FaultConfig)
    realized_accounting: bool | None = None

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r} (choose from {EXECUTORS})"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.vector_chunk < 1:
            raise ValueError("vector_chunk must be >= 1")
        if not 0.0 <= self.min_quorum <= 1.0:
            raise ValueError("min_quorum must be in [0, 1]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff seconds must be >= 0")
        if self.client_timeout_s is not None and self.client_timeout_s <= 0:
            raise ValueError("client_timeout_s must be positive when set")

    def use_realized_accounting(self) -> bool:
        """Resolve the ``realized_accounting`` tri-state."""
        if self.realized_accounting is not None:
            return self.realized_accounting
        return self.faults.active
