"""Configuration of the cohort execution engine."""

from __future__ import annotations

from dataclasses import dataclass, field

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

    Every cohort trains as one batched flush (see
    :meth:`repro.runtime.CohortRuntime.run_cohort`).  ``executor``
    names that one path and accepts only ``"vectorized"``; the field is
    kept for configurations written when there were several.

    ``client_timeout_s`` bounds the injected straggler delay the
    coordinator admits: delays beyond it are dropped *analytically*
    (no wall clock spent, and deterministically -- the delay is part of
    the fault plan).  Injected transient failures are retried up to
    ``max_retries`` times with exponential backoff
    (``backoff_base_s * 2**attempt``, capped at ``backoff_cap_s``);
    both are settled from the plan, not by re-running the client.

    ``min_quorum`` is the fraction of the *sampled* cohort that must
    survive decryption for the enclave to aggregate and release; below
    it the round aborts with :class:`QuorumNotMetError`.

    ``vector_chunk`` bounds how many clients are stacked into one
    tensor batch -- peak memory grows with ``chunk * d`` while
    throughput saturates well below the default, so mega-cohorts
    stream through in constant space.
    """

    executor: str = "vectorized"
    vector_chunk: int = 8192
    client_timeout_s: float | None = None
    max_retries: int = 2
    backoff_base_s: float = 0.01
    backoff_cap_s: float = 1.0
    min_quorum: float = 0.0
    faults: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        if self.executor != "vectorized":
            raise ValueError(
                f"unknown executor {self.executor!r}: the cohort runtime "
                "has one path, 'vectorized'"
            )
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
