"""Cohort runtime: fault-tolerant client execution.

The subsystem OLIVE's round loop submits sampled cohorts through:

* one batched client core that trains a chunk of clients as stacked
  tensors and seals it in one pass -- :mod:`repro.runtime.jobs`;
* per-``(round, client)`` seed derivation making every client's bits
  independent of chunking -- :mod:`repro.runtime.seeding`;
* deterministic fault injection (dropout, stragglers, corrupt/replayed
  ciphertexts, transient worker failures) -- :mod:`repro.runtime.faults`;
* retries with exponential backoff and per-client timeouts, both
  settled from the fault plan, and a minimum-quorum completion policy
  -- :mod:`repro.runtime.cohort`.

Typical use::

    from repro.runtime import CohortRuntime, FaultConfig, RuntimeConfig

    cfg = RuntimeConfig(faults=FaultConfig(dropout_rate=0.05))
    system = OliveSystem(model, clients, olive_config, runtime=cfg)
"""

from .cohort import (
    REASON_DROPOUT,
    REASON_FORCED,
    REASON_STRAGGLER,
    REASON_TRANSIENT,
    STATUS_DROPPED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_STRAGGLER,
    ClientOutcome,
    CohortResult,
    CohortRuntime,
    Delivery,
    record_failure_reason,
)
from .config import QuorumNotMetError, RuntimeConfig
from .faults import (
    ClientFaultPlan,
    EnclaveFaultConfig,
    EnclaveFaultInjector,
    FaultConfig,
    FaultInjector,
    LeafFaultPlan,
    RootFaultPlan,
)
from .jobs import ClientJobResult, replay_indices
from .seeding import (
    STREAM_DH,
    STREAM_ENCLAVE,
    STREAM_FAULT,
    STREAM_MODEL,
    STREAM_NOISE,
    STREAM_NONCE,
    STREAM_SAMPLE,
    STREAM_TEACHER,
    STREAM_TRAIN,
    derive_nonce,
    derive_rng,
)

# Imported last: repro.core (pulled in transitively by shard leaves'
# oblivious kernels) imports the names bound above from this package.
from .shards import (  # noqa: E402
    ShardConfig,
    ShardedAggregator,
    ShardOutcome,
    ShardRoundReport,
    plan_shards,
)

__all__ = [
    "REASON_DROPOUT",
    "REASON_FORCED",
    "REASON_STRAGGLER",
    "REASON_TRANSIENT",
    "STATUS_DROPPED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_STRAGGLER",
    "STREAM_DH",
    "STREAM_ENCLAVE",
    "STREAM_FAULT",
    "STREAM_MODEL",
    "STREAM_NOISE",
    "STREAM_NONCE",
    "STREAM_SAMPLE",
    "STREAM_TEACHER",
    "STREAM_TRAIN",
    "ClientFaultPlan",
    "ClientJobResult",
    "ClientOutcome",
    "CohortResult",
    "CohortRuntime",
    "Delivery",
    "EnclaveFaultConfig",
    "EnclaveFaultInjector",
    "FaultConfig",
    "FaultInjector",
    "LeafFaultPlan",
    "QuorumNotMetError",
    "RootFaultPlan",
    "RuntimeConfig",
    "ShardConfig",
    "ShardOutcome",
    "ShardRoundReport",
    "ShardedAggregator",
    "derive_nonce",
    "derive_rng",
    "plan_shards",
    "record_failure_reason",
    "replay_indices",
]
