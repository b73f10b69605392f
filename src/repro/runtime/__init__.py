"""Cohort runtime: parallel, fault-tolerant client execution.

The subsystem OLIVE's round loop submits sampled cohorts through:

* pluggable executors (``serial`` | ``thread`` | ``vectorized``
  whole-cohort tensor batching) -- :mod:`repro.runtime.executors`;
* per-``(round, client)`` seed derivation making every executor
  bit-identical -- :mod:`repro.runtime.seeding`;
* deterministic fault injection (dropout, stragglers, corrupt/replayed
  ciphertexts, transient worker failures) -- :mod:`repro.runtime.faults`;
* retries with exponential backoff, per-client timeouts, and a
  minimum-quorum completion policy -- :mod:`repro.runtime.cohort`.

Typical use::

    from repro.runtime import CohortRuntime, FaultConfig, RuntimeConfig

    cfg = RuntimeConfig(executor="thread", workers=8,
                        faults=FaultConfig(dropout_rate=0.05))
    system = OliveSystem(model, clients, olive_config, runtime=cfg)
"""

from .cohort import (
    REASON_DROPOUT,
    REASON_FORCED,
    REASON_STRAGGLER,
    REASON_TIMEOUT,
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
    run_train_tasks,
)
from .config import QuorumNotMetError, RuntimeConfig
from .executors import EXECUTORS, make_executor
from .faults import (
    ClientFaultPlan,
    EnclaveFaultConfig,
    EnclaveFaultInjector,
    FaultConfig,
    FaultInjector,
    LeafFaultPlan,
    RootFaultPlan,
)
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
from .seeding import (
    STREAM_ENCLAVE,
    STREAM_FAULT,
    STREAM_MODEL,
    STREAM_NONCE,
    STREAM_TEACHER,
    STREAM_TRAIN,
    derive_nonce,
    derive_nonces_batch,
    derive_rng,
    derive_rngs_batch,
    reseed_model,
    seed_sequence,
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
    "EXECUTORS",
    "REASON_DROPOUT",
    "REASON_FORCED",
    "REASON_STRAGGLER",
    "REASON_TIMEOUT",
    "REASON_TRANSIENT",
    "STATUS_DROPPED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_STRAGGLER",
    "STREAM_ENCLAVE",
    "STREAM_FAULT",
    "STREAM_MODEL",
    "STREAM_NONCE",
    "STREAM_TEACHER",
    "STREAM_TRAIN",
    "ClientFaultPlan",
    "ClientJob",
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
    "TrainTask",
    "TransientWorkerError",
    "WorkerContext",
    "derive_nonce",
    "derive_nonces_batch",
    "derive_rng",
    "derive_rngs_batch",
    "execute_client_job",
    "execute_client_jobs_batch",
    "execute_train_task",
    "make_executor",
    "plan_shards",
    "record_failure_reason",
    "reseed_model",
    "run_train_tasks",
    "seed_sequence",
]
