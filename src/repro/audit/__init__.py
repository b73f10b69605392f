"""Verifiable rounds: Merkle commitments, chained log, audit replay.

The paper's threat model trusts the server-side enclave to aggregate
honestly but never builds machinery to *prove* it.  This package turns
the runtime's end-to-end determinism into verifiability:

* per-round **Merkle commitments** over the accepted client
  ciphertexts and the released aggregate -- :mod:`repro.audit.merkle`;
* an append-only **audit log** whose records are hash-chained across
  rounds (edits, reorders, and truncation are detectable) --
  :mod:`repro.audit.log`;
* an :class:`AuditRecorder` the round drivers feed
  (``OliveSystem(..., audit=recorder)``) -- :mod:`repro.audit.recorder`;
* ``python -m repro audit``: chain + commitment verification,
  **bit-identical deterministic replay** of every logged round, and
  per-upload inclusion proofs -- :mod:`repro.audit.verify` /
  :mod:`repro.audit.cli`.

Typical use::

    from repro.audit import AuditRecorder, make_manifest, verify_log

    manifest = make_manifest(data=..., model=..., config=cfg,
                             runtime=rt, shards=sh, seed=0)
    with AuditRecorder("run_audit.jsonl", manifest) as recorder:
        system = OliveSystem(model, clients, cfg, seed=0,
                             runtime=rt, shards=sh, audit=recorder)
        system.run(rounds)
    verify_log("run_audit.jsonl", strict=True)   # raises on any tamper
"""

from ..runtime.shards import partial_digest
from .log import (
    GENESIS,
    AuditChainError,
    AuditCommitmentError,
    AuditError,
    AuditLogWriter,
    AuditProofError,
    AuditReplayError,
    AuditTruncationError,
    AuditVersionError,
    chain_records,
    read_records,
    record_hash,
    verify_chain,
)
from .merkle import (
    EMPTY_ROOT,
    InclusionProof,
    inclusion_proof,
    leaf_hash,
    merkle_root,
    node_hash,
    upload_leaf,
    verify_inclusion,
)
from .recorder import (
    AuditRecorder,
    aggregate_digest,
    make_manifest,
    upload_merkle_root,
)
from .verify import (
    AuditReport,
    RoundVerdict,
    build_system_from_manifest,
    generate_proof,
    verify_log,
    verify_proof_payload,
)

__all__ = [
    "GENESIS",
    "EMPTY_ROOT",
    "AuditChainError",
    "AuditCommitmentError",
    "AuditError",
    "AuditLogWriter",
    "AuditProofError",
    "AuditRecorder",
    "AuditReplayError",
    "AuditReport",
    "AuditTruncationError",
    "AuditVersionError",
    "InclusionProof",
    "RoundVerdict",
    "aggregate_digest",
    "build_system_from_manifest",
    "chain_records",
    "generate_proof",
    "inclusion_proof",
    "leaf_hash",
    "make_manifest",
    "merkle_root",
    "node_hash",
    "partial_digest",
    "read_records",
    "record_hash",
    "upload_leaf",
    "upload_merkle_root",
    "verify_chain",
    "verify_inclusion",
    "verify_log",
    "verify_proof_payload",
]
