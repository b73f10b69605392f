"""Per-round audit recording: commitments into the chained log.

:class:`AuditRecorder` sits beside an :class:`~repro.core.olive.OliveSystem`
(``OliveSystem(..., audit=recorder)``) and, after every completed
round, appends one chained record committing to

* the **accepted upload set**: a Merkle root over the accepted
  clients' sealed ciphertext bytes (leaves in client-id order, leaf
  payloads binding client id to bytes -- :mod:`repro.audit.merkle`);
* the **released aggregate**: SHA-256 over the post-round global
  weights (the only model state that leaves the enclave);
* the **sharded evidence**, when the round ran through the
  multi-enclave service: the digest of every completed shard's sealed
  ``OLVPART1`` partial, plus the degraded flag -- so failover and
  degraded completion stay auditable round by round;
* enough replay context (forced dropouts, traced flag, epsilon, clip)
  for ``python -m repro audit`` to re-run the round bit-identically
  from the manifest's seeds and detect a forged aggregate.

The logged ciphertext *bytes* ride along with their commitment, once,
as base64 in the record's line but outside its hashed body: the body
binds them through the Merkle root.  Client session keys are ephemeral
per deployment (fresh RA on every run), so a replay regenerates
identical plaintexts and aggregates but not identical ciphertext bytes
-- upload commitments therefore verify against the logged bytes
(tamper evidence + inclusion proofs), while the aggregate commitment
verifies against deterministic replay.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np

from .. import obs
from .log import AuditLogWriter, LOG_VERSION
from .merkle import leaf_hash, merkle_root, upload_leaf

#: Domain prefix for the released-aggregate commitment.
_AGGREGATE_DOMAIN = b"olive-aggregate:"


def aggregate_digest(weights: np.ndarray) -> str:
    """Commitment to a released weight vector (float64, contiguous)."""
    arr = np.ascontiguousarray(weights, dtype=np.float64)
    return hashlib.sha256(_AGGREGATE_DOMAIN + arr.tobytes()).hexdigest()


def upload_merkle_root(ciphertexts: dict[int, bytes]) -> str:
    """Merkle root over accepted uploads, leaves in client-id order."""
    leaves = [leaf_hash(upload_leaf(cid, ciphertexts[cid]))
              for cid in sorted(ciphertexts)]
    return merkle_root(leaves).hex()


def make_manifest(
    *,
    data: dict,
    model: dict,
    config,
    runtime=None,
    shards=None,
    seed: int = 0,
) -> dict:
    """Serializable description of a run, sufficient to rebuild it.

    ``data`` describes the synthetic partition (``spec``, ``seed``,
    ``n_clients``, ``samples_per_client``, ``labels_per_client``,
    optional ``fixed``/``partition_seed``/``signal``/``noise``);
    ``model`` is ``{"name", "seed"}``; the config objects are the
    dataclasses the system was built with (serialized field-for-field,
    nested fault configs included).
    """
    manifest = {
        "kind": "synthetic",
        "data": dict(data),
        "model": dict(model),
        "olive": dataclasses.asdict(config),
        "runtime": dataclasses.asdict(runtime) if runtime is not None else None,
        "shards": dataclasses.asdict(shards) if shards is not None else None,
        "seed": int(seed),
    }
    return manifest


class AuditRecorder:
    """Writes one chained audit record per completed round."""

    def __init__(self, path: str | Path, manifest: dict) -> None:
        self.path = Path(path)
        self.manifest = manifest
        self.rounds = 0
        self._writer = AuditLogWriter(self.path)
        self._writer.append({
            "type": "manifest",
            "version": LOG_VERSION,
            "manifest": manifest,
        })

    @property
    def head(self) -> str:
        """Hash of the most recently appended record."""
        return self._writer.head

    def record_round(
        self,
        round_index: int,
        *,
        accepted: list[int],
        ciphertexts: dict[int, bytes],
        weights_after: np.ndarray,
        epsilon: float,
        clip: float,
        traced: bool = False,
        forced_dropouts: list[int] | None = None,
        partials: list[tuple[int, int, str]] | None = None,
        degraded: bool = False,
        n_shards: int | None = None,
    ) -> str:
        """Commit one completed round; returns the record hash."""
        with obs.span("audit.record", hist="audit.record_s",
                      round=round_index, uploads=len(ciphertexts)):
            missing = set(accepted) - set(ciphertexts)
            if missing:
                raise ValueError(
                    f"accepted clients {sorted(missing)[:4]} have no "
                    "logged ciphertext"
                )
            unbound = set(ciphertexts) - set(accepted)
            if unbound:
                raise ValueError(
                    f"ciphertexts of clients {sorted(unbound)[:4]} outside "
                    "the accepted set would not be bound by the Merkle root"
                )
            record = {
                "type": "round",
                "round": int(round_index),
                "accepted": [int(c) for c in sorted(accepted)],
                "merkle_root": upload_merkle_root(ciphertexts),
                "aggregate_sha256": aggregate_digest(weights_after),
                "epsilon": float(epsilon),
                "clip": float(clip),
                "traced": bool(traced),
                "forced_dropouts": sorted(int(c) for c in
                                          (forced_dropouts or [])),
            }
            if partials is not None:
                record["partials"] = [
                    {"shard": int(shard), "leaf": int(leaf), "sha256": digest}
                    for shard, leaf, digest in partials
                ]
                record["degraded"] = bool(degraded)
                record["n_shards"] = int(n_shards or len(partials))
            digest = self._writer.append(
                record, {cid: ciphertexts[cid] for cid in sorted(ciphertexts)})
            self.rounds += 1
            obs.add("audit.rounds_recorded")
            obs.add("audit.uploads_committed", len(ciphertexts))
        return digest

    def close(self) -> None:
        """Seal the log (idempotent): append the terminal record."""
        if self._writer._file is None:
            return
        self._writer.append({"type": "seal", "rounds": self.rounds})
        self._writer.close()
        obs.add("audit.logs_sealed")

    def __enter__(self) -> "AuditRecorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
