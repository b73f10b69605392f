"""Checkpointing and trace serialization.

Production FL servers checkpoint between rounds; OLIVE's state is the
global weights, the privacy ledger (rounds consumed), the index of the
next round (which keys that round's enclave and client randomness),
the shard service's leaf pool (how many leaves were spawned and which
died) and, when adaptive clipping is active, the current clip.  Enclave
session keys are deliberately NOT serialized -- on restart, clients
re-attest the fresh enclave, exactly as a real SGX redeployment would
require.

Traces serialize to a compact ``.npz`` for offline analysis (the
attack and the leakage metrics both accept reloaded traces).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..sgx.memory import Trace
from .olive import OliveSystem

#: Checkpoint format version, bumped whenever a checkpoint written by
#: older code would resume onto a different trajectory.  Version 4:
#: keyed BLAKE2b seed derivation, and an empty Poisson draw releases a
#: noise-only round.  Version 5: the enclave's sampling and noise are
#: keyed on the round, and the checkpoint carries ``round_index``.
#: Version 6: the checkpoint carries the shard service's leaf pool.
#: Version 7: the ledger is the released-round count alone, every round
#: charged at q (earlier fault runs under-charged their budget).
CHECKPOINT_VERSION = 7


def save_checkpoint(system: OliveSystem, path: str | Path) -> None:
    """Write the restartable server state to ``path`` (.npz)."""
    path = Path(path)
    meta = {
        "rounds": system.accountant.steps,
        "round_index": system.round_index,
        "leaf_pool": system.shard_service.pool_state(),
        "sample_rate": system.config.sample_rate,
        "noise_multiplier": system.config.noise_multiplier,
        "delta": system.config.delta,
        "aggregator": system.config.aggregator,
        "clip": system.clipper.clip if system.clipper
                else system.config.training.clip,
        # Audit continuity: a checkpoint taken mid-audited-run pins the
        # chained log's head so a restore can detect a swapped or
        # rewound log before resuming.
        "audit_head": system.audit.head if system.audit else None,
        "audit_rounds": system.audit.rounds if system.audit else None,
        "version": CHECKPOINT_VERSION,
    }
    np.savez(
        path,
        global_weights=system.global_weights,
        meta=json.dumps(meta),
    )


def load_checkpoint(system: OliveSystem, path: str | Path) -> dict:
    """Restore weights + privacy ledger into a freshly built system.

    The system must have been constructed with the same model
    architecture and DP parameters; mismatches raise so a silently
    wrong privacy ledger cannot occur.  Returns the checkpoint
    metadata.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        weights = archive["global_weights"]
        meta = json.loads(str(archive["meta"]))
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {meta.get('version')!r} is not the "
            f"supported version {CHECKPOINT_VERSION}; refusing to resume"
        )
    if weights.size != system.d:
        raise ValueError(
            f"checkpoint holds {weights.size} weights, system expects {system.d}"
        )
    # JSON round-trips floats exactly, so the DP parameters must match
    # exactly: a nearby sigma would charge a different budget.
    for field_name in ("sample_rate", "noise_multiplier", "delta"):
        if meta[field_name] != getattr(system.config, field_name):
            raise ValueError(
                f"checkpoint {field_name}={meta[field_name]} differs from "
                f"system config; refusing to restore the privacy ledger"
            )
    rounds = _ledger(meta)
    round_index = _round_index(meta)
    spawned, dead = _leaf_pool(meta)
    system.shard_service.restore_pool(spawned, dead)
    system.global_weights = weights.copy()
    system.model.set_flat(system.global_weights)
    system.accountant.steps = rounds
    system.round_index = round_index
    if system.clipper is not None:
        system.clipper.clip = float(meta["clip"])
    expected_head = meta["audit_head"]
    if expected_head is not None and system.audit is not None:
        if system.audit.head != expected_head:
            raise ValueError(
                "checkpoint was taken with audit-log head "
                f"{expected_head[:12]}..., but the attached recorder's "
                f"head is {system.audit.head[:12]}...; refusing to "
                "resume onto a diverged audit chain"
            )
    return meta


def _round_index(meta: dict) -> int:
    """The checkpoint's next round, refused unless it is a valid index.

    It keys round r's sampling and noise, so a wrong value would replay
    an earlier round's randomness.  A checkpoint that pins an audit head
    must resume at the round after the last one the log committed.
    """
    round_index = meta["round_index"]
    if (isinstance(round_index, bool) or not isinstance(round_index, int)
            or round_index < 0):
        raise ValueError(
            f"checkpoint round_index={round_index!r} is not a non-negative "
            "integer; refusing to resume"
        )
    if meta["audit_head"] is not None and round_index != meta["audit_rounds"]:
        raise ValueError(
            f"checkpoint round_index={round_index} differs from its audit "
            f"log's {meta['audit_rounds']} committed rounds; refusing to "
            "resume"
        )
    return round_index


def _leaf_pool(meta: dict) -> tuple[int, list[int]]:
    """The checkpoint's leaf pool, refused unless it is well formed."""
    pool = meta.get("leaf_pool")
    if not isinstance(pool, dict) or set(pool) != {"spawned", "dead"}:
        raise ValueError(
            f"checkpoint leaf_pool={pool!r} is not a mapping of exactly "
            "'spawned' and 'dead'; refusing to resume")
    spawned, dead = pool["spawned"], pool["dead"]
    if isinstance(spawned, bool) or not isinstance(spawned, int) \
            or spawned < 0:
        raise ValueError(
            f"checkpoint leaf_pool spawned={spawned!r} is not a "
            "non-negative integer; refusing to resume")
    if (not isinstance(dead, list) or len(set(dead)) != len(dead)
            or not all(isinstance(i, int) and not isinstance(i, bool)
                       and 0 <= i < spawned for i in dead)):
        raise ValueError(
            f"checkpoint leaf_pool dead={dead!r} is not a list of distinct "
            f"leaf indices below {spawned}; refusing to resume")
    return spawned, dead


def _ledger(meta: dict) -> int:
    """The checkpoint's released-round count, refused unless it is a
    non-negative integer (a bad count would only raise mid-round, after
    the next update was already released)."""
    rounds = meta["rounds"]
    if isinstance(rounds, bool) or not isinstance(rounds, int) or rounds < 0:
        raise ValueError(
            f"checkpoint rounds={rounds!r} is not a non-negative integer; "
            "refusing to restore the privacy ledger"
        )
    return rounds


def save_trace(trace: Trace, path: str | Path) -> None:
    """Serialize a trace to ``.npz`` (region table + packed accesses).

    Straight columnar dump: the trace's region ids are remapped onto the
    sorted-name table the file format uses (stable across interning
    order), and the offset/op columns are written as-is.
    """
    rids, offs, ops = trace.columns()
    names = trace.region_names
    present = np.unique(rids).tolist() if len(rids) else []
    regions = sorted(names[r] for r in present)
    index = {r: i for i, r in enumerate(regions)}
    remap = np.zeros(max(len(names), 1), dtype=np.int32)
    for r in present:
        remap[r] = index[names[r]]
    np.savez_compressed(
        Path(path),
        regions=json.dumps(regions),
        region=remap[rids.astype(np.int64)],
        offset=offs.astype(np.int64),
        op=ops.astype(np.int8),
    )


def load_trace(path: str | Path) -> Trace:
    """Inverse of :func:`save_trace` (columnar, no per-access loop)."""
    with np.load(Path(path), allow_pickle=False) as archive:
        regions = json.loads(str(archive["regions"]))
        region_col = archive["region"]
        offset_col = archive["offset"]
        op_col = archive["op"]
    return Trace.from_columns(regions, region_col, offset_col, op_col)
