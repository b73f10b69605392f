"""Audit verification: chain -> commitments -> deterministic replay.

Three verification layers, each catching a strictly stronger
adversary:

1. **Chain** (:func:`repro.audit.log.verify_chain`) -- an attacker who
   edits, reorders, or truncates the log file breaks a record hash, a
   prev-link, or the terminal seal.
2. **Commitments** -- an attacker who re-mints the whole chain after
   editing a logged ciphertext still cannot make the logged bytes
   hash to the committed Merkle root without breaking SHA-256
   (:class:`~repro.audit.log.AuditCommitmentError` names the round).
   Each round's epsilon must also equal the closed form for its round
   count at the manifest's ``(q, sigma, delta)``: every released round
   is charged at q, so the budget needs no replay to check.
3. **Replay** -- an attacker who re-mints chain *and* commitments
   around a forged aggregate is caught by re-running the round from
   the manifest's seeds through the deterministic runtime: the
   recomputed released weights must hash bit-identically to the
   committed aggregate (:class:`~repro.audit.log.AuditReplayError`).
   Rounds that commit shard partials (every round of a current log)
   additionally re-derive every completed shard's sealed partial and
   compare digests, so failover / degraded rounds replay under the
   same scrutiny.

Replay rebuilds the system from the logged manifest (synthetic data
spec + model + config dataclasses + seed) and steps it round by round;
client RA keys are ephemeral so ciphertext *bytes* differ across
replays, but every quantity the commitments bind -- plaintexts,
sampling, fault plans, noise, partials, released weights -- is a pure
function of the recorded seeds.
"""

from __future__ import annotations

import base64
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..dp.accountant import PrivacyAccountant
from .log import (
    AuditCommitmentError,
    AuditProofError,
    AuditReplayError,
    read_records,
    verify_chain,
)
from .merkle import (
    InclusionProof,
    inclusion_proof,
    leaf_hash,
    upload_leaf,
    verify_inclusion,
)
from .recorder import aggregate_digest, upload_merkle_root


@dataclass
class RoundVerdict:
    """What verification concluded about one logged round."""

    round_index: int
    uploads: int
    merkle_ok: bool = False
    replay_ok: bool | None = None     # None: replay not attempted
    sharded: bool = False             # more than one leaf enclave
    degraded: bool = False


@dataclass
class AuditReport:
    """Per-round verdicts of one full log verification."""

    path: str
    rounds: list[RoundVerdict] = field(default_factory=list)
    sealed: bool = False
    replayed: bool = False

    @property
    def n_uploads(self) -> int:
        return sum(v.uploads for v in self.rounds)


def load_round_records(records: list[dict]) -> list[dict]:
    """The round records of a structurally verified log."""
    return [r for r in records if r.get("type") == "round"]


def _round_ciphertexts(record: dict) -> dict[int, bytes]:
    """The round's logged ciphertexts (base64 in the line); bytes that
    do not decode fail the commitment check."""
    try:
        return {int(cid): base64.b64decode(blob, validate=True)
                for cid, blob in record.get("ciphertexts", {}).items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise AuditCommitmentError(
            f"round {record['round']}: logged ciphertexts do not decode "
            f"({exc})", round_index=record["round"]) from exc


def verify_round_commitment(record: dict, olive: dict) -> None:
    """Recompute the Merkle root from the logged bytes, and round r's
    epsilon from the manifest's ``olive`` section (r + 1 rounds at q);
    compare both with the record."""
    r = record["round"]
    ciphertexts = _round_ciphertexts(record)
    accepted = [int(c) for c in record["accepted"]]
    missing = set(accepted) - set(ciphertexts)
    if missing:
        raise AuditCommitmentError(
            f"round {r}: accepted clients {sorted(missing)[:4]} have no "
            "logged ciphertext",
            round_index=r,
        )
    unbound = set(ciphertexts) - set(accepted)
    if unbound:
        raise AuditCommitmentError(
            f"round {r}: logged ciphertexts of clients {sorted(unbound)[:4]} "
            "are outside the accepted set the Merkle root binds",
            round_index=r,
        )
    recomputed = upload_merkle_root(ciphertexts)
    if recomputed != record["merkle_root"]:
        raise AuditCommitmentError(
            f"round {r}: logged ciphertexts do not hash to the committed "
            "Merkle root (leaf bytes tampered)",
            round_index=r,
        )
    expected = PrivacyAccountant(
        olive["sample_rate"], olive["noise_multiplier"], olive["delta"],
        steps=r + 1,
    ).epsilon
    if float(record["epsilon"]) != expected:
        raise AuditCommitmentError(
            f"round {r}: committed epsilon {record['epsilon']!r} is not "
            f"{expected!r}, the budget of {r + 1} round(s) at the "
            "manifest's (q, sigma, delta)",
            round_index=r,
        )


def runtime_from_manifest(section: dict):
    """A manifest's ``runtime`` section as a :class:`RuntimeConfig`."""
    from ..runtime import FaultConfig, RuntimeConfig

    rt = dict(section)
    rt["faults"] = FaultConfig(**rt["faults"])
    return RuntimeConfig(**rt)


@contextmanager
def _manifest_section(name: str):
    """Refuse a manifest section the current configs cannot rebuild.

    An unknown field (``TypeError``) or a rejected value
    (``ValueError``) becomes an :class:`AuditReplayError` naming the
    section, so the CLI exits with the cannot-replay code.
    """
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise AuditReplayError(
            f"manifest section {name!r} cannot be rebuilt ({exc}); the "
            "recorded run cannot be replayed"
        ) from exc


def build_system_from_manifest(manifest: dict):
    """Reconstruct the recorded run's OliveSystem, ready to replay."""
    # Imported here: repro.core imports repro.runtime at package load
    # and the audit package must stay importable from either side.
    from ..core.olive import OliveConfig, OliveSystem
    from ..fl.client import TrainingConfig
    from ..fl.datasets import SPECS, SyntheticClassData, partition_clients
    from ..fl.models import build_model
    from ..runtime import EnclaveFaultConfig, ShardConfig

    if manifest.get("kind") != "synthetic":
        raise AuditReplayError(
            f"cannot replay manifest kind {manifest.get('kind')!r}; only "
            "'synthetic' runs are rebuildable from the log"
        )
    data = manifest["data"]
    gen = SyntheticClassData(
        SPECS[data["spec"]], seed=data["seed"],
        signal=data.get("signal", 1.0), noise=data.get("noise", 0.5),
    )
    clients = partition_clients(
        gen, data["n_clients"], data["samples_per_client"],
        data["labels_per_client"], fixed=data.get("fixed", True),
        seed=data.get("partition_seed", data["seed"]),
    )
    with _manifest_section("olive"):
        olive = dict(manifest["olive"])
        olive["training"] = TrainingConfig(**olive["training"])
        config = OliveConfig(**olive)
    runtime = None
    if manifest.get("runtime") is not None:
        with _manifest_section("runtime"):
            runtime = runtime_from_manifest(manifest["runtime"])
    shards = None
    if manifest.get("shards") is not None:
        with _manifest_section("shards"):
            sh = dict(manifest["shards"])
            sh["faults"] = EnclaveFaultConfig(**sh["faults"])
            shards = ShardConfig(**sh)
    model = build_model(manifest["model"]["name"],
                        seed=manifest["model"]["seed"])
    return OliveSystem(model, clients, config, seed=manifest["seed"],
                       runtime=runtime, shards=shards)


def _replay_one(system, record: dict):
    """Advance the replayed system to the next *recorded* round.

    Rounds the original run aborted on quorum never reached the log and
    did not advance its round index, and round r's draws are keyed on r
    alone, so the replay's next round is the recorded one.  A replay
    that aborts on quorum cannot have produced the log.
    """
    from ..runtime import QuorumNotMetError

    try:
        return system.run_round(
            traced=bool(record.get("traced")),
            dropouts=set(record.get("forced_dropouts", [])),
        )
    except QuorumNotMetError as exc:
        raise AuditReplayError(
            f"round {record['round']}: replay aborted on quorum; the log "
            "cannot have been produced by this manifest",
            round_index=record["round"],
        ) from exc


def verify_round_replay(record: dict, log) -> None:
    """Compare one replayed round against its committed record."""
    r = record["round"]
    replayed_accepted = sorted(log.participants)
    if replayed_accepted != [int(c) for c in record["accepted"]]:
        raise AuditReplayError(
            f"round {r}: replay accepted clients {replayed_accepted[:6]}... "
            f"but the log committed {record['accepted'][:6]}...",
            round_index=r,
        )
    recomputed = aggregate_digest(log.weights_after)
    if recomputed != record["aggregate_sha256"]:
        raise AuditReplayError(
            f"round {r}: replayed released aggregate hashes to "
            f"{recomputed[:16]}... but the log committed "
            f"{record['aggregate_sha256'][:16]}... (forged aggregate)",
            round_index=r,
        )
    if float(record["epsilon"]) != float(log.epsilon):
        raise AuditReplayError(
            f"round {r}: replayed epsilon {log.epsilon!r} differs from "
            f"committed {record['epsilon']!r}",
            round_index=r,
        )
    if "partials" in record:
        report = log.shard_report
        replayed = [{"shard": shard, "leaf": leaf, "sha256": digest}
                    for shard, leaf, digest in report.partials]
        if replayed != record["partials"]:
            raise AuditReplayError(
                f"round {r}: replayed shard partials disagree with the "
                "committed digests (leaf partial forged or reassigned)",
                round_index=r,
            )
        if bool(record.get("degraded")) != bool(report.degraded):
            raise AuditReplayError(
                f"round {r}: degraded flag mismatch (log "
                f"{record.get('degraded')}, replay {report.degraded})",
                round_index=r,
            )


def verify_log(
    path: str | Path,
    *,
    replay: bool = True,
    strict: bool = True,
    round_index: int | None = None,
) -> AuditReport:
    """Verify a whole audit log; raises the first failure found.

    ``strict`` requires the terminal seal (a crashed or truncated run
    fails); ``replay=False`` stops after chain + commitment checks;
    ``round_index`` restricts commitment/replay reporting to one round
    (the chain is always verified whole, and replay still has to step
    through the earlier rounds to reach the requested one).
    """
    with obs.span("audit.verify", log=str(path)):
        records = read_records(path)
        verify_chain(records, require_seal=strict)
        rounds = load_round_records(records)
        report = AuditReport(
            path=str(path),
            sealed=bool(records) and records[-1].get("type") == "seal",
        )
        olive = records[0]["manifest"]["olive"]
        for record in rounds:
            n_shards = record.get("n_shards",
                                  len(record.get("partials", ())))
            verdict = RoundVerdict(
                round_index=record["round"],
                uploads=len(record["accepted"]),
                sharded=int(n_shards) > 1,
                degraded=bool(record.get("degraded")),
            )
            if round_index is None or record["round"] == round_index:
                verify_round_commitment(record, olive)
                verdict.merkle_ok = True
            report.rounds.append(verdict)
        if round_index is not None and not any(
                v.round_index == round_index for v in report.rounds):
            raise AuditProofError(
                f"round {round_index} is not in the log "
                f"({len(report.rounds)} round(s) recorded)",
                round_index=round_index,
            )
        if not replay or not rounds:
            return report

        with obs.span("audit.replay", rounds=len(rounds)):
            manifest = records[0]["manifest"]
            system = build_system_from_manifest(manifest)
            try:
                for record, verdict in zip(rounds, report.rounds):
                    log = _replay_one(system, record)
                    if round_index is None or record["round"] == round_index:
                        verify_round_replay(record, log)
                        verdict.replay_ok = True
                        obs.add("audit.rounds_verified")
            finally:
                system.close()
        report.replayed = True
        return report


# ----------------------------------------------------------------------
# Inclusion proofs for individual uploads
# ----------------------------------------------------------------------
def generate_proof(path: str | Path, round_index: int,
                   client_id: int) -> dict:
    """Inclusion proof that one client's upload is committed.

    The proof is self-contained JSON: leaf hash, audit path, leaf
    count, and the committed root, verifiable offline against the
    round's ``merkle_root`` with :func:`verify_proof_payload`.
    """
    records = read_records(path)
    verify_chain(records, require_seal=False)
    for record in load_round_records(records):
        if record["round"] != round_index:
            continue
        accepted = [int(c) for c in record["accepted"]]
        if client_id not in accepted:
            raise AuditProofError(
                f"client {client_id} was not accepted in round "
                f"{round_index}", round_index=round_index,
            )
        ciphertexts = _round_ciphertexts(record)
        leaves = [leaf_hash(upload_leaf(cid, ciphertexts[cid]))
                  for cid in accepted]
        proof = inclusion_proof(leaves, accepted.index(client_id))
        obs.add("audit.proofs_generated")
        return {
            "round": round_index,
            "client_id": client_id,
            "leaf_index": proof.leaf_index,
            "n_leaves": proof.n_leaves,
            "leaf_sha256": proof.leaf.hex(),
            "path": [{"side": side, "hash": digest.hex()}
                     for side, digest in proof.path],
            "merkle_root": record["merkle_root"],
        }
    raise AuditProofError(
        f"round {round_index} is not in the log", round_index=round_index)


def verify_proof_payload(path: str | Path, proof: dict) -> None:
    """Check a generated proof against the log's committed root."""
    records = read_records(path)
    verify_chain(records, require_seal=False)
    committed = None
    for record in load_round_records(records):
        if record["round"] == proof["round"]:
            committed = record["merkle_root"]
            break
    if committed is None:
        raise AuditProofError(
            f"round {proof['round']} is not in the log",
            round_index=proof["round"],
        )
    if proof["merkle_root"] != committed:
        raise AuditProofError(
            f"round {proof['round']}: proof targets root "
            f"{proof['merkle_root'][:16]}... but the log committed "
            f"{committed[:16]}...", round_index=proof["round"],
        )
    reconstructed = InclusionProof(
        leaf_index=int(proof["leaf_index"]),
        n_leaves=int(proof["n_leaves"]),
        leaf=bytes.fromhex(proof["leaf_sha256"]),
        path=[(step["side"], bytes.fromhex(step["hash"]))
              for step in proof["path"]],
    )
    if not verify_inclusion(reconstructed, bytes.fromhex(committed)):
        obs.add("audit.proof_failures")
        raise AuditProofError(
            f"round {proof['round']}: inclusion proof for client "
            f"{proof['client_id']} does not lead to the committed root",
            round_index=proof["round"],
        )
    obs.add("audit.proofs_verified")
