"""Append-only, hash-chained audit log (JSONL on disk).

Each record commits to its predecessor: ``record["prev"]`` is the
predecessor's record hash and ``record["hash"]`` is the SHA-256 of the
record's own canonical JSON (sorted keys, ``json.dumps``'s default
separators, domain prefix) *excluding* the hash field itself and a
round's logged ``ciphertexts``.  Those bytes (base64, one entry per
accepted client) are bound once, through the round's ``merkle_root``,
which the hashed body carries.  The chain starts from an all-zero
genesis value, so

* editing any record breaks its own hash,
* reordering or dropping an interior record breaks the successor's
  ``prev`` link, and
* truncating the tail is caught by the terminal **seal** record, which
  commits to the head hash and the total round count -- a log without
  its seal (or whose seal disagrees) is treated as truncated.

Record types, in mandatory order: one ``manifest`` (how to rebuild the
recorded run), ``round`` records with consecutive indices from 0, one
``seal``.  The writer serializes each record once -- the canonical
body it hashes is the line it writes, with the ciphertexts and the hash
appended -- and flushes one line per record, so a crashed run leaves a
prefix that still chain-verifies (minus the seal, i.e. detectably
incomplete).

Verification failures raise the distinct exception taxonomy the CLI
maps to exit codes: :class:`AuditChainError` (edited / reordered
records), :class:`AuditTruncationError` (missing or lying seal, round
gaps), :class:`AuditVersionError` (a manifest of another format
version), and -- from :mod:`repro.audit.verify` -- commitment, replay
and proof errors.
"""

from __future__ import annotations

import hashlib
import json
from binascii import b2a_base64
from pathlib import Path

#: Chain value the first record commits to.
GENESIS = "0" * 64

#: Domain prefix mixed into every record hash.
_RECORD_DOMAIN = b"olive-audit-record:"

#: Audit log format version, bumped whenever a log recorded by older
#: code can no longer replay bit-identically.  Version 2: keyed BLAKE2b
#: seed derivation, and an empty Poisson draw releases a noise-only
#: round.  Version 3: the Advanced sort runs its network at exactly
#: nk + d (no power-of-two padding), which changes the fold order of
#: equal indices and so the aggregate bits.  Version 4: the enclave's
#: sampling and noise come from streams keyed on the round index.
#: Version 5: every round's epsilon is charged at q (fault runs
#: committed an under-reported budget before), shards start on live
#: leaves only, and a malformed upload is rejected, not fatal.
#: Version 6: Advanced sorts on unique ``(index, input position)`` keys
#: (merge of the client and dummy runs, compaction for the second
#: sort), which fixes the fold order of equal indices and so changes
#: the aggregate bits.  Version 7: the manifest's ``shards``,
#: ``shards.faults`` and ``olive`` sections lost nine fields no caller
#: varied (``min_shard_quorum``, ``clip_target_quantile`` and the
#: like), and the Advanced fold sums each equal-index run in order
#: instead of differencing one running sum, which changes the
#: aggregate bits.  Version 8: a round's hashed body carries the
#: Merkle root but not the ciphertexts, which ride in the line once, as
#: base64, outside the record hash.
LOG_VERSION = 8


class AuditError(Exception):
    """Base class of every audit-verification failure.

    ``round_index`` names the offending round when one is known --
    the CLI surfaces it so a failing CI gate points at the exact
    round, not just the log.
    """

    exit_code = 1

    def __init__(self, message: str, *, round_index: int | None = None) -> None:
        super().__init__(message)
        self.round_index = round_index


class AuditChainError(AuditError):
    """A record was edited, reordered, or its prev-link is broken."""

    exit_code = 2


class AuditTruncationError(AuditError):
    """The log is incomplete: missing/wrong seal or a round gap."""

    exit_code = 3


class AuditCommitmentError(AuditError):
    """Logged ciphertexts no longer match the round's Merkle root."""

    exit_code = 4


class AuditReplayError(AuditError):
    """Deterministic replay disagrees with a committed aggregate."""

    exit_code = 5


class AuditProofError(AuditError):
    """An inclusion proof failed verification."""

    exit_code = 6


class AuditVersionError(AuditError):
    """The log was written in a format version this code cannot replay."""

    exit_code = 7


#: Fields a record line carries outside its hashed body: the record
#: hash itself, and the ciphertext bytes the body's Merkle root binds.
_UNHASHED = ("hash", "ciphertexts")


def _canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


def _digest(canonical: str) -> str:
    return hashlib.sha256(_RECORD_DOMAIN + canonical.encode()).hexdigest()


def record_hash(record: dict) -> str:
    """Hash of one record's canonical JSON, excluding its own hash and
    its logged ciphertexts."""
    return _digest(_canonical(
        {k: v for k, v in record.items() if k not in _UNHASHED}))


def chain_records(records: list[dict]) -> list[dict]:
    """Fill ``prev``/``hash`` links over bare records (test helper).

    Re-mints the chain from genesis -- exactly what a forger able to
    rewrite the whole file can do, which is why replay verification
    exists on top of chain verification.
    """
    prev = GENESIS
    out = []
    for record in records:
        rec = dict(record)
        rec["prev"] = prev
        rec["hash"] = record_hash(rec)
        prev = rec["hash"]
        out.append(rec)
    return out


class AuditLogWriter:
    """Appends chained records to a JSONL file, one flush per record."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.head = GENESIS
        self.records_written = 0
        self._file = open(self.path, "w")

    def append(self, record: dict,
               ciphertexts: dict[int, bytes] | None = None) -> str:
        """Chain, hash, and persist one record; returns its hash.

        ``ciphertexts`` (client id -> sealed bytes) is written into the
        line as ``{"<id>": "<base64>"}`` beside the hashed body, which
        must bind it (a round's ``merkle_root``).
        """
        if self._file is None:
            raise AuditError("audit log already sealed/closed")
        body = dict(record)
        body["prev"] = self.head
        canonical = _canonical(body)
        digest = _digest(canonical)
        extra = ""
        if ciphertexts is not None:
            # Decimal ids and base64 text need no JSON escaping.
            extra = ', "ciphertexts": {' + ", ".join(
                f'"{int(cid)}": "{b2a_base64(blob, newline=False).decode()}"'
                for cid, blob in ciphertexts.items()) + "}"
        self._file.write(f'{canonical[:-1]}{extra}, "hash": "{digest}"}}\n')
        self._file.flush()
        self.head = digest
        self.records_written += 1
        return digest

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def read_records(path: str | Path) -> list[dict]:
    """Parse a JSONL audit log; malformed lines are a chain failure."""
    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise AuditChainError(
                f"{path}: line {lineno} is not valid JSON ({exc})"
            ) from None
        if not isinstance(record, dict):
            raise AuditChainError(f"{path}: line {lineno} is not a record")
        records.append(record)
    return records


def verify_chain(records: list[dict], require_seal: bool = True) -> None:
    """Structural verification: the manifest's format version, hashes,
    links, ordering, and the seal.

    The version is read first: how a record is hashed is part of the
    format, so a log of another version is refused by its version
    (:class:`AuditVersionError`), not by hashes this code would compute
    differently.
    Raises :class:`AuditChainError`, :class:`AuditVersionError` or
    :class:`AuditTruncationError`; returns ``None`` when the chain is
    intact and complete.
    ``require_seal=False`` tolerates a log that is still being written
    (no terminal seal yet) while checking everything else.
    """
    if not records:
        raise AuditTruncationError("audit log is empty")
    if records[0].get("type") != "manifest":
        raise AuditChainError("first record must be the run manifest")
    version = records[0].get("version")
    if version != LOG_VERSION:
        raise AuditVersionError(
            f"log format version {version!r} is not the supported version "
            f"{LOG_VERSION}; its rounds cannot be replayed by this code"
        )
    prev = GENESIS
    for i, record in enumerate(records):
        if record.get("prev") != prev:
            raise AuditChainError(
                f"record {i} ({record.get('type', '?')}): prev-hash link "
                "broken (record removed, reordered, or edited upstream)",
                round_index=record.get("round"),
            )
        expected = record_hash(record)
        if record.get("hash") != expected:
            raise AuditChainError(
                f"record {i} ({record.get('type', '?')}): stored hash does "
                "not match its contents (record edited in place)",
                round_index=record.get("round"),
            )
        prev = record["hash"]

    rounds = [r for r in records[1:] if r.get("type") == "round"]
    for expected_index, record in enumerate(rounds):
        if record.get("round") != expected_index:
            raise AuditTruncationError(
                f"round records skip from {expected_index - 1} to "
                f"{record.get('round')} (interior rounds missing)",
                round_index=record.get("round"),
            )
    last = records[-1]
    if last.get("type") != "seal":
        if require_seal:
            raise AuditTruncationError(
                "log has no terminal seal record (run still in progress, "
                "crashed, or the tail was truncated)"
            )
        middle = records[1:]
    else:
        if last.get("rounds") != len(rounds):
            raise AuditTruncationError(
                f"seal commits to {last.get('rounds')} round(s) but the "
                f"log holds {len(rounds)} (tail truncated and re-sealed?)"
            )
        middle = records[1:-1]
    if any(r.get("type") != "round" for r in middle):
        raise AuditChainError("unexpected record type inside the chain")
