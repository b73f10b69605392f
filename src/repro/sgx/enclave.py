"""Enclave runtime: the trust boundary of the simulated TEE.

Models the pieces of Intel SGX that OLIVE's protocol depends on:

* a *measurement*-identified isolated runtime (see
  :mod:`repro.sgx.attestation`);
* a sealed per-client :class:`KeyStore` populated during provisioning
  (Algorithm 1, line 1);
* *secure client sampling* performed inside the enclave from
  enclave-private entropy (line 4), so the untrusted server can neither
  bias nor predict the sampled set;
* AE-mode verification of loaded gradients against the sampled set
  (lines 7-11): contributions from unsampled clients or ciphertexts
  that fail authentication are rejected;
* an EPC budget: allocations beyond ``epc_bytes`` are still permitted
  (Linux SGX pages transparently) but are flagged so the cost model can
  charge paging penalties.

Memory allocated through :meth:`Enclave.alloc` is traced: the adversary
observes its access pattern as the trace's columns, coarsened to its
granularity by :func:`repro.sgx.observer.coarsen`.

Round r's enclave randomness -- the Poisson sample and the Gaussian
noise -- is a pure function of ``(entropy, r)``: each draw comes from a
fresh keyed stream (:func:`repro.runtime.seeding.derive_rng`), never
from a sequential RNG.  A resumed run therefore continues the
trajectory it left, and a round the untrusted host aborts re-draws the
same cohort when it is retried.
"""

from __future__ import annotations

import hashlib
import secrets
import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .. import obs
from . import crypto
from .attestation import (
    _DH_GENERATOR,
    AttestationService,
    DiffieHellman,
    FixedBase,
    Quote,
    client_attest,
    comb_window,
    measure,
)
from .memory import RegionLayout, Trace, TracedArray

DEFAULT_EPC_BYTES = 96 * 1024 * 1024

#: Version tag of the sealed round-state checkpoint wire format.
CHECKPOINT_MAGIC = b"OLVCKPT1"


def _seeding():
    # Imported lazily: repro.runtime imports this module at package load,
    # so a top-level import here would be circular.
    from ..runtime import seeding

    return seeding


class EnclaveSecurityError(Exception):
    """A protocol violation detected inside the enclave (abort round).

    ``reason`` is a stable machine-readable label (``"unsampled"``,
    ``"duplicate"``, ``"replay"``, ``"corrupt"``, ``"malformed"``,
    ``"checkpoint"``, ``"attestation"``) so callers -- the cohort
    runtime's failure-reason accounting and the shard coordinator's
    dedup-vs-reject decisions -- can adjudicate without parsing the
    message.
    """

    def __init__(self, message: str, *, reason: str = "security") -> None:
        super().__init__(message)
        self.reason = reason


@dataclass
class KeyStore:
    """Sealed key-value store mapping client id -> RA shared key."""

    _keys: dict[int, bytes] = field(default_factory=dict)

    def put(self, client_id: int, key: bytes) -> None:
        """Seal one client's RA key."""
        self._keys[client_id] = key
        obs.add("enclave.keys_sealed")
        obs.add("enclave.bytes_sealed", len(key))

    def get(self, client_id: int) -> bytes:
        """Retrieve one client's RA key; unknown clients raise."""
        if client_id not in self._keys:
            raise EnclaveSecurityError(f"no RA key for client {client_id}")
        return self._keys[client_id]

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._keys

    def __len__(self) -> int:
        return len(self._keys)


class Enclave:
    """A provisioned enclave instance.

    Parameters
    ----------
    code_identity:
        Bytes identifying the enclave binary; hashed into the
        measurement that clients verify during RA.
    attestation_service:
        The trusted quoting service shared with clients.
    epc_bytes:
        Usable EPC size; allocations beyond it mark the enclave as
        oversubscribed (paging cost applies in the cost model).
    seed:
        The enclave's private entropy, from which its sampling, noise
        and DH secret are derived; ``None`` draws 256 bits from the OS.
        A fixed seed stands for sealed entropy, so runs replay.
    """

    def __init__(
        self,
        code_identity: bytes = b"olive-aggregator-v1",
        attestation_service: AttestationService | None = None,
        epc_bytes: int = DEFAULT_EPC_BYTES,
        seed: int | None = None,
    ) -> None:
        self.code_identity = code_identity
        self.measurement = measure(code_identity)
        self.attestation_service = attestation_service or AttestationService()
        self.epc_bytes = epc_bytes
        self.keystore = KeyStore()
        self.trace = Trace()
        self.layout = RegionLayout()
        seeding = _seeding()
        self._entropy = secrets.randbits(256) if seed is None else seed
        self._dh = DiffieHellman(secret=int.from_bytes(
            seeding.seed_state(self._entropy, seeding.STREAM_DH), "big"))
        self._allocated_bytes = 0
        self._region_counter = 0
        self._sampled: set[int] = set()
        # Per-round replay defence: which clients already contributed
        # and the digests of accepted ciphertexts.  Both reset at the
        # next secure sampling (a new round).
        self._loaded_clients: set[int] = set()
        self._seen_digests: set[bytes] = set()

    # ------------------------------------------------------------------
    # Attestation / provisioning
    # ------------------------------------------------------------------
    def quote(self) -> Quote:
        """Produce a signed quote carrying the enclave's DH share."""
        return self.attestation_service.sign_quote(self.measurement, self._dh.public)

    def complete_ra(self, client_id: int, client_dh_public: int) -> None:
        """Finish RA with one client and seal the shared key."""
        key = self._dh.shared_key(client_dh_public)
        self.keystore.put(client_id, key)

    def attest_peer(self, quote: Quote) -> bytes:
        """Mutually attest a *peer enclave* and derive a channel key.

        The sharded aggregation service runs leaf and root enclaves of
        the same binary; before sealed partial aggregates (or replicated
        keystore entries) cross between them, each side verifies the
        other's quote against its **own** measurement -- only an enclave
        running identical code is trusted -- and derives the shared DH
        key for the leaf<->root channel.  Raises
        :class:`EnclaveSecurityError` on a forged quote or a
        measurement mismatch.
        """
        if not self.attestation_service.verify_quote(quote):
            obs.add("enclave.peer_attestations_failed")
            raise EnclaveSecurityError(
                "peer quote signature invalid", reason="attestation"
            )
        if quote.measurement != self.measurement:
            obs.add("enclave.peer_attestations_failed")
            raise EnclaveSecurityError(
                "peer enclave measurement mismatch", reason="attestation"
            )
        obs.add("enclave.peer_attestations")
        return self._dh.shared_key(quote.dh_public)

    def replicate_keys_to(self, peer: "Enclave") -> None:
        """Migrate the sealed keystore to an attested sibling enclave.

        Models SGX sealed-key migration: the transfer is only permitted
        after mutual attestation succeeds (identical measurement on the
        shared platform), which is what lets every leaf enclave decrypt
        any client's upload -- the property shard failover depends on.
        """
        self.attest_peer(peer.quote())
        peer.attest_peer(self.quote())
        for cid, key in self.keystore._keys.items():
            peer.keystore.put(cid, key)

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def alloc(self, length: int, itemsize: int = 8, name: str | None = None) -> TracedArray:
        """Allocate a traced region inside the enclave."""
        if name is None:
            name = f"region{self._region_counter}"
        self._region_counter += 1
        self.layout.add(name, max(length, 1), itemsize)
        self._allocated_bytes += length * itemsize
        obs.add("enclave.alloc_bytes", length * itemsize)
        if self.oversubscribed:
            obs.add("enclave.epc_oversubscriptions")
        return TracedArray.zeros(name, length, trace=self.trace, itemsize=itemsize)

    @property
    def allocated_bytes(self) -> int:
        """Bytes currently allocated inside the enclave."""
        return self._allocated_bytes

    @property
    def oversubscribed(self) -> bool:
        """True when allocations exceed the EPC (paging territory)."""
        return self._allocated_bytes > self.epc_bytes

    def reset_trace(self) -> None:
        """Start a fresh observation window (new round)."""
        self.trace = Trace()
        self.layout = RegionLayout()
        self._allocated_bytes = 0
        self._region_counter = 0

    # ------------------------------------------------------------------
    # Secure sampling and client verification (Algorithm 1, lines 4-11)
    # ------------------------------------------------------------------
    def begin_round(self, sampled: Iterable[int] | None = None) -> None:
        """Reset the per-round replay-defence state explicitly.

        Round drivers call this at the top of every round.  Secure
        sampling does it implicitly, but replay- or audit-driven rounds
        (and shard leaves, whose sampled set arrives from the root over
        the attested channel instead of being drawn locally) skip
        resampling -- without an explicit reset they would inherit the
        previous round's accepted-digest set and wrongly reject honest
        re-contributions.

        ``sampled``, when given, installs the round's participant set
        (the leaf-enclave case); ``None`` leaves the current set alone.
        """
        self._loaded_clients = set()
        self._seen_digests = set()
        if sampled is not None:
            self._sampled = {int(cid) for cid in sampled}
        obs.add("enclave.rounds_begun")

    def sample_clients(self, population: Sequence[int], rate: float,
                       round_index: int) -> list[int]:
        """Poisson-sample round ``round_index``'s participants.

        Each client is included independently with probability ``rate``
        -- the inclusion the DP accountant charges for -- so the draw
        may be empty; the round then releases noise only.  The draw is
        keyed on the round: sampling round r again (a retry after an
        abort, a resumed run) yields the same cohort.
        """
        if not 0.0 < rate <= 1.0:
            raise ValueError("sampling rate must be in (0, 1]")
        with obs.span("ecall.sample_clients", hist="ecall.wall_s",
                      population=len(population)):
            seeding = _seeding()
            rng = seeding.derive_rng(self._entropy, seeding.STREAM_SAMPLE,
                                     round_index)
            keep = rng.random(len(population)) < rate
            sampled = [population[i] for i in np.flatnonzero(keep)]
            self.begin_round(sampled=sampled)
        return sampled

    @property
    def sampled_clients(self) -> set[int]:
        """This round's securely sampled participant set."""
        return set(self._sampled)

    def _guard_upload(
        self, client_id: int, ciphertext: crypto.Ciphertext
    ) -> bytes:
        """Replay defence, checked *before* spending a decryption.

        One contribution per sampled client per round, and no
        ciphertext may be accepted twice -- a replayed (or duplicated)
        upload would double a client's weight in the aggregate.
        """
        if client_id not in self._sampled:
            obs.add("enclave.gradients_rejected")
            raise EnclaveSecurityError(
                f"client {client_id} was not securely sampled this round",
                reason="unsampled",
            )
        digest = hashlib.sha256(ciphertext.to_bytes()).digest()
        if client_id in self._loaded_clients:
            obs.add("enclave.gradients_rejected")
            obs.add("runtime.rejected")
            raise EnclaveSecurityError(
                f"client {client_id} already contributed this round",
                reason="duplicate",
            )
        if digest in self._seen_digests:
            obs.add("enclave.gradients_rejected")
            obs.add("runtime.rejected")
            raise EnclaveSecurityError(
                f"client {client_id}: replayed ciphertext", reason="replay"
            )
        return digest

    def _record_upload(self, client_id: int, digest: bytes) -> None:
        """Mark an upload accepted (only after successful decryption)."""
        self._loaded_clients.add(client_id)
        self._seen_digests.add(digest)

    # ------------------------------------------------------------------
    # Partial-aggregate combination (root enclave of the sharded service)
    # ------------------------------------------------------------------
    def has_digest(self, digest: bytes) -> bool:
        """True when ``digest`` was already accepted this round."""
        return digest in self._seen_digests

    def record_partial(self, digest: bytes, client_ids: Iterable[int]) -> None:
        """Accept one shard's sealed partial aggregate into this round.

        The cross-shard double-count defence of the root enclave: a
        partial whose digest was already combined is a replay, and a
        partial covering a client another shard already accounted for
        would double that client's weight.  Both raise
        :class:`EnclaveSecurityError`; the coordinator treats the
        replay case as "already combined" when resuming after a root
        restart.
        """
        ids = {int(cid) for cid in client_ids}
        if digest in self._seen_digests:
            obs.add("enclave.partials_rejected")
            raise EnclaveSecurityError(
                "partial aggregate already combined this round",
                reason="replay",
            )
        overlap = self._loaded_clients.intersection(ids)
        if overlap:
            obs.add("enclave.partials_rejected")
            raise EnclaveSecurityError(
                f"clients {sorted(overlap)[:4]} appear in multiple shard "
                "partials", reason="duplicate",
            )
        self._seen_digests.add(digest)
        self._loaded_clients.update(ids)
        obs.add("enclave.partials_combined")

    # ------------------------------------------------------------------
    # Sealed round-state checkpoints (crash recovery / shard failover)
    # ------------------------------------------------------------------
    def _sealing_key(self) -> bytes:
        """The MRENCLAVE-policy sealing key of this enclave binary."""
        return self.attestation_service.sealing_key(self.measurement)

    def export_round_state(
        self, round_index: int = 0, partial: np.ndarray | None = None
    ) -> crypto.Ciphertext:
        """Seal the round's recovery state for crash/failover restart.

        The checkpoint captures everything a restarted (or failed-over)
        enclave needs to resume mid-round without double-counting or
        losing accepted uploads: the sampled set, the accepted-client
        set, the accepted-ciphertext digest set, and -- for aggregating
        enclaves -- the partial aggregate.  It is sealed under the
        platform's MRENCLAVE sealing key, so only an enclave running
        the identical binary on the same platform can restore it; the
        untrusted host that stores checkpoints between crashes sees
        only ciphertext.
        """
        with obs.span("ecall.export_state", hist="ecall.wall_s",
                      round=round_index):
            parts = [CHECKPOINT_MAGIC, struct.pack(">I", int(round_index))]
            for ids in (sorted(self._sampled), sorted(self._loaded_clients)):
                parts.append(struct.pack(">I", len(ids)))
                parts.append(np.asarray(ids, dtype=">u8").tobytes())
            digests = sorted(self._seen_digests)
            parts.append(struct.pack(">I", len(digests)))
            parts.extend(digests)
            if partial is None:
                parts.append(struct.pack(">BI", 0, 0))
            else:
                arr = np.ascontiguousarray(partial, dtype=np.float64)
                parts.append(struct.pack(">BI", 1, arr.size))
                parts.append(arr.tobytes())
            payload = b"".join(parts)
            # Deterministic SIV-style nonce: a function of the sealed
            # state itself, so checkpoint bytes (and therefore whole
            # recovered rounds) replay bit-identically.
            nonce = hashlib.sha256(b"ckpt-nonce:" + payload).digest()[:16]
            ciphertext = crypto.seal(self._sealing_key(), payload, nonce=nonce)
            obs.add("enclave.checkpoints_exported")
            obs.add("enclave.checkpoint_bytes", len(ciphertext.to_bytes()))
            return ciphertext

    def restore_round_state(
        self, checkpoint: crypto.Ciphertext
    ) -> tuple[int, np.ndarray | None]:
        """Restore sealed round state; returns ``(round, partial)``.

        Only a checkpoint sealed by an enclave with the same
        measurement on the same platform unseals; anything else --
        tampered bytes, a different binary, a different platform --
        raises :class:`EnclaveSecurityError` (``reason="checkpoint"``).
        """
        with obs.span("ecall.restore_state", hist="ecall.wall_s"):
            try:
                payload = crypto.open_sealed(self._sealing_key(), checkpoint)
            except crypto.AuthenticationError as exc:
                obs.add("enclave.checkpoints_rejected")
                raise EnclaveSecurityError(
                    "checkpoint failed unsealing (tampered, wrong "
                    "measurement, or wrong platform)", reason="checkpoint"
                ) from exc
            if payload[:8] != CHECKPOINT_MAGIC:
                obs.add("enclave.checkpoints_rejected")
                raise EnclaveSecurityError(
                    "unrecognized checkpoint format", reason="checkpoint"
                )
            off = len(CHECKPOINT_MAGIC)
            (round_index,) = struct.unpack_from(">I", payload, off)
            off += 4
            id_sets: list[set[int]] = []
            for _ in range(2):
                (count,) = struct.unpack_from(">I", payload, off)
                off += 4
                ids = np.frombuffer(payload, dtype=">u8", count=count,
                                    offset=off)
                off += 8 * count
                id_sets.append({int(v) for v in ids})
            (count,) = struct.unpack_from(">I", payload, off)
            off += 4
            digests = {payload[off + 32 * i: off + 32 * (i + 1)]
                       for i in range(count)}
            off += 32 * count
            has_partial, size = struct.unpack_from(">BI", payload, off)
            off += 5
            partial = None
            if has_partial:
                partial = np.frombuffer(
                    payload, dtype=np.float64, count=size, offset=off
                ).copy()
            self._sampled, self._loaded_clients = id_sets
            self._seen_digests = digests
            obs.add("enclave.checkpoints_restored")
            return int(round_index), partial

    def load_gradient(
        self, client_id: int, ciphertext: crypto.Ciphertext, d: int,
        quantize_bits: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decrypt, verify and decode one client contribution.

        Rejects clients outside the sampled set and ciphertexts that
        fail AE verification -- the injection defence of Algorithm 1
        line 8 -- and authenticated payloads that do not decode to
        indices in ``[0, d)``, in the quantized wire format when
        ``quantize_bits`` is set.  Each raises
        :class:`EnclaveSecurityError` before the upload is accepted.
        """
        with obs.span("ecall.load_gradient", hist="ecall.wall_s",
                      client=client_id):
            digest = self._guard_upload(client_id, ciphertext)
            key = self.keystore.get(client_id)
            try:
                payload = crypto.open_sealed(key, ciphertext)
            except crypto.AuthenticationError as exc:
                obs.add("enclave.gradients_rejected")
                raise EnclaveSecurityError(
                    f"client {client_id}: gradient failed authentication",
                    reason="corrupt",
                ) from exc
            try:
                if quantize_bits is None:
                    indices, values = crypto.decode_sparse_gradient(payload)
                else:
                    indices, levels, scale = \
                        crypto.decode_quantized_gradient(payload)
                    values = levels.astype(np.float64) * scale
                # Indices decode from u32, so only the upper end can fail.
                if indices.size and indices.max() >= d:
                    raise ValueError(
                        f"gradient index {indices.max()} outside a model "
                        f"of {d} weights")
            except ValueError as exc:
                obs.add("enclave.gradients_rejected")
                raise EnclaveSecurityError(
                    f"client {client_id}: malformed gradient ({exc})",
                    reason="malformed",
                ) from exc
            self._record_upload(client_id, digest)
            obs.add("enclave.gradients_loaded")
            obs.add("enclave.bytes_decrypted", len(ciphertext.body))
            return indices, values

    # ------------------------------------------------------------------
    # Enclave-private randomness (DP noise must be drawn inside)
    # ------------------------------------------------------------------
    def gauss_vector(self, sigma: float, length: int,
                     round_index: int) -> np.ndarray:
        """Round ``round_index``'s enclave-private N(0, sigma^2) noise."""
        with obs.span("ecall.gauss_vector", hist="ecall.wall_s",
                      length=length):
            seeding = _seeding()
            rng = seeding.derive_rng(self._entropy, seeding.STREAM_NOISE,
                                     round_index)
            return rng.standard_normal(length) * sigma


def provision_enclave_with_clients(
    enclave: Enclave, client_ids: Iterable[int]
) -> dict[int, bytes]:
    """Run RA for every client; returns client-side session keys.

    Each client verifies the quote's signature and the enclave's
    measurement and range-checks the enclave's DH share; the enclave
    range-checks each client's share and seals the key.  Both bases a
    client raises its secret to -- the generator and the one share in
    the quote -- are fixed for the batch, so each gets one comb table
    (window :func:`~repro.sgx.attestation.comb_window` of the batch
    size, or none for batches too small to repay one) that lives for
    this call; only the enclave's ``pow(share_i, b, p)`` is a full
    modexp per client.
    """
    client_ids = list(client_ids)
    quote = enclave.quote()
    keys: dict[int, bytes] = {}
    window = comb_window(len(client_ids))
    generator = quote_share = None
    if window is not None:
        generator = FixedBase(_DH_GENERATOR, window)
        quote_share = FixedBase(quote.dh_public, window)
    for cid in client_ids:
        dh = DiffieHellman(generator=generator)
        keys[cid] = client_attest(enclave.attestation_service, quote,
                                  enclave.measurement, dh, quote_share)
        enclave.complete_ra(cid, dh.public)
    return keys
