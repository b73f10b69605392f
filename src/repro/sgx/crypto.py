"""Authenticated encryption and key derivation for the simulated enclave.

The real OLIVE system encrypts gradients with AES-GCM under per-client
keys negotiated during remote attestation.  No AES implementation is
available offline, so this module provides an encrypt-then-MAC scheme
built from the standard library:

* keystream: the SHAKE-256 XOF over ``key || nonce``, squeezed to the
  plaintext length and XORed over it;
* tag: HMAC-SHA-256 over ``nonce || ciphertext`` with an independent
  subkey.

There is one AE path, :func:`seal_batch` / :func:`open_batch`: a batch
of messages takes one keystream squeeze and one one-shot
``hmac.digest`` each, and one numpy XOR over all of them.
:func:`seal` and :func:`open_sealed` are its one-message calls.

This preserves every property Algorithm 1 relies on: confidentiality of
gradients in transit, integrity (forged or corrupted ciphertexts are
rejected), and *authenticated-encryption-mode client verification* --
the enclave checks a loaded ciphertext decrypts under the sampled
client's key, so a malicious server cannot inject contributions from
clients outside the securely sampled set.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import os
import struct
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import obs

KEY_BYTES = 32
NONCE_BYTES = 16
TAG_BYTES = 32


class AuthenticationError(Exception):
    """Raised when a ciphertext fails tag verification."""


def generate_key(rng_bytes: bytes | None = None) -> bytes:
    """Fresh 256-bit key (deterministic when seed bytes are supplied)."""
    if rng_bytes is not None:
        return hashlib.sha256(b"key-gen" + rng_bytes).digest()
    return os.urandom(KEY_BYTES)


def derive_key(master: bytes, label: str) -> bytes:
    """HKDF-like labelled subkey derivation."""
    return hmac.new(master, b"derive:" + label.encode(), hashlib.sha256).digest()


@functools.lru_cache(maxsize=65536)
def _subkeys(key: bytes) -> tuple[bytes, bytes]:
    """The (enc, mac) subkey pair of ``key``, cached.

    A client's RA key is fixed for a deployment while seal/open run
    once per round: caching the two HMAC derivations takes them off the
    mega-cohort hot path.  Bounded LRU so 10^6-client runs cannot grow
    without limit.
    """
    return derive_key(key, "enc"), derive_key(key, "mac")


def _xor_streams(enc_keys: Sequence[bytes], nonces: Sequence[bytes],
                 messages: Sequence[bytes]) -> list[bytes]:
    """XOR every message with its SHAKE-256 keystream.

    One XOF squeeze per message, then one numpy XOR over the
    concatenated messages and streams; the XOR is its own inverse, so
    this both encrypts and decrypts.
    """
    lengths = [len(m) for m in messages]
    stream = b"".join(hashlib.shake_256(k + n).digest(length)
                      for k, n, length in zip(enc_keys, nonces, lengths))
    mixed = (np.frombuffer(b"".join(messages), dtype=np.uint8)
             ^ np.frombuffer(stream, dtype=np.uint8)).tobytes()
    out = []
    off = 0
    for length in lengths:
        out.append(mixed[off:off + length])
        off += length
    return out


@dataclass(frozen=True)
class Ciphertext:
    """AE ciphertext: nonce, body, and integrity tag."""

    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        """Wire form: nonce || tag || body."""
        return self.nonce + self.tag + self.body

    @property
    def nbytes(self) -> int:
        """Length of the wire form, without building it."""
        return len(self.nonce) + len(self.tag) + len(self.body)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Ciphertext":
        """Parse the wire form produced by :meth:`to_bytes`."""
        if len(raw) < NONCE_BYTES + TAG_BYTES:
            raise ValueError("ciphertext too short")
        return cls(
            nonce=raw[:NONCE_BYTES],
            tag=raw[NONCE_BYTES : NONCE_BYTES + TAG_BYTES],
            body=raw[NONCE_BYTES + TAG_BYTES :],
        )


def _check_keys(keys: Sequence[bytes]) -> None:
    if any(len(key) != KEY_BYTES for key in keys):
        raise ValueError("key must be 32 bytes")


def seal_batch(keys: Sequence[bytes], plaintexts: Sequence[bytes],
               nonces: Sequence[bytes]) -> list[Ciphertext]:
    """Encrypt-then-MAC each ``plaintexts[i]`` under ``keys[i]`` with
    ``nonces[i]``: one keystream XOR over the batch, one tag each."""
    if not len(keys) == len(plaintexts) == len(nonces):
        raise ValueError("keys, plaintexts and nonces must pair up")
    _check_keys(keys)
    if any(len(nonce) != NONCE_BYTES for nonce in nonces):
        raise ValueError("nonce must be 16 bytes")
    t0 = time.perf_counter() if obs.enabled() else 0.0
    subkeys = [_subkeys(key) for key in keys]
    bodies = _xor_streams([enc for enc, _ in subkeys], nonces, plaintexts)
    sealed = [
        Ciphertext(nonce=nonce, body=body,
                   tag=hmac.digest(mac, nonce + body, "sha256"))
        for (_, mac), nonce, body in zip(subkeys, nonces, bodies)
    ]
    if t0 and sealed:
        # One amortized observation per message, so the histogram
        # counts messages, not batches.
        obs.observe("crypto.seal_s", (time.perf_counter() - t0) / len(sealed),
                    len(sealed))
    return sealed


def open_batch(keys: Sequence[bytes],
               ciphertexts: Sequence[Ciphertext]) -> list[bytes | None]:
    """Verify and decrypt each ``ciphertexts[i]`` under ``keys[i]``.

    A ciphertext whose tag does not verify (constant-time compare) opens
    to ``None``; only the authentic ones are decrypted.
    """
    if len(keys) != len(ciphertexts):
        raise ValueError("keys and ciphertexts must pair up")
    _check_keys(keys)
    t0 = time.perf_counter() if obs.enabled() else 0.0
    subkeys = [_subkeys(key) for key in keys]
    authentic = [
        i for i, ((_, mac), ct) in enumerate(zip(subkeys, ciphertexts))
        if hmac.compare_digest(
            hmac.digest(mac, ct.nonce + ct.body, "sha256"), ct.tag)
    ]
    plaintexts = _xor_streams([subkeys[i][0] for i in authentic],
                              [ciphertexts[i].nonce for i in authentic],
                              [ciphertexts[i].body for i in authentic])
    out: list[bytes | None] = [None] * len(ciphertexts)
    for i, plaintext in zip(authentic, plaintexts):
        out[i] = plaintext
    if t0 and authentic:
        # Amortized per opened message, as in :func:`seal_batch`.
        obs.observe("crypto.unseal_s",
                    (time.perf_counter() - t0) / len(authentic),
                    len(authentic))
    return out


def seal(key: bytes, plaintext: bytes, nonce: bytes | None = None) -> Ciphertext:
    """Encrypt-then-MAC ``plaintext`` under ``key`` (a one-message
    :func:`seal_batch`); ``nonce=None`` draws a random nonce."""
    if nonce is None:
        nonce = os.urandom(NONCE_BYTES)
    return seal_batch([key], [plaintext], [nonce])[0]


def open_sealed(key: bytes, ct: Ciphertext) -> bytes:
    """Verify and decrypt one ciphertext (a one-message
    :func:`open_batch`); raises :class:`AuthenticationError` on forgery."""
    [plaintext] = open_batch([key], [ct])
    if plaintext is None:
        raise AuthenticationError("tag verification failed")
    return plaintext


#: Big-endian (u32 index, f64 value) record after a u32 count -- the
#: exact layout ``struct.pack(">Id", ...)`` produces, so ``tobytes()``
#: of a filled array is byte-identical to the per-record loop it
#: replaces.
_SPARSE_HEADER = np.dtype([("k", ">u4")])
_SPARSE_RECORD = np.dtype([("i", ">u4"), ("v", ">f8")])
#: Big-endian (u32 count, f64 scale) header and (u32 index, i16 level)
#: record of the quantized wire format.
_QUANTIZED_HEADER = np.dtype([("k", ">u4"), ("scale", ">f8")])
_QUANTIZED_RECORD = np.dtype([("i", ">u4"), ("q", ">i2")])


def encode_sparse_gradient(indices, values) -> bytes:
    """Wire format for a sparse gradient: ``k`` records of (u32, f64)."""
    if len(indices) != len(values):
        raise ValueError("indices and values must have equal length")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() > 0xFFFFFFFF):
        raise ValueError("index out of u32 range")
    records = np.empty(idx.size, dtype=_SPARSE_RECORD)
    records["i"] = idx
    records["v"] = np.asarray(values, dtype=np.float64)
    return struct.pack(">I", idx.size) + records.tobytes()


def encode_sparse_gradients_batch(indices, values) -> list[bytes]:
    """Encode a ``(C, k)`` stack of sparse gradients in one pass.

    One record-array fill and one ``tobytes`` replace C per-client
    encodings; each returned payload is byte-identical to
    :func:`encode_sparse_gradient` on the corresponding row.
    """
    idx = np.asarray(indices, dtype=np.int64)
    val = np.asarray(values, dtype=np.float64)
    if idx.shape != val.shape or idx.ndim != 2:
        raise ValueError("indices/values must be equal-shape (C, k) stacks")
    if idx.size and (idx.min() < 0 or idx.max() > 0xFFFFFFFF):
        raise ValueError("index out of u32 range")
    n, k = idx.shape
    records = np.empty((n, k), dtype=_SPARSE_RECORD)
    records["i"] = idx
    records["v"] = val
    header = struct.pack(">I", k)
    blob = records.tobytes()
    stride = k * 12
    return [header + blob[c * stride : (c + 1) * stride] for c in range(n)]


def encode_quantized_gradient(indices, levels, scale: float) -> bytes:
    """Compact wire format for a quantized sparse gradient.

    ``k`` records of (u32 index, i16 level) after a 12-byte (count,
    scale) header -- the bandwidth-saving upload format
    sparsification+quantization exists for (Section 6's 1-3 orders of
    magnitude).
    """
    if len(indices) != len(levels):
        raise ValueError("indices and levels must have equal length")
    idx = np.asarray(indices, dtype=np.int64)
    lev = np.asarray(levels, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() > 0xFFFFFFFF):
        raise ValueError("index out of u32 range")
    if lev.size and (lev.min() < -32768 or lev.max() > 32767):
        raise ValueError("quantization level exceeds 16-bit range")
    records = np.empty(idx.size, dtype=_QUANTIZED_RECORD)
    records["i"] = idx
    records["q"] = lev
    return struct.pack(">Id", idx.size, float(scale)) + records.tobytes()


def _record_tables(
    payloads: Sequence[bytes], header: np.dtype, record: np.dtype, what: str,
) -> tuple[list[tuple[list[int], np.ndarray]], dict[int, ValueError]]:
    """Read payloads as ``(header, k records)`` tables, one per length.

    Payloads of one length share one ``np.frombuffer`` view with fields
    ``"h"`` (the header) and ``"r"`` (``k`` records).  Returns the
    tables as ``(positions in payloads, table)`` pairs, and a
    ``ValueError`` for the position of each payload that is shorter
    than a header or whose length is not ``header + count * record``
    for its own header's count.
    """
    groups: dict[int, list[int]] = {}
    for pos, raw in enumerate(payloads):
        groups.setdefault(len(raw), []).append(pos)
    tables: list[tuple[list[int], np.ndarray]] = []
    errors: dict[int, ValueError] = {}
    for length, positions in groups.items():
        k, rest = divmod(length - header.itemsize, record.itemsize)
        if length < header.itemsize or rest:
            message = (f"truncated {what} payload" if length < header.itemsize
                       else f"{what} payload length mismatch")
            errors.update((pos, ValueError(message)) for pos in positions)
            continue
        table = np.frombuffer(b"".join(payloads[pos] for pos in positions),
                              dtype=np.dtype([("h", header),
                                              ("r", record, (k,))]))
        counted = table["h"]["k"] == k
        if not counted.all():
            errors.update((pos, ValueError(f"{what} payload length mismatch"))
                          for pos, ok in zip(positions, counted) if not ok)
            positions = [pos for pos, ok in zip(positions, counted) if ok]
            table = table[counted]
        tables.append((positions, table))
    return tables, errors


def _one_table(raw: bytes, header: np.dtype, record: np.dtype,
               what: str) -> np.ndarray:
    tables, errors = _record_tables([raw], header, record, what)
    if errors:
        raise errors[0]
    return tables[0][1]


def decode_sparse_gradient(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_sparse_gradient`: int64 indices and
    float64 values, read as one record array."""
    records = _one_table(raw, _SPARSE_HEADER, _SPARSE_RECORD, "gradient")["r"][0]
    return records["i"].astype(np.int64), records["v"].astype(np.float64)


def decode_quantized_gradient(
    raw: bytes,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Inverse of :func:`encode_quantized_gradient`: int64 indices,
    int64 levels and the scale."""
    table = _one_table(raw, _QUANTIZED_HEADER, _QUANTIZED_RECORD, "quantized")
    records = table["r"][0]
    return (records["i"].astype(np.int64), records["q"].astype(np.int64),
            float(table["h"]["scale"][0]))


def decode_gradients(
    payloads: Sequence[bytes], d: int, *, quantized: bool = False,
) -> list[tuple[np.ndarray, np.ndarray] | ValueError]:
    """Decode a batch of uploads to ``(int64 indices, float64 values)``.

    Payloads are in the sparse wire format, or the quantized one when
    ``quantized`` (values are then ``level * scale``).  Payloads of one
    length are read as one record table and checked together: one
    bounds check of the indices against ``[0, d)`` and one ``isfinite``
    over the values (and the quantized scales).  A payload that fails
    any check comes back as the ``ValueError`` naming the fault, in its
    position.
    """
    if quantized:
        header, record, what = _QUANTIZED_HEADER, _QUANTIZED_RECORD, "quantized"
    else:
        header, record, what = _SPARSE_HEADER, _SPARSE_RECORD, "gradient"
    tables, errors = _record_tables(payloads, header, record, what)
    out: list = [None] * len(payloads)
    for pos, exc in errors.items():
        out[pos] = exc
    for positions, table in tables:
        records = table["r"]
        indices = records["i"].astype(np.int64)
        if quantized:
            scale = table["h"]["scale"].astype(np.float64)
            values = records["q"].astype(np.float64) * scale[:, None]
            scale_ok = np.isfinite(scale)
        else:
            values = records["v"].astype(np.float64)
            scale_ok = np.ones(len(positions), dtype=bool)
        finite = np.isfinite(values).all(axis=1)
        # Indices decode from u32, so only the upper end can fail.
        top = (indices.max(axis=1) if indices.shape[1]
               else np.full(len(positions), -1))
        for row, pos in enumerate(positions):
            if top[row] >= d:
                out[pos] = ValueError(f"gradient index {top[row]} outside "
                                      f"a model of {d} weights")
            elif not scale_ok[row]:
                out[pos] = ValueError("non-finite quantization scale")
            elif not finite[row]:
                out[pos] = ValueError("non-finite gradient value")
            else:
                out[pos] = (indices[row], values[row])
    return out
