"""Authenticated encryption and key derivation for the simulated enclave.

The real OLIVE system encrypts gradients with AES-GCM under per-client
keys negotiated during remote attestation.  No AES implementation is
available offline, so this module provides an encrypt-then-MAC scheme
built from the standard library:

* keystream: the SHAKE-256 XOF over ``key || nonce``, squeezed to the
  plaintext length and XORed over it (one C call per message -- the
  mega-cohort seal path is throughput-bound on this);
* tag: HMAC-SHA-256 over ``nonce || ciphertext`` with an independent
  subkey.

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


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    return hashlib.shake_256(key + nonce).digest(length)


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length byte strings (vectorized; order-free op)."""
    return (
        np.frombuffer(data, dtype=np.uint8)
        ^ np.frombuffer(stream, dtype=np.uint8)
    ).tobytes()


@dataclass(frozen=True)
class Ciphertext:
    """AE ciphertext: nonce, body, and integrity tag."""

    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        """Wire form: nonce || tag || body."""
        return self.nonce + self.tag + self.body

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


def seal(key: bytes, plaintext: bytes, nonce: bytes | None = None) -> Ciphertext:
    """Encrypt-then-MAC ``plaintext`` under ``key``."""
    if len(key) != KEY_BYTES:
        raise ValueError("key must be 32 bytes")
    if nonce is None:
        nonce = os.urandom(NONCE_BYTES)
    if len(nonce) != NONCE_BYTES:
        raise ValueError("nonce must be 16 bytes")
    t0 = time.perf_counter() if obs.enabled() else 0.0
    enc_key, mac_key = _subkeys(key)
    stream = _keystream(enc_key, nonce, len(plaintext))
    body = _xor_bytes(plaintext, stream)
    tag = hmac.new(mac_key, nonce + body, hashlib.sha256).digest()
    if t0:
        obs.observe("crypto.seal_s", time.perf_counter() - t0)
    return Ciphertext(nonce=nonce, body=body, tag=tag)


def open_sealed(key: bytes, ct: Ciphertext) -> bytes:
    """Verify and decrypt; raises :class:`AuthenticationError` on forgery."""
    if len(key) != KEY_BYTES:
        raise ValueError("key must be 32 bytes")
    t0 = time.perf_counter() if obs.enabled() else 0.0
    enc_key, mac_key = _subkeys(key)
    expected = hmac.new(mac_key, ct.nonce + ct.body, hashlib.sha256).digest()
    if not hmac.compare_digest(expected, ct.tag):
        raise AuthenticationError("tag verification failed")
    stream = _keystream(enc_key, ct.nonce, len(ct.body))
    plaintext = _xor_bytes(ct.body, stream)
    if t0:
        obs.observe("crypto.unseal_s", time.perf_counter() - t0)
    return plaintext


#: Big-endian (u32 index, f64 value) record -- the exact layout
#: ``struct.pack(">Id", ...)`` produces, so ``tobytes()`` of a filled
#: array is byte-identical to the per-record loop it replaces.
_SPARSE_RECORD = np.dtype([("i", ">u4"), ("v", ">f8")])


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


def decode_sparse_gradient(raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_sparse_gradient`: int64 indices and
    float64 values, read as one record array."""
    if len(raw) < 4:
        raise ValueError("truncated gradient payload")
    (k,) = struct.unpack_from(">I", raw)
    if len(raw) != 4 + k * _SPARSE_RECORD.itemsize:
        raise ValueError("gradient payload length mismatch")
    records = np.frombuffer(raw, _SPARSE_RECORD, count=k, offset=4)
    return records["i"].astype(np.int64), records["v"].astype(np.float64)


#: Header (u32 count, f64 scale) and big-endian (u32 index, i16 level)
#: record of the quantized wire format.
_QUANTIZED_HEADER = struct.Struct(">Id")
_QUANTIZED_RECORD = np.dtype([("i", ">u4"), ("q", ">i2")])


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
    return _QUANTIZED_HEADER.pack(idx.size, float(scale)) + records.tobytes()


def decode_quantized_gradient(
    raw: bytes,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Inverse of :func:`encode_quantized_gradient`: int64 indices,
    int64 levels and the scale."""
    if len(raw) < _QUANTIZED_HEADER.size:
        raise ValueError("truncated quantized payload")
    k, scale = _QUANTIZED_HEADER.unpack_from(raw)
    if len(raw) != _QUANTIZED_HEADER.size + k * _QUANTIZED_RECORD.itemsize:
        raise ValueError("quantized payload length mismatch")
    records = np.frombuffer(raw, _QUANTIZED_RECORD, count=k,
                            offset=_QUANTIZED_HEADER.size)
    return (records["i"].astype(np.int64), records["q"].astype(np.int64),
            scale)
