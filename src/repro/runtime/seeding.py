"""Deterministic per-task seed derivation.

Every source of randomness in a run -- the local-SGD batch order, the
``random_k`` sparsifier, QSGD stochastic quantization, the model's
dropout masks, the fault injector's coin flips, the encryption nonce,
and the enclave's secure sampling, Gaussian noise and DH secret -- is
derived from one base entropy plus a structured key ``(stream, round,
client, ...)`` through one documented keyed function:

* the identity is encoded as ``u32le(len(e)) || e || u64le(stream) ||
  u64le(k)`` for each key word ``k``, where ``e`` is the entropy as a
  minimal-length little-endian byte string (empty for 0);
* its state is ``BLAKE2b-256`` of that encoding (RFC 7693,
  ``hashlib.blake2b(digest_size=32)``);
* a Generator is ``PCG64`` seeded with the state's four little-endian
  uint64 words, and a nonce is the state's first 16 bytes.

The length prefix makes the encoding injective: no two identities hash
the same input, so streams partition the namespace and, e.g., the fault
injector's draws can never collide with the training stream of the same
``(round, client)`` pair.  Because the derivation depends only on
*identity* (which round, which client) and never on execution order,
chunking, or retries, every client's :class:`LocalUpdate` is
bit-identical to training it alone -- the property BlazeFL calls
simulation-reproducibility -- and an auditor can recompute any stream
from the published record with nothing but ``hashlib`` and numpy.
"""

from __future__ import annotations

import hashlib
import operator
import struct

import numpy as np
from numpy.random.bit_generator import ISeedSequence

#: Stream indices: the first key word, one per randomness consumer.
#: Never renumber -- results are pinned by tests.
STREAM_TRAIN = 0    # local-SGD batch order, random_k, quantization
STREAM_MODEL = 1    # dropout-layer masks (one sub-stream per layer)
STREAM_FAULT = 2    # fault-injector coin flips and delay draws
STREAM_NONCE = 3    # per-(round, client) encryption nonce
STREAM_TEACHER = 4  # attack teacher replay (round, label, shard)
STREAM_ENCLAVE = 5  # server-side enclave faults (round, shard, attempt)
STREAM_SAMPLE = 6   # enclave Poisson sampling of round r's cohort (round)
STREAM_NOISE = 7    # enclave Gaussian noise of round r's release (round)
STREAM_DH = 8       # the enclave's Diffie-Hellman secret (no key words)


def seed_state(entropy: int, stream: int, *key: int) -> bytes:
    """The 32-byte state identified by ``(entropy, stream, *key)``.

    ``entropy`` is any non-negative integer; ``stream`` and every key
    word must lie in ``[0, 2**64)``, else :class:`ValueError`.
    """
    entropy = operator.index(entropy)
    try:
        ent = entropy.to_bytes((entropy.bit_length() + 7) // 8, "little")
        words = struct.pack(f"<{len(key) + 1}Q", stream, *key)
    except (OverflowError, struct.error):
        raise ValueError(
            f"seed entropy must be >= 0 and key words in [0, 2**64), got "
            f"entropy={entropy}, key={(stream, *key)}"
        ) from None
    encoding = len(ent).to_bytes(4, "little") + ent + words
    return hashlib.blake2b(encoding, digest_size=32).digest()


class _StateSeed(ISeedSequence):
    """Hands a derived state to a BitGenerator as its seed words.

    PCG64 only calls ``generate_state(4, uint64)`` on the seed object it
    is given, so the keyed state seeds it directly.
    """

    __slots__ = ("_words",)

    def __init__(self, state: bytes) -> None:
        self._words = np.frombuffer(state, "<u8").astype(np.uint64,
                                                         copy=False)

    def generate_state(self, n_words, dtype=np.uint32):
        # `is` fast path: PCG64 passes the np.uint64 type object itself.
        wide = dtype is np.uint64 or np.dtype(dtype) == np.uint64
        words = self._words if wide else self._words.view(np.uint32)
        if len(words) != n_words:
            raise ValueError(f"derived seed holds {len(words)} words, "
                             f"caller wants {n_words}")
        return words


def derive_rng(entropy: int, stream: int, *key: int) -> np.random.Generator:
    """A fresh Generator on the ``(entropy, stream, *key)`` stream."""
    state = seed_state(entropy, stream, *key)
    return np.random.Generator(np.random.PCG64(_StateSeed(state)))


def derive_nonce(entropy: int, round_index: int, client_id: int) -> bytes:
    """A deterministic 16-byte encryption nonce per ``(round, client)``.

    Unique per message (the key namespace guarantees no two jobs share
    a ``(round, client)`` pair within a deployment), so keystream reuse
    cannot occur; determinism makes whole ciphertexts replayable
    bit-for-bit across chunkings and re-runs.
    """
    return seed_state(entropy, STREAM_NONCE, round_index, client_id)[:16]
