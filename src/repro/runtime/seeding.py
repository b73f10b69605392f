"""Deterministic per-task seed derivation for the cohort runtime.

Every source of client-side randomness -- the local-SGD batch order,
the ``random_k`` sparsifier, QSGD stochastic quantization, the model's
dropout masks, the fault injector's coin flips, and the encryption
nonce -- is derived from one base entropy plus a structured key
``(stream, round, client, ...)`` through :class:`numpy.random.SeedSequence`.
Because the derivation depends only on *identity* (which round, which
client) and never on execution order, chunking, or retries, every
client's :class:`LocalUpdate` is bit-identical to training it alone:
the property BlazeFL calls simulation-reproducibility, and the one the
determinism suite in ``tests/test_runtime.py`` pins.

Streams partition the derived namespace so that, e.g., the fault
injector's draws can never collide with (and therefore perturb) the
training stream of the same ``(round, client)`` pair.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

#: Stream indices: the first spawn-key component, one per randomness
#: consumer.  Never renumber -- results are pinned by tests.
STREAM_TRAIN = 0    # local-SGD batch order, random_k, quantization
STREAM_MODEL = 1    # dropout-layer masks (one sub-stream per layer)
STREAM_FAULT = 2    # fault-injector coin flips and delay draws
STREAM_NONCE = 3    # per-(round, client) encryption nonce
STREAM_TEACHER = 4  # attack teacher replay (round, label, shard)
STREAM_ENCLAVE = 5  # server-side enclave faults (round, shard, attempt)


def seed_sequence(entropy: int, stream: int, *key: int) -> np.random.SeedSequence:
    """The SeedSequence identified by ``(entropy, stream, *key)``.

    ``key`` components must be non-negative integers (SeedSequence
    spawn keys are uint32 words).
    """
    if key and min(key) < 0:
        raise ValueError(f"seed key components must be >= 0, got {key}")
    return np.random.SeedSequence(entropy=entropy, spawn_key=(stream, *key))


def derive_rng(entropy: int, stream: int, *key: int) -> np.random.Generator:
    """A fresh Generator on the ``(entropy, stream, *key)`` stream."""
    return np.random.default_rng(seed_sequence(entropy, stream, *key))


def derive_nonce(entropy: int, round_index: int, client_id: int) -> bytes:
    """A deterministic 16-byte encryption nonce per ``(round, client)``.

    Unique per message (the key namespace guarantees no two jobs share
    a ``(round, client)`` pair within a deployment), so keystream reuse
    cannot occur; determinism makes whole ciphertexts replayable
    bit-for-bit across chunkings and re-runs.
    """
    seq = seed_sequence(entropy, STREAM_NONCE, round_index, client_id)
    return seq.generate_state(4, np.uint32).tobytes()


# ----------------------------------------------------------------------
# Batched (mega-cohort) derivation
# ----------------------------------------------------------------------
#
# Deriving one Generator per client through SeedSequence is a fixed
# per-client cost (~30 us each: entropy-pool mixing, state generation,
# PCG64 init) that caps the batched cohort's speedup once training
# itself is batched.  The functions below reimplement SeedSequence's
# entropy-mixing and state-generation loops as uint32 numpy ops over a
# *stack* of spawn keys that differ only in the client-id word.  The
# hash/mix constants evolve identically for every client (they depend
# only on word position, never on word value), so they stay scalars
# while the pool columns vectorize across clients -- one pass derives
# the whole cohort's states, bit-identical to per-client SeedSequence
# (pinned against numpy in the equivalence suite).
#
# The column pass has a fixed cost (its Python-level loops run per pool
# word, not per client), so small cohorts derive per client instead.

#: Cohorts smaller than this take the per-client SeedSequence path.
#: Measured on a 2-core Intel Xeon with numpy 2.4: the column pass costs
#: ~210 us whatever the cohort size, a scalar derivation ~14 us per
#: client (Generator) or ~11 us (nonce), so the pass wins from about 16
#: clients.  A one-client chunk (``vector_chunk=1``) falls below.
MIN_BATCH_DERIVATION = 16

_INIT_A = np.uint32(0x43B0D7E5)
_MULT_A = np.uint32(0x931E8875)
_INIT_B = np.uint32(0x8B51F9DD)
_MULT_B = np.uint32(0x58F38DED)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4


def _uint32_words(value: int) -> list[int]:
    """``value`` as little-endian uint32 words (SeedSequence coercion)."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _assembled_words(
    entropy: int, prefix: tuple[int, ...], variable: np.ndarray,
    suffix: tuple[int, ...],
) -> np.ndarray:
    """The ``(C, k)`` assembled-entropy stack for C spawn keys.

    Row ``c`` holds what ``SeedSequence(entropy,
    spawn_key=(*prefix, variable[c], *suffix)).get_assembled_entropy()``
    would: the entropy words zero-padded to the pool size (numpy does
    this whenever a spawn key is present, to keep spawn keys from
    aliasing entropy words), then the spawn-key words.
    """
    ew = _uint32_words(entropy)
    if len(ew) < _POOL_SIZE:
        ew = ew + [0] * (_POOL_SIZE - len(ew))
    cols: list[int | None] = [*ew, *prefix, None, *suffix]
    words = np.empty((len(variable), len(cols)), dtype=np.uint32)
    for j, col in enumerate(cols):
        words[:, j] = variable if col is None else col
    return words


def _hash_step(
    value: np.ndarray, hash_const: np.uint32
) -> tuple[np.ndarray, np.uint32]:
    """One hash of the mixing PRF; returns (hashed, advanced const)."""
    value = value ^ hash_const
    hash_const = np.uint32(hash_const * _MULT_A)
    value = value * hash_const
    value ^= value >> _XSHIFT
    return value, hash_const


def _mix_columns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix(): multiply-subtract then xor-shift."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    result ^= result >> _XSHIFT
    return result


def _mix_entropy_batch(words: np.ndarray) -> np.ndarray:
    """Vectorized SeedSequence.mix_entropy over a ``(C, k)`` stack.

    The hash constant is threaded through every hash call in numpy's
    exact order: pool fill, then a fresh hash per (src, dst) pair in
    both the inter-mix loop and the extra-entropy loop.
    """
    n, k = words.shape
    pool = np.zeros((n, _POOL_SIZE), dtype=np.uint32)
    with np.errstate(over="ignore"):
        hash_const = _INIT_A
        zero = np.zeros(n, dtype=np.uint32)
        for i in range(_POOL_SIZE):
            src = words[:, i] if i < k else zero
            pool[:, i], hash_const = _hash_step(src, hash_const)
        for i_src in range(_POOL_SIZE):
            for i_dst in range(_POOL_SIZE):
                if i_src != i_dst:
                    h, hash_const = _hash_step(pool[:, i_src], hash_const)
                    pool[:, i_dst] = _mix_columns(pool[:, i_dst], h)
        for i_src in range(_POOL_SIZE, k):
            for i_dst in range(_POOL_SIZE):
                h, hash_const = _hash_step(words[:, i_src], hash_const)
                pool[:, i_dst] = _mix_columns(pool[:, i_dst], h)
    return pool


def _generate_state_batch(pool: np.ndarray, n_words: int) -> np.ndarray:
    """Vectorized SeedSequence.generate_state: ``(C, n_words)`` uint32."""
    out = np.empty((pool.shape[0], n_words), dtype=np.uint32)
    with np.errstate(over="ignore"):
        hash_const = _INIT_B
        for i in range(n_words):
            value = pool[:, i % _POOL_SIZE] ^ hash_const
            hash_const = np.uint32(hash_const * _MULT_B)
            value = value * hash_const
            value ^= value >> _XSHIFT
            out[:, i] = value
    return out


class _PrecomputedSeedSequence(ISeedSequence):
    """Hands a pre-derived state row to a BitGenerator.

    PCG64 only calls ``generate_state(4, uint64)`` on the seed object it
    is given; supplying the row computed by the batch path skips the
    per-client pool mixing entirely.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # `is` fast path: PCG64 passes the np.uint64 type object itself.
        wide = dtype is np.uint64 or np.dtype(dtype) == np.uint64
        words = self._words if wide else self._words.view(np.uint32)
        if len(words) != n_words:
            raise ValueError(f"precomputed seed holds {len(words)} words, "
                             f"caller wants {n_words}")
        return words


def _batch_ids(
    stream: int, key: tuple[int, ...], client_ids,
) -> np.ndarray | None:
    """Validate key components and coerce ``client_ids`` to uint32.

    None sends the caller down the per-client scalar path: for cohorts
    under :data:`MIN_BATCH_DERIVATION`, and when any component exceeds
    uint32 (SeedSequence coerces such values to multiple words -- a
    rarity not worth vectorizing).
    """
    ids = np.asarray(client_ids, dtype=np.int64)
    if ids.size and ids.min() < 0:
        raise ValueError("client ids must be >= 0")
    if min(key, default=0) < 0 or stream < 0:
        raise ValueError(f"seed key components must be >= 0, got {key}")
    if ids.size < MIN_BATCH_DERIVATION:
        return None
    if max((stream, *key), default=0) > 0xFFFFFFFF or ids.max() > 0xFFFFFFFF:
        return None
    return ids.astype(np.uint32)


def derive_rngs_batch(
    entropy: int, stream: int, round_index: int, client_ids, *suffix: int
) -> list[np.random.Generator]:
    """One Generator per client, bit-identical to per-client
    :func:`derive_rng` ``(entropy, stream, round_index, cid, *suffix)``.

    One vectorized mixing pass over the stacked spawn keys replaces C
    SeedSequence constructions (the mega-cohort path's per-client
    rng floor); PCG64 is then seeded from the precomputed state rows.
    """
    ids = _batch_ids(stream, (round_index, *suffix), client_ids)
    if ids is None:
        return [
            derive_rng(entropy, stream, round_index, int(cid), *suffix)
            for cid in np.asarray(client_ids).tolist()
        ]
    words = _assembled_words(
        entropy, (stream, round_index), ids, tuple(suffix)
    )
    state = _generate_state_batch(_mix_entropy_batch(words), 8)
    state64 = np.ascontiguousarray(state).view(np.uint64)
    return [
        np.random.Generator(np.random.PCG64(_PrecomputedSeedSequence(row)))
        for row in state64
    ]


def derive_nonces_batch(
    entropy: int, round_index: int, client_ids
) -> list[bytes]:
    """Batched :func:`derive_nonce`: one 16-byte nonce per client."""
    ids = _batch_ids(STREAM_NONCE, (round_index,), client_ids)
    if ids is None:
        return [
            derive_nonce(entropy, round_index, int(cid))
            for cid in np.asarray(client_ids).tolist()
        ]
    words = _assembled_words(entropy, (STREAM_NONCE, round_index), ids, ())
    state = _generate_state_batch(_mix_entropy_batch(words), 4)
    state = np.ascontiguousarray(state.astype("<u4", copy=False))
    return [row.tobytes() for row in state]
