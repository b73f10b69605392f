"""Domain-separated SHA-256 Merkle trees over per-round upload sets.

The commitment primitive of the verifiable-rounds subsystem: each
round's accepted client ciphertexts become the leaves of a Merkle tree
whose root is logged in the round's audit record.  Any single upload
can later be proven *included* in (or shown absent from) a committed
round with a logarithmic inclusion proof, and flipping one byte of any
logged ciphertext changes the recomputed root -- the tamper-evidence
the CI audit gate relies on.

The construction follows RFC 6962 (Certificate Transparency):

* ``leaf = SHA-256(0x00 || "olive-leaf:" || payload)``
* ``node = SHA-256(0x01 || "olive-node:" || left || right)``
* trees over ``n > 1`` leaves split at the largest power of two
  strictly less than ``n``, so no leaf is ever duplicated (the
  second-preimage weakness of pad-to-even schemes does not apply);
* the empty tree has the fixed domain-separated root
  ``SHA-256(0x02 || "olive-empty")``.

Leaf payloads bind the client identity to its ciphertext bytes
(:func:`upload_leaf`), so a proof shows *whose* upload was committed,
not merely that some bytes were.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

_LEAF_PREFIX = b"\x00olive-leaf:"
_NODE_PREFIX = b"\x01olive-node:"

#: Root of the zero-leaf tree (a round that accepted no uploads).
EMPTY_ROOT = hashlib.sha256(b"\x02olive-empty").digest()


def leaf_hash(payload: bytes) -> bytes:
    """Domain-separated hash of one leaf payload."""
    return hashlib.sha256(_LEAF_PREFIX + payload).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    """Domain-separated hash of an interior node."""
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


def upload_leaf(client_id: int, ciphertext: bytes) -> bytes:
    """The leaf payload committing one client's sealed upload.

    The 8-byte big-endian client id is bound into the payload so two
    clients uploading identical bytes still commit to distinct leaves.
    """
    return struct.pack(">Q", int(client_id)) + ciphertext


def _split(n: int) -> int:
    """RFC 6962 split point: largest power of two strictly below n."""
    k = 1
    while k * 2 < n:
        k *= 2
    return k


def merkle_root(leaves: list[bytes]) -> bytes:
    """Root over pre-hashed leaves (outputs of :func:`leaf_hash`).

    Built bottom-up: each level hashes adjacent pairs and carries an
    unpaired last node up unchanged, which yields exactly the RFC 6962
    tree (split at the largest power of two below n).
    """
    if not leaves:
        return EMPTY_ROOT
    level = list(leaves)
    while len(level) > 1:
        paired = [node_hash(level[i], level[i + 1])
                  for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


@dataclass(frozen=True)
class InclusionProof:
    """An audit path proving one leaf is under a committed root.

    ``path`` lists sibling hashes bottom-up; each step records which
    side the sibling joins from (``"left"`` siblings are prepended,
    ``"right"`` siblings appended, when recomputing the running hash).
    """

    leaf_index: int
    n_leaves: int
    leaf: bytes
    path: list[tuple[str, bytes]] = field(default_factory=list)

    def root(self) -> bytes:
        """Recompute the root this proof leads to."""
        running = self.leaf
        for side, sibling in self.path:
            if side == "left":
                running = node_hash(sibling, running)
            else:
                running = node_hash(running, sibling)
        return running


def inclusion_proof(leaves: list[bytes], index: int) -> InclusionProof:
    """Audit path for ``leaves[index]`` (pre-hashed leaves)."""
    if not 0 <= index < len(leaves):
        raise IndexError(f"leaf index {index} outside [0, {len(leaves)})")
    path: list[tuple[str, bytes]] = []

    def walk(lo: int, hi: int, target: int) -> None:
        if hi - lo == 1:
            return
        k = _split(hi - lo)
        if target < lo + k:
            walk(lo, lo + k, target)
            path.append(("right", merkle_root(leaves[lo + k:hi])))
        else:
            walk(lo + k, hi, target)
            path.append(("left", merkle_root(leaves[lo:lo + k])))

    walk(0, len(leaves), index)
    return InclusionProof(leaf_index=index, n_leaves=len(leaves),
                          leaf=leaves[index], path=path)


def verify_inclusion(proof: InclusionProof, root: bytes) -> bool:
    """True when ``proof`` authenticates its leaf under ``root``."""
    if not 0 <= proof.leaf_index < proof.n_leaves:
        return False
    return proof.root() == root
