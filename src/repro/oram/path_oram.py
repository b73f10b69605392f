"""Path ORAM (Stefanov et al.) with Zerotrace-style oblivious client state.

The paper benchmarks its aggregation algorithms against the
general-purpose state of the art: Path ORAM adapted to SGX (Zerotrace),
with the stash scanned linearly using CMOV-based primitives so that even
the enclave-internal client state leaks nothing.  This module implements
the full protocol:

* a complete binary tree of Z-slot buckets holding ``(block_id, leaf,
  value)`` records, dummies marked with ``block_id = -1``;
* a position map assigning each block a uniformly random leaf,
  refreshed on every access ("refresh for each update" -- the overhead
  the paper calls out);
* the canonical access: read the old leaf's root-to-leaf path into the
  stash, serve the request from the stash via an oblivious linear scan,
  then greedily write back the path from leaf to root.

The stash is bounded (default 20 overflow slots beyond the in-flight
path, the paper's setting); exceeding it raises :class:`StashOverflow`.
In the real Zerotrace the position map is itself recursively stored in
ORAM; here it is enclave-private state and its oblivious-access cost is
instead charged by the cost model (see ``repro.core.streams``).

Access core
-----------

The tree is a plain list of Z-slot bucket tuples (heap order, root at
0); every empty bucket is one shared immutable tuple of dummies.  The
bucket at level ``l`` on the path to ``leaf`` is
``((leaf + n_leaves) >> (h - l)) - 1``.  Write-back computes each stash
entry's deepest fitting level once, ``h - (entry_leaf ^ leaf).bit_length()``
(the depth of the common prefix of the two leaves), and walks up from
there to the first bucket with a free slot.  Taking the entries in stash
order, that is exactly the level-by-level greedy of the textbook
write-back: the same entries land in the same buckets, in the same
slot order, and the same ones stay in the stash.

Each access shows the adversary 3(h+1) bucket touches on ``oram_tree``:
read+clear per level root to leaf, then one write per level leaf to
root.  They are recorded as one columnar append per access, or, inside
:meth:`PathORAM.deferred_trace`, buffered as leaves and appended in a
single call when the block exits (normally or by exception).  The
recorded sequence is the same either way.  The textbook per-bucket
implementation lives in ``tests/oracles.py`` (``OraclePathORAM``), and
the equivalence suite pins this class to it: values, buckets, stash
order, positions, trace, and the op that overflows the stash.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from ..oblivious.primitives import o_mov
from ..sgx.memory import OP_READ, OP_WRITE, Trace

DUMMY = -1

#: Region name of the bucket tree in the trace.
TREE_REGION = "oram_tree"


class StashOverflow(Exception):
    """The bounded stash could not absorb leftover blocks."""


class PathORAM:
    """A Path ORAM instance over ``capacity`` fixed blocks.

    Parameters
    ----------
    capacity:
        Number of addressable blocks (block ids ``0..capacity-1``).
    bucket_size:
        Z, blocks per tree bucket (4 is standard).
    stash_limit:
        Maximum number of real blocks allowed to remain in the stash
        after write-back (the paper fixes 20).
    trace:
        Optional :class:`Trace`; when given, tree bucket accesses are
        recorded so the adversary view can be inspected.
    """

    def __init__(
        self,
        capacity: int,
        bucket_size: int = 4,
        stash_limit: int = 20,
        trace: Trace | None = None,
        seed: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.bucket_size = bucket_size
        self.stash_limit = stash_limit
        self._trace = trace
        self._rng = random.Random(seed)
        # Tree with at least `capacity` leaves.
        self.height = max(1, (capacity - 1).bit_length())
        self.n_leaves = 1 << self.height
        self.n_buckets = 2 * self.n_leaves - 1
        self._empty = ((DUMMY, 0, 0.0),) * bucket_size
        self._tree: list[tuple] = [self._empty] * self.n_buckets
        self._position: list[int] = [
            self._rng.randrange(self.n_leaves) for _ in range(capacity)
        ]
        self._stash: list[tuple[int, int, Any]] = []
        self.accesses = 0
        # Leaves of accesses whose trace records are deferred, or None
        # while every access records immediately.
        self._pending: list[int] | None = None
        h = self.height
        # Per access: read+clear at levels 0..h, then writes at h..0;
        # the bucket at level l is the leaf's node shifted by h - l.
        self._trace_shifts = h - np.asarray(
            [lvl for lvl in range(h + 1) for _ in (0, 1)]
            + list(range(h, -1, -1)), dtype=np.int64)
        self._trace_ops = np.asarray(
            [OP_READ, OP_WRITE] * (h + 1) + [OP_WRITE] * (h + 1),
            dtype=np.uint8)

    # ------------------------------------------------------------------
    # Trace recording
    # ------------------------------------------------------------------
    def _record_paths(self, leaves: list[int]) -> None:
        """Append the bucket touches of one access per leaf, in order."""
        if not leaves:
            return
        trace = self._trace
        nodes = ((np.asarray(leaves, dtype=np.int64)[:, None]
                  + self.n_leaves) >> self._trace_shifts) - 1
        count = nodes.size
        trace.record_columns(
            np.full(count, trace.region_id(TREE_REGION), dtype=np.uint16),
            nodes.reshape(-1),
            np.tile(self._trace_ops, len(leaves)),
        )

    @contextmanager
    def deferred_trace(self) -> Iterator["PathORAM"]:
        """Buffer this ORAM's trace records and append them on exit.

        For callers that drive many accesses while nothing else records
        into the trace.  The buffer is flushed on every exit, including
        :class:`StashOverflow`, so the trace then holds every access up
        to and including the failing one.
        """
        self._pending = []
        try:
            yield self
        finally:
            pending, self._pending = self._pending, None
            self._record_paths(pending)

    # ------------------------------------------------------------------
    # Core access
    # ------------------------------------------------------------------
    def access(self, op: str, block_id: int, new_value: Any = None,
               new_leaf: int | None = None,
               leaf: int | None = None) -> Any:
        """One ORAM access; returns the block's (pre-write) value.

        ``op`` is ``"read"`` or ``"write"``.  Missing blocks read as 0.0
        (the aggregator initializes implicitly, like the paper's d-zero
        initialization of g*).  ``leaf`` and ``new_leaf`` let an
        external position map (the recursive construction) dictate the
        block's current leaf and its remap target.
        """
        if not 0 <= block_id < self.capacity:
            raise IndexError(f"block {block_id} out of range")
        if op not in ("read", "write"):
            raise ValueError("op must be 'read' or 'write'")
        self.accesses += 1

        n_leaves = self.n_leaves
        if leaf is None:
            leaf = self._position[block_id]
        elif not 0 <= leaf < n_leaves:
            raise IndexError("forced leaf out of range")
        if new_leaf is None:
            new_leaf = self._rng.randrange(n_leaves)
        elif not 0 <= new_leaf < n_leaves:
            raise IndexError("forced new leaf out of range")
        self._position[block_id] = new_leaf

        if self._trace is not None:
            if self._pending is not None:
                self._pending.append(leaf)
            else:
                self._record_paths([leaf])

        h = self.height
        tree = self._tree
        empty = self._empty
        base = leaf + n_leaves
        path = [(base >> (h - lvl)) - 1 for lvl in range(h + 1)]

        # 1. Fetch the whole path into the stash.  Real slots precede
        #    the dummies in every bucket.  The buckets are not cleared
        #    here: write-back below overwrites every one of them.
        stash = self._stash
        for node in path:
            bucket = tree[node]
            if bucket is not empty:
                for slot in bucket:
                    if slot[0] == DUMMY:
                        break
                    stash.append(slot)

        # 2. Serve the request from the stash with an oblivious scan:
        #    every entry is touched; selection happens in registers (the
        #    slot index is selected with o_mov so the scan's work is
        #    position-independent; payloads may be any type).
        found_at = -1
        for i, entry in enumerate(stash):
            found_at = o_mov(entry[0] == block_id, i, found_at)
        value: Any = stash[found_at][2] if found_at >= 0 else 0.0
        if op == "write":
            entry = (block_id, new_leaf, new_value)
        else:
            entry = (block_id, new_leaf, value)
        if found_at >= 0:
            stash[found_at] = entry
        else:
            stash.append(entry)

        # 3. Greedy write-back, leaf to root: each entry, in stash
        #    order, takes a free slot at its deepest fitting level or
        #    the nearest one above it.
        z = self.bucket_size
        placed: list[list | None] = [None] * (h + 1)
        remaining = []
        for entry in stash:
            lvl = h - (entry[1] ^ leaf).bit_length()
            while lvl >= 0:
                slots = placed[lvl]
                if slots is None:
                    slots = placed[lvl] = []
                if len(slots) < z:
                    slots.append(entry)
                    break
                lvl -= 1
            else:
                remaining.append(entry)
        self._stash = remaining
        for lvl, node in enumerate(path):
            slots = placed[lvl]
            tree[node] = (tuple(slots) + empty[len(slots):] if slots
                          else empty)

        if len(remaining) > self.stash_limit:
            raise StashOverflow(
                f"stash holds {len(remaining)} blocks (limit {self.stash_limit})"
            )
        return value

    def read(self, block_id: int) -> Any:
        """Oblivious read of one block."""
        return self.access("read", block_id)

    def write(self, block_id: int, value: Any) -> None:
        """Oblivious write of one block."""
        self.access("write", block_id, new_value=value)

    @property
    def stash_size(self) -> int:
        """Real blocks currently parked in the stash."""
        return len(self._stash)
