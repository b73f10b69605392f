"""Recursive Path ORAM: the position map stored in smaller ORAMs.

The flat :class:`repro.oram.path_oram.PathORAM` keeps its position map
as enclave-private state.  Real Zerotrace cannot do that -- the map is
itself data whose access pattern leaks -- so it stores the map
recursively: each ORAM's position map is packed into blocks held by a
smaller ORAM, until the innermost map fits in registers (here: a small
linear-scanned array).  Every data access then costs one path access
per recursion level, which is exactly the "oblivious reading of the
position maps" overhead the paper cites when explaining Path ORAM's
cost in Figure 10.

Positions are packed ``entries_per_block`` to a block; the recursion
bottoms out when a map has at most ``base_map_limit`` entries, which is
then scanned obliviously (o_mov-selected) on every access.
"""

from __future__ import annotations

import random
from typing import Any

from ..oblivious.primitives import o_mov
from ..sgx.memory import Trace
from .path_oram import PathORAM


class RecursiveMap:
    """Position map stored inside a Path ORAM, recursively."""

    def __init__(
        self,
        capacity: int,
        n_leaves: int,
        entries_per_block: int = 8,
        base_map_limit: int = 64,
        trace: Trace | None = None,
        rng: random.Random | None = None,
        level: int = 0,
    ) -> None:
        self.capacity = capacity
        self.n_leaves = n_leaves
        self.entries_per_block = entries_per_block
        self._rng = rng or random.Random()
        self.level = level
        if capacity <= base_map_limit:
            self._base: list[int] | None = [
                self._rng.randrange(n_leaves) for _ in range(capacity)
            ]
            self._oram: PathORAM | None = None
            self._inner: "RecursiveMap" | None = None
        else:
            self._base = None
            n_blocks = (capacity + entries_per_block - 1) // entries_per_block
            self._oram = PathORAM(
                n_blocks,
                stash_limit=40,
                trace=trace,
                seed=self._rng.getrandbits(62),
            )
            # Initialize each packed block with random leaf assignments.
            for b in range(n_blocks):
                block = tuple(
                    self._rng.randrange(n_leaves)
                    for _ in range(entries_per_block)
                )
                self._oram.write(b, block)
            self._inner = None  # the block ORAM has its own private map

    @property
    def depth(self) -> int:
        """Number of ORAM levels under this map (0 = register base)."""
        if self._base is not None:
            return 0
        return 1

    def get_and_refresh(self, index: int) -> tuple[int, int]:
        """Read the position of ``index`` and replace it with a fresh
        random leaf -- the atomic remap of every Path ORAM access.

        Returns ``(old_leaf, new_leaf)``.
        """
        if not 0 <= index < self.capacity:
            raise IndexError("position-map index out of range")
        new_leaf = self._rng.randrange(self.n_leaves)
        if self._base is not None:
            # Oblivious scan of the register-resident base map.
            current = self._base[0]
            for i in range(self.capacity):
                current = o_mov(i == index, self._base[i], current)
            for i in range(self.capacity):
                self._base[i] = o_mov(i == index, new_leaf, self._base[i])
            return current, new_leaf
        block_id = index // self.entries_per_block
        offset = index % self.entries_per_block
        block = self._oram.read(block_id)
        current = block[0]
        for i in range(self.entries_per_block):
            current = o_mov(i == offset, block[i], current)
        updated = tuple(
            o_mov(i == offset, new_leaf, block[i])
            for i in range(self.entries_per_block)
        )
        self._oram.write(block_id, updated)
        return current, new_leaf


class RecursivePathORAM:
    """Path ORAM whose position map is itself ORAM-resident.

    Interface-compatible with :class:`PathORAM` (read/write/access);
    every access performs the data-tree path plus one position-map
    ORAM access, both visible in the shared trace.
    """

    def __init__(
        self,
        capacity: int,
        bucket_size: int = 4,
        stash_limit: int = 20,
        entries_per_block: int = 8,
        base_map_limit: int = 64,
        trace: Trace | None = None,
        seed: int | None = None,
    ) -> None:
        self._rng = random.Random(seed)
        self._data = PathORAM(
            capacity,
            bucket_size=bucket_size,
            stash_limit=stash_limit,
            trace=trace,
            seed=self._rng.getrandbits(62),
        )
        self._map = RecursiveMap(
            capacity,
            self._data.n_leaves,
            entries_per_block=entries_per_block,
            base_map_limit=base_map_limit,
            trace=trace,
            rng=self._rng,
        )
        self.capacity = capacity
        self.accesses = 0

    def access(self, op: str, block_id: int, new_value: Any = None) -> Any:
        """One access: recursive map lookup + data-tree path."""
        if not 0 <= block_id < self.capacity:
            raise IndexError(f"block {block_id} out of range")
        self.accesses += 1
        # The recursive map is authoritative: fetch the old leaf and
        # the freshly installed one, and hand both to the data ORAM so
        # its path fetch and write-back use them, not its private map.
        old_leaf, new_leaf = self._map.get_and_refresh(block_id)
        return self._data.access(
            op, block_id, new_value=new_value, new_leaf=new_leaf,
            leaf=old_leaf,
        )

    def read(self, block_id: int) -> Any:
        """Oblivious read of one block."""
        return self.access("read", block_id)

    def write(self, block_id: int, value: Any) -> None:
        """Oblivious write of one block."""
        self.access("write", block_id, new_value=value)

    @property
    def stash_size(self) -> int:
        """Real blocks parked in the data-tree stash."""
        return self._data.stash_size
