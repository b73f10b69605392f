"""Traced memory: the foundation of the TEE access-pattern model.

The paper's threat model (Section 3.1) gives the untrusted server the
ability to observe the sequence of memory addresses an enclave touches,
either at word granularity (strongest adversary) or at cacheline
granularity (64 bytes, what published SGX attacks achieve).  This module
provides the simulated memory substrate on which every aggregation
algorithm in :mod:`repro.core` runs:

* :class:`MemoryAccess` -- one observed access ``(region, offset, op)``,
  matching the paper's triple ``a = (A[i], op, val)`` with ``val``
  withheld from the adversary (data is encrypted inside the enclave; the
  side channel leaks *addresses*, not plaintext).
* :class:`Trace` -- an append-only recording of accesses with projection
  helpers (restrict to one region, coarsen to cachelines).
* :class:`TracedArray` -- a fixed-length array whose ``read``/``write``
  record into a :class:`Trace`.

Tracing can be disabled (``trace=None``) so that the same algorithm
implementations also serve as fast functional references.

Storage layout
--------------

The trace is *columnar* (structure of arrays): three parallel numpy
arrays -- ``int32`` element offsets, ``uint8`` region ids, ``uint8``
operation codes -- grown by amortized doubling, or presized once with
:meth:`Trace.reserve` by a caller that knows its length.  One recorded
access costs 6 bytes instead of one frozen dataclass plus a list slot
(~100+ bytes), and whole access blocks append as single vectorized
``numpy`` copies via :meth:`Trace.record_block` /
:meth:`Trace.record_batch` / :meth:`Trace.record_periodic` /
:meth:`Trace.record_columns`.  Region
names are interned into a per-trace table in first-use order.  The
object-based views (:meth:`Trace.__iter__`, :meth:`Trace.project`,
:meth:`Trace.offsets`, ...) are preserved as compatibility wrappers
that materialize :class:`MemoryAccess` records on demand; batched
consumers should prefer the ``*_array`` variants, which return numpy
arrays without constructing any per-access objects.

The batched-recording contract: every batch API appends exactly the
access sequence that the equivalent loop of scalar :meth:`Trace.record`
calls would have appended, in the same order.  Batching changes *how*
the sequence is stored, never *what* the adversary observes -- the
trace-equivalence regression tests (``tests/test_trace_engine_equivalence.py``)
enforce this byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import hashlib

import numpy as np

CACHELINE_BYTES = 64

READ = "read"
WRITE = "write"

#: Numeric operation codes used by the columnar storage and the
#: ``*_array`` fast paths (``ops`` columns hold these values).
OP_READ = 0
OP_WRITE = 1

_OP_NAMES = (READ, WRITE)

_INITIAL_CAPACITY = 256
_INT32_MAX = np.iinfo(np.int32).max
_INT32_MIN = np.iinfo(np.int32).min


def _norm_op(op: Any) -> int:
    """Normalize ``"read"``/``"write"`` (or 0/1) to an operation code."""
    if op == READ or op == OP_READ:
        return OP_READ
    if op == WRITE or op == OP_WRITE:
        return OP_WRITE
    raise ValueError(f"unknown memory operation {op!r}")


@dataclass(frozen=True)
class MemoryAccess:
    """A single observed memory access.

    Mirrors the paper's formal model ``a = (A[i], op, val)`` from
    Section 3.3, except ``val`` is never exposed: the adversary sees
    addresses and operation types only.
    """

    region: str
    offset: int
    op: str

    def cacheline(self, itemsize: int, line_bytes: int = CACHELINE_BYTES) -> int:
        """Cacheline index of this access for ``itemsize``-byte elements."""
        return (self.offset * itemsize) // line_bytes


def tile_strided(
    pattern: Any, repeats: Sequence[tuple[int, int]], out: np.ndarray
) -> None:
    """Fill ``out`` with ``pattern`` repeated at nested strides.

    ``repeats`` lists ``(count, stride)`` levels, innermost first; level
    ``(c, s)`` repeats everything inside it ``c`` times, adding ``s`` to
    the values per repetition.  ``out`` must hold exactly
    ``len(pattern) * prod(counts)`` elements.  Each level doubles the
    filled prefix with one contiguous add per step, so the fill costs
    ``O(log len(out))`` numpy calls whatever the pattern's shape.
    """
    size = len(pattern)
    total = size
    for count, _ in repeats:
        total *= count
    if total != len(out):
        raise ValueError("tile_strided output length mismatch")
    if total == 0:
        return
    out[:size] = pattern
    for count, stride in repeats:
        done = 1
        while done < count:
            step = min(done, count - done)
            np.add(out[: step * size], done * stride,
                   out=out[done * size : (done + step) * size])
            done += step
        size *= count


class Trace:
    """Ordered sequence of memory accesses in columnar storage.

    Two traces compare equal iff they contain the identical ordered
    access sequence, which is exactly the paper's notion of a
    0-statistically-oblivious algorithm when it holds for all same-shape
    inputs (Definition 2.2 with delta = 0).
    """

    __slots__ = ("_region_names", "_region_ids", "_rids", "_offs", "_ops",
                 "_n", "_memmap_dir")

    def __init__(self, memmap_dir: str | None = None) -> None:
        """``memmap_dir`` (opt-in) backs the columns with anonymous
        disk-backed memmaps in that directory instead of RAM.

        A traced 10^5-client round records hundreds of millions of
        accesses; memmap backing lets the trace grow past physical
        memory while every recording/projection API behaves
        identically (memmaps are ndarrays).  Files are unlinked at
        creation, so the space is reclaimed when the trace is
        garbage-collected, superseded by growth, or the process exits.
        """
        self._region_names: list[str] = []
        self._region_ids: dict[str, int] = {}
        self._memmap_dir = memmap_dir
        self._rids = self._alloc(_INITIAL_CAPACITY, np.uint8)
        self._offs = self._alloc(_INITIAL_CAPACITY, np.int32)
        self._ops = self._alloc(_INITIAL_CAPACITY, np.uint8)
        self._n = 0

    def _alloc(self, length: int, dtype: Any) -> np.ndarray:
        """An uninitialized column of ``length`` elements.

        RAM by default; an unlinked disk-backed memmap when
        ``memmap_dir`` was given.
        """
        if self._memmap_dir is None:
            return np.empty(length, dtype=dtype)
        import os
        import tempfile

        fd, path = tempfile.mkstemp(prefix="trace-", suffix=".col",
                                    dir=self._memmap_dir)
        try:
            column = np.memmap(path, dtype=dtype, mode="w+",
                               shape=(max(length, 1),))
        finally:
            os.close(fd)
            os.unlink(path)
        return column

    # ------------------------------------------------------------------
    # Region table
    # ------------------------------------------------------------------
    def region_id(self, region: str) -> int:
        """Intern a region name, returning its small-integer id."""
        rid = self._region_ids.get(region)
        if rid is None:
            rid = len(self._region_names)
            if rid > np.iinfo(self._rids.dtype).max:
                widened = self._alloc(len(self._rids), np.uint16)
                widened[: self._n] = self._rids[: self._n]
                self._rids = widened
            self._region_names.append(region)
            self._region_ids[region] = rid
        return rid

    def region_index(self, region: str) -> int | None:
        """Id of an already-interned region, or ``None``."""
        return self._region_ids.get(region)

    @property
    def region_names(self) -> tuple[str, ...]:
        """Interned region names, in first-use order (index = region id)."""
        return tuple(self._region_names)

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _ensure(self, extra: int) -> None:
        need = self._n + extra
        cap = len(self._offs)
        if need <= cap:
            return
        new_cap = cap
        while new_cap < need:
            new_cap *= 2
        self._resize(new_cap)

    def reserve(self, extra: int) -> None:
        """Presize the columns so ``extra`` more accesses append in place.

        Grows at most once: to exactly the needed capacity, or to double
        the current one when that is larger (so repeated small
        reservations stay amortized).  The recorded accesses, ``==`` and
        :meth:`signature_digest` are unaffected; only the copies and the
        overshoot of growth-by-doubling are saved.
        """
        need = self._n + extra
        cap = len(self._offs)
        if need > cap:
            self._resize(max(need, 2 * cap))

    def _resize(self, new_cap: int) -> None:
        for attr in ("_rids", "_offs", "_ops"):
            old = getattr(self, attr)
            grown = self._alloc(new_cap, old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, attr, grown)

    def _widen_offsets_if_needed(self, lo: int, hi: int) -> None:
        if self._offs.dtype == np.int32 and (hi > _INT32_MAX or lo < _INT32_MIN):
            widened = self._alloc(len(self._offs), np.int64)
            widened[: self._n] = self._offs[: self._n]
            self._offs = widened

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, region: str, offset: int, op: str) -> None:
        """Append one access to the trace."""
        self._ensure(1)
        offset = int(offset)
        self._widen_offsets_if_needed(offset, offset)
        n = self._n
        self._rids[n] = self.region_id(region)
        self._offs[n] = offset
        self._ops[n] = _norm_op(op)
        self._n = n + 1

    def record_block(self, region: str, start: int, stop: int, op: str) -> None:
        """Append a contiguous run ``region[start:stop]`` of one op.

        Equivalent to ``for o in range(start, stop): record(region, o, op)``
        as a single vectorized append.
        """
        count = stop - start
        if count <= 0:
            return
        self._widen_offsets_if_needed(start, stop - 1)
        self._ensure(count)
        n = self._n
        self._rids[n : n + count] = self.region_id(region)
        self._offs[n : n + count] = np.arange(start, stop, dtype=self._offs.dtype)
        self._ops[n : n + count] = _norm_op(op)
        self._n = n + count

    def record_batch(self, region: str, offsets: Any, op: Any) -> None:
        """Append many accesses to one region in one call.

        ``offsets`` is any integer array-like; ``op`` is either a single
        operation (applied to every offset) or a per-offset array of
        operation codes / names.  Order follows ``offsets``.
        """
        offs = np.asarray(offsets)
        count = offs.size
        if count == 0:
            return
        if offs.ndim != 1:
            offs = offs.reshape(-1)
        if offs.size:
            self._widen_offsets_if_needed(int(offs.min()), int(offs.max()))
        self._ensure(count)
        n = self._n
        self._rids[n : n + count] = self.region_id(region)
        self._offs[n : n + count] = offs
        if isinstance(op, (str, int)):
            self._ops[n : n + count] = _norm_op(op)
        else:
            ops_arr = np.asarray(op)
            if ops_arr.dtype.kind not in "iu":
                ops_arr = np.asarray([_norm_op(o) for o in op], dtype=np.uint8)
            self._ops[n : n + count] = ops_arr.reshape(-1)
        self._n = n + count

    def record_periodic(self, region: str, offsets: Any, ops: Any,
                        repeats: Sequence[tuple[int, int]]) -> None:
        """Append one access pattern repeated at nested strides.

        ``offsets`` / ``ops`` (equal length) are one period.  ``repeats``
        lists ``(count, stride)`` levels, innermost first: each level
        repeats everything inside it ``count`` times, shifting the
        offsets by ``stride`` per repetition.  Equivalent to
        :meth:`record_batch` of the expanded stream, but the columns are
        written by doubling copies (see :func:`tile_strided`) with no
        temporary and no scan.  One bitonic network stage ``(k, j)`` over
        ``n`` elements is ``offsets=(0, j, 0, j)``, ``ops=(R, R, W, W)``,
        ``repeats=((j, 1), (n // 2j, 2j))``.  Strides must be
        non-negative.
        """
        pattern = np.asarray(offsets, dtype=np.int64).reshape(-1)
        codes = np.asarray([_norm_op(o) for o in ops], dtype=np.uint8)
        if pattern.size != codes.size:
            raise ValueError("record_periodic requires one op per offset")
        count = pattern.size
        hi = int(pattern.max()) if count else 0
        for reps, stride in repeats:
            if stride < 0:
                raise ValueError("record_periodic strides must be non-negative")
            count *= reps
            hi += (reps - 1) * stride
        if count <= 0:
            return
        self._widen_offsets_if_needed(int(pattern.min()), hi)
        self._ensure(count)
        n = self._n
        self._rids[n : n + count] = self.region_id(region)
        tile_strided(pattern, repeats, self._offs[n : n + count])
        tile_strided(codes, ((count // codes.size, 0),), self._ops[n : n + count])
        self._n = n + count

    def record_columns(self, region_ids: Any, offsets: Any, ops: Any) -> None:
        """Append pre-built columns (ids from :meth:`region_id`).

        The fully general batch append for access sequences that
        interleave regions (e.g. the Linear aggregator's
        ``g``/``g_star``/``g_star`` triplets).  All three arrays must
        have equal length; ``ops`` holds numeric operation codes.
        """
        rids = np.asarray(region_ids).reshape(-1)
        offs = np.asarray(offsets).reshape(-1)
        ops_arr = np.asarray(ops).reshape(-1)
        count = offs.size
        if count == 0:
            return
        if not (rids.size == count == ops_arr.size):
            raise ValueError("record_columns requires equal-length columns")
        if rids.size and int(rids.max()) >= len(self._region_names):
            raise ValueError("unknown region id in record_columns")
        self._widen_offsets_if_needed(int(offs.min()), int(offs.max()))
        self._ensure(count)
        n = self._n
        self._rids[n : n + count] = rids
        self._offs[n : n + count] = offs
        self._ops[n : n + count] = ops_arr
        self._n = n + count

    # ------------------------------------------------------------------
    # Columnar views (fast paths)
    # ------------------------------------------------------------------
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw ``(region_ids, offsets, ops)`` columns.

        Views into the live storage -- treat as read-only; they are
        invalidated by the next append.
        """
        n = self._n
        return self._rids[:n], self._offs[:n], self._ops[:n]

    @property
    def nbytes(self) -> int:
        """Bytes of columnar storage currently allocated."""
        return self._rids.nbytes + self._offs.nbytes + self._ops.nbytes

    def _mask(self, region: str, op: Any | None = None) -> np.ndarray | None:
        rid = self._region_ids.get(region)
        if rid is None:
            return None
        rids, _, ops = self.columns()
        mask = rids == rid
        if op is not None:
            mask &= ops == _norm_op(op)
        return mask

    def offsets_array(self, region: str, op: str | None = None) -> np.ndarray:
        """Offsets touched in ``region`` as an ``int64`` numpy array."""
        mask = self._mask(region, op)
        if mask is None:
            return np.empty(0, dtype=np.int64)
        return self._offs[: self._n][mask].astype(np.int64, copy=False)

    def cachelines_array(
        self,
        region: str,
        itemsize: int,
        line_bytes: int = CACHELINE_BYTES,
        op: str | None = None,
    ) -> np.ndarray:
        """Cacheline indices touched in ``region`` as a numpy array."""
        offs = self.offsets_array(region, op)
        return (offs * itemsize) // line_bytes

    def project_arrays(self, region: str) -> tuple[np.ndarray, np.ndarray]:
        """``(offsets, op_codes)`` of one region, order preserved."""
        mask = self._mask(region)
        if mask is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
        n = self._n
        return (
            self._offs[:n][mask].astype(np.int64, copy=False),
            self._ops[:n][mask],
        )

    # ------------------------------------------------------------------
    # Object-based compatibility API
    # ------------------------------------------------------------------
    @property
    def accesses(self) -> list[MemoryAccess]:
        """The trace as :class:`MemoryAccess` objects (materialized)."""
        return list(self)

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[MemoryAccess]:
        names = self._region_names
        rids, offs, ops = self.columns()
        for rid, off, op in zip(rids.tolist(), offs.tolist(), ops.tolist()):
            yield MemoryAccess(names[rid], off, _OP_NAMES[op])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        if self._n != other._n:
            return False
        rids_a, offs_a, ops_a = self.columns()
        rids_b, offs_b, ops_b = other.columns()
        if not np.array_equal(offs_a, offs_b) or not np.array_equal(ops_a, ops_b):
            return False
        if self._region_names == other._region_names:
            return bool(np.array_equal(rids_a, rids_b))
        # Different interning orders: translate b's ids into a's table.
        translate = np.asarray(
            [self._region_ids.get(name, -1) for name in other._region_names],
            dtype=np.int64,
        )
        if translate.size == 0:
            return True
        return bool(np.array_equal(rids_a, translate[rids_b]))

    def project(self, region: str) -> list[MemoryAccess]:
        """Accesses restricted to one named region, order preserved."""
        offs, ops = self.project_arrays(region)
        return [
            MemoryAccess(region, off, _OP_NAMES[op])
            for off, op in zip(offs.tolist(), ops.tolist())
        ]

    def offsets(self, region: str, op: str | None = None) -> list[int]:
        """Offsets touched in ``region`` (optionally one op), in order."""
        return self.offsets_array(region, op).tolist()

    def cachelines(
        self,
        region: str,
        itemsize: int,
        line_bytes: int = CACHELINE_BYTES,
        op: str | None = None,
    ) -> list[int]:
        """Cacheline indices touched in ``region``, in access order."""
        return self.cachelines_array(region, itemsize, line_bytes, op).tolist()

    def signature(self) -> tuple[tuple[str, int, str], ...]:
        """Hashable representation of the full trace."""
        names = self._region_names
        rids, offs, ops = self.columns()
        region_col = [names[r] for r in rids.tolist()]
        op_col = [_OP_NAMES[o] for o in ops.tolist()]
        return tuple(zip(region_col, offs.tolist(), op_col))

    def signature_digest(self) -> str:
        """SHA-256 digest of the canonical trace, for O(n) equality.

        Region ids are remapped to first-appearance order so that two
        traces with identical access sequences (even if their region
        tables were interned differently) hash identically.  Collisions
        aside, ``a.signature_digest() == b.signature_digest()`` iff
        ``a.signature() == b.signature()`` -- but without building the
        per-access tuples, so it stays usable at millions of accesses.
        """
        rids, offs, ops = self.columns()
        h = hashlib.sha256()
        if self._n:
            uniq, first = np.unique(rids, return_index=True)
            order = np.argsort(first)
            remap = np.zeros(int(uniq.max()) + 1, dtype=np.uint16)
            remap[uniq[order]] = np.arange(len(uniq), dtype=np.uint16)
            canonical_names = [self._region_names[i] for i in uniq[order].tolist()]
            h.update("\x00".join(canonical_names).encode())
            h.update(remap[rids].tobytes())
            h.update(offs.astype(np.int64, copy=False).tobytes())
            h.update(ops.tobytes())
        return h.hexdigest()

    @classmethod
    def from_columns(
        cls,
        regions: Sequence[str],
        region_ids: Any,
        offsets: Any,
        ops: Any,
    ) -> "Trace":
        """Build a trace directly from columnar data.

        ``regions`` is the id -> name table referenced by
        ``region_ids``; ``ops`` holds numeric operation codes.  Used by
        trace deserialization (:mod:`repro.core.checkpoint`).
        """
        trace = cls()
        for name in regions:
            trace.region_id(name)
        trace.record_columns(region_ids, offsets, ops)
        return trace


class TracedArray:
    """Fixed-length array whose element accesses are recorded.

    Elements may be any Python value (floats, ``(index, value)`` tuples,
    ORAM blocks).  ``itemsize`` is the modelled byte width of one element
    and controls cacheline coarsening; the paper uses 8-byte weights
    (u32 index + f32 value).
    """

    def __init__(
        self,
        name: str,
        data: Iterable[Any],
        trace: Trace | None = None,
        itemsize: int = 8,
    ) -> None:
        self.name = name
        self._data = list(data)
        self.trace = trace
        self.itemsize = itemsize

    @classmethod
    def zeros(
        cls,
        name: str,
        length: int,
        trace: Trace | None = None,
        itemsize: int = 8,
    ) -> "TracedArray":
        """Zero-initialized traced array."""
        return cls(name, [0.0] * length, trace=trace, itemsize=itemsize)

    def __len__(self) -> int:
        return len(self._data)

    @property
    def data(self) -> list[Any]:
        """The backing store, for batched kernels that record via the
        block APIs themselves.  Mutating it bypasses trace recording --
        callers own the obligation to record the matching accesses."""
        return self._data

    def read(self, offset: int) -> Any:
        """Traced element read."""
        if not 0 <= offset < len(self._data):
            raise IndexError(f"{self.name}[{offset}] out of bounds")
        if self.trace is not None:
            self.trace.record(self.name, offset, READ)
        return self._data[offset]

    def write(self, offset: int, value: Any) -> None:
        """Traced element write."""
        if not 0 <= offset < len(self._data):
            raise IndexError(f"{self.name}[{offset}] out of bounds")
        if self.trace is not None:
            self.trace.record(self.name, offset, WRITE)
        self._data[offset] = value

    def _check_block(self, start: int, stop: int) -> None:
        if not (0 <= start <= stop <= len(self._data)):
            raise IndexError(
                f"{self.name}[{start}:{stop}] out of bounds (len {len(self._data)})"
            )

    def read_block(self, start: int, stop: int) -> list[Any]:
        """Traced contiguous read of ``[start, stop)`` in one call.

        Records the same access sequence as ``[read(o) for o in
        range(start, stop)]`` via a single vectorized append.
        """
        self._check_block(start, stop)
        if self.trace is not None:
            self.trace.record_block(self.name, start, stop, READ)
        return self._data[start:stop]

    def write_block(self, start: int, stop: int, values: Sequence[Any]) -> None:
        """Traced contiguous write of ``[start, stop)`` in one call."""
        self._check_block(start, stop)
        if len(values) != stop - start:
            raise ValueError("write_block length mismatch")
        if self.trace is not None:
            self.trace.record_block(self.name, start, stop, WRITE)
        self._data[start:stop] = list(values)

    def _check_batch(self, offsets: np.ndarray) -> None:
        if offsets.size and (
            int(offsets.min()) < 0 or int(offsets.max()) >= len(self._data)
        ):
            raise IndexError(f"{self.name} batch access out of bounds")

    def read_batch(self, offsets: Any) -> list[Any]:
        """Traced read at a vector of offsets (one batched append)."""
        offs = np.asarray(offsets, dtype=np.int64).reshape(-1)
        self._check_batch(offs)
        if self.trace is not None:
            self.trace.record_batch(self.name, offs, READ)
        data = self._data
        return [data[o] for o in offs.tolist()]

    def write_batch(self, offsets: Any, values: Sequence[Any]) -> None:
        """Traced write at a vector of offsets (one batched append)."""
        offs = np.asarray(offsets, dtype=np.int64).reshape(-1)
        self._check_batch(offs)
        if len(values) != offs.size:
            raise ValueError("write_batch length mismatch")
        if self.trace is not None:
            self.trace.record_batch(self.name, offs, WRITE)
        data = self._data
        for o, v in zip(offs.tolist(), values):
            data[o] = v

    def snapshot(self) -> list[Any]:
        """Copy of the contents without generating trace records.

        Models the enclave reading its own private state when the result
        is about to leave through the (traced) output path anyway; used
        by tests and result extraction, never inside oblivious kernels.
        """
        return list(self._data)

    def load(self, values: Sequence[Any]) -> None:
        """Bulk-set contents without trace records (test setup helper)."""
        if len(values) != len(self._data):
            raise ValueError("length mismatch in TracedArray.load")
        self._data = list(values)


@dataclass
class RegionLayout:
    """Assigns simulated base byte addresses to named regions.

    The cost model (:mod:`repro.sgx.cost`) needs globally distinct
    physical addresses so that distinct regions occupy distinct
    cachelines.  Regions are laid out back to back, each aligned up to a
    cacheline boundary.
    """

    line_bytes: int = CACHELINE_BYTES
    _regions: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    _next_base: int = 0

    def add(self, name: str, length: int, itemsize: int) -> int:
        """Register a region and return its base byte address."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already laid out")
        base = self._next_base
        size = length * itemsize
        self._regions[name] = (base, size, itemsize)
        aligned = (size + self.line_bytes - 1) // self.line_bytes * self.line_bytes
        self._next_base = base + aligned
        return base

    def base(self, name: str) -> int:
        """Base byte address of a region."""
        return self._regions[name][0]

    def itemsize(self, name: str) -> int:
        """Element byte width of a region."""
        return self._regions[name][2]

    def byte_address(self, name: str, offset: int) -> int:
        """Simulated physical byte address of one element."""
        base, size, itemsize = self._regions[name]
        addr = base + offset * itemsize
        if not base <= addr < base + size:
            raise IndexError(f"address outside region {name!r}")
        return addr

    def byte_addresses(self, name: str, offsets: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`byte_address` over an offset array."""
        base, size, itemsize = self._regions[name]
        offs = np.asarray(offsets, dtype=np.int64)
        addrs = base + offs * itemsize
        if offs.size and (
            int(addrs.min()) < base or int(addrs.max()) >= base + size
        ):
            raise IndexError(f"address outside region {name!r}")
        return addrs

    def total_bytes(self) -> int:
        """Total laid-out bytes including alignment padding."""
        return self._next_base
