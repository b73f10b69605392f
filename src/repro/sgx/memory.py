"""Traced memory: the foundation of the TEE access-pattern model.

The paper's threat model (Section 3.1) gives the untrusted server the
ability to observe the sequence of memory addresses an enclave touches,
either at word granularity (strongest adversary) or at cacheline
granularity (64 bytes, what published SGX attacks achieve).  This module
provides the simulated memory substrate on which every aggregation
algorithm in :mod:`repro.core` runs:

* :class:`Trace` -- an append-only recording of the paper's accesses
  ``a = (A[i], op, val)`` as ``(region, offset, op)`` columns, with
  ``val`` withheld from the adversary (data is encrypted inside the
  enclave; the side channel leaks *addresses*, not plaintext).
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
:meth:`Trace.record_periodic` / :meth:`Trace.record_open` /
:meth:`Trace.record_columns`.  Region names are interned into a
per-trace table in first-use order.  The columns are the only view of
a trace: :meth:`Trace.columns`, :meth:`Trace.offsets_array`, ``==`` and
:meth:`Trace.signature_digest`; coarsening to cachelines is
:func:`repro.sgx.observer.coarsen`.

The batched-recording contract: every batch API appends exactly the
access sequence that the equivalent loop of scalar :meth:`Trace.record`
calls would have appended, in the same order.  Batching changes *how*
the sequence is stored, never *what* the adversary observes -- the
trace-equivalence regression tests (``tests/test_trace_engine_equivalence.py``)
enforce this byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import hashlib

import numpy as np

CACHELINE_BYTES = 64

READ = "read"
WRITE = "write"

#: Numeric operation codes of the columnar storage (``ops`` columns
#: hold these values).
OP_READ = 0
OP_WRITE = 1

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


def tile_strided(
    pattern: Any, repeats: Sequence[tuple[Any, Any]], out: np.ndarray
) -> None:
    """Fill ``out`` with ``pattern`` repeated at nested strides.

    ``repeats`` lists ``(count, stride)`` levels, innermost first; level
    ``(c, s)`` repeats everything inside it ``c`` times, adding ``s`` to
    the values per repetition.  A stride is one int or a per-slot
    vector of ``len(pattern)`` ints, slot ``t`` of every copy of the
    pattern moving by ``s[t]`` (a bitonic mirror stage walks ``i`` up
    and its partner down with ``(1, -1, 1, -1)``).  ``out`` must hold
    exactly ``len(pattern) * prod(counts)`` elements.  Each level
    doubles the filled prefix with one add per step, so the fill costs
    ``O(log len(out))`` numpy calls whatever the pattern's shape.
    """
    period = len(pattern)
    size = period
    total = size
    for count, _ in repeats:
        total *= count
    if total != len(out):
        raise ValueError("tile_strided output length mismatch")
    if total == 0:
        return
    out[:size] = pattern
    for count, stride in repeats:
        if not np.isscalar(stride):
            stride = np.asarray(stride)
        done = 1
        while done < count:
            step = min(done, count - done)
            np.add(out[: step * size].reshape(-1, period), done * stride,
                   out=out[done * size : (done + step) * size].reshape(-1, period))
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
                 "_n")

    def __init__(self) -> None:
        self._region_names: list[str] = []
        self._region_ids: dict[str, int] = {}
        self._rids = self._alloc(_INITIAL_CAPACITY, np.uint8)
        self._offs = self._alloc(_INITIAL_CAPACITY, np.int32)
        self._ops = self._alloc(_INITIAL_CAPACITY, np.uint8)
        self._n = 0

    @staticmethod
    def _alloc(length: int, dtype: Any) -> np.ndarray:
        """An uninitialized column of ``length`` elements.

        The column is an exact-length view of an allocation rounded up
        to a power of two: per-round traces whose length varies a little
        then request one allocation size, so the allocator keeps mapping
        and unmapping large columns instead of leaving freed ones as
        heap holes that raise the process's resident memory.  The tail
        is never written, so its pages are never faulted in.
        """
        size = 1 << max(length - 1, 0).bit_length()
        return np.empty(size, dtype=dtype)[:length]

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

    def record_open(self, region: str, ops: Any, count: int, *,
                    max_offset: int) -> np.ndarray:
        """Append ``count`` accesses to ``region`` and leave their offsets
        for the caller to write.

        The region column is filled and the op column repeats the
        period ``ops`` (``count`` must be a multiple of its length).
        Returns the writable offsets view of the new accesses, which
        the caller fills (e.g. by :func:`tile_strided`) before the next
        append; every offset it writes must lie in ``[0, max_offset]``.
        """
        codes = np.asarray([_norm_op(o) for o in ops], dtype=np.uint8)
        if count % codes.size:
            raise ValueError("record_open count must be a multiple of the op period")
        self._widen_offsets_if_needed(0, max_offset)
        self._ensure(count)
        n = self._n
        self._rids[n : n + count] = self.region_id(region)
        tile_strided(codes, ((count // codes.size, 0),), self._ops[n : n + count])
        self._n = n + count
        return self._offs[n : n + count]

    def record_periodic(self, region: str, offsets: Any, ops: Any,
                        repeats: Sequence[tuple[Any, Any]]) -> None:
        """Append one access pattern repeated at nested strides.

        ``offsets`` / ``ops`` (equal length) are one period.  ``repeats``
        lists ``(count, stride)`` levels, innermost first: each level
        repeats everything inside it ``count`` times, shifting the
        offsets by ``stride`` -- one int, or one int per slot of the
        period -- per repetition.  Equivalent to scalar :meth:`record`
        calls over the expanded stream, but the columns are written by
        doubling copies (see :func:`tile_strided`) with no temporary and
        no scan.
        The Advanced fold's ``(read pos, write pos - 1)`` pairs are
        ``offsets=(1, 0)``, ``ops=(R, W)``, ``repeats=((m - 1, 1),)``.
        An expansion that would reach a negative offset raises.
        """
        pattern = np.asarray(offsets, dtype=np.int64).reshape(-1)
        if pattern.size != len(ops):
            raise ValueError("record_periodic requires one op per offset")
        count = pattern.size
        lo, hi = pattern.copy(), pattern.copy()
        for reps, stride in repeats:
            count *= reps
            shift = max(reps - 1, 0) * np.asarray(stride, dtype=np.int64)
            lo += np.minimum(shift, 0)
            hi += np.maximum(shift, 0)
        if count <= 0:
            return
        if int(lo.min()) < 0:
            raise ValueError("record_periodic offsets must be non-negative")
        tile_strided(pattern, repeats, self.record_open(
            region, ops, count, max_offset=int(hi.max())))

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
    # Views
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

    def offsets_array(self, region: str, op: str | None = None) -> np.ndarray:
        """Offsets touched in ``region`` (optionally one op), in order,
        as an ``int64`` numpy array."""
        rid = self._region_ids.get(region)
        if rid is None:
            return np.empty(0, dtype=np.int64)
        rids, offs, ops = self.columns()
        mask = rids == rid
        if op is not None:
            mask &= ops == _norm_op(op)
        return offs[mask].astype(np.int64, copy=False)

    def __len__(self) -> int:
        return self._n

    def _translate_ids(self, other: "Trace") -> np.ndarray:
        """``other``'s region ids in this trace's table (-1: absent)."""
        return np.asarray(
            [self._region_ids.get(name, -1) for name in other._region_names],
            dtype=np.int64,
        )

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
        # Different interning orders: compare in a's table.
        return bool(np.array_equal(rids_a, self._translate_ids(other)[rids_b]))

    def signature_digest(self) -> str:
        """SHA-256 digest of the canonical trace, for O(n) equality.

        Region ids are remapped to first-appearance order so that two
        traces with identical access sequences (even if their region
        tables were interned differently) hash identically.  Collisions
        aside, ``a.signature_digest() == b.signature_digest()`` iff
        ``a == b``; the digest is the hashable key of a trace (one pass
        over the columns, no per-access objects).
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
        ``region_ids``; ``ops`` holds numeric operation codes.  This is
        the entry for columns read from a file
        (:func:`repro.core.checkpoint.load_trace`), so it refuses op
        codes outside ``{OP_READ, OP_WRITE}``, region ids outside the
        table and a table that names a region twice with
        :class:`ValueError` before anything is stored (a cast to the
        ``uint8`` columns would wrap ``-1`` to 255).
        """
        if len(set(regions)) != len(regions):
            raise ValueError("region table names a region twice")
        rids = np.asarray(region_ids).reshape(-1)
        ops_arr = np.asarray(ops).reshape(-1)
        if rids.size and (int(rids.min()) < 0
                          or int(rids.max()) >= len(regions)):
            raise ValueError(
                f"region ids must lie in [0, {len(regions)}), the region table")
        if ops_arr.size and not np.isin(ops_arr, (OP_READ, OP_WRITE)).all():
            raise ValueError(
                f"op codes must be {OP_READ} (read) or {OP_WRITE} (write)")
        trace = cls()
        for name in regions:
            trace.region_id(name)
        trace.record_columns(rids, offsets, ops_arr)
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
