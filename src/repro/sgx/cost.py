"""Cycle-level cost model for enclave memory behaviour.

Pure-Python wall time reproduces the *asymptotic* behaviour of the
paper's algorithms (the O(nkd) vs O((nk+d)log^2) separation of
Figure 10), but the cache- and paging-driven effects of Figures 11-12
are properties of the SGX memory hierarchy, not of the interpreter.
This module reproduces that hierarchy explicitly, matching the paper's
evaluation machine (Section 5.5):

* 1 MB L2 and 8 MB L3 set-associative LRU caches;
* a 96 MB EPC; pages touched beyond it incur the SGX paging penalty
  (re-encryption plus integrity-tree verification, tens of
  microseconds -- orders of magnitude above a DRAM access);
* inside-EPC misses still pay the memory-encryption-engine surcharge.

Algorithms feed their (data-independent) cacheline address streams to
:class:`CostModel`, which returns total simulated cycles.  Because every
oblivious algorithm's stream is a pure function of the input *shape*,
the streams are generated structurally (see :mod:`repro.core.streams`).

The replayer (:class:`VectorSetAssociativeCache`) consumes numpy
chunks.  It collapses repeated runs analytically (run-length fast
path), proves most cache hits via the LRU stack-distance inclusion
property, and only serializes the residual first-touch/far-reuse
"events" (see DESIGN.md section 9 for the argument of exactness).
Its :class:`ReplayStats` are pinned byte-for-byte against the
element-at-a-time LRU replayer that ``tests/oracles.py`` keeps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .. import obs

#: Accesses per vectorized replay batch; bounds intermediate arrays.
#: Measured optimum on array-fed streams (larger batches amortize the
#: per-batch classification overhead until sort locality degrades).
CHUNK_ACCESSES = 1 << 19


def _sort_key(values: np.ndarray, upper: int) -> np.ndarray:
    """Cheapest dtype for a stable argsort of ``values`` in [0, upper].

    numpy's stable sort is a radix sort for 16-bit integers (~8x faster
    than the int64 merge sort); the downcast pass is cheap relative.
    """
    if upper < (1 << 15):
        return values.astype(np.int16)
    if upper < (1 << 31):
        return values.astype(np.int32)
    return values


@dataclass(frozen=True)
class CostParameters:
    """Machine parameters; defaults mirror the paper's Xeon E-2174G."""

    line_bytes: int = 64
    l2_bytes: int = 1 * 1024 * 1024
    l2_assoc: int = 16
    l3_bytes: int = 8 * 1024 * 1024
    l3_assoc: int = 16
    page_bytes: int = 4096
    epc_bytes: int = 96 * 1024 * 1024
    cycles_l1_hit: int = 4
    cycles_l2_hit: int = 14
    cycles_l3_hit: int = 44
    cycles_dram: int = 250          # DRAM + MEE decrypt/integrity check
    cycles_epc_page_fault: int = 140_000  # EWB/ELDU paging round trip
    cycles_per_element_op: int = 6  # ALU work per touched element


class EpcPager:
    """Page-granular EPC residency with LRU eviction.

    When the touched working set exceeds the EPC, every fault pays the
    SGX paging penalty (page re-encryption + integrity verification).
    """

    def __init__(self, epc_bytes: int, page_bytes: int) -> None:
        self.page_bytes = page_bytes
        self.capacity_pages = max(epc_bytes // page_bytes, 1)
        self._resident: dict[int, None] = {}
        self.faults = 0
        self.hits = 0
        self.cold = 0

    def access(self, page: int) -> str:
        """Touch one page; returns ``"hit"``, ``"cold"``, or ``"evict"``.

        Only faults that displace a resident page model the expensive
        SGX EWB/ELDU paging round trip; cold first-touch misses are
        ordinary (MEE-priced) DRAM traffic.
        """
        if page in self._resident:
            # Move to MRU position.
            del self._resident[page]
            self._resident[page] = None
            self.hits += 1
            return "hit"
        if len(self._resident) >= self.capacity_pages:
            oldest = next(iter(self._resident))
            del self._resident[oldest]
            self._resident[page] = None
            self.faults += 1
            return "evict"
        self._resident[page] = None
        self.cold += 1
        return "cold"

    def reset(self) -> None:
        self._resident.clear()
        self.faults = 0
        self.hits = 0
        self.cold = 0


class VectorSetAssociativeCache:
    """Vectorized set-associative LRU over numpy address blocks.

    State lives in two ``(n_sets, assoc)`` arrays: resident line tags
    and the global stream position of each way's last use.  Exactness
    rests on the LRU *inclusion property*: at any instant a set's
    residents are exactly the ``assoc`` most-recently-touched distinct
    lines mapping to it, so an access hits iff its stack distance (the
    number of distinct same-set lines touched since its previous touch)
    is below the associativity.  A block of addresses (with strictly
    increasing positions) is then resolved in two tiers:

    1. *Classification* (fully vectorized) decides most accesses
       without replaying state:

       * stack distance < assoc is implied when the previous same-set
         occurrence lies at most ``assoc`` same-set accesses back --
         certain hit (covers repeated runs, bitonic comparator
         read/write pairs, and steady-state scans);
       * a first touch of a line absent from the carry-in state is a
         certain miss (cold fills, first sort passes);
       * when the running maximum of previous-occurrence indices stays
         at or below the access's own previous index, every access in
         its reuse window touched a distinct line, so a window of at
         least ``assoc`` accesses is a certain miss (cyclic sweeps and
         stage-ordered sort streams beyond capacity).

    2. Sets left with any *unclassified* access (irregular far reuses)
       replay their whole sub-streams through exact per-set event
       rounds: per set the residual events are processed in order, but
       event rank r of every such set forms one conflict-free round
       resolved with whole-array operations, with certain-hit recency
       refreshes applied lazily (``maximum.at``) right before the next
       event round of their set (a certain hit's line stays within the
       top-``assoc`` of its set's LRU stack, so it is never evicted
       before its position and the lazy refresh is exact).

    End-of-block state for tier-1 sets is reconciled directly as the
    top-``assoc`` last-touched lines per set -- the inclusion property
    again -- merging carry-in residents with the block's touches.
    """

    def __init__(self, capacity_bytes: int, assoc: int, line_bytes: int) -> None:
        if capacity_bytes % (assoc * line_bytes):
            raise ValueError("capacity must be a multiple of assoc * line size")
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.n_sets = capacity_bytes // (assoc * line_bytes)
        self._tags = np.full((self.n_sets, assoc), -1, dtype=np.int64)
        self._lru = np.full((self.n_sets, assoc), -1, dtype=np.int64)
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self._tags.fill(-1)
        self._lru.fill(-1)
        self.hits = 0
        self.misses = 0

    def access_block(self, lines: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Touch a block of cachelines; returns the boolean hit mask.

        ``pos`` carries each access's global stream position (strictly
        increasing within and across calls); it doubles as the LRU
        timestamp.
        """
        n = lines.size
        hit = np.zeros(n, dtype=bool)
        if n == 0:
            return hit
        assoc = self.assoc
        sets = lines % self.n_sets
        line_max = int(lines.max())
        order = np.argsort(_sort_key(sets, self.n_sets - 1), kind="stable")
        ss = sets[order]
        newgrp = np.empty(n, dtype=bool)
        newgrp[0] = True
        np.not_equal(ss[1:], ss[:-1], out=newgrp[1:])
        starts = np.flatnonzero(newgrp)
        # Group id per sorted access and index within its set's
        # sub-stream, via one prefix sum (no per-group repeats).
        gid = np.cumsum(newgrp, dtype=np.int64) - 1
        sidx_sorted = np.arange(n, dtype=np.int64) - starts[gid]
        sidx = np.empty(n, dtype=np.int64)
        sidx[order] = sidx_sorted
        # Previous same-(set, line) occurrence, as a sub-stream index.
        # ``pos`` is ascending within the block and the set is a pure
        # function of the line, so one stable sort by line groups each
        # (set, line) chain in access order.  Carry-in residents count
        # as virtual accesses at indices -1 - recency_rank (MRU first);
        # "never touched" is NONE.
        none = np.int64(-(assoc + 2))
        o2 = np.argsort(_sort_key(lines, line_max), kind="stable")
        prev = np.full(n, none, dtype=np.int64)
        a, b = o2[1:], o2[:-1]
        same = lines[a] == lines[b]
        prev[a[same]] = sidx[b[same]]
        first = np.flatnonzero(prev == none)
        if first.size:
            s_f = sets[first]
            eq = self._tags[s_f] == lines[first][:, None]
            found = eq.any(axis=1)
            ts_f = self._lru[s_f, eq.argmax(axis=1)]
            rank = (self._lru[s_f] > ts_f[:, None]).sum(axis=1)
            prev[first[found]] = (-1 - rank)[found]
        # Reuse window width (same-set accesses since previous touch).
        width = sidx - prev - 1
        cert_hit = (prev > none) & (width < assoc)
        # Exclusive running maximum of prev along each sub-stream: when
        # it never exceeds an access's own prev, every access in the
        # window touched a distinct line, so the stack distance equals
        # the window width exactly.
        pv = prev[order]
        shifted = np.empty(n, dtype=np.int64)
        shifted[0] = none - 1
        shifted[1:] = pv[:-1]
        shifted[starts] = none - 1
        span = np.int64(n - (none - 1) + 1)
        runmax = np.maximum.accumulate(shifted - (none - 1) + gid * span)
        monotone_sorted = runmax - gid * span + (none - 1) <= pv
        monotone = np.empty(n, dtype=bool)
        monotone[order] = monotone_sorted
        cert_miss = (prev == none) | (monotone & (width >= assoc))
        unresolved = ~(cert_hit | cert_miss)
        # Patch rule for irregular far reuses (e.g. bitonic sort pass
        # boundaries, where near-reuse clusters break the running-max
        # rule): examine a bounded patch of same-set accesses right
        # after the previous touch.  Patch members whose own prev lies
        # strictly before the access's prev touched pairwise-distinct
        # lines, all different from the access's own line and from the
        # carry-in residents more recent than it (any repeat would have
        # its prev inside the patch/window instead), so counting
        # ``assoc`` of them proves stack distance >= assoc: certain
        # miss.
        u = np.flatnonzero(unresolved)
        if u.size:
            ipos = np.empty(n, dtype=np.int64)
            ipos[order] = np.arange(n, dtype=np.int64)
            pv_all = prev[order]
            p_u = prev[u]
            virt = p_u < 0
            base = np.where(virt, -1 - p_u, 0)  # carry-in ranks, all distinct
            p0_rel = np.where(virt, 0, p_u + 1)
            start = ipos[u] - sidx[u] + p0_rel
            realwin = sidx[u] - p0_rel
            # Staged depths: most accesses find ``assoc`` window-firsts
            # within a few entries; the deep pass (sized for the
            # sparsest structural pattern -- a same-set comparator pair
            # alternating two lines for ~32 consecutive same-set
            # accesses, 2 distinct per cluster) runs on the remainder.
            for depth in (2 * assoc + 4, 16 * assoc + 16):
                c_u = np.minimum(realwin, depth)
                cols = np.arange(depth, dtype=np.int64)[None, :]
                take = np.minimum(start[:, None] + cols, n - 1)
                inside = cols < c_u[:, None]
                pj = pv_all[take]
                distinct = base + (inside & (pj < p_u[:, None])).sum(axis=1)
                hit_cap = distinct >= assoc
                cert_miss[u[hit_cap]] = True
                unresolved[u[hit_cap]] = False
                rem = ~hit_cap & (realwin > depth)
                if not rem.any():
                    break
                u, p_u, base, start, realwin = (
                    u[rem], p_u[rem], base[rem], start[rem], realwin[rem]
                )
        hit[cert_hit] = True
        if unresolved.any():
            # Exact replay for every set containing an unresolved
            # access (their certain outcomes are recomputed -- the
            # rounds engine is self-contained and agrees with them).
            badflag = np.zeros(self.n_sets, dtype=bool)
            badflag[sets[unresolved]] = True
            bad = badflag[sets]
            idx = np.flatnonzero(bad)
            hit[idx] = self._access_rounds(lines[idx], pos[idx])
            t1 = np.flatnonzero(~bad)
        else:
            t1 = None  # whole block is tier-1
        self._reconcile(lines, sets, pos, t1)
        n_hits = int(hit.sum())
        self.hits += n_hits
        self.misses += n - n_hits
        return hit

    def _reconcile(
        self, lines: np.ndarray, sets: np.ndarray, pos: np.ndarray,
        t1: np.ndarray | None,
    ) -> None:
        """Rewrite touched tier-1 sets as top-``assoc`` by last touch."""
        if t1 is not None:
            if t1.size == 0:
                return
            lines, sets, pos = lines[t1], sets[t1], pos[t1]
        assoc = self.assoc
        tags, lru = self._tags, self._lru
        flags = np.zeros(self.n_sets, dtype=bool)
        flags[sets] = True
        touched = np.flatnonzero(flags)
        # Carry-in residents of the touched sets join the candidates.
        # They precede the block's touches so that, with each resident
        # line appearing at most once and carrying an older timestamp
        # than any block position, a single stable sort by line leaves
        # every (set, line) group in timestamp order.
        carry = tags[touched]
        valid = carry != -1
        c_sets = np.broadcast_to(touched[:, None], carry.shape)[valid]
        c_lines = carry[valid]
        c_ts = lru[touched][valid]
        all_sets = np.concatenate((c_sets, sets))
        all_lines = np.concatenate((c_lines, lines))
        all_ts = np.concatenate((c_ts, pos))
        # Last touch per (set, line): the final entry of each line group
        # (the set is a pure function of the line).
        o = np.argsort(
            _sort_key(all_lines, int(all_lines.max()) if all_lines.size else 0),
            kind="stable",
        )
        last = np.empty(o.size, dtype=bool)
        last[-1] = True
        last[:-1] = all_lines[o[1:]] != all_lines[o[:-1]]
        k = o[last]
        k_sets, k_lines, k_ts = all_sets[k], all_lines[k], all_ts[k]
        # Top-assoc per set by ts: rank from each set group's end.
        o2 = np.lexsort((k_ts, k_sets))
        ks = k_sets[o2]
        ng = np.empty(o2.size, dtype=bool)
        ng[0] = True
        np.not_equal(ks[1:], ks[:-1], out=ng[1:])
        gstarts = np.flatnonzero(ng)
        gcounts = np.diff(np.append(gstarts, o2.size))
        ends = np.repeat(gstarts + gcounts, gcounts)
        rank = ends - 1 - np.arange(o2.size, dtype=np.int64)
        keep = rank < assoc
        sel = o2[keep]
        tags[touched] = -1
        lru[touched] = -1
        tags[k_sets[sel], rank[keep]] = k_lines[sel]
        lru[k_sets[sel], rank[keep]] = k_ts[sel]

    def _access_rounds(self, lines: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Exact event-round replay for the given accesses.

        Self-contained: expects the full sub-streams of every set it
        touches, maintains ``_tags``/``_lru`` incrementally, and does
        not update the hit/miss counters (the caller does).
        """
        n = lines.size
        hit = np.zeros(n, dtype=bool)
        sets = lines % self.n_sets
        order = np.argsort(sets, kind="stable")
        ss = sets[order]
        newgrp = np.empty(n, dtype=bool)
        newgrp[0] = True
        np.not_equal(ss[1:], ss[:-1], out=newgrp[1:])
        starts = np.flatnonzero(newgrp)
        counts = np.diff(np.append(starts, n))
        # Index of each access within its set's sub-stream.
        sidx_sorted = np.arange(n, dtype=np.int64) - np.repeat(starts, counts)
        sidx = np.empty(n, dtype=np.int64)
        sidx[order] = sidx_sorted
        # Previous occurrence of the same (set, line) in the block.
        o2 = np.lexsort((pos, lines, sets))
        prev = np.full(n, -1, dtype=np.int64)
        a, b = o2[1:], o2[:-1]
        same = (sets[a] == sets[b]) & (lines[a] == lines[b])
        prev[a[same]] = sidx[b[same]]
        # Stack distance < assoc  =>  guaranteed hit.
        certain = (prev >= 0) & (sidx - prev <= self.assoc)
        hit[certain] = True
        # Event ranks / refresh buckets: exclusive per-set event count.
        ev_sorted = (~certain[order]).astype(np.int64)
        excl = np.cumsum(ev_sorted) - ev_sorted
        rank_sorted = excl - np.repeat(excl[starts], counts)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = rank_sorted

        ev_idx = np.flatnonzero(~certain)
        hit_idx = np.flatnonzero(certain)
        ev_rank = rank[ev_idx]
        ev_by_rank = ev_idx[np.argsort(ev_rank, kind="stable")]
        ev_rank_sorted = np.sort(ev_rank, kind="stable")
        hit_bucket = rank[hit_idx]
        hit_by_bucket = hit_idx[np.argsort(hit_bucket, kind="stable")]
        hit_bucket_sorted = np.sort(hit_bucket, kind="stable")

        tags, lru = self._tags, self._lru
        n_rounds = int(ev_rank_sorted[-1]) + 1 if ev_idx.size else 0
        max_bucket = int(hit_bucket_sorted[-1]) if hit_idx.size else -1
        for r in range(max(n_rounds, max_bucket + 1)):
            # Lazy recency refreshes scheduled before this event round.
            lo = np.searchsorted(hit_bucket_sorted, r, side="left")
            hi = np.searchsorted(hit_bucket_sorted, r, side="right")
            if hi > lo:
                h = hit_by_bucket[lo:hi]
                s_h, x_h = sets[h], lines[h]
                eq = tags[s_h] == x_h[:, None]
                np.maximum.at(lru, (s_h, eq.argmax(axis=1)), pos[h])
            lo = np.searchsorted(ev_rank_sorted, r, side="left")
            hi = np.searchsorted(ev_rank_sorted, r, side="right")
            if hi <= lo:
                continue
            e = ev_by_rank[lo:hi]   # one event per set: conflict-free
            ls, se, ps = lines[e], sets[e], pos[e]
            eq = tags[se] == ls[:, None]
            h = eq.any(axis=1)
            hit[e] = h
            if h.any():
                lru[se[h], eq[h].argmax(axis=1)] = ps[h]
            m = ~h
            if m.any():
                ms = se[m]
                victim = lru[ms].argmin(axis=1)
                tags[ms, victim] = ls[m]
                lru[ms, victim] = ps[m]
        return hit


@dataclass
class CostReport:
    """Aggregate outcome of charging an address stream."""

    accesses: int = 0
    cycles: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    dram_accesses: int = 0
    page_faults: int = 0

    @property
    def seconds(self) -> float:
        """Simulated seconds at the paper machine's 3.8 GHz."""
        return self.cycles / 3.8e9

    def merge(self, other: "CostReport") -> "CostReport":
        return CostReport(
            accesses=self.accesses + other.accesses,
            cycles=self.cycles + other.cycles,
            l2_hits=self.l2_hits + other.l2_hits,
            l3_hits=self.l3_hits + other.l3_hits,
            dram_accesses=self.dram_accesses + other.dram_accesses,
            page_faults=self.page_faults + other.page_faults,
        )


@dataclass(frozen=True)
class ReplayStats:
    """Cumulative replay statistics of one :class:`CostModel`.

    Accumulated across every ``charge_*`` call since the last
    :meth:`CostModel.reset` -- callers that previously merged per-call
    :class:`CostReport` objects can read one typed snapshot instead.
    The same fields feed the telemetry gauges (``cost.*``).
    """

    accesses: int = 0
    cycles: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    l3_hits: int = 0
    l3_misses: int = 0
    epc_hits: int = 0
    epc_cold: int = 0
    epc_evictions: int = 0

    @property
    def seconds(self) -> float:
        """Simulated seconds at the paper machine's 3.8 GHz."""
        return self.cycles / 3.8e9

    def as_gauges(self) -> dict[str, int]:
        """Flat ``cost.<field>`` mapping for telemetry gauges."""
        return {
            "cost.accesses": self.accesses,
            "cost.cycles": self.cycles,
            "cost.l2_hits": self.l2_hits,
            "cost.l2_misses": self.l2_misses,
            "cost.l3_hits": self.l3_hits,
            "cost.l3_misses": self.l3_misses,
            "cost.epc_hits": self.epc_hits,
            "cost.epc_cold": self.epc_cold,
            "cost.epc_evictions": self.epc_evictions,
        }


class CostModel:
    """Charges an address stream through L2 -> L3 -> DRAM/EPC paging."""

    def __init__(self, params: CostParameters | None = None) -> None:
        self.params = params or CostParameters()
        p = self.params
        self.l2 = VectorSetAssociativeCache(p.l2_bytes, p.l2_assoc, p.line_bytes)
        self.l3 = VectorSetAssociativeCache(p.l3_bytes, p.l3_assoc, p.line_bytes)
        self.pager = EpcPager(p.epc_bytes, p.page_bytes)
        self._lines_per_page = p.page_bytes // p.line_bytes
        self._clock = 0
        self._total_accesses = 0
        self._total_cycles = 0

    def reset(self) -> None:
        self.l2.reset()
        self.l3.reset()
        self.pager.reset()
        self._clock = 0
        self._total_accesses = 0
        self._total_cycles = 0

    @property
    def stats(self) -> ReplayStats:
        """Cumulative hit/miss/paging totals since the last reset."""
        return ReplayStats(
            accesses=self._total_accesses,
            cycles=self._total_cycles,
            l2_hits=self.l2.hits,
            l2_misses=self.l2.misses,
            l3_hits=self.l3.hits,
            l3_misses=self.l3.misses,
            epc_hits=self.pager.hits,
            epc_cold=self.pager.cold,
            epc_evictions=self.pager.faults,
        )

    def publish_telemetry(self) -> None:
        """Expose the cumulative stats as ``cost.*`` telemetry gauges."""
        for name, value in self.stats.as_gauges().items():
            obs.gauge(name, value)

    @staticmethod
    def _detect_period(heads: np.ndarray) -> int:
        """Dominant reuse period of a head stream (0 if none).

        The period is the modal distance between consecutive
        occurrences of the same line; structural streams revisit their
        working set with one fixed stride (e.g. the Baseline stream's
        per-iteration g* block), so the mode covers most of the stream
        when a steady-state span exists.
        """
        m = int(heads.size)
        o = np.argsort(heads, kind="stable")
        ho = heads[o]
        same = ho[1:] == ho[:-1]
        gaps = (o[1:] - o[:-1])[same]
        gaps = gaps[gaps <= 8192]
        if gaps.size < m // 4:
            return 0
        counts = np.bincount(gaps)
        period = int(counts.argmax())
        if period < 2 or int(counts[period]) < m // 8 or 6 * period > m:
            return 0
        return period

    def _charge_array(self, arr: np.ndarray, report: CostReport) -> None:
        """Charge one numpy chunk through the vectorized hierarchy."""
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        p = self.params
        n_total = int(arr.size)
        if n_total == 0:
            return
        # Run-length fast path: a repeat of the immediately preceding
        # line is a guaranteed L2 hit (the head access left it MRU and
        # nothing intervened in its set), so whole repeated runs --
        # linear scans touch each line 8-16x consecutively -- are
        # charged analytically and only run heads enter the hierarchy.
        # The wide (pre-collapse) passes only test equality, so they
        # run at int32 width when the lines fit -- half the memory
        # traffic on the hot RLE scans.
        if int(arr.min()) >= 0 and int(arr.max()) < (1 << 31):
            narrow = arr.astype(np.int32)
        else:
            narrow = arr
        if n_total > 1:
            heads_idx = np.flatnonzero(narrow[1:] != narrow[:-1]) + 1
            heads_idx = np.concatenate((np.zeros(1, dtype=np.int64), heads_idx))
        else:
            heads_idx = np.zeros(1, dtype=np.int64)
        heads = narrow[heads_idx]
        n_rep = n_total - int(heads.size)
        # Period-2 collapse: bitonic comparators emit alternating pair
        # runs x,y,x,y,... (one cluster per 8-element line pair).  A
        # repeat whose alternation continues one more step (its partner
        # repeats right after) has stack distance <= 1, a guaranteed L2
        # hit for assoc >= 2, and dropping it is window-exact: the run
        # touches only x and y, so no other access's window boundary
        # falls inside it, the kept first occurrences represent both
        # lines in any window that saw the dropped repeat, and the
        # run's relative recency order (y then x) is already carried by
        # the first pair.  The continuation condition keeps the run's
        # final out-of-phase repeat, whose partner line is NOT
        # re-touched after it -- dropping that one would misplace the
        # partner's kept representative outside later reuse windows.
        m = int(heads.size)
        if m > 4 and self.l2.assoc >= 2:
            drop = np.zeros(m, dtype=bool)
            mid = heads[2:m - 1]
            drop[2:m - 1] = (mid == heads[:m - 3]) & (heads[3:] == heads[1:m - 2])
            if drop.any():
                keep0 = ~drop
                n_rep += int(drop.sum())
                heads = heads[keep0]
                heads_idx = heads_idx[keep0]
                m = int(heads.size)
        heads = heads.astype(np.int64, copy=False)
        pos = self._clock + heads_idx
        # Steady-state periodic skip: when the stream cycles through a
        # fixed working set (Baseline's per-iteration g* block, Linear's
        # output scans), every period beyond the warm-up repeats the
        # same per-phase outcomes.  The hierarchy is steady level by
        # level -- L2 windows repeat from period 2, L3 windows (built
        # from steady L2 misses) from period 3, pager windows from
        # period 4 -- so we keep four leading periods plus the final
        # one (which carries the true last-touch recency of every span
        # line) and replicate period 4's per-phase outcomes over the
        # skipped middle.  Guard: only when the pager is already full
        # or provably cannot fill within this chunk, so no cold/evict
        # transition can hide inside a skipped span.
        period = 0
        spans: list[tuple[int, int]] = []
        if m >= 4096:
            pager = self.pager
            safe = len(pager._resident) >= pager.capacity_pages
            if not safe:
                chunk_pages = np.unique(heads // self._lines_per_page)
                safe = (
                    len(pager._resident) + int(chunk_pages.size)
                    < pager.capacity_pages
                )
            if safe:
                period = self._detect_period(heads)
        kcum = None
        if period:
            periodic = np.zeros(m, dtype=bool)
            periodic[period:] = heads[period:] == heads[:-period]
            step = np.diff(periodic.astype(np.int8))
            run_start = np.flatnonzero(step == 1) + 1
            run_end = np.flatnonzero(step == -1) + 1
            if periodic[0]:
                run_start = np.concatenate(([0], run_start))
            if periodic[-1]:
                run_end = np.concatenate((run_end, [m]))
            skip = np.zeros(m, dtype=bool)
            for t0, t1 in zip(run_start.tolist(), run_end.tolist()):
                # Skip whole periods only, so the tail rejoins the
                # stream phase-aligned: every junction then looks
                # exactly like a true period boundary (same adjacency,
                # same reuse windows) and the remaining tail of >= one
                # period carries the true final recency.
                reps = (t1 - t0 - 4 * period) // period
                if reps > 0:
                    skip[t0 + 3 * period:t0 + (3 + reps) * period] = True
                    spans.append((t0, reps))
            if spans:
                kcum = np.cumsum(~skip) - 1
                keep1 = ~skip
                heads = heads[keep1]
                pos = pos[keep1]
        mk = int(heads.size)
        track = bool(spans)
        l2_hit = self.l2.access_block(heads, pos)
        self.l2.hits += n_rep
        l2_hits = int(l2_hit.sum()) + n_rep
        l2m_idx = np.flatnonzero(~l2_hit)
        l3_hit = self.l3.access_block(heads[l2m_idx], pos[l2m_idx])
        l3_hits = int(l3_hit.sum())
        dram_idx = l2m_idx[~l3_hit]
        n_dram = int(dram_idx.size)
        if track:
            # Per-access outcome codes of the kept stream, consumed by
            # the span replication below: 0 L2 hit, 1 L3 hit, 2 DRAM
            # (EPC hit), 3 EPC cold, 4 EPC eviction (page fault).
            code = np.zeros(mk, dtype=np.int8)
            code[l2m_idx[l3_hit]] = 1
        faults = 0
        if n_dram:
            pages = heads[dram_idx] // self._lines_per_page
            # Same run-length collapse at page granularity: consecutive
            # same-page DRAM accesses beyond the first are EPC hits.
            if n_dram > 1:
                ph = np.flatnonzero(pages[1:] != pages[:-1]) + 1
                head_pos = np.concatenate((np.zeros(1, dtype=np.int64), ph))
            else:
                head_pos = np.zeros(1, dtype=np.int64)
            page_heads = pages[head_pos]
            pager = self.pager
            access = pager.access
            before = pager.faults
            if track:
                rmap = {"hit": 2, "cold": 3, "evict": 4}
                pcodes = [rmap[access(pg)] for pg in page_heads.tolist()]
                code[dram_idx] = 2
                code[dram_idx[head_pos]] = np.array(pcodes, dtype=np.int8)
            else:
                for pg in page_heads.tolist():
                    access(pg)
            faults = pager.faults - before
            pager.hits += n_dram - int(page_heads.size)
        if spans:
            pager = self.pager
            for t0, reps in spans:
                mates = kcum[t0 + 2 * period:t0 + 3 * period]
                cnt = np.bincount(code[mates], minlength=5) * reps
                # Defensive: a period-4 cold cannot occur (its page was
                # touched in an earlier period), but were one reported
                # the repeats would be resident-page hits.
                if cnt[3]:
                    cnt[2] += cnt[3]
                    cnt[3] = 0
                l2_hits += int(cnt[0])
                l3_hits += int(cnt[1])
                n_dram += int(cnt[2] + cnt[3] + cnt[4])
                faults += int(cnt[4])
                self.l2.hits += int(cnt[0])
                self.l2.misses += int(cnt[1:].sum())
                self.l3.hits += int(cnt[1])
                self.l3.misses += int(cnt[2:].sum())
                pager.hits += int(cnt[2])
                pager.cold += int(cnt[3])
                pager.faults += int(cnt[4])
        self._clock += n_total
        cycles = (
            n_total * p.cycles_per_element_op
            + l2_hits * p.cycles_l2_hit
            + l3_hits * p.cycles_l3_hit
            + (n_dram - faults) * p.cycles_dram
            + faults * p.cycles_epc_page_fault
        )
        report.accesses += n_total
        report.cycles += cycles
        report.l2_hits += l2_hits
        report.l3_hits += l3_hits
        report.dram_accesses += n_dram
        report.page_faults += faults

    def _charge_vector(self, lines, report: CostReport) -> None:
        if isinstance(lines, np.ndarray):
            for lo in range(0, lines.size, CHUNK_ACCESSES):
                self._charge_array(lines[lo:lo + CHUNK_ACCESSES], report)
            return
        it = iter(lines)
        while True:
            arr = np.fromiter(
                itertools.islice(it, CHUNK_ACCESSES), dtype=np.int64
            )
            if arr.size == 0:
                break
            self._charge_array(arr, report)

    def _charge(self, parts: Iterable) -> CostReport:
        report = CostReport()
        with obs.span("cost.charge") as charge_span:
            for part in parts:
                self._charge_vector(part, report)
            self._total_accesses += report.accesses
            self._total_cycles += report.cycles
            charge_span.set(accesses=report.accesses, cycles=report.cycles)
        if obs.enabled():
            self.publish_telemetry()
        return report

    def charge_chunks(self, chunks: Iterator[np.ndarray]) -> CostReport:
        """Charge a stream of numpy cacheline chunks.

        This is the array-end-to-end path fed by the chunked structural
        streams (``repro.core.streams.*_stream_chunks``).
        """
        return self._charge(np.asarray(arr) for arr in chunks)

    def charge_lines(self, lines: Iterable[int]) -> CostReport:
        """Charge a stream of cacheline indices; returns the report.

        Accepts numpy arrays, lists, or generators; generators are
        batched into numpy chunks.
        """
        return self._charge((lines,))

    def charge_addresses(self, byte_addresses: Iterable[int]) -> CostReport:
        """Charge byte addresses (coarsened to cachelines)."""
        line_bytes = self.params.line_bytes
        if isinstance(byte_addresses, np.ndarray):
            return self.charge_lines(byte_addresses // line_bytes)
        return self.charge_lines(a // line_bytes for a in byte_addresses)


def replay_trace_cost(
    trace,
    layout,
    params: CostParameters | None = None,
) -> tuple[CostModel, CostReport]:
    """Replay a whole recorded trace through a fresh :class:`CostModel`.

    Maps every access of ``trace`` (all regions, original order) onto
    its simulated physical byte address via ``layout``
    (:class:`repro.sgx.memory.RegionLayout`) in one vectorized gather,
    then charges the resulting address stream.  This is how the
    serving subsystem prices an inference batch: the engine records
    the batch's trace, and this replay answers "what would that access
    sequence cost on the modelled machine" -- returning the model (for
    cumulative :attr:`CostModel.stats`) and the batch's
    :class:`CostReport`.
    """
    model = CostModel(params)
    rids, offs, _ = trace.columns()
    names = trace.region_names
    if len(rids) == 0:
        return model, CostReport()
    bases = np.asarray([layout.base(name) for name in names], dtype=np.int64)
    itemsizes = np.asarray(
        [layout.itemsize(name) for name in names], dtype=np.int64
    )
    addresses = bases[rids] + offs.astype(np.int64) * itemsizes[rids]
    report = model.charge_addresses(addresses)
    return model, report
