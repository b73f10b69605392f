"""Machine-checking obliviousness (Definition 2.2).

An algorithm is fully oblivious when its access pattern is identical
(or statistically indistinguishable, for randomized algorithms) across
all same-length inputs.  This module turns that definition into
executable checks used by the property tests and the security analysis:

* :func:`traces_equal` / :func:`trace_distance` -- exact comparison of
  two recorded traces, optionally coarsened to cachelines;
* :func:`check_oblivious` -- run an algorithm on many random same-shape
  inputs and report whether every trace matched the first (the paper's
  delta = 0 case); a single mismatch certifies non-obliviousness with a
  witness input pair;
* :func:`empirical_statistical_distance` -- estimate the statistical
  distance between trace distributions of a *randomized* algorithm on
  two fixed inputs (used for the shuffle-based components).

At cacheline granularity each check first builds the coarsened trace
once (same region table and ops, offsets through
:func:`repro.sgx.observer.coarsen` with the region's itemsize) and then
compares it like a word-level one: ``==`` for equality,
:meth:`Trace.signature_digest` as the hashable :func:`trace_key`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ..sgx.memory import OP_READ, Trace
from ..sgx.observer import WORD, coarsen


def _observed(trace: Trace, granularity: str,
              itemsizes: dict[str, int] | None, line_bytes: int) -> Trace:
    """The trace an adversary at ``granularity`` records.

    Word level is the trace itself.  At cacheline level, offsets go
    through :func:`coarsen` with their region's itemsize (``itemsizes``,
    default 8 bytes); the region table and ops are kept.
    """
    if granularity == WORD:
        return trace
    rids, offs, ops = trace.columns()
    names = trace.region_names
    sizes = np.array([(itemsizes or {}).get(nm, 8) for nm in names],
                     dtype=np.int64)
    coarse = coarsen(offs, granularity, sizes[rids], line_bytes)
    return Trace.from_columns(names, rids, coarse, ops)


def trace_key(trace: Trace, granularity: str = WORD,
              line_bytes: int = 64, itemsizes: dict[str, int] | None = None
              ) -> str:
    """Hashable key of a trace at the chosen granularity: the
    :meth:`Trace.signature_digest` of what the adversary records."""
    return _observed(trace, granularity, itemsizes,
                     line_bytes).signature_digest()


def traces_equal(a: Trace, b: Trace, granularity: str = WORD,
                 itemsizes: dict[str, int] | None = None,
                 line_bytes: int = 64) -> bool:
    """True when two traces are indistinguishable at the granularity."""
    return (_observed(a, granularity, itemsizes, line_bytes)
            == _observed(b, granularity, itemsizes, line_bytes))


def trace_distance(a: Trace, b: Trace) -> int:
    """Number of positions at which two traces differ (inf-type metric).

    0 means identical; any positive value is a concrete distinguisher
    for the adversary.
    """
    rids_a, offs_a, ops_a = a.columns()
    rids_b, offs_b, ops_b = b.columns()
    n = min(len(offs_a), len(offs_b))
    same = (
        (offs_a[:n].astype(np.int64) == offs_b[:n].astype(np.int64))
        & (ops_a[:n] == ops_b[:n])
        & (rids_a[:n] == a._translate_ids(b)[rids_b[:n]])
    )
    return max(len(offs_a), len(offs_b)) - int(same.sum())


@dataclass
class ObliviousnessReport:
    """Outcome of an empirical obliviousness check."""

    oblivious: bool
    trials: int
    first_mismatch_trial: int | None = None

    def __bool__(self) -> bool:
        return self.oblivious


def check_oblivious(
    run: Callable[[object], Trace],
    inputs: Iterable[object],
    granularity: str = WORD,
    itemsizes: dict[str, int] | None = None,
) -> ObliviousnessReport:
    """Execute ``run`` on each input; all traces must match the first.

    ``run`` receives one input and must return the recorded
    :class:`Trace`.  Deterministic algorithms only: a randomized
    algorithm needs :func:`empirical_statistical_distance`.
    """
    reference: Trace | None = None
    trial = -1
    for trial, item in enumerate(inputs):
        trace = run(item)
        if reference is None:
            reference = trace
        elif not traces_equal(reference, trace, granularity,
                              itemsizes=itemsizes):
            return ObliviousnessReport(
                oblivious=False, trials=trial + 1, first_mismatch_trial=trial
            )
    return ObliviousnessReport(oblivious=True, trials=trial + 1)


def empirical_statistical_distance(
    run: Callable[[object], Trace],
    input_a: object,
    input_b: object,
    samples: int = 50,
    granularity: str = WORD,
    itemsizes: dict[str, int] | None = None,
) -> float:
    """Monte-Carlo total-variation distance between trace distributions.

    Runs the (randomized) algorithm ``samples`` times on each input and
    compares the empirical distributions of their :func:`trace_key`
    digests (exact, order-sensitive).  0 means the samples are
    indistinguishable; 1 means disjoint support (the Linear-on-sparse
    case of Proposition 3.2).
    """
    def key(trace: Trace) -> str:
        return trace_key(trace, granularity, itemsizes=itemsizes)

    counts_a: Counter = Counter()
    counts_b: Counter = Counter()
    for _ in range(samples):
        counts_a[key(run(input_a))] += 1
        counts_b[key(run(input_b))] += 1
    support = set(counts_a) | set(counts_b)
    return 0.5 * sum(
        abs(counts_a[k] / samples - counts_b[k] / samples) for k in support
    )


def leaked_index_sets(
    trace: Trace, region: str, boundaries: Sequence[int],
    folds: Sequence[tuple[int, int]] | None = None,
) -> list[frozenset[int]]:
    """Split ``region`` accesses into per-client observed index sets.

    ``boundaries`` are the cumulative input-weight counts per client
    (client i owns input positions ``[boundaries[i], boundaries[i+1])``
    of the concatenated gradient vector ``g``).  Accesses to ``region``
    are attributed to the client whose ``g`` segment was being scanned,
    using the interleaving of the Linear algorithm (read g[pos], read
    g*[idx], write g*[idx]).  The attribution never moves backwards:
    the owning client is the running maximum over ``g`` reads so far,
    matching a forward scan of the concatenated gradient.

    ``folds`` splits a trace of several kernel runs (leaf folds):
    ``(trace position, g position)`` where each run starts and where
    its ``g`` offset 0 sits in the concatenated gradient; the running
    maximum restarts with every run.  ``None``: one run from 0.
    """
    n_clients = len(boundaries) - 1
    sets: list[frozenset[int]] = [frozenset() for _ in range(n_clients)]
    rids, offs, ops = trace.columns()
    if not len(offs):
        return sets
    g_id = trace.region_index("g")
    target_id = trace.region_index(region)
    if g_id is None or target_id is None:
        return sets
    bounds = np.asarray(boundaries, dtype=np.int64)

    g_read = (rids == g_id) & (ops == OP_READ)
    g_pos = np.flatnonzero(g_read)
    if not len(g_pos):
        return sets
    g_offs = offs[g_pos].astype(np.int64)
    run = np.zeros(len(g_pos), dtype=np.int64)
    if folds:
        starts, bases = np.asarray(folds, dtype=np.int64).T
        run = np.maximum(np.searchsorted(starts, g_pos, side="right") - 1, 0)
        g_offs = g_offs + bases[run]
    client_at_read = np.searchsorted(bounds, g_offs, side="right") - 1
    client_at_read = np.minimum(client_at_read, n_clients - 1)
    # Running maximum within each run: shifting run r by r * n_clients
    # keeps every run above all earlier ones.
    shift = run * n_clients
    client_at_read = np.maximum.accumulate(client_at_read + shift) - shift

    target_pos = np.flatnonzero(rids == target_id)
    if not len(target_pos):
        return sets
    # Current client at each target access = client of the last g read
    # at or before it (-1 when none yet).
    last_read = np.searchsorted(g_pos, target_pos, side="right") - 1
    valid = last_read >= 0
    clients = client_at_read[last_read[valid]]
    offsets = offs[target_pos[valid]].astype(np.int64)
    keep = clients >= 0
    clients = clients[keep]
    offsets = offsets[keep]
    if not len(clients):
        return sets
    pairs = np.unique(np.stack([clients, offsets], axis=1), axis=0)
    split = np.searchsorted(pairs[:, 0], np.arange(n_clients + 1))
    return [
        frozenset(pairs[split[c] : split[c + 1], 1].tolist())
        for c in range(n_clients)
    ]
