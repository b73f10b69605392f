"""Client-grouping optimization for Advanced (Section 5.3).

Bitonic sort has poor locality; once the nk+d working vector outgrows
the L3 cache (or worse, the EPC), Advanced pays heavily per comparator.
The paper's fix: split the n participants into groups of h, run
Advanced per group, and accumulate the per-group aggregates into an
enclave-resident buffer, carrying the result across groups.  Security
is unchanged -- the adversary already knows the participant set size,
and group order is data-independent -- while each sort now works on an
(hk + d)-length vector that can be sized to the cache.

Complexity moves from O((nk+d) log^2 (nk+d)) to
O((n/h) (hk+d) log^2 (hk+d)); the interesting regime is governed by the
memory hierarchy, reproduced by :mod:`repro.sgx.cost` over the streams
in :mod:`repro.core.streams` (Figure 12).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import obs
from ..fl.client import LocalUpdate
from ..sgx.memory import Trace
from .aggregation import aggregate_advanced


def split_groups(
    updates: Sequence[LocalUpdate], group_size: int
) -> list[list[LocalUpdate]]:
    """Partition the round's updates into groups of ``group_size``."""
    if group_size < 1:
        raise ValueError("group size must be positive")
    return [
        list(updates[start : start + group_size])
        for start in range(0, len(updates), group_size)
    ]


def aggregate_grouped(
    updates: Sequence[LocalUpdate], d: int, group_size: int, *,
    trace: Trace | None = None,
) -> np.ndarray:
    """Grouped-Advanced aggregation, optionally recording into ``trace``.

    Each group's Advanced pass is fully oblivious, and the carry
    accumulation is a linear pass over the enclave-resident buffer, so
    the composite trace depends only on the group sizes -- which the
    adversary already knows (it delivers the ciphertexts).
    """
    groups = split_groups(updates, group_size)
    name = "kernel.grouped" if trace is None else "kernel.grouped_traced"
    with obs.span(name, groups=len(groups), d=d, group_size=group_size):
        total = np.zeros(d)
        for group in groups:
            total += aggregate_advanced(group, d, trace=trace)
        return total
