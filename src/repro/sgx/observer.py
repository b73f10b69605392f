"""Side-channel adversary view of an enclave trace.

The semi-honest server of Section 3.1 cannot read enclave data, but it
observes which addresses the enclave touches, at the two granularities
the paper evaluates:

* ``granularity="word"`` -- every element offset (the strongest,
  page-probe-plus-probe-everything adversary used in Figures 4-7);
* ``granularity="cacheline"`` -- 64-byte lines, what cache attacks on
  SGX realistically achieve (Figure 8).

:func:`coarsen` maps element offsets to what such an adversary
resolves; it is the one place that holds the line rule.  A region's
view is ``coarsen(trace.offsets_array(region), ...)``; the attack of
Section 4 feeds it the per-client offsets of the aggregation buffer
``g*`` (for the non-oblivious Linear algorithm, the client's top-k
index set).
"""

from __future__ import annotations

import numpy as np

from .memory import CACHELINE_BYTES

WORD = "word"
CACHELINE = "cacheline"


def coarsen(offsets, granularity: str = WORD, itemsize=8,
            line_bytes: int = CACHELINE_BYTES) -> np.ndarray:
    """Element offsets as an adversary at ``granularity`` observes them.

    ``word`` returns ``offsets`` unchanged; ``cacheline`` maps each to
    ``offset * itemsize // line_bytes`` (int64) for ``itemsize``-byte
    elements.  ``itemsize`` is one int or one per offset.  Refuses an
    unknown granularity and a non-positive ``itemsize`` or
    ``line_bytes``.
    """
    if granularity not in (WORD, CACHELINE):
        raise ValueError(f"unknown granularity {granularity!r}")
    if line_bytes <= 0:
        raise ValueError(f"line_bytes must be positive, got {line_bytes}")
    sizes = np.asarray(itemsize)
    if sizes.size and sizes.min() <= 0:
        raise ValueError(f"itemsize must be positive, got {sizes.min()}")
    if granularity == WORD:
        return offsets
    return (np.asarray(offsets).astype(np.int64) * sizes) // line_bytes
