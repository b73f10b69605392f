"""Oblivious shuffle: random-key bitonic sort.

Used by the differentially oblivious aggregation path (Section 5.4),
which pads the gradient multiset with dummies and then obliviously
shuffles before a linear scatter pass.  Sorting by fresh uniform random
keys yields a permutation whose trace is input-independent (the network
schedule is fixed); the permutation itself is uniform up to key
collisions, which are negligible for the 62-bit keys drawn here
(``_KEY_BITS``; they stay non-negative in ``int64``).
"""

from __future__ import annotations

import numpy as np

from .sort import bitonic_sort_numpy

_KEY_BITS = 62


def oblivious_shuffle_numpy(
    *payloads: np.ndarray, rng: np.random.Generator | None = None
) -> None:
    """Shuffle payload arrays in place with one shared permutation.

    Every position is tagged with a fresh random key (register-held,
    untraced), the keys are bitonically sorted carrying the payloads,
    and the tags dropped.  The key draw and the sort schedule are both
    data-independent.
    """
    rng = rng or np.random.default_rng()
    if not payloads:
        return
    n = len(payloads[0])
    keys = rng.integers(0, 1 << _KEY_BITS, size=n, dtype=np.int64)
    bitonic_sort_numpy(keys, *payloads)
