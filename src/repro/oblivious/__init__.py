"""Oblivious building blocks: register-level select/swap primitives,
Batcher's bitonic sorting network, oblivious shuffle, and padding
helpers for the differentially oblivious path."""

from .compaction import pad_to_length, pad_with_dummies, truncated_geometric_noise
from .primitives import (
    o_access,
    o_access_rows,
    o_equal,
    o_max,
    o_min,
    o_mov,
    o_swap,
    o_write,
)
from .shuffle import oblivious_shuffle_numpy
from .sort import (
    bitonic_sort_numpy,
    comparator_count,
    network_access_offsets,
)

__all__ = [
    "bitonic_sort_numpy",
    "comparator_count",
    "network_access_offsets",
    "o_access",
    "o_access_rows",
    "o_equal",
    "o_max",
    "o_min",
    "o_mov",
    "o_swap",
    "o_write",
    "oblivious_shuffle_numpy",
    "pad_to_length",
    "pad_with_dummies",
    "truncated_geometric_noise",
]
