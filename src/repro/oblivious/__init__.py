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
    is_power_of_two,
    network_access_offsets,
    next_power_of_two,
    odd_even_merge_network,
)

__all__ = [
    "bitonic_sort_numpy",
    "comparator_count",
    "is_power_of_two",
    "network_access_offsets",
    "next_power_of_two",
    "o_access",
    "o_access_rows",
    "o_equal",
    "o_max",
    "o_min",
    "o_mov",
    "o_swap",
    "o_write",
    "odd_even_merge_network",
    "oblivious_shuffle_numpy",
    "pad_to_length",
    "pad_with_dummies",
    "truncated_geometric_noise",
]
