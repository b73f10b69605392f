"""OLIVE's core contribution: oblivious aggregation algorithms, the
grouping optimization, the differentially-oblivious alternative, the
obliviousness verifier, structural cost streams, and the end-to-end
OLIVE system."""

from .checkpoint import (
    load_checkpoint,
    load_trace,
    save_checkpoint,
    save_trace,
)
from .aggregation import (
    AGGREGATORS,
    M0,
    AggregatorSpec,
    aggregate_advanced,
    aggregate_baseline,
    aggregate_linear,
    aggregate_path_oram,
)
from .do_aggregation import (
    DoParameters,
    aggregate_do,
    do_padding_counts,
    do_padding_overhead,
)
from .grouping import aggregate_grouped, split_groups
from .obliviousness import (
    ObliviousnessReport,
    check_oblivious,
    empirical_statistical_distance,
    leaked_index_sets,
    trace_distance,
    trace_key,
    traces_equal,
)
from .olive import OliveConfig, OliveRoundLog, OliveSystem
from .streams import (
    advanced_stream_chunks,
    baseline_stream_chunks,
    grouped_stream_chunks,
    linear_stream_chunks,
)

__all__ = [
    "AGGREGATORS",
    "AggregatorSpec",
    "DoParameters",
    "M0",
    "ObliviousnessReport",
    "OliveConfig",
    "OliveRoundLog",
    "OliveSystem",
    "advanced_stream_chunks",
    "aggregate_advanced",
    "aggregate_baseline",
    "aggregate_do",
    "aggregate_grouped",
    "aggregate_linear",
    "aggregate_path_oram",
    "baseline_stream_chunks",
    "check_oblivious",
    "do_padding_counts",
    "do_padding_overhead",
    "empirical_statistical_distance",
    "grouped_stream_chunks",
    "leaked_index_sets",
    "linear_stream_chunks",
    "load_checkpoint",
    "load_trace",
    "save_checkpoint",
    "save_trace",
    "split_groups",
    "trace_distance",
    "trace_key",
    "traces_equal",
]
