"""Extracting per-client leaked index sets from enclave traces.

The adversary of Section 3.1 watches the aggregation run.  Under the
Linear algorithm the trace interleaves a fixed-order scan of the
concatenated gradient buffer ``g`` with data-dependent touches of the
aggregation buffer ``g_star``; since the adversary delivers the
ciphertexts itself, it knows which segment of ``g`` belongs to which
client and can attribute every ``g_star`` access to a client.  The
result -- one observed index set per client per round -- is the raw
input of the attack classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.aggregation import G_STAR_REGION
from ..core.obliviousness import leaked_index_sets
from ..core.olive import OliveRoundLog
from ..serving.engine import SERVE_TABLE_REGION, ServedBatch
from ..sgx.observer import coarsen


@dataclass(frozen=True)
class RoundObservation:
    """What the adversary extracted from one round."""

    round_index: int
    observed: dict[int, frozenset[int]]  # client id -> observed offsets/lines


def observe_round(
    log: OliveRoundLog,
    granularity: str = "word",
    gstar_itemsize: int = 4,
) -> RoundObservation:
    """Project one round's trace into per-client observed index sets.

    Requires the round to have been run with ``traced=True``.  For a
    fully oblivious aggregator the extracted sets are identical across
    clients and rounds (or empty), carrying no information.
    """
    if log.trace is None:
        raise ValueError("round was not traced; run with traced=True")
    participants = list(log.updates.keys())
    boundaries = [0]
    for cid in participants:
        boundaries.append(boundaries[-1] + log.updates[cid].k)
    # ``log.updates`` is in fold order; each leaf fold restarts ``g``.
    folds = [(pos, boundaries[first])
             for pos, first in log.shard_report.folds]
    raw_sets = leaked_index_sets(log.trace, G_STAR_REGION, boundaries,
                                 folds)
    observed = {
        cid: coarsen_indices(raw, granularity, gstar_itemsize)
        for cid, raw in zip(participants, raw_sets)
    }
    return RoundObservation(round_index=log.round_index, observed=observed)


def observe_rounds(
    logs: list[OliveRoundLog], granularity: str = "word"
) -> list[RoundObservation]:
    """Observation for every traced round."""
    return [observe_round(log, granularity) for log in logs]


def coarsen_indices(
    indices, granularity: str = "word", itemsize: int = 4, line_bytes: int = 64
) -> frozenset[int]:
    """Distinct observed offsets/lines of an index set.

    Coarsens leaked sets and ground-truth/teacher indices alike, so
    teacher observations live in the same feature space as leaked ones
    (Algorithm 2, lines 9-12).
    """
    arr = np.asarray(list(indices), dtype=np.int64)
    return frozenset(np.unique(
        coarsen(arr, granularity, itemsize, line_bytes)).tolist())


def feature_dim(d: int, granularity: str = "word",
                itemsize: int = 4, line_bytes: int = 64) -> int:
    """Dimensionality of the observation space for a d-parameter model."""
    if granularity == "word":
        return d
    return (d * itemsize + line_bytes - 1) // line_bytes


# -- serving-side observations ------------------------------------------
# The same adversary watches the inference path: during one served
# batch the trace touches the per-class calibration table once per slot
# in slot order, and each slot contributes a count of table accesses
# that is fixed by the serving mode (the whole table obliviously, one
# row in plain mode).  Both counts are public -- they follow from the
# model and batch shape -- so the adversary can attribute every table
# access to a batch slot, exactly as gradient-buffer segments are
# attributed to clients during training.


def serving_slot_observations(
    batch: ServedBatch,
    granularity: str = "word",
    line_bytes: int = 64,
) -> list[frozenset[int]]:
    """Per-slot observed sets over the serving class table.

    Splits the batch trace's ``serve_table`` accesses (record order)
    into equal per-slot segments and coarsens each into the observation
    space.  For the oblivious engine every slot's set is the full table
    -- identical across slots, inputs, and batches.
    """
    if batch.trace is None or batch.layout is None:
        raise ValueError("batch was not traced; run infer_batch(traced=True)")
    n_slots = len(batch.labels)
    if batch.trace.region_index(SERVE_TABLE_REGION) is None:
        raise ValueError("trace has no serve_table region")
    table_offs = batch.trace.offsets_array(SERVE_TABLE_REGION)
    if len(table_offs) % n_slots:
        raise ValueError(
            f"{len(table_offs)} table accesses do not split into "
            f"{n_slots} slots"
        )
    per_slot = len(table_offs) // n_slots
    itemsize = batch.layout.itemsize(SERVE_TABLE_REGION)
    return [
        coarsen_indices(table_offs[slot * per_slot : (slot + 1) * per_slot],
                        granularity, itemsize, line_bytes)
        for slot in range(n_slots)
    ]


def serving_feature_dim(
    n_labels: int,
    granularity: str = "word",
    itemsize: int = 8,
    line_bytes: int = 64,
) -> int:
    """Observation-space dimensionality of the (L, L) serving table."""
    return feature_dim(
        n_labels * n_labels, granularity, itemsize=itemsize,
        line_bytes=line_bytes,
    )
