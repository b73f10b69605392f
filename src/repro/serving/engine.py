"""Oblivious inference engine: trace-oblivious forward passes in the enclave.

The serving twin of the oblivious aggregators.  A trained model (loaded
from the training checkpoint format) runs inside an :class:`Enclave`;
the data-dependent step of responding to a request -- retrieving the
predicted class's calibration row from a per-class table, the
embedding/table-lookup shape TENNOR makes the core of oblivious NN
execution -- goes through the enclave's traced memory in one of two
modes:

* **oblivious** (the product path): every slot scans the *entire*
  class table front to back (one ``read_block``, the grouped/batched
  form of :func:`repro.oblivious.primitives.o_access_rows`) and keeps
  the wanted row via arithmetic one-hot selection in registers.  The
  recorded trace is a pure function of ``(batch_size, n_labels)`` --
  input-independent, so the attack pipeline scores AUC 0.5 against it.
* **plain** (the non-oblivious reference): each slot reads only its
  predicted class's row, so the trace names the served class outright
  -- the baseline the leakage benchmarks measure against.

Dense layer compute (matmuls, activations) happens on register-modeled
numpy tensors, which the trace model treats as unobservable -- the same
trust model as the training-side kernels; what the adversary sees is
the table retrieval plus the fixed-order staging and output writes.

Batches are **fixed-shape**: the scheduler pads every batch to the
configured size, padding slots run through the identical compute and
retrieval, so batch fill leaks nothing either.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import obs
from ..fl.models import MODEL_NAMES, Linear, Sequential, build_model
from ..sgx.cost import CostParameters, CostReport, ReplayStats, replay_trace_cost
from ..sgx.enclave import Enclave
from ..sgx.memory import RegionLayout, Trace, TracedArray

#: Traced region names of one inference batch.
SERVE_IN_REGION = "serve_in"
SERVE_TABLE_REGION = "serve_table"
SERVE_OUT_REGION = "serve_out"


def model_output_dim(model: Sequential) -> int:
    """Number of output classes (the final Linear layer's width)."""
    for layer in reversed(model.layers):
        if isinstance(layer, Linear):
            return int(layer.bias.shape[-1])
    raise ValueError("model has no Linear output layer")


def infer_model_name(n_params: int) -> str:
    """Recover the architecture name from a checkpoint's weight count.

    The training checkpoint format stores weights + privacy ledger but
    not the architecture; every paper model has a distinct parameter
    count, so the count identifies it.
    """
    for name in MODEL_NAMES:
        if build_model(name).num_params == n_params:
            return name
    raise ValueError(
        f"no known architecture has {n_params} parameters "
        f"(known: {', '.join(MODEL_NAMES)})"
    )


def load_serving_model(
    path: str | Path, model_name: str | None = None
) -> tuple[Sequential, dict]:
    """Load a trained model from a training checkpoint (.npz).

    Returns ``(model, checkpoint_meta)``.  ``model_name`` overrides the
    parameter-count inference (needed only if two architectures ever
    collide in size).
    """
    with np.load(Path(path), allow_pickle=False) as archive:
        weights = archive["global_weights"]
        meta = json.loads(str(archive["meta"]))
    name = model_name or infer_model_name(weights.size)
    model = build_model(name, seed=0)
    if model.num_params != weights.size:
        raise ValueError(
            f"checkpoint holds {weights.size} weights, "
            f"{name} expects {model.num_params}"
        )
    model.set_flat(np.asarray(weights, dtype=np.float64))
    meta["model_name"] = name
    return model, meta


@dataclass
class ServedBatch:
    """Result of one fixed-shape inference batch."""

    logits: np.ndarray        # (B, L) raw model outputs
    calibrated: np.ndarray    # (B, L) logits + retrieved calibration row
    labels: np.ndarray        # (B,) predicted classes
    trace: Trace | None       # recorded access trace (traced mode)
    layout: RegionLayout | None


class ObliviousInferenceEngine:
    """Serves fixed-shape batches with an input-independent trace.

    Parameters
    ----------
    model:
        The trained :class:`Sequential` to serve.
    batch_size:
        Fixed batch shape; :meth:`infer_batch` refuses other sizes
        (the scheduler owns padding).
    oblivious:
        ``True`` scans the whole class table per slot; ``False`` is the
        leaky reference path reading only the predicted row.
    enclave:
        The enclave whose traced memory hosts the serving regions; a
        fresh one is created when omitted.
    calibration_seed:
        Seed of the per-class calibration table (row ``l`` is added to
        the logits when class ``l`` is served -- per-class bias
        calibration, giving the retrieval observable semantics).
    """

    def __init__(
        self,
        model: Sequential,
        batch_size: int = 8,
        oblivious: bool = True,
        enclave: Enclave | None = None,
        calibration_seed: int = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.model = model
        self.batch_size = batch_size
        self.oblivious = oblivious
        self.enclave = enclave or Enclave(seed=calibration_seed)
        self.n_labels = model_output_dim(model)
        rng = np.random.default_rng(calibration_seed)
        #: (L, L) per-class calibration rows; row l is the logit offset
        #: applied when class l is the prediction.
        self.calibration = rng.normal(
            scale=1e-3, size=(self.n_labels, self.n_labels)
        )

    # ------------------------------------------------------------------
    def _alloc(
        self, traced: bool
    ) -> tuple[TracedArray, TracedArray, TracedArray]:
        """The three serving regions for one batch.

        Traced mode opens a fresh observation window on the enclave
        (one batch == one trace); untraced mode (throughput serving)
        backs the same code path with recording disabled.
        """
        b, lab = self.batch_size, self.n_labels
        if traced:
            self.enclave.reset_trace()
            stage = self.enclave.alloc(b, name=SERVE_IN_REGION)
            table = self.enclave.alloc(lab * lab, name=SERVE_TABLE_REGION)
            out = self.enclave.alloc(b * lab, name=SERVE_OUT_REGION)
        else:
            stage = TracedArray.zeros(SERVE_IN_REGION, b, trace=None)
            table = TracedArray.zeros(SERVE_TABLE_REGION, lab * lab,
                                      trace=None)
            out = TracedArray.zeros(SERVE_OUT_REGION, b * lab, trace=None)
        table.load(self.calibration.reshape(-1).tolist())
        return stage, table, out

    def infer_batch(self, x: np.ndarray, traced: bool = True) -> ServedBatch:
        """Serve one fixed-shape batch of feature tensors.

        ``x`` must stack exactly ``batch_size`` inputs.  In traced mode
        the returned batch carries the recorded trace and layout (one
        fresh observation window per batch).
        """
        if x.shape[0] != self.batch_size:
            raise ValueError(
                f"engine serves fixed batches of {self.batch_size}, "
                f"got {x.shape[0]} (the scheduler owns padding)"
            )
        lab = self.n_labels
        with obs.span("serving.forward", hist="serving.forward_s",
                      batch=self.batch_size, oblivious=self.oblivious):
            stage, table, out = self._alloc(traced)
            # Fixed-order staging: each sealed request lands in its
            # batch slot (one write per slot, slot order).
            stage.write_block(0, self.batch_size, [1.0] * self.batch_size)
            logits = self.model.forward(x[None], train=False)[0]
            labels = logits.argmax(axis=1)
            rows = np.empty((self.batch_size, lab))
            eye = np.arange(lab)
            for slot in range(self.batch_size):
                pred = int(labels[slot])
                if self.oblivious:
                    # Grouped o_access_rows: scan the whole table in
                    # offset order, keep the wanted row arithmetically.
                    scanned = np.asarray(table.read_block(0, lab * lab))
                    onehot = (eye == pred).astype(np.float64)
                    rows[slot] = onehot @ scanned.reshape(lab, lab)
                else:
                    rows[slot] = table.read_block(
                        pred * lab, (pred + 1) * lab
                    )
            calibrated = logits + rows
            for slot in range(self.batch_size):
                out.write_block(
                    slot * lab, (slot + 1) * lab, calibrated[slot].tolist()
                )
            obs.add("serving.batches")
            obs.add("serving.inferences", self.batch_size)
        return ServedBatch(
            logits=logits,
            calibrated=calibrated,
            labels=labels,
            trace=self.enclave.trace if traced else None,
            layout=self.enclave.layout if traced else None,
        )


def replay_serving_cost(
    batch: ServedBatch,
    params: CostParameters | None = None,
) -> tuple[ReplayStats, CostReport]:
    """Price one traced inference batch on the modelled machine.

    Vectorized cost-model replay over the batch's recorded trace;
    publishes the cumulative ``cost.*`` gauges when telemetry is on.
    """
    if batch.trace is None or batch.layout is None:
        raise ValueError("batch was not traced; run infer_batch(traced=True)")
    model, report = replay_trace_cost(batch.trace, batch.layout, params=params)
    return model.stats, report
