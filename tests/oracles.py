"""Scalar reference implementations: the oracle of the equivalence suite.

The package trains through one layer stack with a leading client axis
(``repro.fl.models``) and one client core (``repro.fl.client`` /
``repro.runtime.jobs``).  This module keeps the per-client scalar code
that stack replaced -- layers, loss, sparsifiers, the local-training
loop, dropout reseeding, the per-client job body and the one-client-at-
a-time cohort loop with its retry/backoff handling, and the trainers
that drove the scalar stack directly -- plus the term-by-term RDP expansion
of the privacy accountant, the per-bucket Path ORAM access, the
element-at-a-time aggregation recorders, comparator-at-a-time sorting
networks and shuffle, the per-access address-stream generators, and
the element-at-a-time LRU cost replayer, verbatim, so the equivalence
tests can pin the production path to them bit for bit.  Nothing in
``src/`` imports this module.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import random
import time
from typing import Any, Callable, Iterable, Iterator

import numpy as np
from scipy.special import gammaln, logsumexp

from repro import obs
from repro.core.aggregation import (
    G_REGION,
    G_STAR_REGION,
    M0,
    WEIGHTS_PER_CACHELINE,
    _concat_updates,
    _validate,
)
from repro.core.streams import LINE_BYTES, G_ITEMSIZE, G_STAR_ITEMSIZE
from repro.fl.client import LocalUpdate, TrainingConfig
from repro.fl.datasets import SPECS, ClientData, SyntheticClassData
from repro.oblivious.primitives import o_mov, o_swap
from repro.oblivious.sort import is_power_of_two, next_power_of_two
from repro.oram.path_oram import DUMMY, StashOverflow
from repro.runtime.cohort import (
    REASON_DROPOUT,
    REASON_FORCED,
    REASON_STRAGGLER,
    REASON_TRANSIENT,
    STATUS_DROPPED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_STRAGGLER,
    ClientOutcome,
    CohortResult,
    Delivery,
    _tamper,
    record_failure_reason,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.faults import ClientFaultPlan, FaultInjector
from repro.runtime.jobs import ClientJob, ClientJobResult, WorkerContext
from repro.runtime.seeding import (
    STREAM_MODEL,
    STREAM_TRAIN,
    derive_nonce,
    derive_rng,
)
from repro.sgx import crypto
from repro.sgx.cost import CostModel, CostReport
from repro.sgx.memory import Trace, TracedArray


class Layer:
    """Base layer: forward/backward plus parameter access."""

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> list[np.ndarray]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []


class Linear(Layer):
    """Fully connected layer with bias."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator) -> None:
        scale = np.sqrt(2.0 / in_features)
        self.weight = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x is not None
        self.grad_weight = self._x.T @ grad_out
        self.grad_bias = grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._mask


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time."""

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.p = p
        self._rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if not train or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Flatten(Layer):
    """Collapse (N, ...) feature maps to (N, features)."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._shape)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """Unfold (N, C, H, W) into (N, out_h, out_w, C*kh*kw) patches."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    shape = (n, c, out_h, out_w, kh, kw)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2] * stride,
        x.strides[3] * stride,
        x.strides[2],
        x.strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = patches.transpose(0, 2, 3, 1, 4, 5).reshape(n, out_h, out_w, c * kh * kw)
    return cols, out_h, out_w


class Conv2d(Layer):
    """2-D convolution via im2col with bias."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
    ) -> None:
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.weight = rng.normal(
            0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size)
        )
        self.bias = np.zeros(out_channels)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self.stride = stride
        self.padding = padding
        self.kernel_size = kernel_size
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._x_shape = x.shape
        k = self.kernel_size
        cols, out_h, out_w = _im2col(x, k, k, self.stride, self.padding)
        self._cols = cols
        w_mat = self.weight.reshape(self.weight.shape[0], -1)
        out = cols @ w_mat.T + self.bias
        return out.transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cols is not None and self._x_shape is not None
        n, c, h, w = self._x_shape
        k = self.kernel_size
        go = grad_out.transpose(0, 2, 3, 1)  # (N, out_h, out_w, out_c)
        out_c = go.shape[-1]
        go_flat = go.reshape(-1, out_c)
        cols_flat = self._cols.reshape(-1, self._cols.shape[-1])
        self.grad_weight = (go_flat.T @ cols_flat).reshape(self.weight.shape)
        self.grad_bias = go_flat.sum(axis=0)
        w_mat = self.weight.reshape(out_c, -1)
        dcols = (go_flat @ w_mat).reshape(self._cols.shape)
        # Fold patches back (col2im).
        out_h, out_w = dcols.shape[1], dcols.shape[2]
        dx = np.zeros((n, c, h + 2 * self.padding, w + 2 * self.padding))
        dpatches = dcols.reshape(n, out_h, out_w, c, k, k)
        for i in range(out_h):
            hi = i * self.stride
            for j in range(out_w):
                wj = j * self.stride
                dx[:, :, hi : hi + k, wj : wj + k] += dpatches[:, i, j]
        if self.padding:
            dx = dx[:, :, self.padding : -self.padding, self.padding : -self.padding]
        return dx

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def grads(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]


class MaxPool2d(Layer):
    """Non-overlapping max pooling (kernel == stride)."""

    def __init__(self, kernel_size: int) -> None:
        self.k = kernel_size
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.k
        if h % k or w % k:
            raise ValueError("input not divisible by pooling kernel")
        self._x_shape = x.shape
        blocks = x.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
        flat = blocks.reshape(n, c, h // k, w // k, k * k)
        self._argmax = flat.argmax(axis=-1)
        return flat.max(axis=-1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._argmax is not None and self._x_shape is not None
        n, c, h, w = self._x_shape
        k = self.k
        dflat = np.zeros((n, c, h // k, w // k, k * k))
        np.put_along_axis(
            dflat, self._argmax[..., None], grad_out[..., None], axis=-1
        )
        dx = (
            dflat.reshape(n, c, h // k, w // k, k, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        return dx


class Sequential:
    """A feed-forward stack with flat-vector parameter access."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = layers

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    @property
    def num_params(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.params())

    def get_flat(self) -> np.ndarray:
        """Parameters as one flat float64 vector."""
        parts = self.params()
        if not parts:
            return np.empty(0)
        return np.concatenate([p.ravel() for p in parts])

    def set_flat(self, flat: np.ndarray) -> None:
        """Load parameters from a flat vector (inverse of get_flat)."""
        if flat.size != self.num_params:
            raise ValueError(
                f"expected {self.num_params} parameters, got {flat.size}"
            )
        offset = 0
        for p in self.params():
            p[...] = flat[offset : offset + p.size].reshape(p.shape)
            offset += p.size

    def get_flat_grads(self) -> np.ndarray:
        """Gradients as one flat vector (aligned with get_flat)."""
        return np.concatenate([g.ravel() for g in self.grads()])

    def sgd_step(self, lr: float) -> None:
        """One vanilla SGD step over all parameters."""
        for p, g in zip(self.params(), self.grads()):
            p -= lr * g


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and gradient w.r.t. the logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = -np.log(probs[np.arange(n), labels] + 1e-12).mean()
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return float(loss), dlogits / n


def accuracy(model: Sequential, x: np.ndarray, y: np.ndarray) -> float:
    """Classification accuracy at evaluation time."""
    logits = model.forward(x, train=False)
    return float((logits.argmax(axis=1) == y).mean())


def mlp(in_dim: int, hidden: int, out_dim: int,
         rng: np.random.Generator) -> Sequential:
    return Sequential(
        [
            Linear(in_dim, hidden, rng),
            ReLU(),
            Dropout(0.5, rng),
            Linear(hidden, out_dim, rng),
        ]
    )


def build_model(name: str, seed: int = 0) -> Sequential:
    """Construct a paper architecture by name (see module docstring)."""
    rng = np.random.default_rng(seed)
    if name == "tiny_mlp":
        # Not in the paper: a 378-parameter model for fast traced runs
        # (tests, examples); same structure as the paper MLPs.
        return mlp(24, 12, 6, rng)
    if name == "mnist_mlp":
        return mlp(28 * 28, 64, 10, rng)
    if name == "cifar10_mlp":
        return mlp(3 * 32 * 32, 64, 10, rng)
    if name == "purchase100_mlp":
        return mlp(600, 64, 100, rng)
    if name == "cifar10_cnn":
        # LeNet-5: matches the paper's 62,006 parameters exactly.
        return Sequential(
            [
                Conv2d(3, 6, 5, rng),
                ReLU(),
                MaxPool2d(2),
                Conv2d(6, 16, 5, rng),
                ReLU(),
                MaxPool2d(2),
                Flatten(),
                Linear(16 * 5 * 5, 120, rng),
                ReLU(),
                Linear(120, 84, rng),
                ReLU(),
                Linear(84, 10, rng),
            ]
        )
    if name == "cifar100_cnn":
        # ResNet-18 stand-in with a parameter count close to the
        # paper's reported 201,588 (see DESIGN.md substitution table).
        return Sequential(
            [
                Conv2d(3, 16, 3, rng, padding=1),
                ReLU(),
                MaxPool2d(2),
                Conv2d(16, 32, 3, rng, padding=1),
                ReLU(),
                MaxPool2d(2),
                Flatten(),
                Linear(32 * 8 * 8, 91, rng),
                ReLU(),
                Linear(91, 100, rng),
            ]
        )
    raise ValueError(f"unknown model {name!r}")


def top_k(delta: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of the k largest-|.|$ coordinates.

    Indices are returned sorted ascending (the wire order the paper's
    clients use; the attack treats them as a set regardless).
    """
    d = delta.size
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    chosen = np.argpartition(np.abs(delta), d - k)[d - k :]
    chosen.sort()
    return chosen.astype(np.int64), delta[chosen].astype(np.float64)


def top_ratio(delta: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Top-k with k = ceil(alpha * d) (the paper's 'sparse ratio')."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("sparse ratio must be in (0, 1]")
    k = max(1, int(np.ceil(alpha * delta.size)))
    return top_k(delta, k)


def threshold(delta: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """All coordinates with |value| >= tau (variable-length output)."""
    if tau < 0:
        raise ValueError("threshold must be non-negative")
    chosen = np.flatnonzero(np.abs(delta) >= tau).astype(np.int64)
    return chosen, delta[chosen].astype(np.float64)


def random_k(
    delta: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """k uniformly random coordinates -- data-independent, leak-free."""
    d = delta.size
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    chosen = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
    return chosen, delta[chosen].astype(np.float64)


def l2_clip(values: np.ndarray, clip: float) -> np.ndarray:
    """Scale values so their L2 norm is at most ``clip`` (Alg. 1 line 21)."""
    if clip <= 0:
        raise ValueError("clipping bound must be positive")
    norm = float(np.linalg.norm(values))
    if norm <= clip or norm == 0.0:
        return values.copy()
    return values * (clip / norm)


def local_train(
    model: Sequential,
    global_weights: np.ndarray,
    data: ClientData,
    config: TrainingConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run local optimization from ``global_weights``; returns the
    dense delta (multi-epoch SGD for FedAVG, one full-batch gradient
    step for FedSGD)."""
    model.set_flat(global_weights)
    if config.algorithm == "fedsgd":
        logits = model.forward(data.x, train=True)
        _, dlogits = softmax_cross_entropy(logits, data.y)
        model.backward(dlogits)
        model.sgd_step(config.local_lr)
        return model.get_flat() - global_weights
    n = len(data)
    for _ in range(config.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            logits = model.forward(data.x[batch], train=True)
            _, dlogits = softmax_cross_entropy(logits, data.y[batch])
            model.backward(dlogits)
            model.sgd_step(config.local_lr)
    return model.get_flat() - global_weights


def sparsify_delta(
    delta: np.ndarray, config: TrainingConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the configured sparsifier to a dense delta."""
    if config.sparsifier == "top_k":
        return top_ratio(delta, config.sparse_ratio)
    if config.sparsifier == "threshold":
        indices, values = threshold(delta, config.threshold_tau)
        if len(indices) == 0:
            # Never send an empty update; fall back to the single
            # largest coordinate (threshold too aggressive).
            return top_ratio(delta, 1.0 / max(delta.size, 1))
        return indices, values
    k = max(1, int(np.ceil(config.sparse_ratio * delta.size)))
    return random_k(delta, k, rng)


def compute_update(
    model: Sequential,
    global_weights: np.ndarray,
    data: ClientData,
    config: TrainingConfig,
    rng: np.random.Generator,
    clip_override: float | None = None,
) -> LocalUpdate:
    """EncClient lines 15-22: train, sparsify, L2-clip.

    ``clip_override`` supports server-broadcast adaptive clipping
    (Andrew et al.): when set -- including to an invalid ``0.0``, which
    :func:`~repro.fl.sparsify.l2_clip` rejects loudly rather than
    silently falling back to ``config.clip`` -- it replaces
    ``config.clip`` this round.
    """
    delta = local_train(model, global_weights, data, config, rng)
    indices, values = sparsify_delta(delta, config, rng)
    clip = clip_override if clip_override is not None else config.clip
    values = l2_clip(values, clip)
    return LocalUpdate(client_id=data.client_id, indices=indices, values=values)


def reseed_model(model: Sequential, entropy: int, stream: int, *key: int) -> None:
    """Re-key every stochastic layer of ``model`` deterministically.

    Dropout layers carry their own Generator; a model trained by two
    different workers must draw identical masks, so each layer gets the
    sub-stream ``(entropy, stream, *key, layer_index)``.
    """
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Dropout):
            layer._rng = derive_rng(entropy, stream, *key, i)


def train_once(
    model_template: Sequential,
    weights: np.ndarray,
    data: ClientData,
    training: TrainingConfig,
    entropy: int,
    stream_train: int,
    stream_model: int,
    key_parts: tuple[int, ...],
    clip: float | None = None,
) -> LocalUpdate:
    """Clone the template, re-key its randomness, run one local round."""
    model = copy.deepcopy(model_template)
    reseed_model(model, entropy, stream_model, *key_parts)
    rng = derive_rng(entropy, stream_train, *key_parts)
    return compute_update(model, weights, data, training, rng,
                          clip_override=clip)


class TransientWorkerError(RuntimeError):
    """An injected transient execution failure; retryable."""


def execute_client_job(ctx: WorkerContext, job: ClientJob,
                       delay_s: float = 0.0,
                       fail_attempts: int = 0) -> ClientJobResult:
    """The per-client loop body the cohort executors once ran: fail while
    ``job.attempt < fail_attempts``, sleep the injected delay, then
    derive, train, seal."""
    if job.attempt < fail_attempts:
        raise TransientWorkerError(
            f"injected transient failure for client {job.client_id} "
            f"(attempt {job.attempt}/{fail_attempts})"
        )
    if delay_s > 0.0:
        time.sleep(delay_s)
    t0 = time.perf_counter()
    data = ctx.clients[job.client_id]
    update = train_once(
        ctx.model, ctx.weights, data, job.training, job.entropy,
        STREAM_TRAIN, STREAM_MODEL, (job.round_index, job.client_id),
        clip=job.clip,
    )
    train_seconds = time.perf_counter() - t0
    obs.observe("runtime.train_s", train_seconds)

    if job.key is None:
        return ClientJobResult(
            client_id=job.client_id, round_index=job.round_index,
            ciphertext=None, indices=update.indices, values=update.values,
            upload_bytes=0, train_seconds=train_seconds, attempt=job.attempt,
        )

    if job.quantize_bits is not None:
        from repro.fl.quantize import quantize_stochastic

        # Quantization draws from its own sub-stream of the client's
        # identity so the dither is executor- and retry-invariant too.
        q_rng = derive_rng(job.entropy, STREAM_TRAIN,
                           job.round_index, job.client_id, 1)
        q = quantize_stochastic(update, job.quantize_bits, q_rng)
        payload = crypto.encode_quantized_gradient(q.indices, q.levels, q.scale)
    else:
        payload = crypto.encode_sparse_gradient(update.indices, update.values)
    nonce = derive_nonce(job.entropy, job.round_index, job.client_id)
    ciphertext = crypto.seal(job.key, payload, nonce=nonce)
    return ClientJobResult(
        client_id=job.client_id, round_index=job.round_index,
        ciphertext=ciphertext, indices=None, values=None,
        upload_bytes=len(ciphertext.to_bytes()),
        train_seconds=train_seconds, attempt=job.attempt,
    )


def _collect_with_retries(config: RuntimeConfig, ctx: WorkerContext,
                          job: ClientJob,
                          plan: ClientFaultPlan) -> ClientOutcome:
    """Run one client, retrying transient failures with backoff."""
    cid = job.client_id
    t0 = time.perf_counter()
    attempt = 0
    while True:
        try:
            res = execute_client_job(
                ctx, dataclasses.replace(job, attempt=attempt),
                plan.delay_s, plan.fail_attempts)
        except TransientWorkerError:
            obs.add("runtime.transient_failures")
            if attempt >= config.max_retries:
                obs.add("runtime.failures")
                outcome = ClientOutcome(
                    cid, STATUS_FAILED, attempts=attempt + 1,
                    retries=attempt, latency_s=time.perf_counter() - t0,
                    plan=plan)
                record_failure_reason(outcome, REASON_TRANSIENT)
                return outcome
            backoff = min(config.backoff_base_s * (2.0 ** attempt),
                          config.backoff_cap_s)
            if backoff > 0:
                obs.observe("runtime.backoff_s", backoff)
                time.sleep(backoff)
            attempt += 1
            obs.add("runtime.retries")
            continue
        latency = time.perf_counter() - t0
        obs.observe("runtime.client_latency_s", latency)
        return ClientOutcome(cid, STATUS_OK, attempts=attempt + 1,
                             retries=attempt, latency_s=latency, plan=plan,
                             result=res)


def run_cohort_loop(
    config: RuntimeConfig,
    model: Sequential,
    clients: list[ClientData],
    entropy: int,
    round_index: int,
    cohort: list[int],
    weights: np.ndarray,
    training: TrainingConfig,
    *,
    keys: dict[int, bytes] | None = None,
    clip: float | None = None,
    quantize_bits: int | None = None,
    forced_dropouts: set[int] | None = None,
) -> CohortResult:
    """One cohort the way the serial executor ran it: one client at a
    time in client-id order, each admitted straggler's delay slept in
    turn, each injected transient failure raised, backed off and
    retried.  Same outcomes, deliveries and runtime counters as
    ``CohortRuntime.run_cohort``; ``latency_s`` is measured per client.
    """
    injector = FaultInjector(config.faults, entropy)
    ctx = WorkerContext(model=model,
                        clients={c.client_id: c for c in clients},
                        weights=weights)
    forced = forced_dropouts or set()
    outcomes: dict[int, ClientOutcome] = {}
    for cid in sorted(cohort):
        plan = injector.plan(round_index, cid)
        if cid in forced or plan.dropped:
            outcome = ClientOutcome(cid, STATUS_DROPPED, plan=plan)
            record_failure_reason(
                outcome, REASON_FORCED if cid in forced else REASON_DROPOUT)
            obs.add("runtime.dropouts")
        elif (config.client_timeout_s is not None
                and plan.delay_s > config.client_timeout_s):
            outcome = ClientOutcome(cid, STATUS_STRAGGLER, plan=plan,
                                    latency_s=plan.delay_s)
            record_failure_reason(outcome, REASON_STRAGGLER)
            obs.add("runtime.stragglers_dropped")
        else:
            job = ClientJob(
                round_index=round_index, client_id=cid, entropy=entropy,
                training=training, clip=clip, quantize_bits=quantize_bits,
                key=keys.get(cid) if keys is not None else None,
            )
            outcome = _collect_with_retries(config, ctx, job, plan)
        outcomes[cid] = outcome

    result = CohortResult(round_index=round_index, sampled=sorted(cohort),
                          outcomes=outcomes)
    for cid in result.completed:
        outcome = outcomes[cid]
        plan = outcome.plan
        ciphertext = outcome.result.ciphertext
        corrupt = bool(plan.corrupt and ciphertext is not None)
        if corrupt:
            ciphertext = _tamper(ciphertext)
            obs.add("runtime.corrupted")
        result.deliveries.append(Delivery(
            client_id=cid, ciphertext=ciphertext, result=outcome.result,
            corrupt=corrupt))
        if plan.replay and ciphertext is not None:
            result.deliveries.append(Delivery(
                client_id=cid, ciphertext=ciphertext, result=outcome.result,
                duplicate=True, corrupt=corrupt))
            obs.add("runtime.replays_injected")
    obs.gauge("runtime.completed_cohort", len(result.completed))
    return result


def attack_mlp(input_dim: int, n_labels: int, hidden: int,
                seed: int) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Linear(input_dim, hidden, rng),
            ReLU(),
            Dropout(0.5, rng),
            Linear(hidden, n_labels, rng),
        ]
    )


def train_classifier(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
) -> None:
    n = len(y)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            logits = model.forward(x[batch], train=True)
            _, dlogits = softmax_cross_entropy(logits, y[batch])
            model.backward(dlogits)
            model.sgd_step(lr)


def quick_model(seed: int):
    """A tiny_mlp given a few hundred synthetic SGD steps."""
    spec = SPECS["tiny"]
    model = build_model(spec.model_name, seed=seed)
    data = SyntheticClassData(spec, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        y = rng.integers(0, spec.n_labels, size=32)
        x = data.sample(y, rng)
        logits = model.forward(x, train=True)
        _, dlogits = softmax_cross_entropy(logits, y)
        model.backward(dlogits)
        model.sgd_step(0.1)
    return model, spec


def run_ldp_round(
    model: Sequential,
    global_weights: np.ndarray,
    participants: list[ClientData],
    training: TrainingConfig,
    local_sigma: float,
    rng: np.random.Generator,
    server_lr: float = 1.0,
) -> np.ndarray:
    """One LDP/Shuffle-style round: dense local perturbation, plain mean.

    Each client clips its dense delta to the training clip bound and
    adds ``N(0, (local_sigma * clip)^2)`` per coordinate before sending;
    the server (or shuffler output) is simply averaged.  Used by the
    Table 1 utility comparison.
    """
    d = global_weights.size
    aggregate = np.zeros(d)
    for data in participants:
        delta = local_train(model, global_weights, data, training, rng)
        norm = np.linalg.norm(delta)
        if norm > training.clip:
            delta = delta * (training.clip / norm)
        noisy = delta + rng.normal(0.0, local_sigma * training.clip, size=d)
        aggregate += noisy
    mean_update = aggregate / max(len(participants), 1)
    return global_weights + server_lr * mean_update


# ---------------------------------------------------------------------------
# RDP accountant: the scalar binomial expansion that the array-per-order
# ``repro.dp.accountant._log_a`` replaced.

def _log_binom(n: int, k: int) -> float:
    return float(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))


def log_a_int(q: float, sigma: float, alpha: int) -> float:
    """log A(alpha) for integer alpha >= 2 (Mironov et al., eq. for
    the Poisson-subsampled Gaussian)."""
    terms = []
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    for i in range(alpha + 1):
        log_term = (
            _log_binom(alpha, i)
            + i * log_q
            + (alpha - i) * log_1mq
            + (i * i - i) / (2.0 * sigma * sigma)
        )
        terms.append(log_term)
    return float(logsumexp(terms))


def unit_rdp(q: float, sigma: float, orders) -> tuple[float, ...]:
    """One-round RDP per order, computed term by term."""
    if q == 1.0:
        return tuple(alpha / (2.0 * sigma**2) for alpha in orders)
    return tuple(log_a_int(q, sigma, alpha) / (alpha - 1) for alpha in orders)


# ---------------------------------------------------------------------------
# Path ORAM: the per-bucket access that ``repro.oram.path_oram.PathORAM``
# replaced (traced bucket array, ``_is_ancestor`` greedy write-back).

class OraclePathORAM:
    """A Path ORAM instance over ``capacity`` fixed blocks.

    Parameters
    ----------
    capacity:
        Number of addressable blocks (block ids ``0..capacity-1``).
    bucket_size:
        Z, blocks per tree bucket (4 is standard).
    stash_limit:
        Maximum number of real blocks allowed to remain in the stash
        after write-back (the paper fixes 20).
    trace:
        Optional :class:`Trace`; when given, tree bucket accesses are
        recorded so the adversary view can be inspected.
    """

    def __init__(
        self,
        capacity: int,
        bucket_size: int = 4,
        stash_limit: int = 20,
        trace: Trace | None = None,
        seed: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.bucket_size = bucket_size
        self.stash_limit = stash_limit
        self._rng = random.Random(seed)
        # Tree with at least `capacity` leaves.
        self.height = max(1, (capacity - 1).bit_length())
        self.n_leaves = 1 << self.height
        self.n_buckets = 2 * self.n_leaves - 1
        empty_bucket = tuple(
            (DUMMY, 0, 0.0) for _ in range(bucket_size)
        )
        self._tree = TracedArray(
            "oram_tree",
            [empty_bucket] * self.n_buckets,
            trace=trace,
            itemsize=bucket_size * 16,
        )
        self._position: list[int] = [
            self._rng.randrange(self.n_leaves) for _ in range(capacity)
        ]
        self._stash: list[tuple[int, int, Any]] = []
        self.accesses = 0

    # ------------------------------------------------------------------
    # Tree geometry
    # ------------------------------------------------------------------
    def _path_buckets(self, leaf: int) -> list[int]:
        """Bucket indices from root to ``leaf`` (root is bucket 0)."""
        node = leaf + self.n_leaves - 1
        path = []
        while True:
            path.append(node)
            if node == 0:
                break
            node = (node - 1) // 2
        path.reverse()
        return path

    @staticmethod
    def _is_ancestor(node: int, descendant: int) -> bool:
        while descendant > node:
            descendant = (descendant - 1) // 2
        return descendant == node

    # ------------------------------------------------------------------
    # Core access
    # ------------------------------------------------------------------
    def access(self, op: str, block_id: int, new_value: Any = None,
               new_leaf: int | None = None) -> Any:
        """One ORAM access; returns the block's (pre-write) value.

        ``op`` is ``"read"`` or ``"write"``.  Missing blocks read as 0.0
        (the aggregator initializes implicitly, like the paper's d-zero
        initialization of g*).  ``new_leaf`` lets an external position
        map (the recursive construction) dictate the remap target.
        """
        if not 0 <= block_id < self.capacity:
            raise IndexError(f"block {block_id} out of range")
        if op not in ("read", "write"):
            raise ValueError("op must be 'read' or 'write'")
        self.accesses += 1

        leaf = self._position[block_id]
        if new_leaf is None:
            new_leaf = self._rng.randrange(self.n_leaves)
        elif not 0 <= new_leaf < self.n_leaves:
            raise IndexError("forced new leaf out of range")
        self._position[block_id] = new_leaf

        # 1. Fetch the whole path into the stash.
        path = self._path_buckets(leaf)
        for bucket_idx in path:
            bucket = self._tree.read(bucket_idx)
            for slot in bucket:
                if slot[0] != DUMMY:
                    self._stash.append(slot)
            self._tree.write(
                bucket_idx,
                tuple((DUMMY, 0, 0.0) for _ in range(self.bucket_size)),
            )

        # 2. Serve the request from the stash with an oblivious scan:
        #    every entry is touched; selection happens in registers (the
        #    slot index is selected with o_mov so the scan's work is
        #    position-independent; payloads may be any type).
        found_at = -1
        for i, (bid, _, _val) in enumerate(self._stash):
            found_at = o_mov(bid == block_id, i, found_at)
        value: Any = self._stash[found_at][2] if found_at >= 0 else 0.0
        if op == "write":
            entry = (block_id, self._position[block_id], new_value)
            if found_at >= 0:
                self._stash[found_at] = entry
            else:
                self._stash.append(entry)
        elif found_at >= 0:
            bid, _, val = self._stash[found_at]
            self._stash[found_at] = (bid, self._position[block_id], val)
        else:
            self._stash.append((block_id, self._position[block_id], 0.0))

        # 3. Greedy write-back, leaf to root.
        for bucket_idx in reversed(path):
            placed: list[tuple[int, int, Any]] = []
            remaining: list[tuple[int, int, Any]] = []
            for entry in self._stash:
                entry_leaf_node = entry[1] + self.n_leaves - 1
                fits = (
                    len(placed) < self.bucket_size
                    and self._is_ancestor(bucket_idx, entry_leaf_node)
                )
                if fits:
                    placed.append(entry)
                else:
                    remaining.append(entry)
            self._stash = remaining
            bucket = list(placed)
            while len(bucket) < self.bucket_size:
                bucket.append((DUMMY, 0, 0.0))
            self._tree.write(bucket_idx, tuple(bucket))

        if len(self._stash) > self.stash_limit:
            raise StashOverflow(
                f"stash holds {len(self._stash)} blocks (limit {self.stash_limit})"
            )
        return value

    def read(self, block_id: int) -> Any:
        """Oblivious read of one block."""
        return self.access("read", block_id)

    def write(self, block_id: int, value: Any) -> None:
        """Oblivious write of one block."""
        self.access("write", block_id, new_value=value)

    @property
    def stash_size(self) -> int:
        """Real blocks currently parked in the stash."""
        return len(self._stash)


def aggregate_path_oram(updates, d: int, trace: Trace | None = None,
                        bucket_size: int = 4, stash_limit: int = 20,
                        seed: int | None = None) -> np.ndarray:
    """The ORAM aggregation kernel driven through the oracle ORAM:
    one read and one write per input weight, then d read-outs."""
    idx, val = _concat_updates(updates)
    _validate(idx, d)
    oram = OraclePathORAM(d, bucket_size=bucket_size,
                          stash_limit=stash_limit, trace=trace, seed=seed)
    for index, value in zip(idx.tolist(), val.tolist()):
        current = oram.read(index)
        oram.write(index, current + value)
    return np.asarray([oram.read(j) for j in range(d)], dtype=np.float64)


# ---------------------------------------------------------------------------
# Sorting networks and shuffle: the comparator-at-a-time schedule and the
# sorts over ``TracedArray`` that ``bitonic_sort_traced_columns`` replaced.

def bitonic_network(n: int) -> Iterator[tuple[int, int, bool]]:
    """Comparator schedule ``(i, j, ascending)`` for a length-n network.

    ``n`` must be a power of two.  The schedule depends only on ``n``;
    this data-independence is what makes the sort oblivious.
    """
    if not is_power_of_two(n):
        raise ValueError(f"bitonic network needs a power-of-two length, got {n}")
    k = 2
    while k <= n:
        j = k // 2
        while j >= 1:
            for i in range(n):
                partner = i ^ j
                if partner > i:
                    ascending = (i & k) == 0
                    yield i, partner, ascending
            j //= 2
        k *= 2


def apply_network_traced(
    array,
    network: Iterator[tuple[int, int, bool]],
    key: Callable[[object], object] = lambda w: w,
) -> None:
    """Run any comparator schedule obliviously over a traced array."""
    for i, j, ascending in network:
        a = array.read(i)
        b = array.read(j)
        out_of_order = (key(a) > key(b)) == ascending
        a, b = o_swap(out_of_order, a, b)
        array.write(i, a)
        array.write(j, b)


def bitonic_sort_traced(
    array, key: Callable[[object], object] = lambda w: w
) -> None:
    """Sort a power-of-two :class:`TracedArray` in place, obliviously.

    Every comparator of :func:`bitonic_network` reads both elements,
    computes the order flag in registers, and conditionally swaps with
    ``o_swap``; both elements are always written back, each access
    recorded as it happens.
    """
    apply_network_traced(array, bitonic_network(len(array)), key=key)


def network_offsets(n: int) -> Iterator[int]:
    """The ``i, j, i, j`` offset stream of :func:`bitonic_network`."""
    for i, j, _ in bitonic_network(n):
        yield i
        yield j
        yield i
        yield j


def oblivious_shuffle_traced(array, rng: random.Random | None = None) -> None:
    """Shuffle a power-of-two :class:`TracedArray` in place.

    Each element is tagged with a random key (register-held, untraced),
    the pair array is bitonically sorted by key, and the tags dropped.
    """
    rng = rng or random.Random()
    n = len(array)
    if not is_power_of_two(n):
        raise ValueError("oblivious shuffle needs a power-of-two length")
    for i in range(n):
        value = array.read(i)
        array.write(i, (rng.getrandbits(62), value))
    bitonic_sort_traced(array, key=lambda tagged: tagged[0])
    for i in range(n):
        tagged = array.read(i)
        array.write(i, tagged[1])


# ---------------------------------------------------------------------------
# Aggregation: the element-at-a-time recorders (one scalar
# ``Trace.record`` per access) that the batched kernels of
# ``repro.core.aggregation`` replaced.

def ref_linear_traced(updates, d, trace):
    idx, val = _concat_updates(updates)
    g = TracedArray(G_REGION, list(zip(idx.tolist(), val.tolist())),
                    trace=trace, itemsize=8)
    g_star = TracedArray.zeros(G_STAR_REGION, d, trace=trace, itemsize=4)
    for pos in range(len(g)):
        index, value = g.read(pos)
        current = g_star.read(index)
        g_star.write(index, current + value)
    return np.asarray(g_star.snapshot(), dtype=np.float64)


def ref_baseline_traced(updates, d, trace,
                        cacheline_weights=WEIGHTS_PER_CACHELINE):
    idx, val = _concat_updates(updates)
    g = TracedArray(G_REGION, list(zip(idx.tolist(), val.tolist())),
                    trace=trace, itemsize=8)
    g_star = TracedArray.zeros(G_STAR_REGION, d, trace=trace, itemsize=4)
    n_lines = (d + cacheline_weights - 1) // cacheline_weights
    for pos in range(len(g)):
        index, value = g.read(pos)
        offset = index % cacheline_weights
        for line in range(n_lines):
            target = min(line * cacheline_weights + offset, d - 1)
            current = g_star.read(target)
            flag = target == index
            g_star.write(target, o_mov(flag, current + value, current))
    return np.asarray(g_star.snapshot(), dtype=np.float64)


def ref_advanced_traced(updates, d, trace):
    idx, val = _concat_updates(updates)
    base = len(idx) + d
    m = next_power_of_two(base)
    g = TracedArray.zeros(G_REGION, m, trace=trace, itemsize=8)
    for pos in range(len(idx)):
        g.write(pos, (int(idx[pos]), float(val[pos])))
    for j in range(d):
        g.write(len(idx) + j, (j, 0.0))
    for pos in range(base, m):
        g.write(pos, (M0, 0.0))
    apply_network_traced(g, bitonic_network(m), key=lambda w: w[0])
    carry_idx, carry_val = g.read(0)
    for pos in range(1, m):
        nxt_idx, nxt_val = g.read(pos)
        flag = nxt_idx == carry_idx
        prior = o_mov(flag, (M0, 0.0), (carry_idx, carry_val))
        g.write(pos - 1, prior)
        carry_val = o_mov(flag, carry_val + nxt_val, nxt_val)
        carry_idx = nxt_idx
    g.write(m - 1, (carry_idx, carry_val))
    apply_network_traced(g, bitonic_network(m), key=lambda w: w[0])
    out = np.empty(d)
    for j in range(d):
        index, value = g.read(j)
        assert index == j
        out[j] = value
    return out


# ---------------------------------------------------------------------------
# Address streams: the per-access generators that the chunked emitters
# of ``repro.core.streams`` replaced (same layout: ``g`` first, then
# ``g_star``, then any auxiliary buffer).

_G_LINE_ELEMS = LINE_BYTES // G_ITEMSIZE
_G_STAR_LINE_ELEMS = LINE_BYTES // G_STAR_ITEMSIZE


def _region_lines(length_elems: int, line_elems: int) -> int:
    return (length_elems + line_elems - 1) // line_elems


def linear_stream(nk: int, d: int, indices: np.ndarray) -> Iterator[int]:
    """Linear: scan of g interleaved with g*[index] touches."""
    if len(indices) != nk:
        raise ValueError("indices length must equal nk")
    g_lines = _region_lines(nk, _G_LINE_ELEMS)
    for pos in range(nk):
        yield pos // _G_LINE_ELEMS
        target = g_lines + int(indices[pos]) // _G_STAR_LINE_ELEMS
        yield target
        yield target


def baseline_stream(nk: int, d: int) -> Iterator[int]:
    """Baseline: per input weight, one touch per g* cacheline."""
    g_lines = _region_lines(nk, _G_LINE_ELEMS)
    gstar_lines = _region_lines(d, _G_STAR_LINE_ELEMS)
    for pos in range(nk):
        yield pos // _G_LINE_ELEMS
        for line in range(gstar_lines):
            target = g_lines + line
            yield target
            yield target


def advanced_stream(nk: int, d: int) -> Iterator[int]:
    """Advanced: fill + two bitonic sorts + folding + output scan."""
    m = next_power_of_two(nk + d)
    for pos in range(m):
        yield pos // _G_LINE_ELEMS
    sort_lines = (np.fromiter(network_offsets(m), dtype=np.int64)
                  // _G_LINE_ELEMS).tolist()
    yield from sort_lines
    yield 0
    for pos in range(1, m):
        yield pos // _G_LINE_ELEMS
        yield (pos - 1) // _G_LINE_ELEMS
    yield (m - 1) // _G_LINE_ELEMS
    yield from sort_lines
    for j in range(d):
        yield j // _G_LINE_ELEMS


def grouped_stream(n: int, k: int, d: int, group_size: int) -> Iterator[int]:
    """Grouped Advanced: per-group Advanced + carry pass + read-out."""
    if group_size < 1:
        raise ValueError("group size must be positive")
    full_groups, rem = divmod(n, group_size)
    sizes = [group_size] * full_groups + ([rem] if rem else [])
    m_max = next_power_of_two(group_size * k + d)
    acc_base = _region_lines(m_max, _G_LINE_ELEMS)
    acc_lines = _region_lines(d, _G_STAR_LINE_ELEMS)
    for h in sizes:
        yield from advanced_stream(h * k, d)
        for line in range(acc_lines):
            yield acc_base + line
            yield acc_base + line
    for line in range(acc_lines):
        yield acc_base + line


# ---------------------------------------------------------------------------
# Cost model: the element-at-a-time LRU replay that the vectorized
# replayer of ``repro.sgx.cost`` replaced.

class SetAssociativeCache:
    """Set-associative LRU cache over cacheline addresses."""

    def __init__(self, capacity_bytes: int, assoc: int, line_bytes: int) -> None:
        if capacity_bytes % (assoc * line_bytes):
            raise ValueError("capacity must be a multiple of assoc * line size")
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.n_sets = capacity_bytes // (assoc * line_bytes)
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, line: int) -> bool:
        """Touch one cacheline; returns True on hit."""
        ways = self._sets[line % self.n_sets]
        if line in ways:
            ways.remove(line)
            ways.append(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self.assoc:
            ways.pop(0)
        ways.append(line)
        return False

    def reset(self) -> None:
        self._sets = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0


class OracleCostModel(CostModel):
    """:class:`CostModel` replaying one access at a time through
    :class:`SetAssociativeCache` (the executable specification)."""

    def __init__(self, params=None) -> None:
        super().__init__(params)
        p = self.params
        self.l2 = SetAssociativeCache(p.l2_bytes, p.l2_assoc, p.line_bytes)
        self.l3 = SetAssociativeCache(p.l3_bytes, p.l3_assoc, p.line_bytes)

    def _charge_seq(self, lines, report: CostReport) -> None:
        p = self.params
        lines_per_page = self._lines_per_page
        cycles = 0
        n = 0
        l2 = self.l2
        l3 = self.l3
        pager = self.pager
        for line in lines:
            n += 1
            cycles += p.cycles_per_element_op
            if l2.access(line):
                cycles += p.cycles_l2_hit
                report.l2_hits += 1
                continue
            if l3.access(line):
                cycles += p.cycles_l3_hit
                report.l3_hits += 1
                continue
            report.dram_accesses += 1
            outcome = pager.access(line // lines_per_page)
            if outcome == "evict":
                report.page_faults += 1
                cycles += p.cycles_epc_page_fault
            else:
                cycles += p.cycles_dram
        report.accesses += n
        report.cycles += cycles
        self._total_accesses += n
        self._total_cycles += cycles

    def charge_lines(self, lines: Iterable[int]) -> CostReport:
        report = CostReport()
        if isinstance(lines, np.ndarray):
            lines = lines.tolist()
        self._charge_seq(lines, report)
        return report

    def charge_chunks(self, chunks: Iterator[np.ndarray]) -> CostReport:
        report = CostReport()
        for arr in chunks:
            self._charge_seq(np.asarray(arr).tolist(), report)
        return report
