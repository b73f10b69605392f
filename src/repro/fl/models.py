"""Numpy neural networks for the FL substrate.

Implements exactly the global-model architectures of the paper's
Table 2 / Appendix D with manual backprop, so no deep-learning framework
is needed:

============== ============================== ==========
model name     architecture                   parameters
============== ============================== ==========
mnist_mlp      784-64-10 MLP, dropout 0.5     50,890
cifar10_mlp    3072-64-10 MLP, dropout 0.5    197,322
cifar10_cnn    LeNet-5 (2 conv + 3 FC)        62,006
purchase100_mlp 600-64-100 MLP, dropout 0.5   44,964
cifar100_cnn   small CNN (ResNet-18 stand-in) ~200,747
============== ============================== ==========

``mnist_mlp``, ``cifar10_cnn`` and ``purchase100_mlp`` match the paper's
parameter counts exactly; ``cifar10_mlp`` differs by 2 (bias counting)
and ``cifar100_cnn`` substitutes ResNet-18 with a small CNN of
comparable (paper-reported) parameter count -- see DESIGN.md.

There is one layer stack, and every layer carries a leading **client
axis**: weights are stacked ``(C, ...)`` and activations flow as
``(C, batch, features)``.  :func:`build_model` returns a single model
(``C = 1``); :meth:`Sequential.replicate` turns it into C independent
copies that train in shared batched matmuls -- the path every cohort
trains through.  Each client slice performs exactly the operations of a
lone model (same matmuls, same reductions, same elementwise ops), so a
client's result never depends on the cohort it trained in; the scalar
reference layers in ``tests/oracles.py`` pin this bit for bit.

A single model exposes its parameters as one flat float64 vector
(:meth:`Sequential.get_flat` / :meth:`Sequential.set_flat`), the
representation federated learning exchanges and sparsifies.
"""

from __future__ import annotations

import numpy as np


class Linear:
    """C independent fully connected layers with bias.

    ``compute_dx`` is cleared on the first layer of a
    :class:`Sequential`: its input gradient is discarded by every
    caller, and at mega-cohort scale the skipped batched matmul is
    measurable.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray) -> None:
        self.weight = weight          # (C, in, out)
        self.bias = bias              # (C, out)
        self.grad_weight = np.zeros_like(weight)
        self.grad_bias = np.zeros_like(bias)
        self.compute_dx = True
        self._x: np.ndarray | None = None

    @classmethod
    def init(cls, in_features: int, out_features: int,
             rng: np.random.Generator) -> "Linear":
        """One He-initialized layer (C = 1)."""
        scale = np.sqrt(2.0 / in_features)
        weight = rng.normal(0.0, scale, size=(in_features, out_features))
        return cls(weight[None], np.zeros((1, out_features)))

    def replicate(self, n_clients: int) -> "Linear":
        return Linear(np.empty((n_clients,) + self.weight.shape[1:]),
                      np.empty((n_clients,) + self.bias.shape[1:]))

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._x = x
        return np.matmul(x, self.weight) + self.bias[:, None, :]

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        assert self._x is not None
        self.grad_weight = np.matmul(self._x.transpose(0, 2, 1), grad_out)
        self.grad_bias = grad_out.sum(axis=1)
        if not self.compute_dx:
            return None
        return np.matmul(grad_out, self.weight.transpose(0, 2, 1))

    def sgd_step(self, lr: float) -> None:
        self.weight -= lr * self.grad_weight
        self.bias -= lr * self.grad_bias

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]


class ReLU:
    """Elementwise rectified linear activation."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def replicate(self, n_clients: int) -> "ReLU":
        return ReLU()

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._mask

    def sgd_step(self, lr: float) -> None:
        pass

    def params(self) -> list[np.ndarray]:
        return []


class Dropout:
    """C independent inverted-dropout layers; identity at evaluation.

    Client ``c`` draws its masks from its own Generator ``rngs[c]``.
    ``Generator.random`` fills row-major from a sequential bit stream,
    so drawing a whole training run's masks in one
    ``(total_rows, width)`` call yields exactly the concatenation of
    per-batch draws: after :meth:`begin` announces the run length, the
    first training forward draws the run in one call per client (not
    one per batch).  Unannounced, each training forward draws just its
    own batch.  Masks are stored as booleans divided by the keep rate
    (``True / keep`` equals ``(draw < keep) / keep`` bit for bit).
    """

    def __init__(self, p: float, rng: np.random.Generator | None = None) -> None:
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.p = p
        self.rngs: list[np.random.Generator] = [rng] if rng is not None else []
        self._planned = 0
        self._pool: np.ndarray | None = None  # (C, rows, ...) scaled masks
        self._cursor = 0
        self._mask: np.ndarray | None = None

    def replicate(self, n_clients: int) -> "Dropout":
        """A copy without Generators; the caller installs ``rngs``."""
        return Dropout(self.p)

    def begin(self, total_rows: int) -> None:
        """Announce a training run consuming ``total_rows`` rows."""
        self._planned = total_rows
        self._pool = None
        self._cursor = 0

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if not train or self.p == 0.0:
            self._mask = None
            return x
        b = x.shape[1]
        if self._pool is None or self._cursor + b > self._pool.shape[1]:
            self._pool = self._draw(max(self._planned, b), x.shape[2:])
            self._planned = 0
            self._cursor = 0
        self._mask = self._pool[:, self._cursor : self._cursor + b]
        self._cursor += b
        return x * self._mask

    def _draw(self, rows: int, shape: tuple[int, ...]) -> np.ndarray:
        if not self.rngs:
            raise ValueError("dropout layer has no Generators installed")
        keep = 1.0 - self.p
        pool = np.empty((len(self.rngs), rows) + shape, dtype=bool)
        for i, rng in enumerate(self.rngs):
            pool[i] = rng.random((rows,) + shape) < keep
        return pool / keep

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask

    def sgd_step(self, lr: float) -> None:
        pass

    def params(self) -> list[np.ndarray]:
        return []


class Flatten:
    """Collapse (C, b, ...) feature maps to (C, b, features)."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def replicate(self, n_clients: int) -> "Flatten":
        return Flatten()

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._shape)

    def sgd_step(self, lr: float) -> None:
        pass

    def params(self) -> list[np.ndarray]:
        return []


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """Unfold (C, N, ch, H, W) into (C, N, out_h, out_w, ch*kh*kw).

    The leading client axis is carried through the strides, so the
    whole cohort unfolds in one ``as_strided`` view with the same
    window walk per client slice.
    """
    cc, n, ch, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    shape = (cc, n, ch, out_h, out_w, kh, kw)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2],
        x.strides[3] * stride,
        x.strides[4] * stride,
        x.strides[3],
        x.strides[4],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    cols = patches.transpose(0, 1, 3, 4, 2, 5, 6).reshape(
        cc, n, out_h, out_w, ch * kh * kw
    )
    return cols, out_h, out_w


class Conv2d:
    """C independent 2-D convolutions via im2col, with bias.

    ``compute_dx`` mirrors :class:`Linear`: the first layer's input
    gradient is discarded by every caller, and for conv layers the
    skipped work (a matmul plus the col2im fold loop) is the most
    expensive part of the backward pass.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray,
                 stride: int = 1, padding: int = 0) -> None:
        self.weight = weight          # (C, out_c, in_c, k, k)
        self.bias = bias              # (C, out_c)
        self.grad_weight = np.zeros_like(weight)
        self.grad_bias = np.zeros_like(bias)
        self.stride = stride
        self.padding = padding
        self.kernel_size = weight.shape[-1]
        self.compute_dx = True
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    @classmethod
    def init(cls, in_channels: int, out_channels: int, kernel_size: int,
             rng: np.random.Generator, stride: int = 1,
             padding: int = 0) -> "Conv2d":
        """One He-initialized convolution (C = 1)."""
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        weight = rng.normal(
            0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size)
        )
        return cls(weight[None], np.zeros((1, out_channels)), stride, padding)

    def replicate(self, n_clients: int) -> "Conv2d":
        return Conv2d(np.empty((n_clients,) + self.weight.shape[1:]),
                      np.empty((n_clients,) + self.bias.shape[1:]),
                      self.stride, self.padding)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._x_shape = x.shape
        k = self.kernel_size
        cols, out_h, out_w = _im2col(x, k, k, self.stride, self.padding)
        self._cols = cols
        cc = self.weight.shape[0]
        w_mat_t = self.weight.reshape(cc, self.weight.shape[1], -1)
        w_mat_t = w_mat_t.transpose(0, 2, 1)          # (C, ckk, out_c)
        out = np.matmul(cols, w_mat_t[:, None, None])
        out = out + self.bias[:, None, None, None, :]
        return out.transpose(0, 1, 4, 2, 3)

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        assert self._cols is not None and self._x_shape is not None
        cc, n, c, h, w = self._x_shape
        k = self.kernel_size
        go = grad_out.transpose(0, 1, 3, 4, 2)  # (C, N, out_h, out_w, out_c)
        out_c = go.shape[-1]
        go_flat = go.reshape(cc, -1, out_c)
        cols_flat = self._cols.reshape(cc, -1, self._cols.shape[-1])
        self.grad_weight = np.matmul(
            go_flat.transpose(0, 2, 1), cols_flat
        ).reshape(self.weight.shape)
        self.grad_bias = go_flat.sum(axis=1)
        if not self.compute_dx:
            return None
        w_mat = self.weight.reshape(cc, out_c, -1)
        dcols = np.matmul(go_flat, w_mat).reshape(self._cols.shape)
        # Fold patches back (col2im).
        out_h, out_w = dcols.shape[2], dcols.shape[3]
        dx = np.zeros((cc, n, c, h + 2 * self.padding, w + 2 * self.padding))
        dpatches = dcols.reshape(cc, n, out_h, out_w, c, k, k)
        for i in range(out_h):
            hi = i * self.stride
            for j in range(out_w):
                wj = j * self.stride
                dx[:, :, :, hi : hi + k, wj : wj + k] += dpatches[:, :, i, j]
        if self.padding:
            dx = dx[:, :, :, self.padding : -self.padding,
                    self.padding : -self.padding]
        return dx

    def sgd_step(self, lr: float) -> None:
        self.weight -= lr * self.grad_weight
        self.bias -= lr * self.grad_bias

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]


class MaxPool2d:
    """Non-overlapping max pooling (kernel == stride) over (C, N, ch, H, W)."""

    def __init__(self, kernel_size: int) -> None:
        self.k = kernel_size
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def replicate(self, n_clients: int) -> "MaxPool2d":
        return MaxPool2d(self.k)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        cc, n, c, h, w = x.shape
        k = self.k
        if h % k or w % k:
            raise ValueError("input not divisible by pooling kernel")
        self._x_shape = x.shape
        blocks = x.reshape(cc, n, c, h // k, k, w // k, k).transpose(
            0, 1, 2, 3, 5, 4, 6
        )
        flat = blocks.reshape(cc, n, c, h // k, w // k, k * k)
        self._argmax = flat.argmax(axis=-1)
        return flat.max(axis=-1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._argmax is not None and self._x_shape is not None
        cc, n, c, h, w = self._x_shape
        k = self.k
        dflat = np.zeros((cc, n, c, h // k, w // k, k * k))
        np.put_along_axis(
            dflat, self._argmax[..., None], grad_out[..., None], axis=-1
        )
        return (
            dflat.reshape(cc, n, c, h // k, w // k, k, k)
            .transpose(0, 1, 2, 3, 5, 4, 6)
            .reshape(cc, n, c, h, w)
        )

    def sgd_step(self, lr: float) -> None:
        pass

    def params(self) -> list[np.ndarray]:
        return []


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of each client's mean softmax cross-entropy w.r.t. its
    ``(C, n, classes)`` logits (``labels`` is ``(C, n)``).

    Training never needs the loss value itself, so it is not computed.
    """
    exp = np.exp(logits - logits.max(axis=2, keepdims=True))
    dlogits = exp / exp.sum(axis=2, keepdims=True)
    c, n = labels.shape
    dlogits[np.arange(c)[:, None], np.arange(n)[None, :], labels] -= 1.0
    return dlogits / n


class Sequential:
    """A feed-forward stack of client-axis layers.

    The first layer skips its input gradient (nothing consumes it), so
    :meth:`backward` leaves parameter gradients on the layers and
    returns nothing.
    """

    def __init__(self, layers: list) -> None:
        self.layers = layers
        if layers and isinstance(layers[0], (Linear, Conv2d)):
            layers[0].compute_dx = False

    @property
    def n_clients(self) -> int:
        """Size C of the leading client axis."""
        parts = self.params()
        return parts[0].shape[0] if parts else 1

    @property
    def num_params(self) -> int:
        """Scalar parameters per client."""
        return sum(p[0].size for p in self.params())

    @property
    def dropout_indices(self) -> list[int]:
        """Layer indices of the dropout layers (their seeding keys)."""
        return [i for i, layer in enumerate(self.layers)
                if isinstance(layer, Dropout)]

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def replicate(self, n_clients: int, weights: np.ndarray) -> "Sequential":
        """``n_clients`` independent copies of this architecture, every
        one at the flat vector ``weights``.

        Dropout layers of the copy carry no Generators; install one per
        client in ``layers[i].rngs`` before training.
        """
        stack = Sequential([layer.replicate(n_clients) for layer in self.layers])
        stack.set_flat(weights)
        return stack

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, grad_out: np.ndarray) -> None:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)

    def sgd_step(self, lr: float) -> None:
        """One vanilla SGD step over all parameters."""
        for layer in self.layers:
            layer.sgd_step(lr)

    def train_step(self, x: np.ndarray, y: np.ndarray, lr: float) -> None:
        """Forward, cross-entropy backward, one SGD step."""
        self.backward(cross_entropy_grad(self.forward(x, train=True), y))
        self.sgd_step(lr)

    def begin_training(self, total_rows: int) -> None:
        """Announce a training run of ``total_rows`` rows per client, so
        dropout draws the run's masks up front."""
        for i in self.dropout_indices:
            self.layers[i].begin(total_rows)

    def flat_stack(self) -> np.ndarray:
        """Per-client flat parameter vectors, stacked to ``(C, d)``."""
        parts = self.params()
        c = self.n_clients
        if not parts:
            return np.empty((c, 0))
        return np.concatenate([p.reshape(c, -1) for p in parts], axis=1)

    def get_flat(self) -> np.ndarray:
        """A single model's (C = 1) parameters as one flat vector."""
        if self.n_clients != 1:
            raise ValueError(
                f"get_flat needs a single model; this stack holds "
                f"{self.n_clients} clients (use flat_stack)"
            )
        return self.flat_stack()[0]

    def set_flat(self, flat: np.ndarray) -> None:
        """Load one flat vector into every client (inverse of get_flat)."""
        if flat.size != self.num_params:
            raise ValueError(
                f"expected {self.num_params} parameters, got {flat.size}"
            )
        offset = 0
        for p in self.params():
            size = p[0].size
            p[...] = flat[offset : offset + size].reshape(p.shape[1:])
            offset += size


def accuracy(model: Sequential, x: np.ndarray, y: np.ndarray) -> float:
    """Classification accuracy of a single model at evaluation time."""
    logits = model.forward(x[None], train=False)[0]
    return float((logits.argmax(axis=1) == y).mean())


def mlp(in_dim: int, hidden: int, out_dim: int,
        rng: np.random.Generator) -> Sequential:
    """The paper's MLP shape, Linear-ReLU-Dropout(0.5)-Linear (C = 1).

    Weights are drawn from ``rng`` in layer order; the dropout layer
    keeps ``rng`` as its mask Generator.
    """
    return Sequential(
        [
            Linear.init(in_dim, hidden, rng),
            ReLU(),
            Dropout(0.5, rng),
            Linear.init(hidden, out_dim, rng),
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
                Conv2d.init(3, 6, 5, rng),
                ReLU(),
                MaxPool2d(2),
                Conv2d.init(6, 16, 5, rng),
                ReLU(),
                MaxPool2d(2),
                Flatten(),
                Linear.init(16 * 5 * 5, 120, rng),
                ReLU(),
                Linear.init(120, 84, rng),
                ReLU(),
                Linear.init(84, 10, rng),
            ]
        )
    if name == "cifar100_cnn":
        # ResNet-18 stand-in with a parameter count close to the
        # paper's reported 201,588 (see DESIGN.md substitution table).
        return Sequential(
            [
                Conv2d.init(3, 16, 3, rng, padding=1),
                ReLU(),
                MaxPool2d(2),
                Conv2d.init(16, 32, 3, rng, padding=1),
                ReLU(),
                MaxPool2d(2),
                Flatten(),
                Linear.init(32 * 8 * 8, 91, rng),
                ReLU(),
                Linear.init(91, 100, rng),
            ]
        )
    raise ValueError(f"unknown model {name!r}")


MODEL_NAMES = (
    "tiny_mlp",
    "mnist_mlp",
    "cifar10_mlp",
    "cifar10_cnn",
    "purchase100_mlp",
    "cifar100_cnn",
)
