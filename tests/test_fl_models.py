"""Tests for the numpy neural network library (repro.fl.models)."""

import numpy as np
import pytest

from repro.fl.models import (
    MODEL_NAMES,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    accuracy,
    build_model,
    cross_entropy_grad,
)

from . import oracles


RNG = np.random.default_rng(0)


def flat_grads(model):
    """Parameter gradients as one flat vector (aligned with get_flat)."""
    return np.concatenate([
        g.ravel() for layer in model.layers if layer.params()
        for g in (layer.grad_weight, layer.grad_bias)
    ])


def loss(model, x, y):
    """A single model's mean cross-entropy (the scalar oracle's loss)."""
    return oracles.softmax_cross_entropy(model.forward(x[None])[0], y)[0]


def finite_difference_check(model, x, y, epsilon=1e-5, samples=8):
    """Compare backprop gradients to central finite differences."""
    model.backward(cross_entropy_grad(model.forward(x[None]), y[None]))
    analytic = flat_grads(model)
    flat = model.get_flat()
    rng = np.random.default_rng(1)
    checked = rng.choice(flat.size, size=min(samples, flat.size), replace=False)
    for i in checked:
        bumped = flat.copy()
        bumped[i] += epsilon
        model.set_flat(bumped)
        loss_plus = loss(model, x, y)
        bumped[i] -= 2 * epsilon
        model.set_flat(bumped)
        loss_minus = loss(model, x, y)
        numeric = (loss_plus - loss_minus) / (2 * epsilon)
        assert analytic[i] == pytest.approx(numeric, abs=1e-4), f"param {i}"
    model.set_flat(flat)


class TestParameterCounts:
    """Table 2 parameter counts; exact where the paper's are exact."""

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("mnist_mlp", 50_890),       # paper: 50890 (exact)
            ("cifar10_mlp", 197_322),    # paper: 197320 (bias counting)
            ("cifar10_cnn", 62_006),     # paper: 62006 (exact, LeNet-5)
            ("purchase100_mlp", 44_964),  # paper: 44964 (exact)
            ("cifar100_cnn", 200_747),   # paper: 201588 (ResNet-18 stand-in)
            ("tiny_mlp", 378),
        ],
    )
    def test_param_count(self, name, expected):
        assert build_model(name).num_params == expected

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            build_model("resnet152")

    def test_all_names_buildable(self):
        for name in MODEL_NAMES:
            assert build_model(name).num_params > 0


class TestFlatParameters:
    def test_get_set_roundtrip(self):
        model = build_model("tiny_mlp", seed=0)
        flat = model.get_flat()
        model.set_flat(np.zeros_like(flat))
        assert np.all(model.get_flat() == 0.0)
        model.set_flat(flat)
        assert np.array_equal(model.get_flat(), flat)

    def test_set_flat_wrong_size_rejected(self):
        model = build_model("tiny_mlp")
        with pytest.raises(ValueError):
            model.set_flat(np.zeros(3))

    def test_different_seeds_different_init(self):
        a = build_model("tiny_mlp", seed=0).get_flat()
        b = build_model("tiny_mlp", seed=1).get_flat()
        assert not np.array_equal(a, b)

    def test_same_seed_reproducible(self):
        a = build_model("tiny_mlp", seed=3).get_flat()
        b = build_model("tiny_mlp", seed=3).get_flat()
        assert np.array_equal(a, b)


class TestGradients:
    def test_mlp_gradient_check(self):
        rng = np.random.default_rng(0)
        model = Sequential([
            Linear.init(6, 5, rng), ReLU(), Linear.init(5, 3, rng),
        ])
        x = rng.normal(size=(4, 6))
        y = np.asarray([0, 1, 2, 1])
        finite_difference_check(model, x, y)

    def test_cnn_gradient_check(self):
        rng = np.random.default_rng(0)
        model = Sequential([
            Conv2d.init(1, 2, 3, rng), ReLU(), MaxPool2d(2),
            Flatten(), Linear.init(2 * 3 * 3, 3, rng),
        ])
        x = rng.normal(size=(2, 1, 8, 8))
        y = np.asarray([0, 2])
        finite_difference_check(model, x, y)

    def test_padded_conv_gradient_check(self):
        rng = np.random.default_rng(0)
        model = Sequential([
            Conv2d.init(1, 2, 3, rng, padding=1), Flatten(),
            Linear.init(2 * 6 * 6, 2, rng),
        ])
        x = rng.normal(size=(2, 1, 6, 6))
        y = np.asarray([0, 1])
        finite_difference_check(model, x, y)

    def test_strided_conv_gradient_check(self):
        rng = np.random.default_rng(0)
        model = Sequential([
            Conv2d.init(1, 2, 3, rng, stride=2), Flatten(),
            Linear.init(2 * 3 * 3, 2, rng),
        ])
        x = rng.normal(size=(2, 1, 7, 7))
        y = np.asarray([1, 0])
        finite_difference_check(model, x, y)

    def test_conv_input_gradient_check(self):
        # The input gradient (skipped on a stack's first layer) of an
        # inner conv layer, against finite differences of its output.
        rng = np.random.default_rng(3)
        conv = Conv2d.init(2, 3, 3, rng, stride=2, padding=1)
        x = rng.normal(size=(1, 2, 2, 5, 5))
        g = rng.normal(size=conv.forward(x).shape)
        dx = conv.backward(g)
        for idx in [(0, 0, 0, 0, 0), (0, 1, 1, 2, 3), (0, 0, 1, 4, 4)]:
            bumped = x.copy()
            bumped[idx] += 1e-6
            numeric = ((conv.forward(bumped) - conv.forward(x)) * g).sum() / 1e-6
            assert dx[idx] == pytest.approx(numeric, abs=1e-4)


class TestLayers:
    def test_relu_masks_negatives(self):
        relu = ReLU()
        out = relu.forward(np.asarray([[[-1.0, 2.0]]]))
        assert out.tolist() == [[[0.0, 2.0]]]
        grad = relu.backward(np.asarray([[[5.0, 5.0]]]))
        assert grad.tolist() == [[[0.0, 5.0]]]

    def test_dropout_eval_is_identity(self):
        drop = Dropout(0.5, np.random.default_rng(0))
        x = np.ones((1, 4, 10))
        assert np.array_equal(drop.forward(x, train=False), x)

    def test_dropout_train_zeroes_and_scales(self):
        drop = Dropout(0.5, np.random.default_rng(0))
        x = np.ones((1, 100, 100))
        out = drop.forward(x, train=True)
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)  # inverted dropout scaling
        assert 0.35 < (out > 0).mean() < 0.65

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0, np.random.default_rng(0))

    def test_dropout_announced_run_matches_per_batch_draws(self):
        # begin() pre-draws the run in one call per client; the masks
        # must equal drawing batch by batch from the same Generator.
        pooled = Dropout(0.5, np.random.default_rng(4))
        per_batch = Dropout(0.5, np.random.default_rng(4))
        pooled.begin(10)
        x = np.ones((1, 4, 6))
        for b in (4, 4, 2):
            assert np.array_equal(pooled.forward(x[:, :b], train=True),
                                  per_batch.forward(x[:, :b], train=True))

    def test_dropout_without_generators_rejected(self):
        with pytest.raises(ValueError, match="Generators"):
            Dropout(0.5).forward(np.ones((1, 2, 3)), train=True)

    def test_maxpool_values(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 1, 4, 4)
        out = pool.forward(x)
        assert out.reshape(-1).tolist() == [5.0, 7.0, 13.0, 15.0]

    def test_maxpool_backward_routes_to_argmax(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 1, 4, 4)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 1, 2, 2)))
        assert grad.sum() == 4.0
        assert grad[0, 0, 0, 1, 1] == 1.0  # position of 5

    def test_maxpool_indivisible_raises(self):
        with pytest.raises(ValueError):
            MaxPool2d(2).forward(np.zeros((1, 1, 1, 5, 5)))

    def test_flatten_roundtrip(self):
        flat = Flatten()
        x = np.arange(24, dtype=float).reshape(1, 2, 3, 2, 2)
        out = flat.forward(x)
        assert out.shape == (1, 2, 12)
        assert flat.backward(out).shape == x.shape

    def test_conv_output_shape(self):
        conv = Conv2d.init(3, 6, 5, np.random.default_rng(0))
        out = conv.forward(np.zeros((1, 2, 3, 32, 32)))
        assert out.shape == (1, 2, 6, 28, 28)

    def test_conv_padding_preserves_shape(self):
        conv = Conv2d.init(3, 4, 3, np.random.default_rng(0), padding=1)
        out = conv.forward(np.zeros((1, 1, 3, 8, 8)))
        assert out.shape == (1, 1, 4, 8, 8)


class TestLossAndTraining:
    def test_cross_entropy_uniform(self):
        # Uniform softmax: (1/4 - onehot) / n per row.
        dlogits = cross_entropy_grad(np.zeros((1, 2, 4)), np.asarray([[0, 3]]))
        assert dlogits.shape == (1, 2, 4)
        assert np.allclose(dlogits[0, 0], [-0.375, 0.125, 0.125, 0.125])

    def test_cross_entropy_confident_correct(self):
        logits = np.asarray([[[100.0, 0.0]]])
        assert np.abs(cross_entropy_grad(logits, np.asarray([[0]]))).max() < 1e-6

    def test_gradient_sums_to_zero_per_row(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(1, 5, 7))
        dlogits = cross_entropy_grad(logits, np.asarray([[0, 1, 2, 3, 4]]))
        assert np.allclose(dlogits.sum(axis=2), 0.0)

    def test_sgd_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        model = Sequential([Linear.init(10, 16, rng), ReLU(),
                            Linear.init(16, 3, rng)])
        x = rng.normal(size=(60, 10))
        y = rng.integers(0, 3, size=60)
        # Make labels learnable: shift class means apart.
        for c in range(3):
            x[y == c] += 2.0 * c
        first_loss = loss(model, x, y)
        for _ in range(60):
            model.train_step(x[None], y[None], 0.1)
        final_loss = loss(model, x, y)
        assert final_loss < first_loss * 0.5
        assert accuracy(model, x, y) > 0.8

    def test_accuracy_bounds(self):
        model = build_model("tiny_mlp")
        x = np.zeros((5, 24))
        y = np.zeros(5, dtype=np.int64)
        assert 0.0 <= accuracy(model, x, y) <= 1.0


class TestBatchedConv:
    """Conv model stacks must match the scalar oracle layers bit for bit."""

    @pytest.mark.parametrize("name", ["cifar10_cnn", "cifar100_cnn"])
    def test_conv_models_are_batchable(self, name):
        weights = build_model(name, seed=7).get_flat()
        stack = build_model(name).replicate(3, weights)
        assert stack.n_clients == 3
        assert stack.num_params == weights.size
        assert np.array_equal(stack.flat_stack(), np.tile(weights, (3, 1)))

    @pytest.mark.parametrize("name", ["cifar10_cnn", "cifar100_cnn"])
    def test_batched_forward_bit_identical(self, name):
        weights = build_model(name, seed=7).get_flat()
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(3, 4, 3, 32, 32))
        out = build_model(name, seed=0).replicate(3, weights).forward(xs)
        for c in range(3):
            serial = oracles.build_model(name, seed=0)
            serial.set_flat(weights)
            expected = serial.forward(xs[c], train=False)
            assert np.array_equal(expected, out[c])

    def test_batched_train_step_bit_identical(self):
        weights = build_model("cifar10_cnn", seed=5).get_flat()
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(3, 4, 3, 32, 32))
        ys = rng.integers(0, 10, size=(3, 4))
        stack = build_model("cifar10_cnn", seed=0).replicate(3, weights)
        stack.train_step(xs, ys, 0.1)
        flat = stack.flat_stack()
        for c in range(3):
            serial = oracles.build_model("cifar10_cnn", seed=0)
            serial.set_flat(weights)
            _, dlogits = oracles.softmax_cross_entropy(
                serial.forward(xs[c], train=True), ys[c]
            )
            serial.backward(dlogits)
            serial.sgd_step(0.1)
            assert np.array_equal(serial.get_flat(), flat[c])


class TestSingleModel:
    """build_model's C = 1 stack keeps the scalar models' exact init."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_init_draws_match_oracle(self, name):
        assert np.array_equal(build_model(name, seed=3).get_flat(),
                              oracles.build_model(name, seed=3).get_flat())

    def test_get_flat_refuses_a_stack(self):
        model = build_model("tiny_mlp")
        with pytest.raises(ValueError, match="single model"):
            model.replicate(2, model.get_flat()).get_flat()
