"""Tests for the synthetic dataset substrate (repro.fl.datasets)."""

import numpy as np
import pytest

from repro.fl.datasets import (
    SPECS,
    ClientData,
    SyntheticClassData,
    assign_label_sets,
    partition_clients,
    server_test_data_by_label,
)
from repro.fl.models import build_model


class TestSpecs:
    def test_all_paper_datasets_present(self):
        for name in ("mnist", "cifar10", "cifar10_cnn", "purchase100", "cifar100"):
            assert name in SPECS

    def test_input_dims(self):
        assert SPECS["mnist"].input_dim == 784
        assert SPECS["cifar10"].input_dim == 3072
        assert SPECS["cifar10_cnn"].input_dim == 3072
        assert SPECS["purchase100"].input_dim == 600

    def test_label_counts(self):
        assert SPECS["mnist"].n_labels == 10
        assert SPECS["purchase100"].n_labels == 100
        assert SPECS["cifar100"].n_labels == 100

    def test_spec_matches_model_input(self):
        for name, spec in SPECS.items():
            model = build_model(spec.model_name)
            x = np.zeros((2,) + spec.input_shape)
            logits = model.forward(x[None])
            assert logits.shape == (1, 2, spec.n_labels), name


class TestGenerator:
    def test_sample_shapes(self):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        rng = np.random.default_rng(0)
        x = gen.sample(np.asarray([0, 1, 2]), rng)
        assert x.shape == (3, 24)

    def test_image_shaped_output(self):
        gen = SyntheticClassData(SPECS["cifar10_cnn"], seed=0)
        rng = np.random.default_rng(0)
        x = gen.sample(np.asarray([0, 1]), rng)
        assert x.shape == (2, 3, 32, 32)

    def test_purchase_is_binary(self):
        gen = SyntheticClassData(SPECS["purchase100"], seed=0)
        rng = np.random.default_rng(0)
        x = gen.sample(np.asarray([0, 5, 99]), rng)
        assert set(np.unique(x)) <= {0.0, 1.0}

    def test_classes_are_separated(self):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        rng = np.random.default_rng(0)
        a = gen.sample(np.zeros(50, dtype=int), rng)
        b = gen.sample(np.ones(50, dtype=int), rng)
        within = np.linalg.norm(a - a.mean(axis=0), axis=1).mean()
        between = np.linalg.norm(a.mean(axis=0) - b.mean(axis=0))
        assert between > within * 0.5

    def test_balanced_covers_all_labels(self):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        x, y = gen.balanced(4, np.random.default_rng(0))
        assert len(x) == 4 * 6
        assert np.bincount(y).tolist() == [4] * 6

    def test_prototypes_deterministic_by_seed(self):
        a = SyntheticClassData(SPECS["tiny"], seed=5)
        b = SyntheticClassData(SPECS["tiny"], seed=5)
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        assert np.array_equal(
            a.sample(np.asarray([2]), rng1), b.sample(np.asarray([2]), rng2)
        )


class TestLabelSets:
    def test_fixed_sizes(self):
        rng = np.random.default_rng(0)
        sets = assign_label_sets(50, 10, 3, fixed=True, rng=rng)
        assert all(len(s) == 3 for s in sets)

    def test_random_sizes_bounded(self):
        rng = np.random.default_rng(0)
        sets = assign_label_sets(200, 10, 4, fixed=False, rng=rng)
        sizes = {len(s) for s in sets}
        assert sizes <= {1, 2, 3, 4}
        assert len(sizes) > 1  # actually varies

    def test_labels_in_range(self):
        rng = np.random.default_rng(0)
        for s in assign_label_sets(30, 6, 2, fixed=True, rng=rng):
            assert all(0 <= lab < 6 for lab in s)

    def test_invalid_count_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            assign_label_sets(1, 10, 0, fixed=True, rng=rng)
        with pytest.raises(ValueError):
            assign_label_sets(1, 10, 11, fixed=True, rng=rng)


class TestPartitioning:
    def test_client_count_and_sizes(self):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        clients = partition_clients(gen, 8, 20, 2, seed=0)
        assert len(clients) == 8
        assert all(len(c) == 20 for c in clients)

    def test_client_data_matches_label_set(self):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        clients = partition_clients(gen, 8, 30, 2, seed=0)
        for c in clients:
            assert set(np.unique(c.y)) <= c.label_set

    def test_client_ids_sequential(self):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        clients = partition_clients(gen, 5, 10, 1, seed=0)
        assert [c.client_id for c in clients] == [0, 1, 2, 3, 4]

    def test_partition_deterministic(self):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        a = partition_clients(gen, 4, 10, 2, seed=3)
        b = partition_clients(gen, 4, 10, 2, seed=3)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.x, cb.x)
            assert ca.label_set == cb.label_set

    def test_random_label_setting(self):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        clients = partition_clients(gen, 50, 10, 4, fixed=False, seed=0)
        assert len({len(c.label_set) for c in clients}) > 1


class TestServerTestData:
    def test_one_entry_per_label(self):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        data = server_test_data_by_label(gen, 7, seed=1)
        assert set(data) == set(range(6))
        assert all(x.shape == (7, 24) for x in data.values())

    def test_client_data_len(self):
        c = ClientData(0, np.zeros((3, 4)), np.zeros(3, dtype=int))
        assert len(c) == 3
