"""Table 2: datasets and global models.

Verifies the reproduction's model zoo against the paper's reported
parameter counts and dataset shapes, and times one forward/backward
pass per model (the per-client work unit of EncClient).
"""

import numpy as np
import pytest

from repro.fl.datasets import SPECS, SyntheticClassData
from repro.fl.models import build_model, cross_entropy_grad

from .common import print_table, save_results

PAPER_COUNTS = {
    "mnist": ("MLP", 50_890),
    "cifar10": ("MLP", 197_320),
    "cifar10_cnn": ("CNN", 62_006),
    "purchase100": ("MLP", 44_964),
    "cifar100": ("CNN (ResNet-18 in paper)", 201_588),
}


@pytest.mark.parametrize("dataset", list(PAPER_COUNTS))
def test_table2_models(benchmark, dataset):
    spec = SPECS[dataset]
    model = build_model(spec.model_name, seed=0)
    gen = SyntheticClassData(spec, seed=0)
    rng = np.random.default_rng(0)
    x = gen.sample(rng.integers(0, spec.n_labels, size=16), rng)
    y = rng.integers(0, spec.n_labels, size=16)

    def step():
        logits = model.forward(x[None], train=True)
        model.backward(cross_entropy_grad(logits, y[None]))
        return logits

    benchmark.pedantic(step, rounds=3, iterations=1)

    arch, paper_params = PAPER_COUNTS[dataset]
    ours = model.num_params
    print_table(
        f"Table 2 row: {dataset}",
        ["dataset", "model", "paper #params", "ours", "#labels"],
        [[dataset, arch, paper_params, ours, spec.n_labels]],
    )
    save_results(f"table2_{dataset}", {
        "dataset": dataset, "paper_params": paper_params, "our_params": ours,
    })
    benchmark.extra_info["params"] = ours

    if dataset in ("mnist", "cifar10_cnn", "purchase100"):
        assert ours == paper_params            # exact reproductions
    else:
        # cifar10 MLP (bias counting) and the cifar100 ResNet-18
        # substitution: within 1% of the paper's count.
        assert abs(ours - paper_params) / paper_params < 0.01
