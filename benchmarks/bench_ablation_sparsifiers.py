"""Ablation: why top-k despite the leak?  Sparsifier utility trade-off.

random-k sparsification is trivially oblivious (the index choice is
data-independent) and threshold keeps large coordinates too, so one
could ask why OLIVE bothers defending top-k.  This ablation trains the
same federated task with each sparsifier at the same bandwidth and
reports final accuracy plus the gradient-mass each sparsifier retains:
top-k dominates utility, which is why FL deployments use it and why an
oblivious aggregator (rather than a leak-free sparsifier) is the right
fix -- the paper's implicit design argument.
"""

import numpy as np

from repro.core.olive import OliveConfig, OliveSystem
from repro.fl.client import TrainingConfig, local_deltas, sparsify
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model

from .common import print_table, save_results

SPARSIFIERS = ("top_k", "random_k")
RATIO = 0.1
ROUNDS = 6


def _accuracy_with(sparsifier: str, seed: int = 0) -> float:
    gen = SyntheticClassData(SPECS["tiny"], seed=seed)
    clients = partition_clients(gen, 20, 50, 3, seed=seed)
    system = OliveSystem(
        build_model("tiny_mlp", seed=seed), clients,
        OliveConfig(
            sample_rate=0.8, noise_multiplier=0.5, aggregator="advanced",
            training=TrainingConfig(
                local_epochs=3, local_lr=0.3, batch_size=16,
                sparse_ratio=RATIO, clip=2.0, sparsifier=sparsifier,
            ),
        ),
        seed=seed,
    )
    system.run(ROUNDS)
    x, y = gen.balanced(25, np.random.default_rng(seed + 3))
    return system.evaluate(x, y)


def _retained_mass(sparsifier: str) -> float:
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, 4, 50, 3, seed=0)
    model = build_model("tiny_mlp", seed=0)
    config = TrainingConfig(sparse_ratio=RATIO, sparsifier=sparsifier,
                            local_lr=0.3, local_epochs=3)
    rngs = [np.random.default_rng((0, c.client_id)) for c in clients]
    dropout = {i: [np.random.default_rng((1, i, c.client_id)) for c in clients]
               for i in model.dropout_indices}
    deltas = local_deltas(model, model.get_flat(),
                          np.stack([c.x for c in clients]),
                          np.stack([c.y for c in clients]),
                          config, rngs, dropout)
    _, values = sparsify(deltas, config, rngs)
    ratios = []
    for delta, kept in zip(deltas, values):
        total = np.linalg.norm(delta)
        ratios.append(float(np.linalg.norm(kept) / total) if total else 0.0)
    return float(np.mean(ratios))


def test_ablation_sparsifier_tradeoff(benchmark):
    def experiment():
        return {
            s: {"accuracy": _accuracy_with(s), "retained_mass": _retained_mass(s)}
            for s in SPARSIFIERS
        }

    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    rows = [
        [s, result[s]["accuracy"], result[s]["retained_mass"],
         "leaks (needs oblivious agg.)" if s == "top_k" else "leak-free"]
        for s in SPARSIFIERS
    ]
    print_table(
        f"Ablation: sparsifier utility at ratio={RATIO}",
        ["sparsifier", "final accuracy", "retained grad mass", "side channel"],
        rows,
    )
    save_results("ablation_sparsifiers", result)
    benchmark.extra_info.update(result)

    # top-k keeps far more gradient mass at equal bandwidth...
    assert result["top_k"]["retained_mass"] > (
        1.5 * result["random_k"]["retained_mass"]
    )
    # ...and at least matches random-k's utility on the learned task.
    assert result["top_k"]["accuracy"] >= result["random_k"]["accuracy"] - 0.1
