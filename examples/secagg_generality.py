"""Generality of the sparsification leak: no TEE required (Sec. 3.3).

The paper stresses that the gradient-index side channel is not an SGX
artifact: sparse secure aggregation (SparseSecAgg-style pairwise
masking) hides every gradient *value* cryptographically, yet the index
sets must travel in plaintext for the server to align the masked
values -- and those index sets are exactly what the label-inference
attack consumes.

This example runs one federated round with sparse secure aggregation
(no enclave anywhere), hands the plaintext index sets to the Section 4
attack, and reports the leakage both operationally (attack accuracy)
and information-theoretically (bits of label entropy revealed).

Run:  python examples/secagg_generality.py
"""

import numpy as np

from repro.analysis import mutual_information, normalized_leakage
from repro.attack.classifiers import JacAttack, decide_labels
from repro.attack.leakage import coarsen_indices
from repro.attack.pipeline import all_accuracy, chance_top1, top1_accuracy
from repro.fl import (
    SPECS,
    ClientData,
    SyntheticClassData,
    TrainingConfig,
    build_model,
    client_updates,
    partition_clients,
    server_test_data_by_label,
)
from repro.fl.secagg import aggregate_sparse_masked, setup_pairwise_seeds

N_CLIENTS = 16
LABELS_PER_CLIENT = 2
TRAIN = TrainingConfig(local_epochs=2, local_lr=0.25, batch_size=16,
                       sparse_ratio=0.1, clip=1.0)


def local_updates(model, w0, datas, rng):
    """EncClient for same-shape shards; every client's training and
    dropout streams are spawned from ``rng``."""
    train = rng.spawn(len(datas))
    dropout = {i: rng.spawn(len(datas)) for i in model.dropout_indices}
    return client_updates(model, w0, datas, TRAIN, train, dropout)


def main() -> None:
    print("== Sparse secure aggregation leaks like a TEE side channel ==")
    spec = SPECS["tiny"]
    gen = SyntheticClassData(spec, seed=0)
    clients = partition_clients(gen, N_CLIENTS, 40, LABELS_PER_CLIENT, seed=0)
    model = build_model(spec.model_name, seed=0)
    d = model.num_params

    # Clients train locally and upload pairwise-masked sparse updates.
    w0 = model.get_flat()
    updates = local_updates(model, w0, clients, np.random.default_rng(0))
    secagg = setup_pairwise_seeds([c.client_id for c in clients], seed=1)
    uploads = [secagg[u.client_id].mask_sparse(u, d) for u in updates]

    # The server decodes only the aggregate... and the index sets.
    _, leaked = aggregate_sparse_masked(uploads, d)
    print(f"{len(uploads)} masked uploads; gradient values hidden; "
          f"index sets observed in plaintext.")

    # Information-theoretic leakage.
    observations = [leaked[c.client_id] for c in clients]
    labels = [c.label_set for c in clients]
    bits = mutual_information(observations, labels)
    frac = normalized_leakage(observations, labels)
    print(f"I(indices; label set) = {bits:.2f} bits "
          f"({frac:.0%} of the label entropy)")

    # Operational leakage: JAC attack over the single observed round.
    test_data = server_test_data_by_label(gen, 30, seed=9)
    teacher = {0: {}}
    teacher_rng = np.random.default_rng(7)
    for label, x in test_data.items():
        shards = [
            ClientData(-1, x[shard], np.full(len(shard), label),
                       frozenset([label]))
            for shard in np.array_split(np.arange(len(x)), 3)
        ]
        teacher[0][label] = [
            coarsen_indices(u.indices)
            for u in local_updates(model, w0, shards, teacher_rng)
        ]

    attack = JacAttack()
    true_labels = {c.client_id: c.label_set for c in clients}
    scores, inferred = {}, {}
    for c in clients:
        s = attack.score({0: leaked[c.client_id]}, teacher, spec.n_labels)
        scores[c.client_id] = s
        inferred[c.client_id] = decide_labels(s, known_count=LABELS_PER_CLIENT)

    print(f"attack exact-set accuracy: "
          f"{all_accuracy(inferred, true_labels):.2f}; "
          f"top-1: {top1_accuracy(scores, true_labels):.2f} "
          f"(chance {chance_top1(true_labels, spec.n_labels):.2f})")
    print("\nConclusion: encryption of values is not enough; any")
    print("data-dependent sparsification needs oblivious aggregation.")


if __name__ == "__main__":
    main()
