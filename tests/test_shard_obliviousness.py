"""Obliviousness at the leaves: Props. 5.1/5.2 on the sharded round path.

Every round aggregates through the shard service, so the leakage claim
is checked on leaf traces: a traced round records every leaf fold, in
execution order, into one trace -- what an adversary holding every
leaf host observes.  For the oblivious kernels that trace must be the
trace of *any* same-shape updates pushed through the same shard layout
(clients dealt round-robin over the shards in id order, each shard
folding ``oblivious_batch`` uploads per kernel run).  The Section 4
attack must still succeed against Linear leaves and fall to chance
against Advanced leaves.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attack.pipeline import AttackConfig, chance_top1, run_attack
from repro.core.aggregation import AGGREGATORS
from repro.core.grouping import aggregate_grouped
from repro.core.obliviousness import traces_equal
from repro.core.olive import OliveConfig, OliveSystem
from repro.fl.client import LocalUpdate, TrainingConfig
from repro.fl.datasets import (
    SPECS,
    SyntheticClassData,
    partition_clients,
    server_test_data_by_label,
)
from repro.fl.models import build_model
from repro.runtime import ShardConfig, ShardedAggregator
from repro.runtime.cohort import Delivery
from repro.sgx import crypto
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import Enclave, provision_enclave_with_clients
from repro.sgx.memory import Trace

ITEMSIZES = {"g": 8, "g_star": 4}

#: (aggregator, group_size, granularity at which the kernel is oblivious)
KERNELS = {
    "advanced": ("advanced", None, "word"),
    "baseline": ("baseline", None, "cacheline"),
    "grouped_h2": ("advanced", 2, "word"),
}


def random_updates(rng, ks, d):
    return [LocalUpdate(cid, np.sort(rng.choice(d, size=k, replace=False)),
                        rng.normal(size=k))
            for cid, k in enumerate(ks)]


def traced_service_round(updates, d, n_shards, batch, aggregator,
                         group_size=None):
    """Seal ``updates``, run one traced round through the shard service."""
    svc = AttestationService(signing_key=b"k" * 32, platform_secret=b"p" * 32)
    root = Enclave(attestation_service=svc, seed=3)
    keys = provision_enclave_with_clients(root, [u.client_id for u in updates])
    deliveries = [
        Delivery(client_id=u.client_id,
                 ciphertext=crypto.seal(keys[u.client_id],
                                        crypto.encode_sparse_gradient(
                                            u.indices, u.values)))
        for u in updates
    ]
    root.begin_round(sampled=keys)
    service = ShardedAggregator(
        root, ShardConfig(shards=n_shards, oblivious_batch=batch),
        entropy=5, aggregator=aggregator, group_size=group_size)
    trace = Trace()
    _, report = service.aggregate_round(0, deliveries, d,
                                        sampled=set(keys), trace=trace)
    return report, trace


def layout_trace(updates, d, n_shards, batch, aggregator, group_size=None):
    """The documented layout replayed by hand: shard s folds the sorted
    clients ``[s::n_shards]`` in runs of ``batch``."""
    trace = Trace()
    ordered = sorted(updates, key=lambda u: u.client_id)
    for s in range(n_shards):
        shard = ordered[s::n_shards]
        for lo in range(0, len(shard), batch):
            part = shard[lo:lo + batch]
            if group_size is None:
                AGGREGATORS[aggregator].run(part, d, trace)
            else:
                aggregate_grouped(part, d, group_size, trace=trace)
    return trace


class TestLeafTracesAreInputIndependent:
    @settings(max_examples=30, deadline=None)
    @given(
        n_shards=st.sampled_from([1, 2, 3]),
        kernel=st.sampled_from(sorted(KERNELS)),
        ks=st.lists(st.integers(1, 6), min_size=1, max_size=9),
        d=st.sampled_from([16, 37, 64]),
        batch=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_round_trace_equals_synthetic_trace_through_same_layout(
            self, n_shards, kernel, ks, d, batch, seed):
        aggregator, group_size, granularity = KERNELS[kernel]
        rng = np.random.default_rng(seed)
        real = random_updates(rng, ks, d)
        synthetic = random_updates(rng, ks, d)
        report, trace = traced_service_round(real, d, n_shards, batch,
                                             aggregator, group_size)
        reference = layout_trace(synthetic, d, n_shards, batch, aggregator,
                                 group_size)
        assert traces_equal(trace, reference, granularity=granularity,
                            itemsizes=ITEMSIZES)
        # One fold mark per kernel run of the layout, in trace order.
        n_runs = sum(-(-len(real[s::n_shards]) // batch)
                     for s in range(n_shards))
        assert len(report.folds) == n_runs
        assert sorted(report.updates) == list(range(len(ks)))

    def test_linear_leaves_fail_the_same_check(self):
        # The comparison has teeth: Linear leaves replay their own
        # layout exactly, yet differ from same-shape synthetic updates.
        rng = np.random.default_rng(0)
        real = random_updates(rng, [4] * 7, 64)
        synthetic = random_updates(rng, [4] * 7, 64)
        _, trace = traced_service_round(real, 64, 2, 2, "linear")
        assert traces_equal(trace, layout_trace(real, 64, 2, 2, "linear"))
        assert not traces_equal(trace,
                                layout_trace(synthetic, 64, 2, 2, "linear"))


TRAIN = TrainingConfig(local_epochs=1, local_lr=0.2, batch_size=16,
                       sparse_ratio=0.1, clip=1.0)


def label_auc(scores, true_labels, n_labels):
    """Macro one-vs-rest AUC of per-client label scores (ties count 1/2)."""
    aucs = []
    cids = sorted(scores)
    for label in range(n_labels):
        pos = [scores[c][label] for c in cids if label in true_labels[c]]
        neg = [scores[c][label] for c in cids if label not in true_labels[c]]
        if not pos or not neg:
            continue
        wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        aucs.append(wins / (len(pos) * len(neg)))
    return float(np.mean(aucs))


def sharded_attack(aggregator):
    """The Section 4 attack on three traced 2-shard rounds."""
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, 30, 40, 2, seed=0)
    model = build_model("tiny_mlp", seed=0)
    with OliveSystem(
        model, clients,
        OliveConfig(sample_rate=0.5, noise_multiplier=1.12,
                    aggregator=aggregator, training=TRAIN),
        seed=0, shards=ShardConfig(shards=2, oblivious_batch=8),
    ) as system:
        logs = system.run(3, traced=True)
    assert all(log.shard_report.n_shards == 2 for log in logs)
    assert all(len(log.shard_report.folds) >= 2 for log in logs)
    test_data = server_test_data_by_label(gen, 30, seed=99)
    true_labels = {c.client_id: c.label_set for c in clients}
    res = run_attack(logs, model, test_data, TRAIN, true_labels, system.d,
                     AttackConfig(method="jac", known_label_count=2))
    return res, true_labels


class TestAttackOnShardTraces:
    def test_linear_leaves_leak(self):
        res, true_labels = sharded_attack("linear")
        assert res.top1_accuracy >= 0.95
        assert res.top1_accuracy > 2 * chance_top1(true_labels, 6)
        assert label_auc(res.scores, true_labels, 6) > 0.9

    def test_advanced_leaves_are_at_chance(self):
        res, true_labels = sharded_attack("advanced")
        assert label_auc(res.scores, true_labels, 6) == pytest.approx(0.5)
        assert res.top1_accuracy <= chance_top1(true_labels, 6) + 0.25
