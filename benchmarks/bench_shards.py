"""Sharded multi-enclave aggregation benchmark: scaling + fault sweep.

Measures the hierarchical aggregation service
(:mod:`repro.runtime.shards`) on a mega-cohort round: the whole
cohort's sealed uploads are produced once through the vectorized
client path, then aggregated repeatedly while sweeping

* **shard count** -- round latency vs number of leaf enclaves at
  n >= 10^5 uploads (full mode; quick mode shrinks the cohort).  The
  reported ``latency_s`` is the simulated parallel-leaf latency (max
  over shards + root combine): the quantity that shrinks as the shard
  count grows, while coordinator wall clock stays flat (the simulation
  executes leaves serially);
* **leaf-crash probability** -- completion rate and latency under the
  server-side fault model, with generous retry/failover budgets.  At
  every crash rate where all shards complete, the aggregate is
  asserted **bit-identical** to the fault-free sharded run -- recovery
  that changed a byte would be a bug, not a degraded round.

Set ``SHARDS_BENCH_QUICK=1`` for the reduced CI workload; the
regression gate additionally enforces the recorded
``shard_completion_rate`` floor from ``bench_results/baseline.json``.
"""

import os
import time

from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.runtime import (
    CohortRuntime,
    EnclaveFaultConfig,
    RuntimeConfig,
    ShardConfig,
    ShardedAggregator,
    plan_shards,
)
from repro.sgx import crypto
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import Enclave

from .common import print_table, save_results

QUICK = bool(os.environ.get("SHARDS_BENCH_QUICK"))

SAMPLES_PER_CLIENT = 16
TRAIN = TrainingConfig(local_epochs=1, local_lr=0.2, batch_size=8,
                       sparse_ratio=0.1, clip=1.0, sparsifier="top_k")

QUICK_CLIENTS = 2000
FULL_CLIENTS = 100_000
SHARD_SWEEP_QUICK = (1, 4)
SHARD_SWEEP_FULL = (1, 2, 4, 8, 16)
CRASH_SWEEP_QUICK = (0.0, 0.2)
CRASH_SWEEP_FULL = (0.0, 0.1, 0.2, 0.4)
#: The chaos configuration the acceptance bar runs: leaf crashes plus
#: straggler leaves, recovered within generous retry/failover budgets.
#: Entropy 9 is a seed whose (round 0, shards 0-7) fault plans include
#: crashes and a fatal failover at crash rate 0.2, so the sweep
#: exercises real recovery (plans depend only on (entropy, round,
#: shard, attempt), never on cohort size).
CHAOS_RETRIES = 8
CHAOS_SHARDS = 8
CHAOS_ENTROPY = 9


def _client_phase(n_clients):
    """One vectorized client round: returns (deliveries, keys, d)."""
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, n_clients, SAMPLES_PER_CLIENT, 2,
                                seed=0)
    model = build_model("tiny_mlp", seed=0)
    keys = {c.client_id: crypto.generate_key(b"k%d" % c.client_id)
            for c in clients}
    runtime = CohortRuntime(RuntimeConfig(), model, clients, entropy=11,
                            keys=keys)
    result = runtime.run_cohort(0, [c.client_id for c in clients],
                                model.get_flat(), TRAIN)
    return result.deliveries, keys, model.num_params


def _fresh_service(keys, config, entropy=11):
    """A root enclave (keys provisioned) plus a fresh shard service."""
    service = AttestationService(signing_key=b"s" * 32,
                                 platform_secret=b"p" * 32)
    root = Enclave(attestation_service=service, seed=0)
    for cid, key in keys.items():
        root.keystore.put(cid, key)
    root.begin_round(sampled=keys.keys())
    return ShardedAggregator(root, config, entropy=entropy)


def _aggregate(deliveries, keys, d, config, entropy=11):
    svc = _fresh_service(keys, config, entropy=entropy)
    t0 = time.perf_counter()
    aggregate, report = svc.aggregate_round(0, deliveries, d,
                                            sampled=set(keys.keys()))
    wall = time.perf_counter() - t0
    return aggregate, report, wall


def test_shard_scaling_and_faults():
    n_clients = QUICK_CLIENTS if QUICK else FULL_CLIENTS
    shard_sweep = SHARD_SWEEP_QUICK if QUICK else SHARD_SWEEP_FULL
    crash_sweep = CRASH_SWEEP_QUICK if QUICK else CRASH_SWEEP_FULL

    t0 = time.perf_counter()
    deliveries, keys, d = _client_phase(n_clients)
    client_wall = time.perf_counter() - t0
    upload_bytes = max(len(dv.ciphertext.to_bytes()) for dv in deliveries)
    auto = plan_shards(len(deliveries), d, upload_bytes, ShardConfig())

    # -- shard-count sweep (fault-free) --------------------------------
    scaling = []
    for shards in shard_sweep:
        _, report, wall = _aggregate(
            deliveries, keys, d,
            ShardConfig(shards=shards, oblivious_batch=64))
        assert report.completion_rate == 1.0
        assert len(report.accepted_clients) == len(deliveries)
        scaling.append({
            "shards": shards,
            "latency_s": report.latency_s,
            "wall_s": wall,
            "accepted": len(report.accepted_clients),
        })
    print_table(
        f"Sharded aggregation scaling: {len(deliveries)} uploads, "
        f"d={d}, EPC-aware auto plan = {auto} shard(s)",
        ["shards", "latency s", "coordinator wall s", "accepted"],
        [[r["shards"], f"{r['latency_s']:.3f}", f"{r['wall_s']:.3f}",
          r["accepted"]] for r in scaling],
    )

    # -- fault sweep: crash probability vs completion/latency ----------
    baseline_aggregate, _, _ = _aggregate(
        deliveries, keys, d,
        ShardConfig(shards=CHAOS_SHARDS, oblivious_batch=64,
                    max_shard_retries=CHAOS_RETRIES),
        entropy=CHAOS_ENTROPY)
    fault_rows = []
    completion_at_probe = None
    probe_crashes = 0
    for crash in crash_sweep:
        cfg = ShardConfig(
            shards=CHAOS_SHARDS, oblivious_batch=64,
            max_shard_retries=CHAOS_RETRIES,
            faults=EnclaveFaultConfig(
                leaf_crash_rate=crash, crash_fatal_rate=0.5,
                leaf_straggler_rate=min(1.0, crash),
            ),
        )
        aggregate, report, wall = _aggregate(deliveries, keys, d, cfg,
                                             entropy=CHAOS_ENTROPY)
        crashes = sum(o.crashes for o in report.outcomes)
        failovers = sum(o.failovers for o in report.outcomes)
        if report.completion_rate == 1.0:
            # Recovery must be invisible in the output bits.
            assert (aggregate.tobytes()
                    == baseline_aggregate.tobytes()), (
                f"recovered aggregate diverged at crash rate {crash}")
        if crash == 0.2:
            completion_at_probe = report.completion_rate
            probe_crashes = crashes
        fault_rows.append({
            "crash_rate": crash,
            "completion_rate": report.completion_rate,
            "latency_s": report.latency_s,
            "wall_s": wall,
            "crashes": crashes,
            "failovers": failovers,
        })
    print_table(
        f"Fault sweep: {CHAOS_SHARDS} shards, {CHAOS_RETRIES} retries, "
        "fatal rate 0.5, straggler leaves",
        ["crash rate", "completion", "latency s", "crashes", "failovers"],
        [[r["crash_rate"], f"{r['completion_rate']:.2f}",
          f"{r['latency_s']:.3f}", r["crashes"], r["failovers"]]
         for r in fault_rows],
    )

    save_results("shards", {
        "workload": {
            "n_clients": n_clients,
            "uploads": len(deliveries),
            "d": d,
            "client_phase_seconds": client_wall,
            "auto_planned_shards": auto,
            "quick": QUICK,
        },
        "scaling": scaling,
        "fault_sweep": fault_rows,
        "shard_completion_rate": completion_at_probe,
    })

    # Acceptance bar: with leaf-crash probability 0.2 plus stragglers,
    # real crashes occur and the round still completes through
    # failover/recovery (the completion floor is also enforced by the
    # CI regression gate on the saved payload).
    assert probe_crashes >= 1, "chaos probe injected no crashes"
    assert completion_at_probe == 1.0
