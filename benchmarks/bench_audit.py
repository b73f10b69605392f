"""Audit-subsystem benchmark: commit + verify overhead per round.

Measures what verifiable rounds cost on a mega-cohort round: the whole
cohort's sealed uploads are produced once through the vectorized
client path and aggregated through the sharded service (the *round*
under audit), then the audit layer runs over exactly that round's
evidence --

* **commit**: Merkle root over all sealed ciphertexts + aggregate /
  partial digests + the chained log append (what
  :meth:`repro.audit.AuditRecorder.record_round` adds to a live round);
* **verify**: chain + commitment re-verification of the written log
  (what ``python -m repro audit --no-replay`` costs an auditor);
* **prove**: one per-upload inclusion proof, generated and checked.

The headline metric, ``audit_overhead_frac``, is
``(commit_s + verify_s) / round_s`` at 10^4 uploads -- the fraction a
round slows down when every round is committed and re-checked.  The CI
regression gate enforces the ``max_audit_overhead_frac`` ceiling from
``bench_results/baseline.json``.

Set ``AUDIT_BENCH_QUICK=1`` for the reduced CI workload.
"""

import os
import tempfile
import time
from pathlib import Path

from repro.audit import AuditRecorder, make_manifest, verify_log
from repro.audit.verify import generate_proof, verify_proof_payload
from repro.dp.accountant import epsilon_for
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.runtime import (
    CohortRuntime,
    RuntimeConfig,
    ShardConfig,
    ShardedAggregator,
)
from repro.sgx import crypto
from repro.sgx.attestation import AttestationService
from repro.sgx.enclave import Enclave

from .common import print_table, save_results

QUICK = bool(os.environ.get("AUDIT_BENCH_QUICK"))

N_CLIENTS = 2000 if QUICK else 10_000
SAMPLES_PER_CLIENT = 16
SHARDS = 4
TRAIN = TrainingConfig(local_epochs=1, local_lr=0.2, batch_size=8,
                       sparse_ratio=0.1, clip=1.0, sparsifier="top_k")


def _round_under_audit():
    """One mega-cohort round; returns its evidence plus wall time."""
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, N_CLIENTS, SAMPLES_PER_CLIENT, 2,
                                seed=0)
    model = build_model("tiny_mlp", seed=0)
    keys = {c.client_id: crypto.generate_key(b"k%d" % c.client_id)
            for c in clients}

    t0 = time.perf_counter()
    runtime = CohortRuntime(RuntimeConfig(), model, clients, entropy=11,
                            keys=keys)
    result = runtime.run_cohort(0, [c.client_id for c in clients],
                                model.get_flat(), TRAIN)
    service = AttestationService(signing_key=b"s" * 32,
                                 platform_secret=b"p" * 32)
    root = Enclave(attestation_service=service, seed=0)
    for cid, key in keys.items():
        root.keystore.put(cid, key)
    root.begin_round(sampled=keys.keys())
    aggregator = ShardedAggregator(
        root, ShardConfig(shards=SHARDS, oblivious_batch=64), entropy=11)
    aggregate, report = aggregator.aggregate_round(
        0, result.deliveries, model.num_params, sampled=set(keys.keys()))
    round_s = time.perf_counter() - t0
    return result, aggregate, report, round_s


def test_audit_overhead():
    result, aggregate, report, round_s = _round_under_audit()
    accepted = sorted(report.accepted_clients)
    ciphertexts = result.ciphertext_bytes(accepted)
    upload_bytes = sum(len(b) for b in ciphertexts.values())

    config = _bench_config()
    manifest = make_manifest(
        data={"spec": "tiny", "seed": 0, "n_clients": N_CLIENTS,
              "samples_per_client": SAMPLES_PER_CLIENT,
              "labels_per_client": 2, "partition_seed": 0},
        model={"name": "tiny_mlp", "seed": 0},
        config=config,
    )
    # The verifier checks the committed budget against the manifest.
    epsilon = epsilon_for(config.sample_rate, config.noise_multiplier, 1,
                          config.delta)

    with tempfile.TemporaryDirectory() as tmp:
        log_path = Path(tmp) / "audit.jsonl"

        # -- commit: what record_round adds to the live round ----------
        t0 = time.perf_counter()
        with AuditRecorder(log_path, manifest) as recorder:
            recorder.record_round(
                0, accepted=accepted, ciphertexts=ciphertexts,
                weights_after=aggregate, epsilon=epsilon, clip=1.0,
                partials=report.partials, degraded=report.degraded,
                n_shards=report.n_shards)
        commit_s = time.perf_counter() - t0

        # -- verify: chain + commitments (the auditor's fast path) -----
        t0 = time.perf_counter()
        audit_report = verify_log(log_path, replay=False, strict=True)
        verify_s = time.perf_counter() - t0
        assert audit_report.n_uploads == len(accepted)
        assert all(v.merkle_ok for v in audit_report.rounds)

        # -- prove: one upload's inclusion proof, generated + checked --
        t0 = time.perf_counter()
        proof = generate_proof(log_path, 0, accepted[len(accepted) // 2])
        verify_proof_payload(log_path, proof)
        proof_s = time.perf_counter() - t0
        log_bytes = log_path.stat().st_size

    audit_overhead_frac = (commit_s + verify_s) / round_s

    print_table(
        f"Audit overhead: {len(accepted)} committed uploads "
        f"({upload_bytes / 1e6:.1f} MB), {SHARDS} shards",
        ["phase", "seconds", "vs round"],
        [
            ["round (train+aggregate)", f"{round_s:.3f}", "1.000x"],
            ["commit (merkle+chain)", f"{commit_s:.3f}",
             f"{commit_s / round_s:.3f}x"],
            ["verify (chain+merkle)", f"{verify_s:.3f}",
             f"{verify_s / round_s:.3f}x"],
            ["inclusion proof", f"{proof_s:.4f}",
             f"{proof_s / round_s:.4f}x"],
        ],
    )

    save_results("audit", {
        "workload": {
            "n_clients": N_CLIENTS,
            "uploads": len(accepted),
            "upload_bytes": upload_bytes,
            "log_bytes": log_bytes,
            "shards": SHARDS,
            "quick": QUICK,
        },
        "round_s": round_s,
        "commit_s": commit_s,
        "verify_s": verify_s,
        "proof_s": proof_s,
        "proof_path_len": len(proof["path"]),
        "audit_overhead_frac": audit_overhead_frac,
    })

    # Committing and re-verifying every round must stay a small
    # fraction of the round itself (the baseline ceiling enforces the
    # exact bound in CI).
    assert audit_overhead_frac < 1.0, (
        f"audit costs more than the round it audits "
        f"({audit_overhead_frac:.2f}x)")


def _bench_config():
    from repro.core.olive import OliveConfig

    return OliveConfig(sample_rate=0.5, noise_multiplier=1.12,
                       aggregator="advanced", training=TRAIN)
