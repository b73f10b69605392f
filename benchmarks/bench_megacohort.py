"""Mega-cohort client-path benchmark: the batched cohort vs the scalar loop.

Times one full client round -- local training, sparsification, L2
clipping, and authenticated encryption for every sampled client --
two ways:

* the **cohort runtime**, which processes the whole cohort as stacked
  tensors (batched seed derivation, batched training, axis-1
  sparsification, chunked batched sealing);
* the **scalar per-client loop** the package ran before its layer
  stacks were unified, kept as the test oracle (``tests/oracles.py``:
  derive, train on the scalar layers, seal -- one client at a time);
  the speedup is measured against this loop.

The workload models cross-device federated learning: many clients,
each holding a small shard and training with a small local batch, so
the per-client paths are dominated by Python/numpy dispatch overhead
that the vectorized path amortizes across the cohort.

Before any number is reported, the cohort runtime is asserted
**bit-identical** to the oracle loop on a 256-client cohort --
ciphertext bytes included.  A speedup that changed a single byte would
be a bug, not a win.

Set ``MEGACOHORT_BENCH_QUICK=1`` for the reduced CI workload (1024
clients, with a >= 10x speedup floor also enforced by the regression
gate).  The full run sweeps cohort sizes up to 10^5 clients, timing
the per-client loop directly up to 4096 clients and extrapolating it
linearly beyond (its cost is per-client by construction), so the
scalar-loop cells of the 16,384, 65,536 and 100,000 rows are
**extrapolated**, not measured, and so are their speedups.
"""

import math
import os
import time

from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.runtime import CohortRuntime, RuntimeConfig
from repro.sgx import crypto
from tests import oracles

from .common import print_table, save_results

QUICK = bool(os.environ.get("MEGACOHORT_BENCH_QUICK"))

#: Cross-device client workload: 64-sample shards, batch 4, 2 local
#: epochs of DP-FedAVG with top-k sparsification, sealed uploads.
SAMPLES_PER_CLIENT = 64
TRAIN = TrainingConfig(local_epochs=2, local_lr=0.2, batch_size=4,
                       sparse_ratio=0.1, clip=1.0, sparsifier="top_k")
ENTROPY = 11

IDENTITY_CLIENTS = 256
QUICK_CLIENTS = 1024
#: The per-client loop is timed directly up to this size and
#: extrapolated beyond.
LOOP_CAP = 4096
FULL_SWEEP = (4096, 16384, 65536, 100_000)
MIN_VECTORIZED_SPEEDUP = 10.0
#: Timed passes, and runtime rounds per pass (one oracle round each);
#: each side keeps its fastest round.
PASSES = 3
RUNTIME_RUNS = 4


def _cohort(n_clients):
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, n_clients, SAMPLES_PER_CLIENT, 2,
                                seed=0)
    keys = {c.client_id: crypto.generate_key(b"k%d" % c.client_id)
            for c in clients}
    return clients, keys


def _runtime_round(n_clients):
    """One cohort round through the runtime: ``round_index -> {client:
    ciphertext bytes}``."""
    clients, keys = _cohort(n_clients)
    model = build_model("tiny_mlp", seed=0)
    runtime = CohortRuntime(RuntimeConfig(), model, clients,
                            entropy=ENTROPY, keys=keys)
    cohort, weights = [c.client_id for c in clients], model.get_flat()

    def one_round(round_index):
        result = runtime.run_cohort(round_index, cohort, weights, TRAIN)
        return {d.client_id: d.ciphertext.to_bytes()
                for d in result.deliveries}

    return one_round


def _oracle_round(n_clients):
    """The scalar per-client loop -- derive, train, seal each client --
    as ``round_index -> {client: ciphertext bytes}``."""
    clients, keys = _cohort(n_clients)
    template = oracles.build_model("tiny_mlp", seed=0)
    ctx = oracles.WorkerContext(model=template,
                                clients={c.client_id: c for c in clients},
                                weights=template.get_flat())

    def one_round(round_index):
        return {
            c.client_id: oracles.execute_client_job(ctx, oracles.ClientJob(
                round_index=round_index, client_id=c.client_id,
                entropy=ENTROPY, training=TRAIN, key=keys[c.client_id],
            )).ciphertext.to_bytes()
            for c in clients
        }

    return one_round


def _best_walls(rounds, passes):
    """Fastest wall seconds of each ``(round function, runs)`` pair over
    ``passes`` passes; a pass runs every function ``runs`` times in turn.

    Interleaving puts a burst of host load on every side, and each side
    keeps its minimum: noise only ever adds time.  The short runtime
    round runs more often per pass than the ~10x longer oracle round.
    The identity check runs first and warms both paths.
    """
    best = [math.inf] * len(rounds)
    for p in range(passes):
        for i, (one_round, runs) in enumerate(rounds):
            for _ in range(runs):
                t0 = time.perf_counter()
                one_round(p)
                best[i] = min(best[i], time.perf_counter() - t0)
    return best


def _assert_identical(n_clients):
    """The runtime and the oracle loop agree byte-for-byte (ciphertexts)."""
    assert _runtime_round(n_clients)(0) == _oracle_round(n_clients)(0), (
        "cohort runtime diverged from the scalar oracle loop"
    )


def test_megacohort_speedup():
    _assert_identical(IDENTITY_CLIENTS)

    series = []
    sweep = (QUICK_CLIENTS,) if QUICK else FULL_SWEEP
    per_client = None
    quick_speedup = None
    for n in sweep:
        if n <= LOOP_CAP or QUICK:
            oracle_wall, vector_wall = _best_walls(
                [(_oracle_round(n), 1), (_runtime_round(n), RUNTIME_RUNS)],
                passes=PASSES)
            per_client = oracle_wall / n
            kind = "measured"
        else:
            # Nothing to interleave with: the round is seconds long.
            [vector_wall] = _best_walls([(_runtime_round(n), 1)],
                                        passes=PASSES)
            oracle_wall = per_client * n
            kind = "extrapolated"
        speedup = oracle_wall / vector_wall
        if n == QUICK_CLIENTS:
            quick_speedup = speedup
        series.append({
            "n_clients": n,
            "oracle_seconds": oracle_wall,
            "oracle_kind": kind,
            "vectorized_seconds": vector_wall,
            "speedup": speedup,
        })

    print_table(
        f"Mega-cohort client path: {SAMPLES_PER_CLIENT} samples/client, "
        f"batch {TRAIN.batch_size}, {TRAIN.local_epochs} epochs, sealed "
        f"top-k uploads (speedup vs the scalar per-client loop)",
        ["clients", "scalar loop s", "vectorized s", "speedup"],
        [[r["n_clients"],
          f"{r['oracle_seconds']:.2f} ({r['oracle_kind']})",
          f"{r['vectorized_seconds']:.2f}",
          f"{r['speedup']:.1f}x"] for r in series],
    )

    payload = {
        "workload": {
            "samples_per_client": SAMPLES_PER_CLIENT,
            "batch_size": TRAIN.batch_size,
            "local_epochs": TRAIN.local_epochs,
            "sparsifier": TRAIN.sparsifier,
            "sealed": True,
            "quick": QUICK,
            "speedup_baseline": "scalar per-client loop (tests/oracles.py)",
        },
        "series": series,
    }
    if quick_speedup is not None:
        payload["vectorized_speedup"] = quick_speedup
    save_results("megacohort", payload)

    # Acceptance bar: the cohort runtime must clear 10x over the
    # scalar per-client loop on the 1024-client workload (the floor is
    # also enforced by the CI regression gate on the saved payload).
    if quick_speedup is not None:
        assert quick_speedup >= MIN_VECTORIZED_SPEEDUP
    # The full sweep must complete a 10^5-client round.
    if not QUICK:
        assert series[-1]["n_clients"] == 100_000
