"""Cohort-runtime benchmark: one batched flush vs the per-client loop.

Runs a straggler-laden cohort (every client carries a fixed injected
network delay, the dominant cost of real cross-device rounds) through
the cohort runtime and through the sequential per-client loop kept as
the test oracle (``tests/oracles.py::run_cohort_loop``), which sleeps
each client's delay in turn as the old serial executor did.  The
runtime sleeps once for the longest admitted wait, so stragglers
overlap; the speedup is that overlap.  The workload is latency-bound
by construction, so the measured speedup is stable on any core count
-- including single-vCPU CI runners, where compute parallelism would
be noise.

Also measures the fault-injection path (dropouts, corrupt/replayed
ciphertexts, transient failures with retries) through the runtime to
show fault handling is not on the critical path.

Ciphertexts are asserted **identical** -- the clean runtime round
against the loop, the faulty round's survivors against the clean round
-- before any number is reported: a speedup that changed the results
would be a bug, not a win.

Run from the repo root (the oracle loop is imported from ``tests``).
Set ``RUNTIME_BENCH_QUICK=1`` to run the reduced CI workload.
"""

import os
import time

from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.runtime import CohortRuntime, FaultConfig, RuntimeConfig
from repro.sgx import crypto
from tests import oracles

from .common import print_table, save_results

QUICK = bool(os.environ.get("RUNTIME_BENCH_QUICK"))
N_CLIENTS = 32
SAMPLES_PER_CLIENT = 20 if QUICK else 40
#: Fixed per-client injected latency: large against tiny-MLP training
#: time, small against total bench budget.
DELAY_S = 0.05 if QUICK else 0.1
ROUNDS = 1 if QUICK else 2
MIN_PARALLEL_SPEEDUP = 3.0
ENTROPY = 1

TRAIN = TrainingConfig(local_epochs=1, local_lr=0.1, batch_size=16,
                       sparse_ratio=0.1, clip=1.0)

STRAGGLERS = FaultConfig(straggler_rate=1.0, straggler_delay_s=DELAY_S,
                         straggler_jitter=False)
FAULTS = FaultConfig(
    straggler_rate=1.0, straggler_delay_s=DELAY_S, straggler_jitter=False,
    dropout_rate=0.1, corrupt_rate=0.1, replay_rate=0.1,
    transient_failure_rate=0.1,
)


def _clients():
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, N_CLIENTS, SAMPLES_PER_CLIENT, 2,
                                seed=0)
    keys = {c.client_id: crypto.generate_key(b"k%d" % c.client_id)
            for c in clients}
    return clients, keys


def _run(config, loop=False):
    """ROUNDS cohort rounds; returns (wall_seconds, last round's result)."""
    clients, keys = _clients()
    cohort = [c.client_id for c in clients]
    if loop:
        model = oracles.build_model("tiny_mlp", seed=0)
    else:
        model = build_model("tiny_mlp", seed=0)
        runtime = CohortRuntime(config, model, clients, ENTROPY, keys=keys)
    weights = model.get_flat()
    t0 = time.perf_counter()
    for r in range(ROUNDS):
        if loop:
            result = oracles.run_cohort_loop(config, model, clients, ENTROPY,
                                             r, cohort, weights, TRAIN,
                                             keys=keys)
        else:
            result = runtime.run_cohort(r, cohort, weights, TRAIN)
    return time.perf_counter() - t0, result


def _sealed(result):
    """Each completed client's sealed upload, before transport faults."""
    return {cid: result.outcomes[cid].result.ciphertext.to_bytes()
            for cid in result.completed}


def test_runtime_parallel_speedup():
    config = RuntimeConfig(faults=STRAGGLERS)
    loop_wall, loop_result = _run(config, loop=True)
    wall, result = _run(config)
    assert _sealed(result) == _sealed(loop_result)
    parallel_speedup = loop_wall / wall

    # Fault path: dropouts + transport faults + retried transients on
    # top of the stragglers.  Fault isolation: every survivor's sealed
    # upload equals its clean-round bytes.
    fault_wall, fault_result = _run(RuntimeConfig(faults=FAULTS,
                                                  backoff_base_s=0.0))
    clean, faulty = _sealed(result), _sealed(fault_result)
    assert set(faulty) <= set(clean)
    assert all(faulty[cid] == clean[cid] for cid in faulty)

    series = [
        {"path": "per-client loop (oracle)", "wall_seconds_run": loop_wall,
         "speedup": 1.0},
        {"path": "runtime", "wall_seconds_run": wall,
         "speedup": parallel_speedup},
        {"path": "runtime+faults", "wall_seconds_run": fault_wall,
         "speedup": loop_wall / fault_wall},
    ]
    print_table(
        f"Cohort runtime: {N_CLIENTS} clients, {DELAY_S * 1e3:.0f} ms "
        f"injected latency each, {ROUNDS} round(s)",
        ["path", "wall s", "speedup vs loop"],
        [[r["path"], f"{r['wall_seconds_run']:.3f}",
          f"{r['speedup']:.1f}x"] for r in series],
    )

    save_results("runtime", {
        "workload": {
            "n_clients": N_CLIENTS, "delay_s": DELAY_S,
            "rounds": ROUNDS, "quick": QUICK,
            "speedup_baseline": "sequential per-client loop "
                                "(tests/oracles.py::run_cohort_loop)",
        },
        "series": series,
        "parallel_speedup": parallel_speedup,
        "fault_round_seconds": fault_wall,
    })

    # Acceptance bar: overlapping a 32-client straggler cohort must
    # hide >= 3x of the sequential latency (the floor is also enforced
    # by the CI regression gate on the saved payload).
    assert parallel_speedup >= MIN_PARALLEL_SPEEDUP
    # Fault handling stays off the critical path: the faulty round must
    # still beat the loop by the same floor.
    assert loop_wall / fault_wall >= MIN_PARALLEL_SPEEDUP
