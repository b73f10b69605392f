"""Cohort-runtime benchmark: parallel execution vs serial reference.

Runs one OLIVE round over a straggler-laden cohort (every client
carries a fixed injected network delay, the dominant cost of real
cross-device rounds) through the serial and thread executors and
reports the wall-clock speedup from overlapping client latency.  The
workload is latency-bound by construction, so the measured speedup is
stable on any core count -- including single-vCPU CI runners, where
compute parallelism would be noise.

Also measures the fault-injection path (dropouts, corrupt/replayed
ciphertexts, transient failures with retries) against the clean round
to show fault handling is not on the critical path.

Every timed configuration is asserted **bit-identical** to the serial
reference before any number is reported -- a speedup that changed the
results would be a bug, not a win.

Set ``RUNTIME_BENCH_QUICK=1`` to run the reduced CI workload.
"""

import os
import time

import numpy as np

from repro.core.olive import OliveConfig, OliveSystem
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.runtime import FaultConfig, RuntimeConfig

from .common import print_table, save_results

QUICK = bool(os.environ.get("RUNTIME_BENCH_QUICK"))
N_CLIENTS = 32
SAMPLES_PER_CLIENT = 20 if QUICK else 40
#: Fixed per-client injected latency: large against tiny-MLP training
#: time, small against total bench budget.
DELAY_S = 0.05 if QUICK else 0.1
WORKERS = 16
ROUNDS = 1 if QUICK else 2
MIN_PARALLEL_SPEEDUP = 3.0

TRAIN = TrainingConfig(local_epochs=1, local_lr=0.1, batch_size=16,
                       sparse_ratio=0.1, clip=1.0)

STRAGGLERS = FaultConfig(straggler_rate=1.0, straggler_delay_s=DELAY_S,
                         straggler_jitter=False)


def _run(executor, workers=1, faults=STRAGGLERS, **runtime_kwargs):
    """Build a system, run ROUNDS rounds, return (wall_seconds, logs)."""
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, N_CLIENTS, SAMPLES_PER_CLIENT, 2,
                                seed=0)
    runtime = RuntimeConfig(
        executor=executor, workers=workers, faults=faults,
        **runtime_kwargs,
    )
    system = OliveSystem(
        build_model("tiny_mlp", seed=0), clients,
        OliveConfig(sample_rate=1.0, noise_multiplier=0.8,
                    aggregator="advanced", training=TRAIN),
        seed=1, runtime=runtime,
    )
    with system:
        t0 = time.perf_counter()
        logs = system.run(ROUNDS)
        wall = time.perf_counter() - t0
    return wall, logs


def _assert_identical(a_logs, b_logs):
    for a, b in zip(a_logs, b_logs):
        assert a.participants == b.participants
        assert np.array_equal(a.weights_after, b.weights_after)


def test_runtime_parallel_speedup():
    serial_wall, serial_logs = _run("serial")

    configs = [("thread", WORKERS)]
    if not QUICK:
        configs += [("thread", 8)]

    series = [{
        "executor": "serial", "workers": 1,
        "wall_seconds_run": serial_wall, "speedup": 1.0,
    }]
    speedups = {}
    for executor, workers in configs:
        wall, logs = _run(executor, workers)
        _assert_identical(serial_logs, logs)
        speedup = serial_wall / wall
        speedups[(executor, workers)] = speedup
        series.append({
            "executor": executor, "workers": workers,
            "wall_seconds_run": wall, "speedup": speedup,
        })

    # Fault path: dropouts + transport faults + retried transients on
    # top of the stragglers, through the parallel executor.
    faults = FaultConfig(
        straggler_rate=1.0, straggler_delay_s=DELAY_S,
        straggler_jitter=False, dropout_rate=0.1, corrupt_rate=0.1,
        replay_rate=0.1, transient_failure_rate=0.1,
    )
    fault_wall, fault_logs = _run("thread", WORKERS, faults=faults,
                                  backoff_base_s=0.0)
    # Fault isolation holds per round from identical start weights, so
    # compare round 0 (after it, the faulty trajectory legitimately
    # diverges by the excluded contributions).
    clean, faulty = serial_logs[0], fault_logs[0]
    survivors = set(faulty.updates)
    assert survivors <= set(clean.updates)
    for cid in survivors:
        assert np.array_equal(clean.updates[cid].values,
                              faulty.updates[cid].values)
    series.append({
        "executor": "thread+faults", "workers": WORKERS,
        "wall_seconds_run": fault_wall,
        "speedup": serial_wall / fault_wall,
    })

    print_table(
        f"Cohort runtime: {N_CLIENTS} clients, {DELAY_S * 1e3:.0f} ms "
        f"injected latency each, {ROUNDS} round(s)",
        ["executor", "workers", "wall s", "speedup vs serial"],
        [[r["executor"], r["workers"], f"{r['wall_seconds_run']:.3f}",
          f"{r['speedup']:.1f}x"] for r in series],
    )

    parallel_speedup = speedups[("thread", WORKERS)]
    save_results("runtime", {
        "workload": {
            "n_clients": N_CLIENTS, "delay_s": DELAY_S,
            "rounds": ROUNDS, "workers": WORKERS, "quick": QUICK,
        },
        "series": series,
        "parallel_speedup": parallel_speedup,
        "fault_round_seconds": fault_wall,
    })

    # Acceptance bar: overlapping a 32-client straggler cohort on 16
    # workers must hide >= 3x of the serial latency (the floor is also
    # enforced by the CI regression gate on the saved payload).
    assert parallel_speedup >= MIN_PARALLEL_SPEEDUP
    # Fault handling stays off the critical path: the faulty parallel
    # round must still beat serial by the same floor.
    assert serial_wall / fault_wall >= MIN_PARALLEL_SPEEDUP
