"""Telemetry overhead on a whole cross-device round (~300 uploads).

The trace-engine bench bounds the *disabled* telemetry path on one
kernel call.  This one measures what *enabled* telemetry costs a full
Algorithm-1 round at the round benchmark's ``xdevice`` shape --
tiny_mlp, N = 600 clients, q = 0.5, so about 300 sealed uploads a round,
each unsealed inside the leaf enclave's ECALL.  Rounds run alternately
with telemetry off and on (an in-memory sink), so a slow spell on a
shared host lands on both sides; ``round_obs_overhead_frac`` is
``median(on) / median(off) - 1``.

The CI regression gate enforces the ``max_round_obs_overhead_frac``
ceiling from ``bench_results/baseline.json``.  Run it as its own pytest
invocation, without ``BENCH_TELEMETRY`` (which would leave telemetry on
for the "off" rounds)::

    PYTHONPATH=src python -m pytest benchmarks/bench_telemetry_round.py -q -s
"""

import statistics
import time

from repro import obs
from repro.core.olive import OliveConfig, OliveSystem
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model

from .common import print_table, save_results

N_CLIENTS = 600
SAMPLE_RATE = 0.5
#: Measured rounds per side (telemetry off, telemetry on).
ROUNDS = 20
TRAIN = TrainingConfig(local_epochs=1, local_lr=0.2, batch_size=8,
                       sparse_ratio=0.1, clip=1.0, sparsifier="top_k")


def _timed_round(system) -> float:
    t0 = time.perf_counter()
    system.run_round()
    return time.perf_counter() - t0


def test_round_telemetry_overhead():
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, N_CLIENTS, 16, 2, seed=0)
    config = OliveConfig(sample_rate=SAMPLE_RATE, noise_multiplier=1.12,
                         delta=1e-5, training=TRAIN)
    system = OliveSystem(build_model("tiny_mlp", seed=0), clients, config,
                         seed=0)
    tel = obs.get_telemetry()
    prev_enabled, prev_sinks = tel.enabled, list(tel.sinks)
    tel.configure(enabled=False, sinks=[])
    off: list[float] = []
    on: list[float] = []
    uploads = 0
    try:
        system.run_round()  # warm-up
        for _ in range(ROUNDS):
            off.append(_timed_round(system))
            with obs.session(sinks=[obs.MemorySink()]):
                on.append(_timed_round(system))
            uploads += len(system.history[-1].participants)
    finally:
        tel.configure(enabled=prev_enabled, sinks=prev_sinks)
    overhead = statistics.median(on) / statistics.median(off) - 1

    print_table(
        f"Telemetry overhead on a round of ~{uploads // ROUNDS} uploads "
        f"(tiny_mlp, N={N_CLIENTS}, q={SAMPLE_RATE})",
        ["round s (off)", "round s (on)", "overhead"],
        [[f"{statistics.median(off):.4f}", f"{statistics.median(on):.4f}",
          f"{overhead:.3%}"]],
    )
    save_results("telemetry_round", {
        "workload": {"n_clients": N_CLIENTS, "sample_rate": SAMPLE_RATE,
                     "rounds_per_side": ROUNDS,
                     "uploads_per_round": uploads / ROUNDS},
        "round_s_off": statistics.median(off),
        "round_s_on": statistics.median(on),
        "round_obs_overhead_frac": overhead,
    })
