"""Oblivious-serving benchmark: throughput, latency, and leakage.

Measures the serving subsystem three ways on a trained ``tiny_mlp``:

* **throughput vs batch size** -- a closed-loop load of sealed
  requests through the batch scheduler for each fixed batch shape, in
  both modes; the oblivious/plain ratio is the price of the full-table
  scan (the serving analogue of Figure 7's oblivious overhead);
* **latency under open-loop arrivals** -- seeded exponential
  interarrival gaps drive the deadline batcher; p50/p95/p99 request
  latency from submit to sealed response;
* **attack-scored leakage** -- traced probe/victim batches through
  :func:`repro.attack.run_serving_attack` (JAC and NN): the oblivious
  engine must score AUC <= 0.55 while the plain row-read path scores
  measurably above it (these are asserted here and gated in CI via
  ``max_serving_leakage_auc`` / ``min_serving_throughput`` in
  ``bench_results/baseline.json``).

Set ``SERVING_BENCH_QUICK=1`` for the reduced CI workload.
"""

import os
import threading
import time

import numpy as np

from repro.attack import AttackConfig, run_serving_attack
from repro.fl.datasets import SPECS, SyntheticClassData
from repro.fl.models import build_model
from repro.serving import (
    InferenceServer,
    ObliviousInferenceEngine,
    ServingConfig,
    seal_request,
)
from repro.sgx.enclave import Enclave, provision_enclave_with_clients

from .common import print_table, save_results

QUICK = bool(os.environ.get("SERVING_BENCH_QUICK"))

N_REQUESTS = 160 if QUICK else 1200
BATCH_SIZES = (4, 8, 16) if QUICK else (1, 4, 8, 16, 32)
HEADLINE_BATCH = 8
N_CLIENTS = 4
ATTACK_BATCHES = 6
SPEC = SPECS["tiny"]


def _trained_model(seed: int = 0):
    model = build_model(SPEC.model_name, seed=seed)
    data = SyntheticClassData(SPEC, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(150):
        y = rng.integers(0, SPEC.n_labels, size=32)
        x = data.sample(y, rng)
        model.train_step(x[None], y[None], 0.1)
    return model, data


def _provisioned_engine(model, batch_size, oblivious):
    enclave = Enclave(seed=0)
    keys = provision_enclave_with_clients(
        enclave, list(range(1, N_CLIENTS + 1)))
    engine = ObliviousInferenceEngine(
        model, batch_size=batch_size, oblivious=oblivious, enclave=enclave)
    return engine, keys


def _closed_loop_rps(model, data, batch_size, oblivious, n_requests):
    """Requests/second with the submit queue kept saturated."""
    engine, keys = _provisioned_engine(model, batch_size, oblivious)
    rng = np.random.default_rng(1)
    labels = rng.integers(0, SPEC.n_labels, size=n_requests)
    xs = data.sample(labels, rng)
    sealed = [
        (1 + i % N_CLIENTS, seal_request(keys[1 + i % N_CLIENTS], xs[i]))
        for i in range(n_requests)
    ]
    t0 = time.perf_counter()
    with InferenceServer(engine, ServingConfig(max_wait_s=0.05)) as server:
        futures = [server.submit(cid, ct) for cid, ct in sealed]
        for future in futures:
            future.result(timeout=60)
    wall = time.perf_counter() - t0
    assert server.requests_served == n_requests
    return n_requests / wall


def _open_loop_latency(model, data, n_requests):
    """p50/p95/p99 request latency under seeded exponential arrivals."""
    engine, keys = _provisioned_engine(model, HEADLINE_BATCH, True)
    rng = np.random.default_rng(2)
    gaps = rng.exponential(0.002 / HEADLINE_BATCH, size=n_requests)
    labels = rng.integers(0, SPEC.n_labels, size=n_requests)
    xs = data.sample(labels, rng)
    latencies: list[float] = []
    lock = threading.Lock()
    with InferenceServer(engine, ServingConfig(max_wait_s=0.002)) as server:
        futures = []
        for i in range(n_requests):
            time.sleep(gaps[i])
            cid = 1 + i % N_CLIENTS
            t_submit = time.monotonic()
            future = server.submit(cid, seal_request(keys[cid], xs[i]))

            def _done(f, t0=t_submit):
                with lock:
                    latencies.append(time.monotonic() - t0)

            future.add_done_callback(_done)
            futures.append(future)
        for future in futures:
            future.result(timeout=60)
    lat_ms = 1e3 * np.asarray(latencies)
    return {
        "p50": float(np.percentile(lat_ms, 50)),
        "p95": float(np.percentile(lat_ms, 95)),
        "p99": float(np.percentile(lat_ms, 99)),
    }


def _traced_batches(engine, data, n_batches, seed):
    out = []
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        y = rng.integers(0, SPEC.n_labels, size=engine.batch_size)
        out.append(engine.infer_batch(data.sample(y, rng), traced=True))
    return out


def _leakage_aucs(model, data, oblivious):
    engine, _ = _provisioned_engine(model, HEADLINE_BATCH, oblivious)
    probes = _traced_batches(engine, data, ATTACK_BATCHES, seed=11)
    victims = _traced_batches(engine, data, ATTACK_BATCHES, seed=22)
    aucs = {}
    for method in ("jac", "nn"):
        result = run_serving_attack(
            victims, probes, SPEC.n_labels,
            AttackConfig(method=method, nn_epochs=10))
        aucs[method] = result.auc
    return aucs


def test_serving():
    model, data = _trained_model()

    # -- throughput vs batch size, both modes --------------------------
    rows = []
    rps = {True: {}, False: {}}
    per_point = max(N_REQUESTS // 2, BATCH_SIZES[-1] * 4)
    for batch_size in BATCH_SIZES:
        for oblivious in (True, False):
            rps[oblivious][batch_size] = _closed_loop_rps(
                model, data, batch_size, oblivious, per_point)
        overhead = rps[False][batch_size] / rps[True][batch_size]
        rows.append([batch_size, f"{rps[True][batch_size]:.0f}",
                     f"{rps[False][batch_size]:.0f}", f"{overhead:.2f}x"])
    print_table(
        f"Serving throughput (closed loop, {per_point} requests/point)",
        ["batch", "oblivious req/s", "plain req/s", "oblivious cost"],
        rows,
    )

    # -- latency under open-loop arrivals ------------------------------
    latency = _open_loop_latency(model, data, N_REQUESTS)
    print_table(
        f"Request latency (open loop, batch {HEADLINE_BATCH}, "
        f"{N_REQUESTS} requests)",
        ["p50 ms", "p95 ms", "p99 ms"],
        [[f"{latency['p50']:.2f}", f"{latency['p95']:.2f}",
          f"{latency['p99']:.2f}"]],
    )

    # -- attack-scored leakage -----------------------------------------
    oblivious_aucs = _leakage_aucs(model, data, oblivious=True)
    plain_aucs = _leakage_aucs(model, data, oblivious=False)
    print_table(
        "Trace leakage (serving attack AUC; 0.5 = no signal)",
        ["method", "oblivious", "plain"],
        [[m, f"{oblivious_aucs[m]:.3f}", f"{plain_aucs[m]:.3f}"]
         for m in ("jac", "nn")],
    )

    throughput = rps[True][HEADLINE_BATCH]
    worst_oblivious = max(oblivious_aucs.values())
    best_plain = max(plain_aucs.values())
    save_results("serving", {
        "workload": {
            "requests": N_REQUESTS,
            "batch_sizes": list(BATCH_SIZES),
            "clients": N_CLIENTS,
            "quick": QUICK,
        },
        "throughput_by_batch": {
            "oblivious": {str(b): rps[True][b] for b in BATCH_SIZES},
            "plain": {str(b): rps[False][b] for b in BATCH_SIZES},
        },
        "serving_throughput_rps": throughput,
        "oblivious_overhead": rps[False][HEADLINE_BATCH] / throughput,
        "latency_p50_ms": latency["p50"],
        "latency_p95_ms": latency["p95"],
        "latency_p99_ms": latency["p99"],
        "serving_leakage_auc": worst_oblivious,
        "plain_leakage_auc": best_plain,
        "auc_separation": best_plain - worst_oblivious,
    })

    # The oblivious engine must be indistinguishable (the CI gate pins
    # the same bound via max_serving_leakage_auc), while the plain path
    # must demonstrably leak -- otherwise the attack lost its teeth and
    # the 0.5 above proves nothing.
    assert worst_oblivious <= 0.55, (
        f"oblivious serving leaked: AUC {worst_oblivious:.3f}")
    assert best_plain >= 0.7, (
        f"plain-mode attack lost its teeth: AUC {best_plain:.3f}")
    assert best_plain - worst_oblivious >= 0.2, "no oblivious/plain margin"
