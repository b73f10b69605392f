"""``python -m repro serve`` -- serve a checkpoint obliviously.

Loads a trained model from a training checkpoint (or trains a quick
synthetic one when no checkpoint is given), provisions serving clients
with RA keys, and drives a seeded open-loop load of sealed requests
through the batch scheduler.  Prints throughput, request-latency
percentiles, the modelled enclave cost of one traced batch, and --
with ``--attack`` -- the trace-leakage AUC of the configured mode
(~=0.5 oblivious, ~=1.0 plain).
"""

from __future__ import annotations

import argparse
import logging
import sys
import threading
import time
from typing import Sequence

import numpy as np

from .. import obs
from ..fl.datasets import SPECS, SyntheticClassData
from ..fl.models import build_model
from ..sgx.enclave import Enclave, provision_enclave_with_clients
from .engine import ObliviousInferenceEngine, load_serving_model, replay_serving_cost
from .envelopes import open_response, seal_request
from .server import InferenceServer, ServingConfig

logger = logging.getLogger("repro.serve")


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Oblivious model serving demo: load a checkpoint, "
                    "drive a sealed-request load, report latency and "
                    "leakage.",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="training checkpoint (.npz) to serve; architecture is "
             "inferred from the weight count (default: train a quick "
             "synthetic tiny_mlp in-process)",
    )
    parser.add_argument(
        "--model", metavar="NAME", default=None,
        help="architecture override when the checkpoint's weight count "
             "is ambiguous",
    )
    parser.add_argument(
        "--requests", type=int, metavar="N", default=64,
        help="number of sealed requests in the load run (default 64)",
    )
    parser.add_argument(
        "--clients", type=int, metavar="N", default=4,
        help="number of provisioned serving clients (default 4)",
    )
    parser.add_argument(
        "--batch-size", type=int, metavar="B", default=8,
        help="fixed serving batch shape (default 8)",
    )
    parser.add_argument(
        "--max-wait-ms", type=float, metavar="MS", default=5.0,
        help="deadline before a partial batch flushes padded (default 5)",
    )
    parser.add_argument(
        "--plain", action="store_true",
        help="serve with the non-oblivious row-read path (the leaky "
             "baseline the attack scores against)",
    )
    parser.add_argument(
        "--attack", action="store_true",
        help="after the load run, score trace leakage with the serving "
             "attack (JAC and NN)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for request sampling and open-loop arrivals",
    )
    parser.add_argument(
        "--telemetry-out", metavar="PATH", default=None,
        help="write the load run's telemetry event stream to PATH as "
             "JSONL (render: python -m repro report PATH)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="DEBUG logging plus the telemetry summary tree",
    )
    return parser.parse_args(list(argv))


def _quick_model(seed: int):
    """A tiny_mlp given a few hundred synthetic SGD steps."""
    spec = SPECS["tiny"]
    model = build_model(spec.model_name, seed=seed)
    data = SyntheticClassData(spec, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(200):
        y = rng.integers(0, spec.n_labels, size=32)
        x = data.sample(y, rng)
        model.train_step(x[None], y[None], 0.1)
    return model, spec


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(list(argv) if argv is not None else [])
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(message)s", stream=sys.stdout, force=True,
    )

    specs_by_model = {spec.model_name: spec for spec in SPECS.values()}
    if args.checkpoint:
        model, meta = load_serving_model(args.checkpoint, args.model)
        name = meta["model_name"]
        if name not in specs_by_model:
            logger.error("no dataset spec serves model %r", name)
            return 2
        spec = specs_by_model[name]
        logger.info("serving %s from %s (round %s)", name, args.checkpoint,
                    meta.get("round", "?"))
    else:
        model, spec = _quick_model(args.seed)
        logger.info("serving a freshly trained synthetic %s "
                    "(no --checkpoint given)", spec.model_name)

    sinks: list = [obs.MemorySink()]
    if args.telemetry_out:
        sinks.append(obs.JsonlSink(args.telemetry_out))

    enclave = Enclave(seed=args.seed)
    client_ids = list(range(1, max(1, args.clients) + 1))
    keys = provision_enclave_with_clients(enclave, client_ids)
    engine = ObliviousInferenceEngine(
        model, batch_size=args.batch_size, oblivious=not args.plain,
        enclave=enclave,
    )
    logger.info("  %d client(s) attested; batch size %d, mode: %s",
                len(client_ids), args.batch_size,
                "oblivious" if engine.oblivious else "PLAIN (leaky)")

    data = SyntheticClassData(spec, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    # Open-loop arrivals: seeded exponential interarrival gaps with a
    # mean that keeps several requests in flight per batch window.
    mean_gap = (args.max_wait_ms / 1000.0) / max(1, args.batch_size // 2)
    gaps = rng.exponential(mean_gap, size=args.requests)
    labels_sent = rng.integers(0, spec.n_labels, size=args.requests)
    xs = data.sample(labels_sent, rng)

    latencies: list[float] = []
    latency_lock = threading.Lock()

    with obs.session(sinks=sinks):
        config = ServingConfig(max_wait_s=args.max_wait_ms / 1000.0)
        t_start = time.monotonic()
        with InferenceServer(engine, config) as server:
            futures = []
            for i in range(args.requests):
                time.sleep(gaps[i])
                cid = client_ids[i % len(client_ids)]
                sealed = seal_request(keys[cid], xs[i])
                t_submit = time.monotonic()
                future = server.submit(cid, sealed)

                def _done(f, t0=t_submit):
                    with latency_lock:
                        latencies.append(time.monotonic() - t0)

                future.add_done_callback(_done)
                futures.append((cid, future))
            responses = [(cid, f.result(timeout=30)) for cid, f in futures]
        wall = time.monotonic() - t_start

        label_counts = np.zeros(spec.n_labels, dtype=np.int64)
        for cid, sealed in responses:
            label, _ = open_response(keys[cid], sealed)
            label_counts[label] += 1
        lat = np.sort(np.asarray(latencies))
        logger.info("  served %d request(s) in %d batch(es) "
                    "(%d padded slot(s)) over %.2fs -> %.0f req/s",
                    server.requests_served, server.batches,
                    server.padded_slots, wall, args.requests / wall)
        logger.info("  request latency: p50 %.2fms  p95 %.2fms  p99 %.2fms",
                    1e3 * lat[int(0.50 * (len(lat) - 1))],
                    1e3 * lat[int(0.95 * (len(lat) - 1))],
                    1e3 * lat[int(0.99 * (len(lat) - 1))])
        logger.info("  response labels: %s", label_counts.tolist())

        traced = engine.infer_batch(
            xs[: args.batch_size]
            if args.requests >= args.batch_size
            else data.sample(
                rng.integers(0, spec.n_labels, size=args.batch_size), rng
            ),
            traced=True,
        )
        stats, report = replay_serving_cost(traced)
        logger.info("  modelled enclave cost per traced batch: %.1fus "
                    "(%d access(es), %d DRAM)",
                    1e6 * stats.seconds, report.accesses,
                    report.dram_accesses)

        if args.attack:
            from ..attack import AttackConfig, run_serving_attack

            def batches(n, seed):
                out = []
                r = np.random.default_rng(seed)
                for _ in range(n):
                    y = r.integers(0, spec.n_labels, size=args.batch_size)
                    out.append(engine.infer_batch(data.sample(y, r)))
                return out

            probes = batches(6, args.seed + 101)
            victims = batches(6, args.seed + 202)
            for method in ("jac", "nn"):
                result = run_serving_attack(
                    victims, probes, spec.n_labels,
                    AttackConfig(method=method, nn_epochs=10),
                )
                logger.info("  serving attack (%s): AUC %.3f, top-1 %.3f"
                            "%s", method, result.auc, result.top1_accuracy,
                            "  [no leakage]" if result.auc <= 0.55 else
                            "  [LEAKY]")
        summary = obs.render_summary(title="telemetry summary (serve run)")

    logger.debug("%s", summary)
    if args.telemetry_out:
        logger.info("  telemetry events written to %s", args.telemetry_out)
    return 0
