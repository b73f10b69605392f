"""``python -m repro`` -- a 30-second tour of OLIVE.

Runs a small federated training with the fully oblivious Advanced
aggregator, reports the DP budget, and machine-checks obliviousness.
Output goes through stdlib :mod:`logging` (module loggers under the
``repro`` namespace); ``-v``/``--verbose`` raises the level to DEBUG
and appends the telemetry summary tree of the demo run.  For the full
demos see the ``examples/`` directory.
"""

import argparse
import logging
import sys
from typing import Sequence

import numpy as np

from . import obs
from .core import OliveConfig, OliveSystem, traces_equal
from .fl import (
    SPECS,
    SyntheticClassData,
    TrainingConfig,
    build_model,
    partition_clients,
)
from .runtime import (
    EnclaveFaultConfig,
    FaultConfig,
    RuntimeConfig,
    ShardConfig,
)

logger = logging.getLogger("repro.demo")


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Quick OLIVE demo: train, report DP budget, "
                    "verify obliviousness.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="DEBUG logging plus the telemetry summary tree",
    )
    parser.add_argument(
        "--telemetry-out", metavar="PATH", default=None,
        help="write the demo's telemetry event stream to PATH as JSONL",
    )
    parser.add_argument(
        "--dropout-rate", type=float, metavar="P", default=0.0,
        help="inject client dropouts at rate P per (round, client); "
             "the accountant still charges every round at the sample "
             "rate, since dropouts follow the enclave's draw",
    )
    parser.add_argument(
        "--shards", type=int, metavar="N", default=None,
        help="aggregate through N leaf enclaves plus a root enclave "
             "(sharded multi-enclave service with crash recovery and "
             "failover) instead of one aggregator enclave",
    )
    parser.add_argument(
        "--leaf-crash-rate", type=float, metavar="P", default=0.0,
        help="with --shards: crash each leaf attempt with probability "
             "P; the service recovers from sealed checkpoints and the "
             "demo reports crashes, failovers, and completion rate",
    )
    parser.add_argument(
        "--straggler-rate", type=float, metavar="P", default=0.0,
        help="inject client stragglers (delayed uploads) at rate P per "
             "(round, client)",
    )
    parser.add_argument(
        "--audit-log", metavar="PATH", default=None,
        help="record a chained audit log of the run at PATH; verify it "
             "afterwards with 'python -m repro audit PATH --strict'",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed for sampling, training, and fault injection",
    )
    return parser.parse_args(list(argv))


def _configure_logging(verbose: bool) -> None:
    # force=True rebinds the handler to the *current* sys.stdout so the
    # demo stays capturable (pytest capsys, redirected pipes).
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(message)s",
        stream=sys.stdout,
        force=True,
    )


def main(argv: Sequence[str] | None = None) -> None:
    """Run the quick demo (``argv`` defaults to no flags).

    ``python -m repro report <telemetry.jsonl>`` dispatches to the
    round-health report renderer instead (see :mod:`repro.obs.report`).
    """
    argv = list(argv) if argv is not None else []
    if argv and argv[0] == "report":
        from .obs import report

        raise SystemExit(report.main(argv[1:]))
    if argv and argv[0] == "audit":
        from .audit import cli as audit_cli

        raise SystemExit(audit_cli.main(argv[1:]))
    if argv and argv[0] == "serve":
        from .serving import cli as serving_cli

        raise SystemExit(serving_cli.main(argv[1:]))
    args = _parse_args(argv)
    _configure_logging(args.verbose)

    sinks: list = [obs.MemorySink()]
    if args.telemetry_out:
        sinks.append(obs.JsonlSink(args.telemetry_out))

    logger.info(
        "OLIVE: oblivious and differentially private FL on a simulated TEE"
    )
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, 20, 30, 2, seed=0)
    config = OliveConfig(
        sample_rate=0.5, noise_multiplier=1.12, aggregator="advanced",
        training=TrainingConfig(local_epochs=2, local_lr=0.3,
                                sparse_ratio=0.1),
    )
    runtime = RuntimeConfig(
        faults=FaultConfig(dropout_rate=args.dropout_rate,
                           straggler_rate=args.straggler_rate),
    )
    shards = None
    if args.shards is not None:
        shards = ShardConfig(
            shards=args.shards,
            faults=EnclaveFaultConfig(leaf_crash_rate=args.leaf_crash_rate),
        )
    recorder = None
    if args.audit_log:
        from .audit import AuditRecorder, make_manifest

        manifest = make_manifest(
            data={"spec": "tiny", "seed": 0, "n_clients": 20,
                  "samples_per_client": 30, "labels_per_client": 2,
                  "partition_seed": 0},
            model={"name": "tiny_mlp", "seed": 0},
            config=config, runtime=runtime, shards=shards,
            seed=args.seed,
        )
        recorder = AuditRecorder(args.audit_log, manifest)
    system = OliveSystem(build_model("tiny_mlp", seed=0), clients, config,
                         seed=args.seed, runtime=runtime, shards=shards,
                         audit=recorder)
    x, y = gen.balanced(20, np.random.default_rng(1))
    logger.info("  %d clients attested; %d-parameter model",
                len(clients), system.d)
    logger.info("  cohort runtime: batched in chunks of %d clients "
                "(vector_chunk), dropout rate %.2f", runtime.vector_chunk,
                args.dropout_rate)
    if shards is not None:
        logger.info("  sharded aggregation: %d leaf enclaves, leaf "
                    "crash rate %.2f", args.shards, args.leaf_crash_rate)
    logger.info("  accuracy before: %.3f", system.evaluate(x, y))

    with obs.session(sinks=sinks):
        logs = system.run(4)
        logger.info("  accuracy after 4 rounds: %.3f",
                    system.evaluate(x, y))
        logger.info("  privacy spent: epsilon = %.2f (delta = %g)",
                    logs[-1].epsilon, config.delta)

        if shards is not None:
            reports = [lg.shard_report for lg in logs]
            crashes = sum(o.crashes for r in reports for o in r.outcomes)
            failovers = sum(o.failovers for r in reports
                            for o in r.outcomes)
            completion = min(r.completion_rate for r in reports)
            logger.info("  shard recovery: %d leaf crash(es), %d "
                        "failover(s), min completion rate %.2f",
                        crashes, failovers, completion)
        # The same traced round on unrelated data: at any shard count
        # the leaf folds must leave an identical access pattern.
        a = system.run_round(traced=True)
        other = OliveSystem(
            build_model("tiny_mlp", seed=0),
            partition_clients(SyntheticClassData(SPECS["tiny"], seed=9),
                              20, 30, 2, seed=0),
            config, seed=args.seed, runtime=runtime, shards=shards,
        )
        other.run(4)
        b = other.run_round(traced=True)
        logger.info("  oblivious aggregation verified: %s (%d recorded "
                    "accesses)", traces_equal(a.trace, b.trace),
                    len(a.trace))
        other.close()
        system.close()
        if recorder is not None:
            recorder.close()
        summary = obs.render_summary(title="telemetry summary (demo run)")

    logger.debug("%s", summary)
    if args.telemetry_out:
        logger.info("  telemetry events written to %s", args.telemetry_out)
    if recorder is not None:
        logger.info(
            "  audit log: %d round(s) committed and sealed at %s "
            "(verify: python -m repro audit %s --strict)",
            recorder.rounds, args.audit_log, args.audit_log)


if __name__ == "__main__":
    main(sys.argv[1:])
