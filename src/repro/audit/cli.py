"""``python -m repro audit`` -- verify, replay, and prove logged rounds.

Usage::

    python -m repro audit LOG [--strict] [--no-replay] [--round N]
    python -m repro audit LOG --prove-client CID --round N [--out P]
    python -m repro audit LOG --verify-proof PROOF.json

Exit codes (stable; CI gates match on them):

====  =============================================================
code  meaning
====  =============================================================
0     every requested check passed
1     usage error / unreadable log
2     chain broken: a record was edited, reordered, or unlinked
3     log truncated: missing/wrong terminal seal or a round gap
4     commitment mismatch: logged ciphertexts vs the Merkle root
5     replay mismatch: recomputed round disagrees with a commitment,
      or the manifest cannot be replayed
6     inclusion-proof failure (or the requested round/client absent)
7     unsupported log version: the manifest was written by code whose
      rounds this version cannot replay
====  =============================================================
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Sequence

from .log import AuditError
from .verify import generate_proof, verify_log, verify_proof_payload

logger = logging.getLogger("repro.audit")

EXIT_OK = 0
EXIT_USAGE = 1


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro audit",
        description="Verify a chained audit log: hash chain, Merkle "
                    "commitments, and bit-identical deterministic replay.",
    )
    parser.add_argument("log", metavar="LOG", help="audit log (JSONL)")
    parser.add_argument(
        "--strict", action="store_true",
        help="require the terminal seal record (fail unsealed logs) -- "
             "the CI-gate mode",
    )
    parser.add_argument(
        "--no-replay", action="store_true",
        help="stop after chain + commitment verification (no replay)",
    )
    parser.add_argument(
        "--round", type=int, default=None, metavar="N",
        help="verify only round N (the chain is still checked whole)",
    )
    parser.add_argument(
        "--prove-client", type=int, default=None, metavar="CID",
        help="emit an inclusion proof for client CID's upload in "
             "--round N instead of verifying the log",
    )
    parser.add_argument(
        "--verify-proof", metavar="PROOF", default=None,
        help="verify a proof JSON produced by --prove-client against "
             "the log's committed root",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the generated proof here instead of stdout",
    )
    return parser.parse_args(list(argv))


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    logging.basicConfig(level=logging.INFO, format="%(message)s",
                        stream=sys.stdout, force=True)
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    if not Path(args.log).exists():
        logger.error("audit: log %s does not exist", args.log)
        return EXIT_USAGE
    try:
        if args.prove_client is not None:
            if args.round is None:
                logger.error("audit: --prove-client requires --round")
                return EXIT_USAGE
            proof = generate_proof(args.log, args.round, args.prove_client)
            payload = json.dumps(proof, indent=2)
            if args.out:
                Path(args.out).write_text(payload + "\n")
                logger.info(
                    "audit: inclusion proof for client %d in round %d "
                    "written to %s (%d sibling hashes)", args.prove_client,
                    args.round, args.out, len(proof["path"]))
            else:
                print(payload)
            return EXIT_OK

        if args.verify_proof is not None:
            proof = json.loads(Path(args.verify_proof).read_text())
            verify_proof_payload(args.log, proof)
            logger.info(
                "audit: OK -- client %s's upload is committed under round "
                "%s's Merkle root", proof.get("client_id"),
                proof.get("round"))
            return EXIT_OK

        report = verify_log(
            args.log, replay=not args.no_replay, strict=args.strict,
            round_index=args.round,
        )
        for verdict in report.rounds:
            mode = "sharded" if verdict.sharded else "unsharded"
            if verdict.degraded:
                mode += ", degraded"
            checks = []
            if verdict.merkle_ok:
                checks.append("merkle ok")
            if verdict.replay_ok:
                checks.append("replay ok")
            logger.info("  round %d: %s (%d uploads, %s)",
                        verdict.round_index,
                        ", ".join(checks) or "chain only",
                        verdict.uploads, mode)
        logger.info(
            "audit: OK -- %d round(s), %d committed upload(s), chain "
            "intact%s%s", len(report.rounds), report.n_uploads,
            ", sealed" if report.sealed else " (unsealed)",
            ", replay bit-identical" if report.replayed else
            " (replay skipped)")
        return EXIT_OK
    except AuditError as exc:
        where = (f" (round {exc.round_index})"
                 if exc.round_index is not None else "")
        logger.error("audit: FAIL%s -- %s [%s, exit %d]", where, exc,
                     type(exc).__name__, exc.exit_code)
        return exc.exit_code
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        logger.error("audit: cannot process %s: %s", args.log, exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
