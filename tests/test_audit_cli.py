"""Exit-code contract of ``python -m repro audit``.

Every adversary class maps to a distinct, stable exit code -- the CI
gates match on them, so this is a compatibility surface, not an
implementation detail.
"""

import base64
import copy
import json

import pytest

from repro.audit import chain_records, read_records
from repro.audit.cli import main as audit_main
from repro.core.olive import OliveConfig
from repro.fl.client import TrainingConfig

from .test_audit import _recorded_run


def _rewrite(path, records):
    with open(path, "w") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True,
                               separators=(",", ":")) + "\n")


@pytest.fixture(scope="module")
def recorded_log(tmp_path_factory):
    config = OliveConfig(
        sample_rate=0.5, noise_multiplier=1.12, aggregator="advanced",
        training=TrainingConfig(local_epochs=1, sparse_ratio=0.2),
    )
    return _recorded_run(tmp_path_factory.mktemp("cli"), rounds=2,
                         config=config)


def _tampered_copy(recorded_log, tmp_path, mutate):
    records = copy.deepcopy(read_records(recorded_log))
    mutate(records)
    path = tmp_path / "tampered.jsonl"
    _rewrite(path, records)
    return path


class TestExitCodes:
    def test_clean_log_exits_zero(self, recorded_log, capsys):
        assert audit_main([str(recorded_log), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "audit: OK" in out
        assert "replay bit-identical" in out
        assert "merkle ok, replay ok" in out

    def test_missing_log_exits_one(self, tmp_path):
        assert audit_main([str(tmp_path / "nope.jsonl")]) == 1

    def test_edited_record_exits_two(self, recorded_log, tmp_path, capsys):
        def mutate(records):
            records[1]["epsilon"] = 123.0
        path = _tampered_copy(recorded_log, tmp_path, mutate)
        assert audit_main([str(path), "--strict"]) == 2
        assert "AuditChainError" in capsys.readouterr().out

    def test_truncated_log_exits_three(self, recorded_log, tmp_path,
                                       capsys):
        def mutate(records):
            records.pop()  # drop the seal
        path = _tampered_copy(recorded_log, tmp_path, mutate)
        assert audit_main([str(path), "--strict"]) == 3
        assert "AuditTruncationError" in capsys.readouterr().out
        # Non-strict tolerates the unsealed tail (crash-in-progress).
        assert audit_main([str(path)]) == 0

    def test_flipped_ciphertext_byte_exits_four_naming_round(
            self, recorded_log, tmp_path, capsys):
        # The CI tamper smoke: flip one logged ciphertext byte and
        # re-mint the chain (the strongest file-rewriting adversary
        # short of breaking SHA-256).
        def mutate(records):
            record = records[2]  # round 1
            cid = next(iter(record["ciphertexts"]))
            blob = bytearray(base64.b64decode(record["ciphertexts"][cid]))
            blob[0] ^= 0x01
            record["ciphertexts"][cid] = base64.b64encode(blob).decode()
            records[:] = chain_records(records)
        path = _tampered_copy(recorded_log, tmp_path, mutate)
        assert audit_main([str(path), "--strict"]) == 4
        out = capsys.readouterr().out
        assert "FAIL (round 1)" in out
        assert "AuditCommitmentError" in out

    def test_forged_aggregate_exits_five_naming_round(
            self, recorded_log, tmp_path, capsys):
        def mutate(records):
            records[1]["aggregate_sha256"] = "ef" * 32
            records[:] = chain_records(records)
        path = _tampered_copy(recorded_log, tmp_path, mutate)
        assert audit_main([str(path), "--strict"]) == 5
        out = capsys.readouterr().out
        assert "FAIL (round 0)" in out
        assert "forged aggregate" in out

    def test_proof_roundtrip_and_failure_exits_six(
            self, recorded_log, tmp_path, capsys):
        record = [r for r in read_records(recorded_log)
                  if r["type"] == "round"][0]
        cid = record["accepted"][0]
        proof_path = tmp_path / "proof.json"
        assert audit_main([str(recorded_log), "--round", "0",
                           "--prove-client", str(cid),
                           "--out", str(proof_path)]) == 0
        assert audit_main([str(recorded_log),
                           "--verify-proof", str(proof_path)]) == 0
        assert audit_main([str(recorded_log), "--round", "0",
                           "--prove-client", "424242"]) == 6
        assert "AuditProofError" in capsys.readouterr().out

    def test_old_log_version_exits_seven(self, recorded_log, tmp_path,
                                         capsys):
        # A version-1 manifest under a re-minted chain: refused by every
        # mode, before any round is read.
        def mutate(records):
            records[0]["version"] = 1
            records[:] = chain_records(records)
        path = _tampered_copy(recorded_log, tmp_path, mutate)
        for extra in ([], ["--no-replay"], ["--round", "0",
                                             "--prove-client", "0"]):
            assert audit_main([str(path), "--strict", *extra]) == 7
        assert "AuditVersionError" in capsys.readouterr().out

    def test_prove_client_requires_round(self, recorded_log):
        assert audit_main([str(recorded_log),
                           "--prove-client", "1"]) == 1

    def test_single_round_mode(self, recorded_log, capsys):
        assert audit_main([str(recorded_log), "--strict",
                           "--round", "1"]) == 0
        assert audit_main([str(recorded_log), "--strict",
                           "--round", "17"]) == 6

    def test_no_replay_mode(self, recorded_log, capsys):
        assert audit_main([str(recorded_log), "--strict",
                           "--no-replay"]) == 0
        assert "replay skipped" in capsys.readouterr().out


class TestMainDispatch:
    def test_module_dispatches_audit_subcommand(self, recorded_log):
        from repro.__main__ import main as repro_main

        with pytest.raises(SystemExit) as e:
            repro_main(["audit", str(recorded_log), "--strict"])
        assert e.value.code == 0


class TestDemoBudget:
    def test_printed_epsilon_is_the_logs_last_round(self, tmp_path, capsys):
        # The demo releases a fifth, traced round after its four
        # training rounds; the budget it prints must include it.
        from repro.__main__ import main as repro_main
        from repro.audit.log import read_records

        path = tmp_path / "demo.jsonl"
        repro_main(["--audit-log", str(path)])
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if "privacy spent" in ln)
        rounds = [r for r in read_records(path) if r["type"] == "round"]
        assert f"over {len(rounds)} rounds" in line
        assert f"epsilon = {rounds[-1]['epsilon']:.2f} " in line
