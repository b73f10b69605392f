"""The privacy ledger charges the sampled q on every released round.

The enclave samples each client with probability exactly q; clients
lost afterwards (dropouts, stragglers, failed retries, rejected
uploads, crashed or degraded shards) fail on hosts the threat model
does not trust and buy no amplification.  So for every configuration
the system accepts, after R released rounds the budget is the closed
form ``epsilon_for(q, sigma, R, delta)``, and each audit record
commits the closed form for its own round.
"""

import tempfile
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from repro.audit import AuditRecorder, make_manifest, read_records, verify_log
from repro.core.olive import OliveConfig, OliveSystem
from repro.dp.accountant import epsilon_for
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.runtime import (
    EnclaveFaultConfig,
    FaultConfig,
    QuorumNotMetError,
    RuntimeConfig,
    ShardConfig,
)

SIGMA = 1.1
DELTA = 1e-5
DATA = {"spec": "tiny", "seed": 0, "n_clients": 10,
        "samples_per_client": 12, "labels_per_client": 2,
        "partition_seed": 0}
MODEL = {"name": "tiny_mlp", "seed": 0}
TRAIN = TrainingConfig(local_epochs=1, local_lr=0.1, batch_size=6,
                       sparse_ratio=0.1, clip=1.0)
RATES = st.sampled_from([0.0, 0.1, 0.3])

client_faults = st.builds(
    FaultConfig,
    dropout_rate=RATES,
    straggler_rate=RATES,
    straggler_delay_s=st.just(0.002),
    corrupt_rate=RATES,
    replay_rate=RATES,
    transient_failure_rate=RATES,
    transient_failures=st.integers(1, 3),
)

runtimes = st.builds(
    RuntimeConfig,
    client_timeout_s=st.sampled_from([None, 0.001]),
    max_retries=st.integers(0, 2),
    backoff_base_s=st.just(0.0),
    min_quorum=st.sampled_from([0.0, 0.3, 0.8]),
    faults=client_faults,
)

shard_configs = st.builds(
    ShardConfig,
    shards=st.integers(1, 3),
    oblivious_batch=st.integers(1, 4),
    max_shard_retries=st.integers(0, 2),
    shard_deadline_s=st.sampled_from([None, 0.002]),
    faults=st.builds(
        EnclaveFaultConfig,
        leaf_crash_rate=RATES,
        crash_fatal_rate=st.sampled_from([0.0, 0.5, 1.0]),
        leaf_straggler_rate=RATES,
        leaf_straggler_delay_s=st.just(0.002),
    ),
)


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([0.3, 0.6, 1.0]), runtime=runtimes,
       shards=shard_configs, seed=st.integers(0, 2**16))
def test_epsilon_is_the_closed_form_of_released_rounds(q, runtime, shards,
                                                       seed):
    config = OliveConfig(sample_rate=q, noise_multiplier=SIGMA, delta=DELTA,
                         aggregator="advanced", training=TRAIN)
    gen = SyntheticClassData(SPECS[DATA["spec"]], seed=DATA["seed"])
    clients = partition_clients(
        gen, DATA["n_clients"], DATA["samples_per_client"],
        DATA["labels_per_client"], seed=DATA["partition_seed"])
    manifest = make_manifest(data=DATA, model=MODEL, config=config,
                             runtime=runtime, shards=shards, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "audit.jsonl"
        with AuditRecorder(path, manifest) as recorder:
            system = OliveSystem(
                build_model(MODEL["name"], seed=MODEL["seed"]), clients,
                config, seed=seed, runtime=runtime, shards=shards,
                audit=recorder)
            released = 0
            for _ in range(3):
                try:
                    log = system.run_round()
                except QuorumNotMetError:
                    # Nothing left the enclave: nothing is charged.
                    event("quorum abort")
                    assert system.accountant.steps == released
                    continue
                released += 1
                if log.shard_report.degraded:
                    event("degraded round")
                if len(log.participants) < len(system.enclave.sampled_clients):
                    event("sampled clients lost after the draw")
                assert log.epsilon == epsilon_for(q, SIGMA, released, DELTA)
            event(f"{released} round(s) released")
            assert system.accountant.steps == released
            assert system.accountant.epsilon == (
                epsilon_for(q, SIGMA, released, DELTA) if released else 0.0)
        records = [r for r in read_records(path) if r["type"] == "round"]
        assert [r["epsilon"] for r in records] == [
            epsilon_for(q, SIGMA, r + 1, DELTA) for r in range(released)]
        # The verifier re-derives every epsilon from the manifest alone.
        verify_log(path, replay=False, strict=True)
