"""Tests for checkpointing and trace serialization."""

import json
import math

import numpy as np
import pytest

from repro.core.checkpoint import (
    load_checkpoint,
    load_trace,
    save_checkpoint,
    save_trace,
)
from repro.core.obliviousness import traces_equal
from repro.core.olive import OliveConfig, OliveSystem
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.sgx.memory import Trace


def _system(seed=0, **cfg):
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, 8, 20, 2, seed=0)
    defaults = dict(
        sample_rate=0.5, noise_multiplier=1.12, aggregator="advanced",
        training=TrainingConfig(sparse_ratio=0.2),
    )
    defaults.update(cfg)
    return OliveSystem(build_model("tiny_mlp", seed=0), clients,
                       OliveConfig(**defaults), seed=seed)


class TestCheckpoint:
    def test_roundtrip_weights_and_ledger(self, tmp_path):
        system = _system()
        system.run(3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(system, path)

        restored = _system(seed=9)
        meta = load_checkpoint(restored, path)
        assert np.array_equal(restored.global_weights, system.global_weights)
        assert restored.accountant.steps == 3
        assert meta["rounds"] == 3
        # The privacy ledger resumes, not resets.
        assert restored.accountant.epsilon == pytest.approx(
            system.accountant.epsilon
        )

    def test_restored_system_keeps_training(self, tmp_path):
        system = _system()
        system.run(2)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(system, path)
        restored = _system(seed=9)
        load_checkpoint(restored, path)
        log = restored.run_round()
        assert log.epsilon > system.accountant.epsilon

    def test_wrong_architecture_rejected(self, tmp_path):
        system = _system()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(system, path)
        gen = SyntheticClassData(SPECS["mnist"], seed=0)
        clients = partition_clients(gen, 4, 10, 2, seed=0)
        other = OliveSystem(
            build_model("mnist_mlp", seed=0), clients, OliveConfig(),
        )
        with pytest.raises(ValueError, match="weights"):
            load_checkpoint(other, path)

    def test_mismatched_dp_params_rejected(self, tmp_path):
        system = _system()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(system, path)
        other = _system(noise_multiplier=2.0)
        with pytest.raises(ValueError, match="noise_multiplier"):
            load_checkpoint(other, path)

    def test_adaptive_clip_restored(self, tmp_path):
        system = _system(adaptive_clipping=True)
        system.run(3)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(system, path)
        restored = _system(adaptive_clipping=True, seed=9)
        load_checkpoint(restored, path)
        assert restored.clipper.clip == pytest.approx(system.clipper.clip)


def _rewrite_meta(path, **changes):
    with np.load(path, allow_pickle=False) as archive:
        weights = archive["global_weights"]
        meta = json.loads(str(archive["meta"]))
    meta.update(changes)
    np.savez(path, global_weights=weights, meta=json.dumps(meta))


class TestLedgerValidation:
    @pytest.fixture
    def ckpt(self, tmp_path):
        system = _system()
        system.run(2)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(system, path)
        return path

    @pytest.mark.parametrize("rates", [
        [0.5, -0.25], [math.nan], [1.5], [0.5, math.inf],
    ])
    def test_bad_realized_rate_refused(self, ckpt, rates):
        _rewrite_meta(ckpt, realized_rates=rates)
        restored = _system(seed=9)
        with pytest.raises(ValueError, match="realized_rates"):
            load_checkpoint(restored, ckpt)
        # Nothing was restored: the fresh ledger is untouched.
        assert restored.accountant.steps == 0
        assert restored.accountant.realized_rates == []

    @pytest.mark.parametrize("rounds", [-1, 2.5, "3", True])
    def test_bad_round_count_refused(self, ckpt, rounds):
        _rewrite_meta(ckpt, rounds=rounds)
        with pytest.raises(ValueError, match="rounds"):
            load_checkpoint(_system(seed=9), ckpt)

    @pytest.mark.parametrize("round_index", [-1, 2.5, "3", True, None])
    def test_bad_round_index_refused(self, ckpt, round_index):
        _rewrite_meta(ckpt, round_index=round_index)
        restored = _system(seed=9)
        with pytest.raises(ValueError, match="round_index"):
            load_checkpoint(restored, ckpt)
        assert restored.round_index == 0
        assert restored.accountant.steps == 0

    @pytest.mark.parametrize("pool", [
        {"spawned": -1, "dead": []}, {"spawned": True, "dead": []},
        {"spawned": 2.0, "dead": []}, {"spawned": 2, "dead": [2]},
        {"spawned": 2, "dead": [0, 0]}, {"spawned": 2, "dead": [-1]},
        {"spawned": 2, "dead": [True]}, {"spawned": 2, "dead": "0"},
        [], {}, None, {"spawned": 2}, {"dead": []},
        {"spawned": 2, "dead": [], "extra": 0},
    ])
    def test_bad_leaf_pool_refused(self, ckpt, pool):
        _rewrite_meta(ckpt, leaf_pool=pool)
        restored = _system(seed=9)
        with pytest.raises(ValueError, match="leaf_pool"):
            load_checkpoint(restored, ckpt)
        assert restored.shard_service.pool_state() == {"spawned": 0,
                                                       "dead": []}
        assert restored.round_index == 0

    def test_leaf_pool_restored_by_index(self, ckpt):
        _rewrite_meta(ckpt, leaf_pool={"spawned": 3, "dead": [0, 2]})
        restored = _system(seed=9)
        load_checkpoint(restored, ckpt)
        leaves = restored.shard_service._leaves
        assert [lf.index for lf in leaves] == [0, 1, 2]
        assert [lf.alive for lf in leaves] == [False, True, False]
        # Seeds derive from the index: leaf i is the one spawned i-th.
        fresh = _system(seed=9).shard_service
        fresh.ensure_leaves(3)
        assert ([lf.enclave._dh.public for lf in leaves]
                == [lf.enclave._dh.public for lf in fresh._leaves])

    def test_pool_smaller_than_the_spawned_one_refused(self, ckpt):
        restored = _system(seed=9)
        restored.shard_service.ensure_leaves(2)
        with pytest.raises(ValueError, match="restore a pool of 1"):
            load_checkpoint(restored, ckpt)

    def test_boundary_rates_restore(self, ckpt):
        _rewrite_meta(ckpt, realized_rates=[0.0, 1.0, 299 / 600])
        restored = _system(seed=9)
        load_checkpoint(restored, ckpt)
        assert restored.accountant.realized_rates == [0.0, 1.0, 299 / 600]

    @pytest.mark.parametrize("field", ["sample_rate", "noise_multiplier",
                                       "delta"])
    def test_dp_parameters_compared_exactly(self, ckpt, field):
        # A sigma of 1.12001 is np.isclose to 1.12 but charges a
        # different budget; JSON keeps floats exact, so demand equality.
        value = getattr(_system().config, field)
        _rewrite_meta(ckpt, **{field: value * (1 + 1e-6)})
        with pytest.raises(ValueError, match=field):
            load_checkpoint(_system(seed=9), ckpt)


class TestTraceSerialization:
    def test_roundtrip(self, tmp_path):
        trace = Trace()
        trace.record("g", 0, "read")
        trace.record("g_star", 17, "write")
        trace.record("g", 3, "read")
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        restored = load_trace(path)
        assert traces_equal(trace, restored)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(Trace(), path)
        assert len(load_trace(path)) == 0

    def test_real_round_trace_roundtrip(self, tmp_path):
        system = _system()
        log = system.run_round(traced=True)
        path = tmp_path / "round.npz"
        save_trace(log.trace, path)
        restored = load_trace(path)
        assert traces_equal(log.trace, restored)
        assert len(restored) == len(log.trace)

    @staticmethod
    def _tampered(tmp_path, **columns):
        """A saved two-access trace with some columns replaced."""
        trace = Trace()
        trace.record("g", 0, "read")
        trace.record("g_star", 17, "write")
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        with np.load(path) as archive:
            fields = {name: archive[name] for name in archive.files}
        fields.update({name: np.asarray(col) for name, col in columns.items()})
        np.savez_compressed(path, **fields)
        return path

    @pytest.mark.parametrize("ops", [[0, 5], [-1, 1], [2, 0]])
    def test_unknown_op_code_refused(self, tmp_path, ops):
        path = self._tampered(tmp_path, op=np.asarray(ops, dtype=np.int8))
        with pytest.raises(ValueError, match="op codes"):
            load_trace(path)

    @pytest.mark.parametrize("region", [[0, -1], [2, 0], [0, 255]])
    def test_region_id_outside_table_refused(self, tmp_path, region):
        path = self._tampered(tmp_path,
                              region=np.asarray(region, dtype=np.int32))
        with pytest.raises(ValueError, match="region ids"):
            load_trace(path)

    def test_duplicate_region_name_refused(self, tmp_path):
        # Interning would drop the second "g" and read id 1 as "g_star".
        path = self._tampered(tmp_path,
                              regions=json.dumps(["g", "g", "g_star"]))
        with pytest.raises(ValueError, match="twice"):
            load_trace(path)
