"""The privacy accountant's cached RDP curves.

Epsilon is read every round and replayed bit for bit by ``audit
--strict``, so the cached, array-per-order curve must equal the
term-by-term expansion in ``tests/oracles.py`` exactly, and every budget
must equal the value the uncached accountant reported.
"""

import math

import numpy as np
import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.olive import OliveConfig, OliveSystem
from repro.dp import accountant as acc_mod
from repro.dp.accountant import (
    DEFAULT_ORDERS,
    PrivacyAccountant,
    _unit_rdp,
    compute_rdp,
    epsilon_for,
    noise_multiplier_for,
    rdp_to_dp,
)
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.fl.server import ServerConfig
from repro.runtime import FaultConfig, RuntimeConfig

from . import oracles

TRAIN = TrainingConfig(local_epochs=1, local_lr=0.1, batch_size=8,
                       sparse_ratio=0.1, clip=1.0)


def _system(runtime=None, seed=0, **cfg):
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, 8, 20, 2, seed=0)
    cfg = dict(dict(sample_rate=0.5, noise_multiplier=1.12,
                    aggregator="advanced", training=TRAIN), **cfg)
    return OliveSystem(build_model("tiny_mlp", seed=0), clients,
                       OliveConfig(**cfg), seed=seed, runtime=runtime)


def _mixed_ledger() -> PrivacyAccountant:
    """Three rounds through ``step`` and six through the benchmark-only
    ``step_realized``, whose rate is ignored: nine rounds at q."""
    acc = PrivacyAccountant(0.5, 1.12, 1e-5)
    acc.step(3)
    for q in (299 / 600, 0.5, 299 / 600, 0.0, 1.0, 301 / 600):
        acc.step_realized(q)
    return acc


def _oracle_epsilon(acc: PrivacyAccountant) -> float:
    """The accountant's budget, over the scalar oracle's curve."""
    unit = oracles.unit_rdp(acc.sampling_rate, acc.noise_multiplier,
                            acc.orders)
    total = [u * acc.steps for u in unit]
    return rdp_to_dp(total, acc.orders, acc.delta)[0]


class TestGoldenEpsilons:
    """``repr``-exact budgets reported before the curves were cached."""

    def test_fixed_rate(self):
        assert epsilon_for(0.5, 1.12, 40, 1e-5) == 22.155717562807418
        assert epsilon_for(0.1, 1.12, 3, 1e-5) == 2.6284164313381413

    def test_unsubsampled(self):
        assert epsilon_for(1.0, 1.12, 7, 1e-5) == 14.126998446770827

    def test_mixed_fixed_and_realized_ledger(self):
        acc = _mixed_ledger()
        assert acc.steps == 9
        assert acc.epsilon == epsilon_for(0.5, 1.12, 9, 1e-5) \
            == 10.223737252640305

    def test_noise_multiplier_search(self):
        assert noise_multiplier_for(0.1, 10, 2.0, 1e-5) == 1.4782080078125


class TestOracleEquivalence:
    @pytest.mark.parametrize("q", [1e-4, 0.01, 0.1, 3 / 80, 299 / 600,
                                   0.5, 301 / 600, 0.9, 0.999, 1.0])
    @pytest.mark.parametrize("sigma", [0.5, 0.8, 1.12, 2.0, 5.0])
    def test_unit_rdp_bit_identical(self, q, sigma):
        assert _unit_rdp(q, sigma, DEFAULT_ORDERS) == oracles.unit_rdp(
            q, sigma, DEFAULT_ORDERS)

    def test_compute_rdp_is_unit_curve_times_steps(self):
        unit = oracles.unit_rdp(0.3, 1.3, DEFAULT_ORDERS)
        assert compute_rdp(0.3, 1.3, 17) == [u * 17 for u in unit]

    def test_accountant_composes_like_the_oracle(self):
        acc = _mixed_ledger()
        assert acc.epsilon == _oracle_epsilon(acc)

    def test_list_orders_hit_the_same_curve(self):
        orders = [2, 4, 8, 32]
        assert compute_rdp(0.2, 1.1, 1, orders) == list(
            oracles.unit_rdp(0.2, 1.1, orders))


class TestCacheKeying:
    def test_different_sigmas_never_share_a_curve(self):
        sigma = 1.12
        close = float(np.nextafter(sigma, 2.0))
        a = PrivacyAccountant(0.5, sigma, 1e-5)
        b = PrivacyAccountant(0.5, close, 1e-5)
        a.step(5)
        b.step(5)
        assert a.epsilon == _oracle_epsilon(a)
        assert b.epsilon == _oracle_epsilon(b)
        assert _unit_rdp(0.5, close, DEFAULT_ORDERS) == oracles.unit_rdp(
            0.5, close, DEFAULT_ORDERS)

    def test_direct_field_assignment_is_seen(self):
        # load_checkpoint assigns the ledger fields directly; epsilon
        # must follow them rather than a value memoized on the object.
        acc = PrivacyAccountant(0.5, 1.12, 1e-5)
        acc.step(2)
        before = acc.epsilon
        acc.steps = 40
        assert acc.epsilon == 22.155717562807418 != before
        acc.steps = 0
        assert acc.epsilon == 0.0

    def test_restored_ledger_reads_the_same_epsilon(self):
        fed = _mixed_ledger()
        restored = PrivacyAccountant(0.5, 1.12, 1e-5)
        _ = restored.epsilon
        restored.steps = fed.steps
        assert restored.epsilon == fed.epsilon


class TestCheckpointedEpsilon:
    def test_fixed_rate_resume_matches_uninterrupted_run(self, tmp_path):
        with _system() as straight:
            straight.run(4)
        with _system() as first:
            first.run(2)
            save_checkpoint(first, tmp_path / "ckpt.npz")
        with _system(seed=9) as resumed:
            load_checkpoint(resumed, tmp_path / "ckpt.npz")
            assert resumed.accountant.epsilon == first.accountant.epsilon
            resumed.run(2)
        assert resumed.accountant.epsilon == straight.accountant.epsilon

    def test_realized_resume_matches_fed_accountant(self, tmp_path):
        # Dropouts shrink the realized cohort but not the charge: the
        # resumed budget is three rounds at q.
        runtime = RuntimeConfig(faults=FaultConfig(dropout_rate=0.4))
        with _system(runtime) as system:
            system.run(3)
            save_checkpoint(system, tmp_path / "ckpt.npz")
            fed = PrivacyAccountant(0.5, 1.12, 1e-5)
            fed.step(3)
        with _system(runtime) as fresh:
            load_checkpoint(fresh, tmp_path / "ckpt.npz")
            assert fresh.accountant.epsilon == fed.epsilon
            assert fresh.accountant.epsilon == system.history[-1].epsilon
            assert fed.epsilon == epsilon_for(0.5, 1.12, 3, 1e-5)


class TestRoundCost:
    def test_warm_rounds_build_no_curves_and_read_epsilon_once(
            self, monkeypatch):
        built = []
        reads = []
        cold = acc_mod._log_a
        read = PrivacyAccountant.epsilon.fget

        def counting_log_a(q, sigma, alpha):
            built.append((q, sigma, alpha))
            return cold(q, sigma, alpha)

        def counting_epsilon(self):
            reads.append(1)
            return read(self)

        _unit_rdp.cache_clear()
        monkeypatch.setattr(acc_mod, "_log_a", counting_log_a)
        monkeypatch.setattr(PrivacyAccountant, "epsilon",
                            property(counting_epsilon))
        with _system() as system:
            system.run_round()
            assert len(built) == len(DEFAULT_ORDERS)
            assert len(reads) == 1
            built.clear()
            logs = system.run(3)
            assert built == []
            assert len(reads) == 4
        assert [log.epsilon for log in logs] == [
            epsilon_for(0.5, 1.12, t, 1e-5) for t in (2, 3, 4)]


class TestConfigRejection:
    @pytest.mark.parametrize("field, value", [
        ("delta", 0.0), ("delta", 1.0), ("delta", 1.5), ("delta", -1e-5),
        ("delta", math.nan),
        ("sample_rate", 0.0), ("sample_rate", -0.1), ("sample_rate", 1.5),
        ("sample_rate", math.nan),
    ])
    def test_olive_config_rejects_before_any_round(
            self, monkeypatch, field, value):
        rounds = []
        monkeypatch.setattr(OliveSystem, "run_round",
                            lambda self, *a, **k: rounds.append(1))
        with pytest.raises(ValueError, match=field):
            _system(**{field: value}).run_round()
        assert rounds == []

    @pytest.mark.parametrize("value", [0.0, -0.5, 1.01, math.nan])
    def test_server_config_rejects_sample_rate(self, value):
        with pytest.raises(ValueError, match="sample_rate"):
            ServerConfig(sample_rate=value)

    def test_boundary_values_accepted(self):
        assert OliveConfig(sample_rate=1.0, delta=0.5).sample_rate == 1.0
        assert ServerConfig(sample_rate=1.0).sample_rate == 1.0
