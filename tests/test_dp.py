"""Tests for the round's Gaussian mechanism, the RDP accountant, and LDP
baselines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.olive import OliveConfig, OliveSystem
from repro.dp.accountant import (
    DEFAULT_ORDERS,
    PrivacyAccountant,
    compute_rdp,
    epsilon_for,
    noise_multiplier_for,
    rdp_to_dp,
)
from repro.dp.ldp import (
    gaussian_ldp_sigma,
    local_epsilon_for_central,
    perturb_local,
    shuffle_amplified_epsilon,
)
from repro.dp.mechanisms import sensitivity_of_mean
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model
from repro.fl.sparsify import densify


def _released_delta(model_name="tiny_mlp", noise_multiplier=0.0, clip=1.0,
                    expected_clients=None, noise_only=False):
    """One ``OliveSystem`` round at q = 1 over four clients; returns
    the released update and the round log.  ``noise_only`` drops every
    sampled client, so the release is the enclave's noise alone."""
    spec = next(s for s in SPECS.values() if s.model_name == model_name)
    clients = partition_clients(SyntheticClassData(spec, seed=0), 4, 8, 2,
                                seed=0)
    system = OliveSystem(
        build_model(model_name, seed=0), clients,
        OliveConfig(sample_rate=1.0, noise_multiplier=noise_multiplier,
                    expected_clients=expected_clients, aggregator="linear",
                    training=TrainingConfig(batch_size=4, clip=clip)),
        seed=0)
    dropouts = {c.client_id for c in clients} if noise_only else None
    log = system.run_round(dropouts=dropouts)
    return log.weights_after - log.weights_before, log


class TestGaussianPerturb:
    """Algorithm 1 line 12 as an ``OliveSystem`` round releases it:
    ``(sum_i Delta_i + N(0, (sigma * C)^2 I)) / denominator``."""

    def test_zero_noise_is_plain_average(self):
        delta, log = _released_delta()
        total = sum(densify(u.indices, u.values, delta.size)
                    for u in log.updates.values())
        assert len(log.updates) == 4
        assert np.allclose(delta, total / 4.0)  # q N = 4

    def test_noise_scale(self):
        delta, _ = _released_delta("mnist_mlp", noise_multiplier=1.5,
                                   clip=2.0, expected_clients=1,
                                   noise_only=True)
        assert abs(delta.std() - 3.0) < 0.1  # sigma * C = 1.5 * 2

    def test_denominator_scales_noise_too(self):
        delta, _ = _released_delta("mnist_mlp", noise_multiplier=1.0,
                                   expected_clients=10, noise_only=True)
        assert abs(delta.std() - 0.1) < 0.01

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="clip"):
            TrainingConfig(clip=0.0)
        with pytest.raises(ValueError, match="noise_multiplier"):
            OliveConfig(noise_multiplier=-1.0)
        with pytest.raises(ValueError, match="expected_clients"):
            OliveConfig(expected_clients=0)

    def test_sensitivity(self):
        assert sensitivity_of_mean(2.0, 100.0) == pytest.approx(0.02)


class TestRdpAccountant:
    def test_unsubsampled_gaussian_closed_form(self):
        rdp = compute_rdp(1.0, 2.0, 1, orders=[2, 4, 8])
        assert rdp == pytest.approx([2 / 8, 4 / 8, 8 / 8])

    def test_rdp_linear_in_steps(self):
        one = compute_rdp(0.1, 1.12, 1)
        ten = compute_rdp(0.1, 1.12, 10)
        assert np.allclose(np.asarray(ten), 10 * np.asarray(one))

    def test_epsilon_increases_with_steps(self):
        e1 = epsilon_for(0.1, 1.12, 1, 1e-5)
        e2 = epsilon_for(0.1, 1.12, 50, 1e-5)
        assert e2 > e1 > 0

    def test_epsilon_decreases_with_sigma(self):
        weak = epsilon_for(0.1, 0.7, 10, 1e-5)
        strong = epsilon_for(0.1, 2.0, 10, 1e-5)
        assert strong < weak

    def test_epsilon_increases_with_sampling_rate(self):
        rare = epsilon_for(0.01, 1.12, 10, 1e-5)
        common = epsilon_for(0.5, 1.12, 10, 1e-5)
        assert common > rare

    def test_subsampling_amplifies(self):
        # q < 1 must be strictly better than q = 1 at equal sigma.
        sub = epsilon_for(0.1, 1.12, 10, 1e-5)
        full = epsilon_for(1.0, 1.12, 10, 1e-5)
        assert sub < full

    def test_paper_default_budget_is_reasonable(self):
        # (q, sigma, T) = (0.1, 1.12, 3): a usable single-digit epsilon.
        eps = epsilon_for(0.1, 1.12, 3, 1e-5)
        assert 0.05 < eps < 5.0

    def test_rdp_to_dp_picks_best_order(self):
        rdp = compute_rdp(0.1, 1.12, 5)
        eps, order = rdp_to_dp(rdp, DEFAULT_ORDERS, 1e-5)
        # Any single order is an upper bound.
        for r, a in zip(rdp, DEFAULT_ORDERS):
            assert eps <= r + math.log(1e5) / (a - 1) + 1e-12
        assert order in DEFAULT_ORDERS

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            compute_rdp(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            compute_rdp(0.1, 0.0, 1)
        with pytest.raises(ValueError):
            compute_rdp(0.1, 1.0, -1)
        with pytest.raises(ValueError):
            compute_rdp(0.1, 1.0, 1, orders=[1])
        with pytest.raises(ValueError):
            rdp_to_dp([1.0], [2], 0.0)

    def test_noise_multiplier_for_inverts(self):
        target = 2.0
        sigma = noise_multiplier_for(0.1, 10, target, 1e-5)
        achieved = epsilon_for(0.1, sigma, 10, 1e-5)
        assert achieved <= target
        # Not grossly over-noised either.
        assert epsilon_for(0.1, sigma * 0.9, 10, 1e-5) > target * 0.8

    @given(st.floats(0.02, 0.5), st.floats(0.8, 4.0), st.integers(1, 30))
    @settings(max_examples=20, deadline=None)
    def test_rdp_positive(self, q, sigma, steps):
        assert all(r >= 0 for r in compute_rdp(q, sigma, steps))

    def test_accountant_accumulates(self):
        acc = PrivacyAccountant(0.1, 1.12, 1e-5)
        assert acc.epsilon == 0.0
        acc.step()
        e1 = acc.epsilon
        acc.step(4)
        assert acc.epsilon > e1 > 0
        assert acc.steps == 5


class TestLdpBaselines:
    def test_ldp_sigma_decreases_with_epsilon(self):
        assert gaussian_ldp_sigma(2.0, 1e-5) < gaussian_ldp_sigma(0.5, 1e-5)

    def test_ldp_sigma_invalid(self):
        with pytest.raises(ValueError):
            gaussian_ldp_sigma(0.0, 1e-5)
        with pytest.raises(ValueError):
            gaussian_ldp_sigma(1.0, 2.0)

    def test_perturb_local_noise_scale(self):
        out = perturb_local(np.zeros(20_000), clip=1.0, epsilon=1.0,
                            delta=1e-5, rng=np.random.default_rng(0))
        assert abs(out.std() - gaussian_ldp_sigma(1.0, 1e-5)) < 0.1

    def test_amplification_shrinks_epsilon(self):
        local = 2.0
        amplified = shuffle_amplified_epsilon(local, n=10_000, delta=1e-5)
        assert amplified < local

    def test_amplification_improves_with_n(self):
        small = shuffle_amplified_epsilon(1.0, n=100, delta=1e-5)
        large = shuffle_amplified_epsilon(1.0, n=100_000, delta=1e-5)
        assert large < small

    def test_amplification_never_exceeds_local(self):
        for n in (1, 10, 1000):
            assert shuffle_amplified_epsilon(0.5, n, 1e-5) <= 0.5

    def test_amplification_invalid(self):
        with pytest.raises(ValueError):
            shuffle_amplified_epsilon(0.0, 10, 1e-5)
        with pytest.raises(ValueError):
            shuffle_amplified_epsilon(1.0, 0, 1e-5)

    def test_local_epsilon_inversion(self):
        target = 1.0
        n = 5000
        local = local_epsilon_for_central(target, n, 1e-5)
        achieved = shuffle_amplified_epsilon(local, n, 1e-5)
        assert achieved == pytest.approx(target, rel=0.05)
        assert local > target  # amplification gained something

    def test_shuffle_beats_plain_ldp_noise(self):
        # At the same central budget, shuffling permits a larger local
        # epsilon and therefore less local noise -- Table 1's ordering.
        target, n, delta = 1.0, 5000, 1e-5
        ldp_sigma = gaussian_ldp_sigma(target, delta)
        shuffle_sigma = gaussian_ldp_sigma(
            local_epsilon_for_central(target, n, delta), delta
        )
        assert shuffle_sigma < ldp_sigma
