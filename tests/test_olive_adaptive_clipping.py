"""Tests for adaptive clipping integrated into the OLIVE protocol."""

import numpy as np

from repro.core.olive import OliveConfig, OliveSystem
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import build_model


def _system(adaptive, initial_clip, seed=0):
    gen = SyntheticClassData(SPECS["tiny"], seed=0)
    clients = partition_clients(gen, 12, 30, 2, seed=0)
    return OliveSystem(
        build_model("tiny_mlp", seed=0), clients,
        OliveConfig(
            sample_rate=0.8, noise_multiplier=0.5, aggregator="advanced",
            adaptive_clipping=adaptive,
            training=TrainingConfig(local_epochs=2, local_lr=0.3,
                                    sparse_ratio=0.2, clip=initial_clip),
        ),
        seed=seed,
    )


class TestAdaptiveClippingInOlive:
    def test_disabled_by_default(self):
        system = _system(adaptive=False, initial_clip=1.0)
        assert system.clipper is None
        system.run(2)

    def test_enabled_creates_clipper(self):
        system = _system(adaptive=True, initial_clip=1.0)
        assert system.clipper is not None
        assert system.clipper.clip == 1.0

    def test_oversized_clip_shrinks(self):
        # A clip far above all update norms should be driven down.
        system = _system(adaptive=True, initial_clip=100.0)
        system.run(6)
        assert system.clipper.clip < 100.0
        assert len(system.clipper.history) == 7

    def test_undersized_clip_grows(self):
        system = _system(adaptive=True, initial_clip=1e-4)
        system.run(6)
        assert system.clipper.clip > 1e-4

    def test_updates_respect_current_clip(self):
        system = _system(adaptive=True, initial_clip=0.01)
        for log in system.run(4):
            round_clip = max(
                float(np.linalg.norm(u.values)) for u in log.updates.values()
            )
            # No update may exceed the largest clip ever active.
            assert round_clip <= max(system.clipper.history) + 1e-9

    def test_noise_scales_with_adaptive_clip(self):
        # With a tiny adaptive clip, the injected noise must be tiny
        # too (sigma tracks C); compare update step magnitudes.
        small = _system(adaptive=True, initial_clip=1e-3, seed=1)
        big = _system(adaptive=False, initial_clip=50.0, seed=1)
        step_small = np.linalg.norm(
            small.run_round().weights_after - small.history[0].weights_before
        )
        step_big = np.linalg.norm(
            big.run_round().weights_after - big.history[0].weights_before
        )
        assert step_small < step_big
