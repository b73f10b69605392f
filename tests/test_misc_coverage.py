"""Edge-case coverage across modules."""

import math

import numpy as np

from repro.attack.pipeline import AttackConfig, build_teacher
from repro.core.do_aggregation import DoParameters, expected_padding_per_bin
from repro.core.olive import OliveConfig, OliveSystem
from repro.dp.accountant import PrivacyAccountant
from repro.fl.client import TrainingConfig
from repro.fl.datasets import SPECS, SyntheticClassData, partition_clients
from repro.fl.models import Flatten, Sequential, build_model
from repro.fl.quantize import quantize_deterministic
from repro.fl.client import LocalUpdate
from repro.sgx.memory import Trace
from repro.sgx.observer import CACHELINE, coarsen


class TestAccountantEdgeCases:
    def test_zero_noise_reports_infinite_epsilon(self):
        acc = PrivacyAccountant(0.1, 0.0, 1e-5)
        acc.step()
        assert math.isinf(acc.epsilon)

    def test_zero_steps_zero_epsilon_even_with_zero_noise(self):
        acc = PrivacyAccountant(0.1, 0.0, 1e-5)
        assert acc.epsilon == 0.0


class TestModelEdgeCases:
    def test_parameterless_model_flat_roundtrip(self):
        model = Sequential([Flatten()])
        assert model.num_params == 0
        flat = model.get_flat()
        assert flat.size == 0
        model.set_flat(flat)  # must not raise

    def test_sixteen_bit_quantization_boundary(self):
        update = LocalUpdate(0, np.asarray([0], dtype=np.int64),
                             np.asarray([1.0]))
        q = quantize_deterministic(update, bits=16)
        assert abs(q.levels[0]) <= (1 << 15) - 1


class TestDoPaddingCap:
    def test_explicit_cap_respected(self):
        params = DoParameters(epsilon=1.0, sensitivity=1)
        assert expected_padding_per_bin(params, cap=7) == 7.0

    def test_default_cap_scales_with_epsilon(self):
        tight = expected_padding_per_bin(DoParameters(0.1, 1))
        loose = expected_padding_per_bin(DoParameters(10.0, 1))
        assert tight > loose


class TestTraceOpFilters:
    def test_cachelines_with_op_filter(self):
        trace = Trace()
        trace.record("g", 0, "read")
        trace.record("g", 20, "write")
        for op, line in (("write", 2), ("read", 0)):
            offsets = trace.offsets_array("g", op=op)
            assert coarsen(offsets, CACHELINE, itemsize=8).tolist() == [line]


class TestBuildTeacher:
    def test_teacher_structure(self):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        clients = partition_clients(gen, 4, 20, 2, seed=0)
        model = build_model("tiny_mlp", seed=0)
        training = TrainingConfig(sparse_ratio=0.1)
        system = OliveSystem(
            model, clients,
            OliveConfig(sample_rate=1.0, aggregator="linear",
                        training=training),
            seed=0,
        )
        logs = system.run(2, traced=True)
        test_data = {
            label: gen.sample(np.full(9, label), np.random.default_rng(label))
            for label in range(6)
        }
        teacher = build_teacher(
            logs, model, test_data, training,
            AttackConfig(teacher_samples_per_label=3),
        )
        assert set(teacher) == {0, 1}
        for rnd in teacher.values():
            assert set(rnd) == set(range(6))
            for samples in rnd.values():
                assert len(samples) == 3
                for s in samples:
                    assert isinstance(s, frozenset)
                    assert all(0 <= i < model.num_params for i in s)

    def test_teacher_respects_granularity(self):
        gen = SyntheticClassData(SPECS["tiny"], seed=0)
        clients = partition_clients(gen, 3, 20, 2, seed=0)
        model = build_model("tiny_mlp", seed=0)
        training = TrainingConfig(sparse_ratio=0.1)
        system = OliveSystem(
            model, clients,
            OliveConfig(sample_rate=1.0, aggregator="linear",
                        training=training),
            seed=0,
        )
        logs = system.run(1, traced=True)
        test_data = {
            label: gen.sample(np.full(6, label), np.random.default_rng(label))
            for label in range(6)
        }
        teacher = build_teacher(
            logs, model, test_data, training,
            AttackConfig(granularity="cacheline", teacher_samples_per_label=2),
        )
        max_line = (model.num_params * 4) // 64
        for samples in teacher[0].values():
            for s in samples:
                assert all(0 <= i <= max_line for i in s)


class TestObserverRoundTripWithWrites:
    def test_write_set_subset_of_full_set(self):
        from repro.core.aggregation import aggregate_linear

        trace = Trace()
        updates = [LocalUpdate(0, np.asarray([1, 5]), np.asarray([1.0, 2.0]))]
        aggregate_linear(updates, 8, trace=trace)
        written = set(trace.offsets_array("g_star", op="write").tolist())
        assert written <= set(trace.offsets_array("g_star").tolist())
        assert written == {1, 5}
