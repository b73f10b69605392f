"""Medical federated learning: the paper's motivating scenario.

Hospitals collaboratively train a diagnosis classifier without sharing
patient records (the Section 4.1 example: "when training federated
learning on medical image data such as breast cancer, the label of
cancer or not is very sensitive").  Each clinic treats only a few
diagnosis categories, so its *label set* reveals what conditions its
patients have -- exactly what the gradient-index side channel leaks.

This example models 24 clinics over a Purchase100-style binary tabular
feature space (600 clinical indicators, 20 diagnosis categories), runs
OLIVE with top-k sparsified uploads (bandwidth-constrained clinics),
tracks the client-level DP budget across rounds, and finally verifies
that a curious cloud operator watching the enclave learns nothing:
clinic observations under the oblivious aggregator are
indistinguishable.

Run:  python examples/medical_fl.py
"""

import numpy as np

from repro.attack import observe_round
from repro.core import OliveConfig, OliveSystem
from repro.fl import (
    DatasetSpec,
    SyntheticClassData,
    TrainingConfig,
    partition_clients,
)
from repro.fl.models import Sequential, mlp

N_CLINICS = 24
DIAGNOSES = 20
CLINICAL_FEATURES = 120   # summarised clinical indicators
CONDITIONS_PER_CLINIC = 3
ROUNDS = 8


def build_clinic_model(seed: int = 0) -> Sequential:
    return mlp(CLINICAL_FEATURES, 16, DIAGNOSES, np.random.default_rng(seed))


def main() -> None:
    print("== Federated diagnosis model across clinics (OLIVE) ==")
    spec = DatasetSpec("clinics", (CLINICAL_FEATURES,), DIAGNOSES,
                       "custom")
    gen = SyntheticClassData(spec, seed=0)
    clinics = partition_clients(
        gen, N_CLINICS, samples_per_client=60,
        labels_per_client=CONDITIONS_PER_CLINIC, fixed=False, seed=0,
    )
    print(f"{N_CLINICS} clinics; conditions treated per clinic: "
          f"{sorted({len(c.label_set) for c in clinics})}")

    model = build_clinic_model(seed=0)
    system = OliveSystem(
        model, clinics,
        OliveConfig(
            sample_rate=0.8,
            noise_multiplier=1.0,
            delta=1e-5,
            aggregator="advanced",
            group_size=8,               # Section 5.3 cache-friendly groups
            training=TrainingConfig(
                local_epochs=3, local_lr=0.3, batch_size=16,
                sparse_ratio=0.05,      # 95% bandwidth saving per upload
                clip=2.0,
            ),
        ),
        seed=11,
    )
    print(f"model: {system.d} parameters; uploads are top-5% sparsified "
          f"({int(np.ceil(0.05 * system.d))} weights each)")

    x_test, y_test = gen.balanced(25, np.random.default_rng(77))
    print(f"\ninitial accuracy: {system.evaluate(x_test, y_test):.3f} "
          f"(chance {1.0 / DIAGNOSES:.3f})")
    # Trace only the last round (traced element-level runs are slow;
    # the trace is shape-determined, so one round is representative).
    for log in system.run(ROUNDS - 1):
        print(f"round {log.round_index}: {len(log.participants):2d} clinics, "
              f"privacy spent epsilon = {log.epsilon:.3f}")
    log = system.run_round(traced=True)
    print(f"round {log.round_index}: {len(log.participants):2d} clinics, "
          f"privacy spent epsilon = {log.epsilon:.3f}")
    print(f"final accuracy:   {system.evaluate(x_test, y_test):.3f}")

    # What does the curious cloud operator see?
    print("\ncloud operator's view of the last round's aggregation:")
    obs = observe_round(system.history[-1])
    distinct = {frozenset(s) for s in obs.observed.values()}
    print(f"  per-clinic observed index sets: "
          f"{len(obs.observed)} clinics, {len(distinct)} distinct view(s)")
    assert len(distinct) <= 1, "oblivious aggregation must be uniform"
    print("  every clinic's contribution produced the identical access")
    print("  pattern: diagnosis specialties stay private.")


if __name__ == "__main__":
    main()
