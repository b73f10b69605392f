"""Settings of OLIVE's server-side Gaussian mechanism.

DP-FedAVG adds Gaussian noise calibrated to the per-client L2 clipping
bound C before releasing the averaged update (Algorithm 1 line 12):
``(sum_i Delta_i + N(0, (sigma * C)^2 I)) / (q N)``.  ``sigma`` is the
*noise multiplier* (noise stddev divided by the clip), the quantity the
moments accountant consumes.  The enclave draws the noise
(:meth:`repro.sgx.enclave.Enclave.gauss_vector`); this module checks
the settings and states the sensitivity.
"""

from __future__ import annotations


def validate_noise_config(
    noise_multiplier: float, expected_clients: int | None,
    *, sample_rate: float | None = None, delta: float | None = None,
) -> None:
    """Reject server DP settings that would run with a meaningless budget.

    A negative multiplier reports epsilon = inf while still training;
    ``0.0`` stays allowed as the explicit no-DP mode.  ``expected_clients``
    (the ``q N`` denominator) must be a positive count when set -- a
    falsy ``0`` must not silently fall back to the default.  When given,
    ``sample_rate`` must be in (0, 1] and ``delta`` in (0, 1): the
    accountant rejects anything else, and it only runs after a round
    has already released its update.
    """
    if not noise_multiplier >= 0.0:
        raise ValueError(
            f"noise_multiplier must be >= 0, got {noise_multiplier}")
    if expected_clients is not None and expected_clients < 1:
        raise ValueError(
            f"expected_clients must be >= 1 when set, got {expected_clients}")
    if sample_rate is not None and not 0.0 < sample_rate <= 1.0:
        raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")
    if delta is not None and not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


def sensitivity_of_mean(clip: float, denominator: float) -> float:
    """L2 sensitivity of the normalized sum to one client's presence."""
    return clip / denominator
