"""Differential privacy: noise-config validation, RDP (moments)
accountant, and the LDP / shuffle-model baselines for the Table 1
comparison."""

from .adaptive_clipping import AdaptiveClipper
from .accountant import (
    DEFAULT_ORDERS,
    PrivacyAccountant,
    compute_rdp,
    epsilon_for,
    noise_multiplier_for,
    rdp_to_dp,
)
from .ldp import (
    gaussian_ldp_sigma,
    local_epsilon_for_central,
    perturb_local,
    run_ldp_round,
    shuffle_amplified_epsilon,
)
from .mechanisms import (
    sensitivity_of_mean,
    validate_noise_config,
)

__all__ = [
    "AdaptiveClipper",
    "DEFAULT_ORDERS",
    "PrivacyAccountant",
    "compute_rdp",
    "epsilon_for",
    "gaussian_ldp_sigma",
    "local_epsilon_for_central",
    "noise_multiplier_for",
    "perturb_local",
    "rdp_to_dp",
    "run_ldp_round",
    "sensitivity_of_mean",
    "validate_noise_config",
    "shuffle_amplified_epsilon",
]
