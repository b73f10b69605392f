"""LDP-FL and Shuffle-DP-FL baselines (Table 1 comparison).

OLIVE's headline claim is ``OLIVE = CDP-FL`` in utility while matching
LDP-FL's trust model; the comparison schemes are:

* **LDP-FL** -- every client perturbs its own clipped update with a
  Gaussian calibrated so *each client's report alone* satisfies
  ``(epsilon_0, delta_0)``-LDP.  For a fixed central budget, the
  per-client sigma is ~sqrt(n) larger than the central sigma, drowning
  the signal unless n is enormous.
* **Shuffle-DP-FL** -- clients apply weaker local noise and a trusted
  shuffler anonymizes the batch; privacy amplification by shuffling
  converts ``epsilon_0``-LDP reports into a much smaller central
  epsilon.  We use the closed-form "privacy blanket / clones" style
  upper bound, which captures the paper's qualitative point: the
  amplified budget still cannot beat CDP, and degrades when n is small.

:func:`run_ldp_round` runs one round of either scheme; the two differ
only in the local sigma they are calibrated to.
"""

from __future__ import annotations

import math

import numpy as np

from ..fl.client import TrainingConfig, train_stack
from ..fl.datasets import ClientData
from ..fl.models import Sequential


def gaussian_ldp_sigma(epsilon: float, delta: float) -> float:
    """Classic Gaussian-mechanism sigma for one (sensitivity-1) report."""
    if epsilon <= 0 or not 0 < delta < 1:
        raise ValueError("need epsilon > 0 and delta in (0, 1)")
    return math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def perturb_local(
    values: np.ndarray, clip: float, epsilon: float, delta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Client-side Gaussian perturbation for LDP-FL."""
    sigma = gaussian_ldp_sigma(epsilon, delta) * clip
    return values + rng.normal(0.0, sigma, size=values.shape)


def shuffle_amplified_epsilon(
    local_epsilon: float, n: int, delta: float
) -> float:
    """Central epsilon after shuffling n epsilon_0-LDP reports.

    Closed-form upper bound in the style of Feldman-McMillan-Talwar
    ("hiding among clones"):

        eps_c = log(1 + (e^{eps0} - 1) *
                     (4 sqrt(2 log(4/delta) / ((e^{eps0}+1) n)) + 4/n))

    Valid for n large enough that the inner term is < 1; we clamp at
    ``local_epsilon`` since shuffling never hurts.
    """
    if local_epsilon <= 0 or n < 1 or not 0 < delta < 1:
        raise ValueError("invalid amplification parameters")
    e0 = math.expm1(local_epsilon)  # e^{eps0} - 1
    inner = (
        4.0 * math.sqrt(2.0 * math.log(4.0 / delta) /
                        ((math.exp(local_epsilon) + 1.0) * n))
        + 4.0 / n
    )
    amplified = math.log1p(e0 * inner)
    return min(amplified, local_epsilon)


def local_epsilon_for_central(
    target_epsilon: float, n: int, delta: float, tolerance: float = 1e-4
) -> float:
    """Largest local epsilon whose amplified central budget fits the target.

    Bisection on the monotone amplification bound; this is how the
    Shuffle-DP-FL baseline calibrates its per-client noise.
    """
    if target_epsilon <= 0:
        raise ValueError("target epsilon must be positive")
    lo, hi = 1e-6, 1e-6
    while shuffle_amplified_epsilon(hi, n, delta) < target_epsilon:
        hi *= 2.0
        if hi > 1e3:
            return hi  # amplification saturated; target trivially met
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if shuffle_amplified_epsilon(mid, n, delta) < target_epsilon:
            lo = mid
        else:
            hi = mid
    return lo


def run_ldp_round(
    model: Sequential,
    global_weights: np.ndarray,
    participants: list[ClientData],
    training: TrainingConfig,
    local_sigma: float,
    rng: np.random.Generator,
    server_lr: float = 1.0,
) -> np.ndarray:
    """One LDP/Shuffle-style round: dense local perturbation, plain mean.

    Each client clips its dense delta to the training clip bound and
    adds ``N(0, (local_sigma * clip)^2)`` per coordinate before sending;
    the server (or shuffler output) is simply averaged.  Used by the
    Table 1 utility comparison.  Clients train one after another on
    ``model`` itself (its dropout Generator carries across clients),
    drawing batch order and noise from the shared ``rng``.
    """
    d = global_weights.size
    aggregate = np.zeros(d)
    for data in participants:
        model.set_flat(global_weights)
        train_stack(model, data.x[None], data.y[None], training, [rng])
        delta = model.get_flat() - global_weights
        norm = np.linalg.norm(delta)
        if norm > training.clip:
            delta = delta * (training.clip / norm)
        noisy = delta + rng.normal(0.0, local_sigma * training.clip, size=d)
        aggregate += noisy
    mean_update = aggregate / max(len(participants), 1)
    return global_weights + server_lr * mean_update
