"""RDP accountant for the subsampled Gaussian mechanism.

The paper quantifies the ``(epsilon, delta)``-DP of the trained model
with the moments accountant (Abadi et al.), whose modern formulation is
Renyi DP of the Poisson-subsampled Gaussian (Mironov et al.).  This
module implements:

* :func:`compute_rdp` -- RDP at integer orders alpha of one subsampled
  Gaussian step with sampling rate q and noise multiplier sigma, via the
  exact binomial expansion
  ``A(alpha) = sum_i C(alpha,i) (1-q)^(alpha-i) q^i exp(i(i-1)/(2 sigma^2))``,
  times the number of steps;
* :func:`rdp_to_dp` -- conversion to ``(epsilon, delta)`` by minimizing
  ``rdp(alpha) + log(1/delta)/(alpha-1)`` over orders;
* :class:`PrivacyAccountant` -- accumulates rounds and reports the
  current client-level budget.

The one-round curve (RDP at every order for one ``(q, sigma)``) costs
a few thousand binomial terms and is the same every round, so
``_unit_rdp`` memoizes it on its pure inputs; ``steps`` rounds are the
cached curve times ``steps``.  An epsilon read is then O(orders)
arithmetic over cached curves.  Each order's terms are summed with one
array ``logsumexp`` whose float operations match the scalar
term-by-term loop kept in ``tests/oracles.py``, so every epsilon is
bit-identical to it -- the audit replay compares epsilons exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 64)) + (
    64, 80, 96, 128, 192, 256, 512,
)


# Bound on the number of cached one-step curves.  Realized-cohort
# accounting can see up to N + 1 distinct rates (survivors / N) and
# noise_multiplier_for bisects over ~20 sigmas; one curve is 69 floats,
# so a full cache stays around a few MB.
_CURVE_CACHE_SIZE = 1024


def _log_a(q: float, sigma: float, alpha: int) -> float:
    """log A(alpha) for integer alpha >= 2 (Mironov et al., eq. for
    the Poisson-subsampled Gaussian).

    All ``alpha + 1`` binomial terms are formed in one array expression
    whose element-wise float operations match the term-by-term sum of
    the scalar reference (``tests/oracles.py``), so the result is
    bit-identical to it.  The ``logsumexp`` stays one call per order: a
    padded 2-D reduction is faster but rounds differently in the last
    bit, which would break replay of recorded audit logs.
    """
    i = np.arange(alpha + 1)
    log_q = math.log(q)
    log_1mq = math.log1p(-q)
    log_binom = gammaln(alpha + 1) - gammaln(i + 1) - gammaln(alpha - i + 1)
    terms = (
        log_binom
        + i * log_q
        + (alpha - i) * log_1mq
        + (i * i - i) / (2.0 * sigma * sigma)
    )
    return float(logsumexp(terms))


@lru_cache(maxsize=_CURVE_CACHE_SIZE)
def _unit_rdp(
    q: float, sigma: float, orders: tuple[int, ...]
) -> tuple[float, ...]:
    """RDP of one subsampled-Gaussian round at each order (memoized).

    Keyed only on the pure inputs: accountants read their curves from
    here rather than caching their own epsilon, because a checkpoint
    restore assigns the ledger fields directly.
    """
    if q == 1.0:
        # Unsubsampled Gaussian: RDP(alpha) = alpha / (2 sigma^2).
        return tuple(alpha / (2.0 * sigma**2) for alpha in orders)
    return tuple(_log_a(q, sigma, alpha) / (alpha - 1) for alpha in orders)


def compute_rdp(
    q: float, noise_multiplier: float, steps: int,
    orders: Sequence[int] = DEFAULT_ORDERS,
) -> list[float]:
    """RDP of ``steps`` subsampled-Gaussian rounds at each order."""
    if not 0.0 < q <= 1.0:
        raise ValueError("sampling rate must be in (0, 1]")
    if noise_multiplier <= 0 or noise_multiplier * noise_multiplier == 0.0:
        # The second clause catches subnormal sigmas whose square
        # underflows to zero: no meaningful guarantee either way.
        raise ValueError("noise multiplier must be positive for accounting")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    orders = tuple(orders)
    if any(alpha < 2 for alpha in orders):
        raise ValueError("orders must be integers >= 2")
    return [u * steps for u in _unit_rdp(q, noise_multiplier, orders)]


def rdp_to_dp(
    rdp: Sequence[float], orders: Sequence[int], delta: float
) -> tuple[float, int]:
    """Best ``(epsilon, order)`` at the target delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    best_eps = math.inf
    best_order = orders[0]
    for eps_alpha, alpha in zip(rdp, orders):
        eps = eps_alpha + math.log(1.0 / delta) / (alpha - 1)
        if eps < best_eps:
            best_eps = eps
            best_order = alpha
    return best_eps, best_order


def epsilon_for(
    q: float, noise_multiplier: float, steps: int, delta: float,
    orders: Sequence[int] = DEFAULT_ORDERS,
) -> float:
    """Convenience: epsilon after ``steps`` rounds at the target delta."""
    rdp = compute_rdp(q, noise_multiplier, steps, orders)
    eps, _ = rdp_to_dp(rdp, orders, delta)
    return eps


def noise_multiplier_for(
    q: float, steps: int, target_epsilon: float, delta: float,
    orders: Sequence[int] = DEFAULT_ORDERS,
    tolerance: float = 1e-3,
) -> float:
    """Smallest sigma achieving the target budget (bisection search)."""
    if target_epsilon <= 0:
        raise ValueError("target epsilon must be positive")
    lo, hi = 1e-2, 1.0
    while epsilon_for(q, hi, steps, delta, orders) > target_epsilon:
        hi *= 2.0
        if hi > 1e4:
            raise RuntimeError("target budget unreachable")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if epsilon_for(q, mid, steps, delta, orders) > target_epsilon:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass
class PrivacyAccountant:
    """Accumulates per-round RDP and reports the running budget.

    Two kinds of rounds compose (RDP adds across mechanisms):

    * :meth:`step` -- a round at the *configured* sampling rate (the
      paper's fixed-q accounting);
    * :meth:`step_realized` -- a round charged at the cohort fraction
      that actually survived (dropouts, stragglers, rejections), used
      by the cohort runtime under fault injection.
    """

    sampling_rate: float
    noise_multiplier: float
    delta: float
    orders: tuple[int, ...] = DEFAULT_ORDERS
    steps: int = field(default=0)
    realized_rates: list[float] = field(default_factory=list)

    def step(self, rounds: int = 1) -> None:
        """Consume one (or more) subsampled-Gaussian rounds."""
        self.steps += rounds

    def step_realized(self, realized_rate: float) -> None:
        """Consume one round at the *realized* cohort fraction.

        ``realized_rate`` is survivors / N.  A round where nobody
        survived releases only data-independent noise and costs no
        budget (q = 0 contributes zero RDP), so it is recorded as 0
        and skipped in the epsilon computation.
        """
        if not 0.0 <= realized_rate <= 1.0:
            raise ValueError("realized rate must be in [0, 1]")
        self.realized_rates.append(float(realized_rate))

    @property
    def total_steps(self) -> int:
        """All rounds consumed, fixed-rate and realized alike."""
        return self.steps + len(self.realized_rates)

    @property
    def epsilon(self) -> float:
        """Current (epsilon, delta)-DP budget at the configured delta.

        Recomputed from the ledger on every read (callers may assign
        ``steps`` / ``realized_rates`` directly), over the cached
        one-round curves: O(orders) arithmetic per distinct rate.
        """
        realized = [q for q in self.realized_rates if q > 0.0]
        if self.steps == 0 and not realized:
            return 0.0
        if (self.noise_multiplier <= 0
                or self.noise_multiplier * self.noise_multiplier == 0.0):
            # Noiseless (or underflowing-sigma) runs: no DP guarantee.
            return math.inf
        total_rdp = [0.0] * len(self.orders)
        if self.steps:
            rdp = compute_rdp(
                self.sampling_rate, self.noise_multiplier, self.steps,
                self.orders,
            )
            total_rdp = [a + b for a, b in zip(total_rdp, rdp)]
        # Group realized rounds by rate: RDP composes additively, and
        # equal-rate rounds share one compute_rdp call.
        for q, count in Counter(realized).items():
            rdp = compute_rdp(q, self.noise_multiplier, count, self.orders)
            total_rdp = [a + b for a, b in zip(total_rdp, rdp)]
        eps, _ = rdp_to_dp(total_rdp, self.orders, self.delta)
        return eps
