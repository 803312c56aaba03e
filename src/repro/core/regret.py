"""The paper's analytical bounds, as executable formulas (Section 4).

These functions compute the *right-hand sides* the experiments compare
measured losses against:

* :func:`rwm_bound` — the pre-optimisation Theorem-1 chain
  ``L_T <= 2 log(r) / (1 - beta) - 2 log(beta) / (1 - beta) * S_min``;
* :func:`theorem1_bound` — the tuned form ``S_min + 16 sqrt(log(r) T)``
  under ``beta = 1 - 4 sqrt(log(r)/T)``;
* :func:`hoeffding_tail` — Theorem 3's ``exp(-2 delta^2 N)``;
* :func:`theorem4_bound` — the end-to-end ``S + 16 sqrt(log(r) (f+delta) N)``.

All logarithms are natural, matching the analysis.
"""

from __future__ import annotations

import math

from repro.exceptions import ConfigurationError

__all__ = [
    "rwm_bound",
    "theorem1_bound",
    "theorem1_constant",
    "hoeffding_tail",
    "theorem3_threshold",
    "theorem4_bound",
]


def _check_r(r: int) -> None:
    if r < 2:
        raise ConfigurationError(f"bounds need r >= 2 collectors, got {r}")


def rwm_bound(s_min: float, r: int, beta: float) -> float:
    """The generic weighted-majority bound for a fixed ``beta``.

    ``L_T <= 2/(1-beta) * log(r) - 2*log(beta)/(1-beta) * S_min``.
    """
    _check_r(r)
    if not 0.0 < beta < 1.0:
        raise ConfigurationError(f"beta must be in (0, 1), got {beta}")
    return (2.0 * math.log(r) - 2.0 * math.log(beta) * s_min) / (1.0 - beta)


def theorem1_constant() -> float:
    """The constant 16 in ``L_T <= S_min + 16 sqrt(log(r) T)``."""
    return 16.0


def theorem1_bound(s_min: float, horizon: int, r: int) -> float:
    """Theorem 1's RHS: ``S_min + 16 sqrt(log(r) * T)``.

    Valid whenever the tuned ``beta = 1 - 4 sqrt(log(r)/T)`` lands in
    [0.1, 0.9] (the paper notes T <= 4800 suffices at r = 8; large T is
    also fine since beta then approaches 1 from below until the clamp).
    """
    _check_r(r)
    if horizon < 1:
        raise ConfigurationError(f"horizon T must be >= 1, got {horizon}")
    return s_min + theorem1_constant() * math.sqrt(math.log(r) * horizon)


def hoeffding_tail(n: int, delta: float) -> float:
    """Theorem 3's tail probability ``exp(-2 delta^2 N)``."""
    if n < 1:
        raise ConfigurationError(f"N must be >= 1, got {n}")
    if delta <= 0:
        raise ConfigurationError(f"delta must be positive, got {delta}")
    return math.exp(-2.0 * delta * delta * n)


def theorem3_threshold(n: int, f: float, delta: float) -> float:
    """The count threshold ``(f + delta) N`` from Theorem 3."""
    if not 0.0 < f < 1.0:
        raise ConfigurationError(f"f must be in (0, 1), got {f}")
    return (f + delta) * n


def theorem4_bound(s: float, n: int, f: float, delta: float, r: int) -> float:
    """Theorem 4's RHS: ``S + 16 sqrt(log(r) * (f + delta) * N)``.

    The unchecked-transaction count concentrates below ``(f + delta) N``
    (Theorem 3), and Theorem 1 applied to that many transactions gives
    the ``O(sqrt((f + delta) N))`` regret term.
    """
    _check_r(r)
    if n < 1:
        raise ConfigurationError(f"N must be >= 1, got {n}")
    effective_t = theorem3_threshold(n, f, delta)
    return s + theorem1_constant() * math.sqrt(math.log(r) * max(effective_t, 1.0))
