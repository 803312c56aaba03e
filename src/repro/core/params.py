"""Protocol parameters and the paper's β/γ selection rules.

Section 3.4 introduces three tunables — ``f`` (efficiency), ``mu`` and
``nu`` (reward shaping) — plus the reputation discounts ``beta`` (for a
collector that *concealed* an unchecked transaction) and ``gamma_tx``
(for one that *mislabeled* it).  The discounts must satisfy

    beta**2  <=  gamma_tx  <=  beta  <=  (gamma_tx - 1) * L_tx / 2 + 1  <=  1

where ``L_tx = 2 * W_wrong / (W_right + W_wrong)`` is the governor's
expected loss on the transaction.  The paper's practical choice is

    gamma_tx = max{ (beta - 1) / L_tx + (beta + 1) / 2,  (beta**2 + beta) / 2 }

which we implement in :func:`gamma_for`; :func:`validate_discounts`
checks the full inequality chain so experiments can ablate *invalid*
choices knowingly.  :func:`tuned_beta` is the proof's
``beta = 1 - 4 * sqrt(log(r) / T)`` schedule that yields the
``O(sqrt(T))`` regret of Theorem 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = [
    "ProtocolParams",
    "gamma_for",
    "validate_discounts",
    "tuned_beta",
    "DEFAULT_PARAMS",
]


def gamma_for(beta: float, loss: float) -> float:
    """The paper's adaptive mislabel discount ``gamma_tx``.

    Args:
        beta: Conceal discount in (0, 1).
        loss: ``L_tx`` in [0, 2] — the expected loss on the transaction.

    Returns:
        ``max{(beta-1)/L + (beta+1)/2, (beta^2+beta)/2}``, which lies in
        (0, 1) for every ``beta`` in (0, 1) and ``L`` in (0, 2); at
        ``L == 0`` only the second branch is live (no one mislabeled, so
        the value is never applied anyway).
    """
    if not 0.0 < beta < 1.0:
        raise ConfigurationError(f"beta must be in (0, 1), got {beta}")
    if not 0.0 <= loss <= 2.0:
        raise ConfigurationError(f"L_tx must be in [0, 2], got {loss}")
    floor_branch = (beta * beta + beta) / 2.0
    if loss == 0.0:
        return floor_branch
    adaptive_branch = (beta - 1.0) / loss + (beta + 1.0) / 2.0
    return max(adaptive_branch, floor_branch)


def validate_discounts(beta: float, gamma: float, loss: float) -> None:
    """Check the paper's inequality chain for (beta, gamma, L_tx).

    Raises:
        ConfigurationError: when any link of
        ``beta^2 <= gamma <= beta <= (gamma-1)L/2 + 1 <= 1`` fails.
    """
    tol = 1e-12
    if beta * beta > gamma + tol:
        raise ConfigurationError(
            f"beta^2 = {beta * beta:.6f} > gamma = {gamma:.6f}"
        )
    if gamma > beta + tol:
        raise ConfigurationError(f"gamma = {gamma:.6f} > beta = {beta:.6f}")
    upper = (gamma - 1.0) * loss / 2.0 + 1.0
    if beta > upper + tol:
        raise ConfigurationError(
            f"beta = {beta:.6f} > (gamma-1)*L/2 + 1 = {upper:.6f} (L = {loss})"
        )
    if upper > 1.0 + tol:
        raise ConfigurationError(f"(gamma-1)*L/2 + 1 = {upper:.6f} > 1")


def tuned_beta(r: int, horizon: int) -> float:
    """The proof's schedule ``beta = 1 - 4*sqrt(log(r)/T)``, clamped.

    The Theorem-1 constant ``-log(beta)/(1-beta) <= 17/2 - 8*beta`` holds
    for ``beta`` in [0.1, 0.9], so the schedule is clamped to that
    interval.  The paper states the unclamped value stays <= 0.9 for
    ``T <= 4800`` at ``r = 8``; that arithmetic only works with base-2
    logarithms (``log2(8) = 3`` gives ``1600 * 3 = 4800``), so this
    schedule uses ``log2`` — the regret bound is unaffected up to its
    hidden constant.

    Args:
        r: Collectors overseeing the provider.
        horizon: ``T`` — unchecked transactions expected for the provider.
    """
    if r < 2:
        raise ConfigurationError(f"need r >= 2 collectors for a meaningful beta, got {r}")
    if horizon < 1:
        raise ConfigurationError(f"horizon T must be >= 1, got {horizon}")
    raw = 1.0 - 4.0 * math.sqrt(math.log2(r) / horizon)
    return min(max(raw, 0.1), 0.9)


@dataclass(frozen=True)
class ProtocolParams:
    """Everything a protocol run is parameterised by.

    Attributes:
        f: Efficiency tuner in (0, 1); the probability that an
            invalid-labeled transaction sampled from collector ``c`` is
            left unchecked is ``f * Pr[c chosen]``, so the overall
            unchecked probability is at most ``f`` (Lemma 2).
        beta: Conceal discount in (0, 1).
        mu: Reward base for the misreport entry (> 1).
        nu: Reward base for the forge entry (> 1).
        argue_window: ``U`` — an unchecked-invalid transaction may be
            argued until buried by more than U same-state transactions.
        b_limit: Universal bound on transactions per block.
        delta: Screening timer — the max spread between the first and
            last collector report for one transaction (network synchrony
            gives a finite bound).
        initial_reputation: Starting weight of every first-s entry
            (the proof normalises to 1, giving ``W_0 = r``).
        reward_pool_per_block: Profit allotted to collectors per block.
    """

    f: float = 0.5
    beta: float = 0.9
    mu: float = 2.0
    nu: float = 4.0
    argue_window: int = 64
    b_limit: int = 1024
    delta: float = 0.2
    initial_reputation: float = 1.0
    reward_pool_per_block: float = 100.0

    def __post_init__(self) -> None:
        if not 0.0 < self.f < 1.0:
            raise ConfigurationError(f"f must be in (0, 1), got {self.f}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigurationError(f"beta must be in (0, 1), got {self.beta}")
        if self.mu <= 1.0:
            raise ConfigurationError(f"mu must be > 1, got {self.mu}")
        if self.nu <= 1.0:
            raise ConfigurationError(f"nu must be > 1, got {self.nu}")
        if self.argue_window < 1:
            raise ConfigurationError(f"argue window U must be >= 1, got {self.argue_window}")
        if self.b_limit < 1:
            raise ConfigurationError(f"b_limit must be >= 1, got {self.b_limit}")
        if self.delta <= 0.0:
            raise ConfigurationError(f"delta must be positive, got {self.delta}")
        if self.initial_reputation <= 0.0:
            raise ConfigurationError(
                f"initial reputation must be positive, got {self.initial_reputation}"
            )
        if self.reward_pool_per_block < 0.0:
            raise ConfigurationError("reward pool cannot be negative")

#: Sensible defaults used by examples and quick tests.
DEFAULT_PARAMS = ProtocolParams()
