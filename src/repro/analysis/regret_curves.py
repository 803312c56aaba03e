"""Regret-vs-horizon series for experiment E1.

Runs the reputation game across a horizon grid and multiple seeds,
collects mean regret per horizon, and checks the O(sqrt(T)) shape: the
log-log slope of regret vs T should be at most ~0.5 (plus noise), and
every point must sit below Theorem 1's explicit bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean
from typing import Callable, Sequence

from repro.agents.behaviors import CollectorBehavior
from repro.analysis.stats import loglog_slope
from repro.core.game import ReputationGame
from repro.core.regret import theorem1_bound
from repro.exceptions import ConfigurationError

__all__ = ["RegretPoint", "RegretCurve", "run_regret_curve"]


@dataclass(frozen=True)
class RegretPoint:
    """Mean measured quantities at one horizon."""

    horizon: int
    mean_expected_loss: float
    mean_s_min: float
    mean_regret: float
    bound_rhs: float

    @property
    def within_bound(self) -> bool:
        """Whether the measured loss respects Theorem 1's RHS."""
        return self.mean_expected_loss <= self.bound_rhs + 1e-9


@dataclass(frozen=True)
class RegretCurve:
    """The full series plus its scaling diagnosis."""

    points: tuple[RegretPoint, ...]

    @property
    def horizons(self) -> list[int]:
        """The swept T values."""
        return [p.horizon for p in self.points]

    @property
    def regrets(self) -> list[float]:
        """Mean regret per horizon."""
        return [p.mean_regret for p in self.points]

    def scaling_exponent(self) -> float:
        """Log-log slope of regret vs T (sqrt growth -> ~0.5)."""
        return loglog_slope(self.horizons, self.regrets)


def run_regret_curve(
    behavior_factory: Callable[[], Sequence[CollectorBehavior]],
    horizons: Sequence[int],
    seeds: Sequence[int],
    p_valid: float = 0.5,
    beta: float | None = None,
    reveal_lag: int = 0,
) -> RegretCurve:
    """Measure mean regret across ``horizons`` x ``seeds``.

    Args:
        behavior_factory: Builds a *fresh* behaviour list per run
            (stateful behaviours must not leak across runs).
        horizons: The T grid.
        seeds: Seeds averaged per horizon.
        p_valid: Transaction validity rate.
        beta: Fixed conceal discount, or None for the tuned schedule.
        reveal_lag: Truth-revelation latency in transactions.
    """
    if not horizons or not seeds:
        raise ConfigurationError("need at least one horizon and one seed")
    points = []
    for horizon in horizons:
        losses, s_mins, regrets, bounds = [], [], [], []
        for seed in seeds:
            behaviors = behavior_factory()
            game = ReputationGame(
                behaviors=behaviors,
                horizon=horizon,
                beta=beta,
                p_valid=p_valid,
                reveal_lag=reveal_lag,
                seed=seed,
            )
            result = game.run()
            losses.append(result.expected_loss)
            s_mins.append(result.s_min)
            regrets.append(result.regret)
            bounds.append(theorem1_bound(result.s_min, horizon, result.r))
        points.append(
            RegretPoint(
                horizon=horizon,
                mean_expected_loss=fmean(losses),
                mean_s_min=fmean(s_mins),
                mean_regret=fmean(regrets),
                bound_rhs=fmean(bounds),
            )
        )
    return RegretCurve(points=tuple(points))
