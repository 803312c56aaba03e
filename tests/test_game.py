"""Tests for the Theorem-1 reputation game, including the regret bound."""

from __future__ import annotations

import pytest

from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    ConcealBehavior,
    HonestBehavior,
    MisreportBehavior,
    SleeperBehavior,
)
from repro.core.game import ReputationGame
from repro.core.regret import rwm_bound
from repro.exceptions import ConfigurationError


def mixed_behaviors():
    return [
        HonestBehavior(),
        HonestBehavior(),
        MisreportBehavior(0.3),
        ConcealBehavior(0.3),
        AlwaysInvertBehavior(),
        AlwaysInvertBehavior(),
        MisreportBehavior(0.7),
        ConcealBehavior(0.7),
    ]


class TestConstruction:
    def test_needs_two_collectors(self):
        with pytest.raises(ConfigurationError):
            ReputationGame([HonestBehavior()], horizon=10)

    def test_bad_horizon(self):
        with pytest.raises(ConfigurationError):
            ReputationGame([HonestBehavior()] * 2, horizon=0)

    def test_bad_p_valid(self):
        with pytest.raises(ConfigurationError):
            ReputationGame([HonestBehavior()] * 2, horizon=10, p_valid=1.5)

    def test_bad_selection(self):
        with pytest.raises(ConfigurationError):
            ReputationGame([HonestBehavior()] * 2, horizon=10, selection="magic")


class TestBasicDynamics:
    def test_all_honest_zero_loss(self):
        game = ReputationGame([HonestBehavior()] * 4, horizon=200, seed=1)
        result = game.run()
        assert result.expected_loss == 0.0
        assert result.realized_loss == 0.0
        assert result.s_min == 0.0
        assert all(w == 1.0 for w in result.final_weights.values())

    def test_deterministic_in_seed(self):
        r1 = ReputationGame(mixed_behaviors(), horizon=100, seed=3).run()
        r2 = ReputationGame(mixed_behaviors(), horizon=100, seed=3).run()
        assert r1.expected_loss == r2.expected_loss
        assert r1.final_weights == r2.final_weights

    def test_different_seeds_differ(self):
        r1 = ReputationGame(mixed_behaviors(), horizon=200, seed=3).run()
        r2 = ReputationGame(mixed_behaviors(), horizon=200, seed=4).run()
        assert r1.expected_loss != r2.expected_loss

    def test_inverter_weight_collapses(self):
        game = ReputationGame(
            [HonestBehavior(), AlwaysInvertBehavior()], horizon=300, seed=2
        )
        result = game.run()
        assert result.final_weights["c1"] < 1e-3
        assert result.final_weights["c0"] == 1.0

    def test_concealer_discounted_by_beta(self):
        game = ReputationGame(
            [HonestBehavior(), ConcealBehavior(1.0)], horizon=50, beta=0.9, seed=2
        )
        result = game.run()
        assert result.final_weights["c1"] == pytest.approx(0.9**50, rel=1e-9)

    def test_collector_losses_accounting(self):
        # Deterministic behaviours: inverter loses 2/tx, concealer 1/tx.
        game = ReputationGame(
            [HonestBehavior(), AlwaysInvertBehavior(), ConcealBehavior(1.0)],
            horizon=40,
            seed=2,
        )
        result = game.run()
        assert result.collector_losses["c0"] == 0.0
        assert result.collector_losses["c1"] == 80.0
        assert result.collector_losses["c2"] == 40.0
        assert min(result.collector_losses, key=result.collector_losses.get) == "c0"


class TestTheorem1:
    @pytest.mark.parametrize("horizon", [100, 400, 1600])
    def test_loss_within_bound(self, horizon):
        result = ReputationGame(mixed_behaviors(), horizon=horizon, seed=7).run()
        assert result.expected_loss <= result.theorem1_rhs()

    def test_loss_within_rwm_bound_fixed_beta(self):
        result = ReputationGame(
            mixed_behaviors(), horizon=800, beta=0.5, seed=7
        ).run()
        assert result.expected_loss <= rwm_bound(result.s_min, result.r, result.beta)

    def test_regret_sublinear(self):
        r_small = ReputationGame(mixed_behaviors(), horizon=200, seed=9).run()
        r_large = ReputationGame(mixed_behaviors(), horizon=3200, seed=9).run()
        # 16x the horizon must yield far less than 16x the regret.
        assert r_large.regret < 16 * max(r_small.regret, 1.0) / 2

    def test_sleeper_damage_bounded(self):
        """Reputation farming cannot break the bound."""
        behaviors = [HonestBehavior()] + [SleeperBehavior(100) for _ in range(7)]
        result = ReputationGame(behaviors, horizon=2000, seed=5).run()
        assert result.expected_loss <= result.theorem1_rhs()
        # Sleepers end up with negligible weight.
        assert all(result.final_weights[f"c{i}"] < 1e-6 for i in range(1, 8))


class TestRevealLag:
    def test_lag_slows_but_does_not_break_learning(self):
        immediate = ReputationGame(
            mixed_behaviors(), horizon=1000, seed=11, reveal_lag=0
        ).run()
        lagged = ReputationGame(
            mixed_behaviors(), horizon=1000, seed=11, reveal_lag=50
        ).run()
        # The lagged run can only be worse (or equal), but must stay bounded.
        assert lagged.expected_loss >= immediate.expected_loss - 1e-9
        assert lagged.expected_loss <= lagged.theorem1_rhs()

    def test_all_reveals_flushed_at_end(self):
        game = ReputationGame(
            [HonestBehavior(), ConcealBehavior(1.0)],
            horizon=20,
            beta=0.9,
            seed=2,
            reveal_lag=1000,  # longer than the horizon
        )
        result = game.run()
        # Every concealment still discounted at flush time.
        assert result.final_weights["c1"] == pytest.approx(0.9**20, rel=1e-9)


class TestSelectionAblation:
    def test_uniform_selection_suffers_against_inverters(self):
        behaviors = [HonestBehavior()] * 2 + [AlwaysInvertBehavior()] * 6
        prop = ReputationGame(
            behaviors, horizon=1500, seed=13, selection="proportional"
        ).run()
        behaviors2 = [HonestBehavior()] * 2 + [AlwaysInvertBehavior()] * 6
        unif = ReputationGame(
            behaviors2, horizon=1500, seed=13, selection="uniform"
        ).run()
        # Uniform keeps sampling the lying majority: linear loss.
        assert unif.expected_loss > 5 * prop.expected_loss

    def test_greedy_selection_runs(self):
        result = ReputationGame(
            mixed_behaviors(), horizon=200, seed=3, selection="greedy"
        ).run()
        assert result.expected_loss >= 0.0


class TestWeightedMajorityVariant:
    def test_wmajority_runs_and_learns(self):
        behaviors = [HonestBehavior()] * 2 + [AlwaysInvertBehavior()] * 6
        result = ReputationGame(
            behaviors, horizon=800, seed=3, selection="wmajority"
        ).run()
        # Deterministic WM eventually follows the honest pair once the
        # inverters' mass falls below half.
        assert result.final_weights["c2"] < 1e-3
        assert result.expected_loss < 800  # far below always-wrong

    def test_wmajority_vs_rwm_same_adversary(self):
        behaviors = lambda: [HonestBehavior()] * 2 + [AlwaysInvertBehavior()] * 6
        wm = ReputationGame(
            behaviors(), horizon=800, seed=3, selection="wmajority"
        ).run()
        rwm = ReputationGame(
            behaviors(), horizon=800, seed=3, selection="proportional"
        ).run()
        # Both are sublinear; WM pays the full loss-2 until the majority
        # flips, RWM pays in expectation from the start — both bounded.
        assert wm.expected_loss <= wm.theorem1_rhs() * 2
        assert rwm.expected_loss <= rwm.theorem1_rhs()
