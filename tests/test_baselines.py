"""Tests for baseline screening policies and the comparison harness."""

from __future__ import annotations

import pytest

from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    HonestBehavior,
    MisreportBehavior,
    SleeperBehavior,
)
from repro.baselines.base import PolicySimulation, ReputationPolicy
from repro.baselines.check_all import CheckAllPolicy
from repro.baselines.check_none import CheckNonePolicy
from repro.baselines.majority_vote import MajorityVotePolicy
from repro.baselines.no_reputation import UniformSelectionPolicy
from repro.baselines.static_trust import StaticTrustPolicy
from repro.core.game import PROVIDER
from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError


def simulation(behaviors, horizon=600, seed=3):
    return PolicySimulation(behaviors=behaviors, horizon=horizon, seed=seed)


def adversarial_mix():
    return [HonestBehavior()] * 3 + [AlwaysInvertBehavior()] * 5


class TestHarness:
    def test_stream_deterministic(self):
        s1 = simulation([HonestBehavior()] * 2).stream()
        s2 = simulation([HonestBehavior()] * 2).stream()
        assert s1 == s2

    def test_stream_identical_across_policies(self):
        """Different policies face the exact same adversary stream."""
        sim = simulation(adversarial_mix())
        a = sim.run(CheckAllPolicy())
        sim2 = simulation(adversarial_mix())
        b = sim2.run(CheckNonePolicy())
        assert a.transactions == b.transactions

    def test_invalid_horizon(self):
        with pytest.raises(ConfigurationError):
            PolicySimulation(behaviors=[HonestBehavior()], horizon=0)


class TestCheckAll:
    def test_no_mistakes_full_cost(self):
        stats = simulation(adversarial_mix()).run(CheckAllPolicy())
        assert stats.mistakes == 0
        assert stats.validations == stats.transactions
        assert stats.check_rate == 1.0


class TestCheckNone:
    def test_zero_cost_many_mistakes(self):
        stats = simulation(adversarial_mix()).run(CheckNonePolicy())
        assert stats.validations == 0
        # 5/8 inverters: roughly 62% of samples land on a liar.
        assert stats.mistake_rate > 0.3


class TestMajorityVote:
    def test_beats_minority_noise(self):
        behaviors = [HonestBehavior()] * 6 + [MisreportBehavior(0.5)] * 2
        stats = simulation(behaviors).run(MajorityVotePolicy())
        assert stats.mistake_rate < 0.02

    def test_loses_to_adversarial_majority(self):
        stats = simulation(adversarial_mix()).run(MajorityVotePolicy())
        assert stats.mistake_rate > 0.5


class TestUniformSelection:
    def test_worse_than_reputation_under_adversaries(self):
        params = ProtocolParams(f=0.7)
        rep = simulation(adversarial_mix()).run(
            ReputationPolicy(params=params, collector_ids=[f"c{i}" for i in range(8)])
        )
        unif = simulation(adversarial_mix()).run(UniformSelectionPolicy(params=params))
        assert rep.mistakes < unif.mistakes


class TestStaticTrust:
    def test_requires_nonempty_positive_trust(self):
        with pytest.raises(ConfigurationError):
            StaticTrustPolicy(params=ProtocolParams(), trust={})
        with pytest.raises(ConfigurationError):
            StaticTrustPolicy(params=ProtocolParams(), trust={"c0": 0.0})

    def test_good_audit_matches_reputation_roughly(self):
        # Frozen weights that already demote the inverters.
        params = ProtocolParams(f=0.7)
        trust = {f"c{i}": (1.0 if i < 3 else 1e-6) for i in range(8)}
        stats = simulation(adversarial_mix()).run(
            StaticTrustPolicy(params=params, trust=trust)
        )
        assert stats.mistake_rate < 0.05

    def test_sleeper_defeats_static_trust_but_not_reputation(self):
        params = ProtocolParams(f=0.7)
        def mix():
            return [HonestBehavior()] * 2 + [SleeperBehavior(100) for _ in range(6)]
        # Static trust frozen from the (honest-looking) audit window.
        trust = {f"c{i}": 1.0 for i in range(8)}
        static = simulation(mix(), horizon=1500).run(
            StaticTrustPolicy(params=params, trust=trust)
        )
        rep = simulation(mix(), horizon=1500).run(
            ReputationPolicy(params=params, collector_ids=[f"c{i}" for i in range(8)])
        )
        assert rep.mistakes < static.mistakes


class TestReputationPolicy:
    def test_learns_to_avoid_liars(self):
        params = ProtocolParams(f=0.7)
        policy = ReputationPolicy(
            params=params, collector_ids=[f"c{i}" for i in range(8)]
        )
        simulation(adversarial_mix(), horizon=2000).run(policy)
        weights = policy.book.weights_for(PROVIDER, policy.book.collectors())
        honest_w = [weights[f"c{i}"] for i in range(3)]
        liar_w = [weights[f"c{i}"] for i in range(3, 8)]
        assert min(honest_w) > max(liar_w) * 100

    def test_cheaper_than_check_all(self):
        params = ProtocolParams(f=0.7)
        rep = simulation(adversarial_mix()).run(
            ReputationPolicy(params=params, collector_ids=[f"c{i}" for i in range(8)])
        )
        all_ = simulation(adversarial_mix()).run(CheckAllPolicy())
        assert rep.validations < all_.validations
