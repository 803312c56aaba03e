"""Collector churn on a reputation book, seen through the reputation policy.

``ReputationBook.readmit_collector`` / ``retire_collector`` are the
churn rule the engines' lifecycle runs; here they act on the one-provider
book of E8's :class:`~repro.baselines.base.ReputationPolicy`, whose
screen must keep working as its roster changes.
"""

from __future__ import annotations

import pytest

from repro.agents.behaviors import AlwaysInvertBehavior, HonestBehavior
from repro.baselines.base import PolicySimulation, ReputationPolicy
from repro.core.game import PROVIDER
from repro.core.params import ProtocolParams
from repro.exceptions import ProtocolViolationError
from repro.ledger.transaction import Label
from repro.rng import default_rng


def make_policy(ids=("c0", "c1", "c2"), f=0.7):
    return ReputationPolicy(
        params=ProtocolParams(f=f), collector_ids=list(ids)
    )


def seed_weights(policy, weights):
    for cid, weight in weights.items():
        policy.book.vector(cid).provider_weights[PROVIDER] = weight


def admit(policy, cid):
    policy.book.readmit_collector(cid, (PROVIDER,))
    policy.collector_ids = tuple(policy.book.collectors())


def retire(policy, cid):
    policy.book.retire_collector(cid)
    policy.collector_ids = tuple(policy.book.collectors())


def weight(policy, cid):
    return policy.book.vector(cid).provider_weights[PROVIDER]


class TestAddCollector:
    def test_median_bootstrap(self):
        policy = make_policy()
        seed_weights(policy, {"c0": 1.0, "c1": 0.5, "c2": 0.01})
        admit(policy, "c9")
        assert weight(policy, "c9") == pytest.approx(0.5)
        assert "c9" in policy.collector_ids

    def test_initial_bootstrap(self):
        """With no incumbent left to take a median of, the newcomer
        starts at genesis trust."""
        policy = make_policy()
        seed_weights(policy, {"c0": 1e-9, "c1": 1e-9, "c2": 1e-9})
        for cid in ("c0", "c1", "c2"):
            retire(policy, cid)
        admit(policy, "c9")
        assert weight(policy, "c9") == policy.params.initial_reputation

    def test_duplicate_rejected(self):
        with pytest.raises(ProtocolViolationError):
            admit(make_policy(), "c0")


class TestRetireCollector:
    def test_retire_removes_from_selection(self):
        policy = make_policy()
        retire(policy, "c1")
        assert "c1" not in policy.collector_ids
        with pytest.raises(ProtocolViolationError):
            retire(policy, "c1")

    def test_labels_from_retired_collectors_ignored(self, rng):
        policy = make_policy()
        retire(policy, "c0")
        decision = policy.screen({"c0": Label.INVALID, "c1": Label.VALID}, rng)
        # c0's label cannot be drawn; only c1 remains.
        assert decision.recorded_label is Label.VALID

    def test_all_reporters_retired_falls_back_to_check(self, rng):
        policy = make_policy()
        for cid in ("c0", "c1", "c2"):
            retire(policy, cid)
        decision = policy.screen({"c0": Label.INVALID}, rng)
        assert decision.checked

    def test_on_truth_tolerates_retired_labels(self):
        policy = make_policy()
        retire(policy, "c2")
        # A reveal referencing the retired collector must not crash.
        policy.on_truth(
            {"c0": Label.VALID, "c2": Label.INVALID}, Label.VALID, was_checked=False
        )
        assert weight(policy, "c0") == 1.0


class TestChurnMidStream:
    def test_newcomer_integrates_into_running_policy(self):
        """Run against inverters, then admit an honest newcomer: the
        policy keeps working and the newcomer's median weight beats the
        demoted inverters, so selection shifts toward it."""
        policy = ReputationPolicy(
            params=ProtocolParams(f=0.7),
            collector_ids=[f"c{i}" for i in range(4)],
        )
        behaviors = [HonestBehavior()] + [AlwaysInvertBehavior()] * 3
        sim = PolicySimulation(behaviors, horizon=600, seed=9)
        sim.run(policy, policy_seed=10)
        inverter_weight = max(weight(policy, f"c{i}") for i in (1, 2, 3))
        admit(policy, "fresh")
        assert weight(policy, "fresh") >= inverter_weight
        # The policy still screens correctly with the extended roster.
        rng = default_rng(11)
        decision = policy.screen(
            {"c0": Label.VALID, "fresh": Label.VALID}, rng
        )
        assert decision.checked
