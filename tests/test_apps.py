"""Tests for the car-sharing and insurance application domains."""

from __future__ import annotations

import pytest

from repro.agents.behaviors import MisreportBehavior
from repro.apps.carsharing import CarSharingMarket, GreedyDispatcher, RideRequest
from repro.apps.insurance import (
    CommissionBiasedAgent,
    HealthRecord,
    InsuranceAlliance,
)
from repro.exceptions import ConfigurationError
from repro.ledger.transaction import Label


class TestRideRequest:
    def test_payload_roundtrip(self):
        req = RideRequest(
            rider="p0", pickup=(1.0, 2.0), dropoff=(3.0, 4.0), fare=9.5, funded=False
        )
        payload = req.as_payload()
        assert payload["rider"] == "p0"
        assert payload["funded"] is False


class TestGreedyDispatcher:
    def test_nearest_willing_driver_wins(self):
        dispatcher = GreedyDispatcher(
            driver_positions={"d_near": (0.0, 0.0), "d_far": (9.0, 9.0)}
        )
        req = RideRequest("p0", (1.0, 0.0), (2.0, 2.0), 5.0, True)
        labels = {"d_near": Label.VALID, "d_far": Label.VALID}
        assignment = dispatcher.assign([(req, labels)])
        assert assignment[0] == "d_near"

    def test_unwilling_driver_skipped(self):
        dispatcher = GreedyDispatcher(
            driver_positions={"d_near": (0.0, 0.0), "d_far": (9.0, 9.0)}
        )
        req = RideRequest("p0", (1.0, 0.0), (2.0, 2.0), 5.0, True)
        labels = {"d_near": Label.INVALID, "d_far": Label.VALID}
        assert dispatcher.assign([(req, labels)])[0] == "d_far"

    def test_capacity_respected(self):
        dispatcher = GreedyDispatcher(driver_positions={"d": (0.0, 0.0)}, capacity=1)
        req1 = RideRequest("p0", (1.0, 0.0), (2.0, 2.0), 5.0, True)
        req2 = RideRequest("p1", (1.0, 1.0), (2.0, 2.0), 5.0, True)
        labels = {"d": Label.VALID}
        assignment = dispatcher.assign([(req1, labels), (req2, labels)])
        assert assignment[0] == "d"
        assert assignment[1] is None


class TestCarSharingMarket:
    def test_market_runs_and_assigns(self):
        market = CarSharingMarket(seed=1)
        for _ in range(3):
            market.run_round(12)
        report = market.report()
        assert report.requests_offered == 36
        assert report.requests_on_chain > 0
        assert 0.0 < report.assignment_rate <= 1.0

    def test_dishonest_drivers_earn_less(self):
        market = CarSharingMarket(
            dishonest_drivers={"c0": MisreportBehavior(0.7)}, seed=2
        )
        for _ in range(10):
            market.run_round(16)
        report = market.report()
        per_honest = report.honest_driver_revenue / 7
        assert report.dishonest_driver_revenue < per_honest

    def test_unknown_dishonest_driver_rejected(self):
        with pytest.raises(ConfigurationError):
            CarSharingMarket(dishonest_drivers={"cX": MisreportBehavior(0.5)})

    def test_invalid_unfunded_rate(self):
        with pytest.raises(ConfigurationError):
            CarSharingMarket(unfunded_rate=1.5)


class TestCommissionBiasedAgent:
    def test_whitewashes_invalid_only(self, rng):
        agent = CommissionBiasedAgent(whitewash_rate=1.0)
        assert agent.label_for(False, rng) is Label.VALID  # whitewash
        assert agent.label_for(True, rng) is Label.VALID   # honest on valid

    def test_partial_rate(self, rng):
        agent = CommissionBiasedAgent(whitewash_rate=0.5)
        flips = sum(agent.label_for(False, rng) is Label.VALID for _ in range(4000))
        assert flips / 4000 == pytest.approx(0.5, abs=0.04)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            CommissionBiasedAgent(whitewash_rate=-0.1)


class TestInsuranceAlliance:
    def test_underwriting_runs(self):
        alliance = InsuranceAlliance(seed=4)
        for _ in range(4):
            alliance.run_round(10)
        report = alliance.report()
        assert report.applications == 40
        assert (
            report.honest_applications + report.fraudulent_applications
            == report.applications
        )

    def test_fraud_mostly_caught_with_honest_agents(self):
        alliance = InsuranceAlliance(seed=5, fraud_rate=0.3)
        for _ in range(10):
            alliance.run_round(10)
        report = alliance.report()
        assert report.fraud_leakage < 0.3

    def test_biased_agents_punished(self):
        alliance = InsuranceAlliance(
            biased_agents={
                "c0": CommissionBiasedAgent(0.9),
                "c1": CommissionBiasedAgent(0.9),
            },
            seed=6,
        )
        for _ in range(15):
            alliance.run_round(10)
        report = alliance.report()
        per_honest = report.honest_agent_revenue / 8
        per_biased = report.biased_agent_revenue / 2
        assert per_biased < per_honest

    def test_registry_is_ground_truth(self):
        alliance = InsuranceAlliance(seed=7)
        record = alliance.registry["p0"]
        assert isinstance(record, HealthRecord)
        assert 18 <= record.age < 80

    def test_unknown_biased_agent_rejected(self):
        with pytest.raises(ConfigurationError):
            InsuranceAlliance(biased_agents={"zz": CommissionBiasedAgent()})
