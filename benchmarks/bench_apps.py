"""E11 — Section 5: the two application case studies end-to-end.

Car-sharing (5.1): merged platforms dispatch on one chain; flaky and
reputation-farming drivers lose revenue share.
Insurance (5.2): commission-biased agents whitewash fraud; fraud leakage
stays low and the biased agents' income collapses.
"""

from __future__ import annotations

from _helpers import emit
from repro.agents.behaviors import MisreportBehavior, SleeperBehavior
from repro.analysis.reporting import format_table
from repro.apps.carsharing import CarSharingMarket
from repro.apps.insurance import CommissionBiasedAgent, InsuranceAlliance
from repro.core.params import ProtocolParams


def _carsharing_report():
    market = CarSharingMarket(
        n_users=24,
        n_drivers=8,
        n_schedulers=4,
        drivers_per_user=4,
        dishonest_drivers={
            "c0": MisreportBehavior(0.6),
            "c1": SleeperBehavior(60),
        },
        params=ProtocolParams(f=0.6),
        unfunded_rate=0.2,
        seed=41,
    )
    for _ in range(30):
        market.run_round(16)
    return market.report()


def test_e11_carsharing(benchmark):
    """E11a: car-sharing market metrics."""
    report = benchmark.pedantic(_carsharing_report, rounds=1, iterations=1)
    total = report.honest_driver_revenue + report.dishonest_driver_revenue
    table = format_table(
        ["metric", "value"],
        [
            ("requests offered", report.requests_offered),
            ("requests on chain", report.requests_on_chain),
            ("assignment rate", f"{report.assignment_rate:.3f}"),
            ("mean pickup distance", f"{report.mean_pickup_distance:.2f}"),
            ("honest drivers' (6) revenue share", f"{report.honest_driver_revenue / total:.1%}"),
            ("dishonest drivers' (2) revenue share", f"{report.dishonest_driver_revenue / total:.1%}"),
        ],
    )
    emit("E11a_carsharing", "E11a (Section 5.1): car-sharing market, 480 requests", table)
    per_honest = report.honest_driver_revenue / 6
    per_dishonest = report.dishonest_driver_revenue / 2
    assert per_dishonest < per_honest
    assert report.assignment_rate > 0.5


def _insurance_report():
    alliance = InsuranceAlliance(
        n_applicants=20,
        n_agents=10,
        n_companies=4,
        agents_per_applicant=5,
        biased_agents={
            "c0": CommissionBiasedAgent(0.9),
            "c1": CommissionBiasedAgent(0.6),
        },
        params=ProtocolParams(f=0.5),
        fraud_rate=0.25,
        seed=43,
    )
    for _ in range(40):
        alliance.run_round(10)
    return alliance.report()


def test_e11_insurance(benchmark):
    """E11b: insurance underwriting metrics."""
    report = benchmark.pedantic(_insurance_report, rounds=1, iterations=1)
    total = report.honest_agent_revenue + report.biased_agent_revenue
    table = format_table(
        ["metric", "value"],
        [
            ("applications", report.applications),
            ("fraudulent applications", report.fraudulent_applications),
            ("fraud recorded as valid", report.fraud_on_chain_as_valid),
            ("fraud leakage", f"{report.fraud_leakage:.1%}"),
            ("honest agents' (8) revenue share", f"{report.honest_agent_revenue / total:.1%}"),
            ("biased agents' (2) revenue share", f"{report.biased_agent_revenue / total:.1%}"),
        ],
    )
    emit("E11b_insurance", "E11b (Section 5.2): insurance underwriting, 400 applications", table)
    per_honest = report.honest_agent_revenue / 8
    per_biased = report.biased_agent_revenue / 2
    assert per_biased < per_honest
    assert report.fraud_leakage < 0.5
