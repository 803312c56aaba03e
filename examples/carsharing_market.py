#!/usr/bin/env python3
"""Car-sharing market (Section 5.1): merged platforms on one chain.

Two merged ride platforms keep serving their own users but share one
permissioned ledger.  Users are providers, drivers are collectors,
schedulers are governors.  A slice of the driver pool is dishonest —
claiming rides they won't serve — and the reputation mechanism pushes
their revenue share toward zero while honest drivers keep earning.

Run:  python examples/carsharing_market.py
"""

from __future__ import annotations

from repro.agents.behaviors import MisreportBehavior, SleeperBehavior
from repro.analysis.reporting import format_table
from repro.apps.carsharing import CarSharingMarket
from repro.core.params import ProtocolParams


def main() -> None:
    dishonest = {
        "c0": MisreportBehavior(p=0.6),          # randomly flaky driver
        "c1": SleeperBehavior(honest_prefix=40), # builds trust, then defects
    }
    market = CarSharingMarket(
        n_users=24,
        n_drivers=8,
        n_schedulers=4,
        drivers_per_user=4,
        dishonest_drivers=dishonest,
        params=ProtocolParams(f=0.6),
        unfunded_rate=0.2,
        seed=11,
    )
    for _ in range(25):
        market.run_round(requests_per_round=16)
    report = market.report()

    print(
        format_table(
            ["metric", "value"],
            [
                ("ride requests offered", report.requests_offered),
                ("requests on chain", report.requests_on_chain),
                ("requests assigned", report.requests_assigned),
                ("assignment rate", f"{report.assignment_rate:.3f}"),
                ("mean pickup distance", f"{report.mean_pickup_distance:.2f}"),
            ],
        )
    )
    print()
    total = report.honest_driver_revenue + report.dishonest_driver_revenue
    print(
        format_table(
            ["driver group", "revenue", "share"],
            [
                (
                    "honest (6 drivers)",
                    f"{report.honest_driver_revenue:.2f}",
                    f"{report.honest_driver_revenue / total:.1%}",
                ),
                (
                    "dishonest (2 drivers)",
                    f"{report.dishonest_driver_revenue:.2f}",
                    f"{report.dishonest_driver_revenue / total:.1%}",
                ),
            ],
        )
    )
    print()
    print("per-driver reward totals:")
    rewards = market.engine.metrics.rewards_paid
    rows = [
        (d, f"{rewards.get(d, 0.0):.2f}", "dishonest" if d in dishonest else "honest")
        for d in market.topology.collectors
    ]
    print(format_table(["driver", "total reward", "type"], rows))


if __name__ == "__main__":
    main()
