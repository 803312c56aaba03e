#!/usr/bin/env python3
"""Insurance underwriting (Section 5.2): catching whitewashing agents.

Policyholders (providers) submit declared health records; independent
agents (collectors) verify them; insurance companies (governors) decide
what to underwrite.  A quarter of applicants misdeclare, and two agents
are commission-biased: they label fraudulent applications valid to close
the sale.  The run shows (a) how much fraud leaks onto the chain as
valid, and (b) how the biased agents' revenue collapses.

Run:  python examples/insurance_underwriting.py
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.apps import CommissionBiasedAgent, InsuranceAlliance
from repro.core.params import ProtocolParams


def main() -> None:
    biased = {
        "c0": CommissionBiasedAgent(whitewash_rate=0.9),
        "c1": CommissionBiasedAgent(whitewash_rate=0.6),
    }
    alliance = InsuranceAlliance(
        n_applicants=20,
        n_agents=10,
        n_companies=4,
        agents_per_applicant=5,
        biased_agents=biased,
        params=ProtocolParams(f=0.5),
        fraud_rate=0.25,
        seed=19,
    )
    for _ in range(30):
        alliance.run_round(applications_per_round=10)
    report = alliance.report()

    print(
        format_table(
            ["metric", "value"],
            [
                ("applications processed", report.applications),
                ("honest applications", report.honest_applications),
                ("fraudulent applications", report.fraudulent_applications),
                ("fraud recorded as valid", report.fraud_on_chain_as_valid),
                ("fraud caught", report.fraud_caught),
                ("fraud leakage", f"{report.fraud_leakage:.1%}"),
            ],
        )
    )
    print()
    total = report.honest_agent_revenue + report.biased_agent_revenue
    print(
        format_table(
            ["agent group", "revenue", "share"],
            [
                (
                    "honest (8 agents)",
                    f"{report.honest_agent_revenue:.2f}",
                    f"{report.honest_agent_revenue / total:.1%}",
                ),
                (
                    "commission-biased (2 agents)",
                    f"{report.biased_agent_revenue:.2f}",
                    f"{report.biased_agent_revenue / total:.1%}",
                ),
            ],
        )
    )
    print()
    print("misreport counters (checked transactions) per agent:")
    gov = alliance.engine.governors[alliance.topology.governors[0]]
    rows = [
        (
            c,
            gov.book.vector(c).misreport,
            "biased" if c in biased else "honest",
        )
        for c in alliance.topology.collectors
    ]
    print(format_table(["agent", "w_misreport", "type"], rows))


if __name__ == "__main__":
    main()
