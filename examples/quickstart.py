#!/usr/bin/env python3
"""Quickstart: run the full three-tier protocol for a few rounds.

Builds the Figure-1 hierarchy (16 providers, 8 collectors, 4 governors),
runs 20 rounds of a mixed-honesty workload through collecting /
uploading / processing / arguing, then verifies the five Section-3.1
safety & liveness properties and prints a per-governor summary.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.agents.behaviors import ConcealBehavior, MisreportBehavior
from repro.analysis import format_table, summarize_run
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.ledger import check_all_properties
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload


def main() -> None:
    topo = Topology.regular(l=16, n=8, m=4, r=4)
    params = ProtocolParams(f=0.5, beta=0.9, argue_window=64)
    # Two collectors misbehave; the rest are honest.
    behaviors = {
        "c0": MisreportBehavior(p=0.4),
        "c1": ConcealBehavior(q=0.5),
    }
    engine = ProtocolEngine(topo, params, behaviors=behaviors, seed=42)
    workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=7)

    for _ in range(20):
        engine.run_round(workload.take(32))
    engine.finalize()

    report = check_all_properties(engine.ledgers(), engine.transcript)
    print(f"chain height: {engine.store.height}")
    print(f"all five protocol properties hold: {report.all_hold}")
    if not report.all_hold:
        for violation in report.violations:
            print("  !!", violation)

    summary = summarize_run(engine)
    rows = [
        (
            g.governor,
            g.screened,
            g.validations,
            f"{g.check_rate:.3f}",
            g.unchecked,
            g.mistakes,
            f"{g.expected_loss:.2f}",
        )
        for g in summary.governors
    ]
    print()
    print(
        format_table(
            ["governor", "screened", "validated", "check-rate", "unchecked", "mistakes", "E[loss]"],
            rows,
        )
    )

    print()
    leader_book = engine.governors[topo.governors[0]].book
    weight_rows = [
        (c, f"{leader_book.weight(c, topo.providers_of(c)[0]):.4f}")
        for c in topo.collectors
    ]
    print(format_table(["collector", "weight (first provider)"], weight_rows))
    print()
    print("note how c0 (misreporter) and c1 (concealer) lost weight;")
    print("their block-reward share collapses with it.")


if __name__ == "__main__":
    main()
