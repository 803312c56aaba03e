"""E9 — Figure 1 + Section 3.1: the full hierarchy and its properties.

Runs the complete protocol (all three tiers, PoS leaders, argues,
rewards) under a mixed adversary and verifies the five safety/liveness
properties over the run, then reports end-to-end throughput.
"""

from __future__ import annotations

import time

from _helpers import emit
from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    ConcealBehavior,
    ForgeBehavior,
    MisreportBehavior,
)
from repro.analysis.metrics import summarize_run
from repro.analysis.reporting import format_table
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.ledger.properties import check_all_properties
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload


def _full_run():
    topo = Topology.regular(l=24, n=8, m=4, r=4)
    behaviors = {
        "c0": MisreportBehavior(0.5),
        "c1": ConcealBehavior(0.5),
        "c2": AlwaysInvertBehavior(),
        "c3": ForgeBehavior(0.2),
    }
    engine = ProtocolEngine(
        topo, ProtocolParams(f=0.6), behaviors=behaviors, seed=31,
        stake={"g0": 4, "g1": 2, "g2": 1, "g3": 1},
    )
    workload = BernoulliWorkload(topo.providers, p_valid=0.75, seed=32)
    start = time.perf_counter()
    for _ in range(30):
        engine.run_round(workload.take(32))
    engine.finalize()  # its closing round packs last-round argues
    elapsed = time.perf_counter() - start
    return engine, elapsed


def _property_table() -> tuple[str, bool]:
    engine, elapsed = _full_run()
    report = check_all_properties(engine.ledgers(), engine.transcript)
    summary = summarize_run(engine)
    rows = [
        ("Agreement", report.agreement),
        ("Chain Integrity", report.chain_integrity),
        ("No Skipping", report.no_skipping),
        ("Almost No Creation", report.almost_no_creation),
        ("Validity", report.validity),
    ]
    table = format_table(["property (Section 3.1)", "holds"], rows)
    table += (
        f"\n\ntopology: l=24 providers, n=8 collectors, m=4 governors, r=4"
        f"\nrun: {summary.transactions} tx / {summary.rounds} rounds, "
        f"{summary.argues} argues, {engine.metrics.forged_uploads} forgeries attempted"
        f"\nthroughput: {summary.transactions / elapsed:.0f} tx/s (in-process simulation)"
    )
    return table, report.all_hold


def test_e9_protocol_properties(benchmark):
    """E9: the five properties under a mixed adversary + forgeries."""
    table, all_hold = benchmark.pedantic(_property_table, rounds=1, iterations=1)
    emit(
        "E9_properties",
        "E9 (Fig. 1 / Section 3.1): full-protocol run, property verification",
        table,
    )
    assert all_hold


def _networked_run():
    """E9-net: the same protocol at packet level (per-tx Δ timers)."""
    from repro.core.netengine import NetworkedProtocolEngine

    topo = Topology.regular(l=8, n=4, m=3, r=2)
    engine = NetworkedProtocolEngine(
        topo,
        ProtocolParams(f=0.6, delta=0.2),
        behaviors={"c0": MisreportBehavior(0.4)},
        seed=33,
    )
    workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=34)
    for _ in range(10):
        engine.run_round(workload.take(8))
    engine.run_round([])
    engine.finalize()
    return engine


def test_e9_networked_engine(benchmark):
    """E9-net: packet-level run — real message counts + properties."""
    engine = benchmark.pedantic(_networked_run, rounds=1, iterations=1)
    report = check_all_properties(engine.ledgers(), engine.transcript)
    stats = engine.network.stats
    rows = [
        ("properties hold", report.all_hold),
        ("messages sent (packet-level)", stats.messages_sent),
        ("abcast payloads", stats.messages_by_kind.get("abcast", 0)),
        ("argue messages", stats.messages_by_kind.get("argue", 0)),
        ("simulated seconds", round(engine.sim.now, 2)),
    ]
    emit(
        "E9net_packet",
        "E9-net: packet-level engine, 88 tx, per-transaction Delta timers",
        format_table(["metric", "value"], rows),
    )
    assert report.all_hold
