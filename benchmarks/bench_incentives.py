"""E6 — incentives: collector revenue falls with every kind of misconduct.

Runs the full engine with one collector per misconduct class and reports
each collector's cumulative reward share — the paper's incentive claim
(Section 4.2): revenue proportional to
prod(w) * mu^w_misreport * nu^w_forge is decreasing in misbehaviour.
"""

from __future__ import annotations

from _helpers import emit
from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    ConcealBehavior,
    ForgeBehavior,
    MisreportBehavior,
    SleeperBehavior,
)
from repro.analysis.reporting import format_table
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload

BEHAVIOUR_TABLE = {
    "c0": ("honest", None),
    "c1": ("misreport p=0.3", MisreportBehavior(0.3)),
    "c2": ("misreport p=0.8", MisreportBehavior(0.8)),
    "c3": ("conceal q=0.5", ConcealBehavior(0.5)),
    "c4": ("invert (p=1)", AlwaysInvertBehavior()),
    "c5": ("forge w=0.3", ForgeBehavior(0.3)),
    "c6": ("sleeper (100 honest)", SleeperBehavior(100)),
    "c7": ("honest", None),
}


def _incentive_table() -> tuple[str, dict[str, float]]:
    topo = Topology.regular(l=16, n=8, m=4, r=4)
    behaviors = {
        cid: behavior
        for cid, (_name, behavior) in BEHAVIOUR_TABLE.items()
        if behavior is not None
    }
    engine = ProtocolEngine(
        topo, ProtocolParams(f=0.6), behaviors=behaviors, seed=11,
    )
    workload = BernoulliWorkload(topo.providers, p_valid=0.6, seed=12)
    for _ in range(40):
        engine.run_round(workload.take(24))
    engine.finalize()
    paid = engine.metrics.rewards_paid
    total = sum(paid.values())
    rows = []
    for cid, (name, _behavior) in BEHAVIOUR_TABLE.items():
        share = paid.get(cid, 0.0) / total
        rows.append((cid, name, round(paid.get(cid, 0.0), 2), f"{share:.2%}"))
    return (
        format_table(["collector", "behaviour", "revenue", "share"], rows),
        paid,
    )


def test_e6_incentives(benchmark):
    """E6: revenue by misconduct class."""
    table, paid = benchmark.pedantic(_incentive_table, rounds=1, iterations=1)
    emit(
        "E6_incentives",
        "E6: collector revenue under the reputation-linked reward rule "
        "(960 tx, 40 rounds, f = 0.6)",
        table,
    )
    honest = (paid["c0"] + paid["c7"]) / 2
    # Every misbehaving collector earns less than the honest average.
    for cid in ("c1", "c2", "c3", "c4", "c5"):
        assert paid[cid] < honest
    # The more severe misreporter earns less than the milder one.
    assert paid["c2"] < paid["c1"]
