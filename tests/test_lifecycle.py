"""Node lifecycle: every way a node leaves a networked engine and comes back.

One round trip per (role, way out, way back), and one migration per
(standing at departure, destination) — see the table in DESIGN.md's
fault-tolerance section.  The golden matrix pins the ledgers such runs
produce; these tests say what each transition must leave behind.
"""

from __future__ import annotations

from dataclasses import replace
from statistics import median

import pytest

from repro.agents.governor import Governor
from repro.audit.auditor import AuditViolation, ViolationType
from repro.byzantine.strategies import TwoFacedCollectorBehavior
from repro.core.params import ProtocolParams
from repro.ledger.chain import check_agreement
from repro.workloads.generator import BernoulliWorkload
from repro.workloads.scenarios import SCENARIOS, build

#: The networked deployment every round trip runs on, repair on.
ROUND_TRIP = replace(
    SCENARIOS["durable-smoke"], name="round-trip", m=4, resilience=True,
    params=ProtocolParams(f=0.5, delta=0.2, b_limit=16),
    workload_factory=lambda topo, seed: BernoulliWorkload(topo.providers, 0.85, seed),
)


def violation_for(node: str) -> AuditViolation:
    vtype = (
        ViolationType.GOVERNOR_EQUIVOCATION
        if node.startswith("g")
        else ViolationType.COLLECTOR_EQUIVOCATION
    )
    return AuditViolation(
        type=vtype, culprit=node, round_number=1, detail="test", provable=True
    )


WAYS = {
    "crash": (
        lambda engine, node: engine.lifecycle.crash(node),
        lambda engine, node: engine.lifecycle.recover(node),
    ),
    "quarantine": (
        lambda engine, node: engine.lifecycle.quarantine(node, violation_for(node)),
        lambda engine, node: engine.lifecycle.release_quarantine(node),
    ),
}


def assert_at_median(engine, cid):
    """``cid`` stands, in every book, where the typical incumbent stands."""
    for governor in engine.governors.values():
        weights = governor.book.vector(cid).provider_weights
        for provider, weight in weights.items():
            incumbents = [
                governor.book.vector(other).provider_weights[provider]
                for other in governor.book.collectors()
                if other != cid
                and provider in governor.book.vector(other).provider_weights
            ]
            assert weight == pytest.approx(median(incumbents))


@pytest.mark.parametrize("node", ["g1", "c1"])
@pytest.mark.parametrize("way", sorted(WAYS))
def test_round_trip(way, node):
    leave, come_back = WAYS[way]
    engine, workload, _ = build(ROUND_TRIP, seed=11)
    engine.run_round(workload.take(8))

    leave(engine, node)
    leave(engine, node)  # every transition is idempotent
    assert engine.lifecycle.is_down(node)
    uploads_before = engine.collectors["c1"].uploads
    for _ in range(2):
        engine.run_round(workload.take(8))
    if node == "g1":
        assert all(
            engine.store.retrieve(serial).proposer != "g1" for serial in (2, 3)
        )
    else:
        for governor in engine.governors.values():
            assert not governor.book.is_registered("c1")

    come_back(engine, node)
    come_back(engine, node)
    assert not engine.lifecycle.is_down(node)
    assert not engine.crashed_nodes and not engine.quarantined_nodes
    if node == "g1":
        assert engine.governors["g1"].ledger.height == engine.store.height
    else:
        assert_at_median(engine, "c1")
    for _ in range(2):
        engine.run_round(workload.take(8))
    engine.finalize()
    if node == "c1":
        assert engine.collectors["c1"].uploads > uploads_before
    assert engine.store.height == 5
    assert all(g.ledger.height == 5 for g in engine.governors.values())
    check_agreement(engine.ledgers())

    kinds = [(kind, who) for _t, kind, who, _n in engine.fault_log]
    verdicts = [(who, vtype) for _t, _r, who, vtype in engine.quarantine_log]
    if way == "crash":
        assert kinds == [("crash", node), ("recover", node)] and not verdicts
    else:
        assert verdicts == [(node, violation_for(node).type.value)] and not kinds


def build_coordinator(workers=None, behaviors=None):
    """``sharded-smoke`` with more of its traffic cross-shard."""
    coordinator, workload, _ = build(
        replace(
            SCENARIOS["sharded-smoke"], p_cross=0.3,
            behavior_factory=lambda _topo: behaviors or {},
        ),
        seed=5, workers=workers,
    )
    return coordinator, workload


def super_rounds(coordinator, workload, rounds):
    for _ in range(rounds):
        coordinator.submit(workload.take(16))
        coordinator.run_super_round()


@pytest.mark.parametrize("destination", ["same", "other"])
@pytest.mark.parametrize("standing", ["live", "crashed", "quarantined"])
def test_migration_carries_standing_and_leaves_nothing_behind(standing, destination):
    coordinator, workload = build_coordinator()
    source = coordinator.engines[0]
    target = source if destination == "same" else coordinator.engines[1]
    cid = source.topology.collectors[0]
    super_rounds(coordinator, workload, 1)
    if standing == "crashed":
        source.lifecycle.crash(cid)
    elif standing == "quarantined":
        source.lifecycle.quarantine(cid, violation_for(cid))

    providers, behavior, violation = source.lifecycle.release(cid)
    # Nothing of the collector stays on the engine it left: no agent, no
    # book entry, no verdict, no cut link (which would also switch the
    # network's batched multicast draw off for the rest of the run).
    assert cid not in source.collectors
    assert not source.lifecycle.is_down(cid)
    assert cid not in source.network._partitioned
    assert (violation is not None) == (standing == "quarantined")
    super_rounds(coordinator, workload, 1)

    slots = (
        providers
        if destination == "same"
        else target.topology.providers[: len(providers)]
    )
    target.lifecycle.adopt(cid, slots, behavior=behavior, violation=violation)
    uploads_before = target.collectors[cid].uploads
    super_rounds(coordinator, workload, 2)
    assert cid not in target.crashed_nodes
    if standing == "quarantined":
        assert cid in target.quarantined_nodes
        assert target.quarantine_log[-1][2:] == (cid, "collector-equivocation")
        assert all(not g.book.is_registered(cid) for g in target.governors.values())
        target.lifecycle.release_quarantine(cid)
        assert_at_median(target, cid)
    else:
        # It labels the feeds of the rounds it is back for.
        assert target.collectors[cid].uploads > uploads_before
        assert all(g.book.is_registered(cid) for g in target.governors.values())
    assert coordinator.finalize().clean
    for engine in coordinator.engines:
        check_agreement(engine.ledgers())


@pytest.mark.parametrize(
    "workers", [None, pytest.param(2, marks=pytest.mark.parallel)]
)
def test_quarantine_travels_with_a_reshuffled_collector(workers, monkeypatch):
    """A reputation-balanced reshuffle must not launder a verdict."""
    accepted = []
    ingest = Governor.ingest_upload

    def spy(self, upload, *buffer):
        ok = ingest(self, upload, *buffer)
        if ok and upload.collector == "c0":
            accepted.append(self.governor_id)
        return ok

    monkeypatch.setattr(Governor, "ingest_upload", spy)  # in-process engines only
    coordinator, workload = build_coordinator(
        workers=workers, behaviors={"c0": TwoFacedCollectorBehavior(period=1)}
    )
    try:
        super_rounds(coordinator, workload, 2)
        home = coordinator.collector_shard["c0"]
        assert [entry[2:] for entry in coordinator.quarantine_logs()[home]] == [
            ("c0", "collector-equivocation")
        ]
        for _ in range(12):
            coordinator.reshuffle()
            if coordinator.collector_shard["c0"] != home:
                break
        away = coordinator.collector_shard["c0"]
        assert away != home, "no reshuffle moved c0"
        accepted.clear()

        def assert_still_contained():
            # Registered in no book of any shard: a governor drops every
            # upload from an unregistered collector at ingestion.
            assert "c0" not in coordinator.backend.collector_masses()
            assert coordinator.quarantine_logs()[away][-1][2:] == (
                "c0",
                "collector-equivocation",
            )

        assert_still_contained()
        super_rounds(coordinator, workload, 2)
        assert_still_contained()
        assert not accepted
        if workers is None:
            target = coordinator.engines[away]
            assert "c0" in target.quarantined_nodes
            assert "c0" not in coordinator.engines[home].quarantined_nodes
            assert all(
                not g.book.is_registered("c0") for g in target.governors.values()
            )
        assert coordinator.finalize().clean
    finally:
        coordinator.close()
