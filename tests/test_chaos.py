"""Chaos harness: the protocol under seeded fault plans (E12).

The acceptance bar for the fault subsystem: under per-link message
loss, duplication, reordering, a governor crash-recovery, and a
sequencer failover, a full multi-round networked run must complete with

* **agreement** — all live governors hold identical ledger prefixes
  (and, after recovery drains, identical heights);
* **Lemma 2 intact** — the measured unchecked rate stays <= f;
* **no stuck gaps** — zero messages left in broadcast gap buffers at
  finalize (every repairable gap was repaired).

One fast seeded smoke run stays in the tier-1 suite; the heavier
schedules carry the ``chaos`` marker.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.agents.behaviors import ConcealBehavior, MisreportBehavior
from repro.core.netengine import SEQUENCER_PRIMARY
from repro.core.params import ProtocolParams
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.ledger.chain import check_agreement
from repro.workloads.generator import BernoulliWorkload
from repro.workloads.scenarios import Scenario, build


#: The smallest regular shape on the networked host, repair on.
CHAOS = Scenario(
    name="chaos", description="networked run under a seeded fault plan",
    host="net", l=8, n=4, m=3, r=2, params=ProtocolParams(f=0.6, delta=0.2),
    rounds=6, batch=8, resilience=True,
)


def make_engine(seed=0, behaviors=None, faults=None):
    """The chaos deployment at ``seed``, running under ``faults``."""
    plan = None if faults is None else lambda _topo, _seed: faults
    scenario = replace(CHAOS, behavior_factory=lambda _topo: behaviors or {}, faults=plan)
    engine, _, _ = build(scenario, seed)
    return engine, engine.topology


def lossy_plan(seed=0, loss=0.10):
    return FaultPlan(seed=seed).with_default_link(
        LinkFaultSpec(loss=loss, duplicate=0.05, reorder=0.05, reorder_delay=0.1)
    )


def run_rounds(engine, topo, rounds, per_round=8, p_valid=0.85, seed=1):
    workload = BernoulliWorkload(topo.providers, p_valid=p_valid, seed=seed)
    for _ in range(rounds):
        engine.run_round(workload.take(per_round))


def assert_safety(engine, f):
    """The three chaos invariants (agreement, Lemma 2, no stuck gaps)."""
    live = [g for g in engine.governors.values() if g.governor_id not in engine.crashed_nodes]
    check_agreement([g.ledger for g in live])
    for gov in live:
        assert gov.ledger.height == engine.store.height, gov.governor_id
    screened = sum(g.metrics.transactions_screened for g in live)
    unchecked = sum(g.metrics.unchecked for g in live)
    assert screened > 0
    assert unchecked / screened <= f, f"unchecked rate {unchecked/screened} > f={f}"
    assert engine.broadcast.pending_gap_total() == 0


class TestChaosSmoke:
    """Fast seeded smoke run — stays in the tier-1 suite."""

    def test_lossy_run_completes_and_stays_safe(self):
        engine, topo = make_engine(seed=20, faults=lossy_plan(seed=21))
        run_rounds(engine, topo, rounds=4, seed=22)
        engine.finalize()
        assert_safety(engine, f=0.6)
        assert engine.injector.stats.dropped > 0  # the plan actually bit
        assert engine.store.height == 4


@pytest.mark.chaos
class TestGovernorCrashRecovery:
    def test_crash_recover_rejoins_and_agrees(self):
        plan = lossy_plan(seed=31).with_crash("g1", at=0.5, recover_at=1.6)
        engine, topo = make_engine(seed=30, faults=plan)
        run_rounds(engine, topo, rounds=6, seed=32)
        engine.finalize()
        assert engine.injector.stats.crashes == 1
        assert engine.injector.stats.recoveries == 1
        # The recovered governor synced its missed blocks from the store.
        synced = [n for (_t, kind, node, n) in engine.fault_log if kind == "recover"]
        assert synced and synced[0] >= 1
        assert "g1" not in engine.crashed_nodes
        assert_safety(engine, f=0.6)

    def test_crashed_leader_fails_over(self):
        # Crash every governor's turn will eventually hit the elected
        # leader; crash g0 across rounds 1-3 to force at least one
        # failover window, then recover it.
        plan = FaultPlan(seed=41).with_crash("g0", at=0.1, recover_at=1.3)
        engine, topo = make_engine(seed=40, faults=plan)
        run_rounds(engine, topo, rounds=5, seed=42)
        engine.finalize()
        # No round may be packed by a governor that was crashed at pack
        # time; every block's proposer was live.
        for serial in range(1, engine.store.height + 1):
            assert engine.store.retrieve(serial).proposer in engine.governors
        assert engine.store.height == 5
        assert_safety(engine, f=0.6)


@pytest.mark.chaos
class TestSequencerFailover:
    def test_primary_sequencer_crash_repairs_via_backup(self):
        plan = lossy_plan(seed=51).with_crash(SEQUENCER_PRIMARY, at=0.3)
        engine, topo = make_engine(seed=50, faults=plan)
        run_rounds(engine, topo, rounds=6, seed=52)
        engine.finalize()
        # Gaps opened by 10% loss still all closed with the primary dead.
        assert engine.broadcast.pending_gap_total() == 0
        assert_safety(engine, f=0.6)


@pytest.mark.chaos
class TestCollectorChurn:
    def test_collector_crash_is_retired_and_readmitted(self):
        behaviors = {"c0": MisreportBehavior(0.3), "c1": ConcealBehavior(0.3)}
        plan = lossy_plan(seed=61).with_crash("c2", at=0.5, recover_at=1.6)
        engine, topo = make_engine(seed=60, behaviors=behaviors, faults=plan)
        run_rounds(engine, topo, rounds=6, seed=62)
        engine.finalize()
        # Re-admitted everywhere with a bootstrapped vector.
        for gov in engine.governors.values():
            assert gov.book.is_registered("c2")
        assert "c2" not in engine.crashed_nodes
        assert_safety(engine, f=0.6)

    def test_retired_collector_labels_are_scrubbed(self):
        # Clean links, manual crash.
        engine, topo = make_engine(seed=70, faults=FaultPlan(seed=71))
        workload = BernoulliWorkload(topo.providers, p_valid=0.9, seed=72)
        engine.run_round(workload.take(8))
        engine.lifecycle.crash("c0")
        for gov in engine.governors.values():
            assert not gov.book.is_registered("c0")
            assert all("c0" not in linked for linked in gov._linked.values())
        engine.run_round(workload.take(8))  # screening must not blow up
        engine.lifecycle.recover("c0")
        for gov in engine.governors.values():
            assert gov.book.is_registered("c0")
        engine.run_round(workload.take(8))
        engine.finalize()
        assert_safety(engine, f=0.6)


@pytest.mark.chaos
class TestAcceptanceScenario:
    """The ISSUE's combined bar: 10% loss + governor crash-recovery +
    sequencer failover in one seeded multi-round run."""

    def test_full_fault_plan_run(self):
        plan = (
            lossy_plan(seed=81, loss=0.10)
            .with_crash("g2", at=0.6, recover_at=1.8)
            .with_crash(SEQUENCER_PRIMARY, at=1.0)
        )
        engine, topo = make_engine(seed=80, faults=plan)
        run_rounds(engine, topo, rounds=8, per_round=8, seed=82)
        engine.finalize()
        assert engine.store.height == 8
        assert engine.injector.stats.dropped > 0
        assert engine.injector.stats.crashes == 2
        assert engine.injector.stats.recoveries == 1
        assert_safety(engine, f=0.6)


@pytest.mark.chaos
class TestFaultEdgeCases:
    """Compound fault-subsystem edge cases layered on the PR1 machinery."""

    def test_leader_crash_with_partition_during_commit(self):
        """The elected leader crashes while another governor is cut off
        by a partition spanning the pack/commit window: the failover
        leader packs, the partitioned governor repairs its gap on the
        next multicast, and everyone converges."""
        plan = (
            lossy_plan(seed=101, loss=0.05)
            .with_crash("g0", at=0.1, recover_at=1.4)
            .with_partition(("g1",), start=0.3, end=1.1)
        )
        engine, topo = make_engine(seed=100, faults=plan)
        run_rounds(engine, topo, rounds=6, seed=102)
        engine.finalize()
        engine.drain_recovery()
        # Every block was packed by a live governor, never the crashed one
        # during its outage window.
        assert engine.store.height == 6
        assert engine.injector.stats.crashes == 1
        assert engine.injector.stats.recoveries == 1
        for gov in engine.governors.values():
            assert gov.ledger.height == engine.store.height, gov.governor_id
        assert_safety(engine, f=0.6)

    def test_sequencer_failover_with_repair_in_flight(self):
        """Heavy loss keeps gap-repair NACK traffic in flight when the
        primary sequencer crash-stops mid-run; the backup must answer
        from the same retained buffer and close every gap."""
        plan = FaultPlan(seed=111).with_default_link(
            LinkFaultSpec(loss=0.28, reorder=0.10, reorder_delay=0.1)
        ).with_crash(SEQUENCER_PRIMARY, at=0.5)
        engine, topo = make_engine(seed=110, faults=plan)
        run_rounds(engine, topo, rounds=6, seed=112)
        engine.finalize()
        engine.drain_recovery()
        assert engine.injector.stats.dropped > 0
        assert engine.broadcast.pending_gap_total() == 0
        assert_safety(engine, f=0.6)


@pytest.mark.chaos
class TestByzantineAcceptance:
    """The ISSUE's Byzantine bar: one honest collector, every other
    collector Byzantine, an equivocating governor, and in-flight
    tampering — honest replicas stay safe, the Theorem-1 bound holds,
    and the equivocator is quarantined within two rounds."""

    EQUIVOCATE_AT = 3

    def build(self, seed=120):
        from repro.byzantine.scenario import install_equivocation, reputation_probe
        from repro.byzantine.strategies import (
            AdaptiveAttackerBehavior,
            CartelPlan,
            ColludingCollectorBehavior,
        )
        from repro.byzantine.tampering import MessageTamperer, TamperSpec

        plan = CartelPlan(target_provider="p0", mode="conceal")
        adaptive = AdaptiveAttackerBehavior(defect_above=0.8, p_defect=0.5)
        behaviors = {
            # c0 stays honest — the paper's "at least one well-behaved
            # collector" premise.
            "c1": ColludingCollectorBehavior(plan),
            "c2": ColludingCollectorBehavior(plan),
            "c3": adaptive,
        }
        engine, topo = make_engine(seed=seed, behaviors=behaviors)
        adaptive.bind_probe(reputation_probe(engine, "g0", "c3"))
        tamperer = MessageTamperer(
            TamperSpec(strip_signature=0.05, flip_label=0.05, replay=0.05,
                       corrupt_block=0.10),
            seed=seed + 1,
        )
        engine.install_faults(FaultPlan(seed=seed + 2), tamperer=tamperer)
        install_equivocation(engine, "g2", serial=self.EQUIVOCATE_AT)
        return engine, topo, tamperer

    def run_soak(self, seed=120):
        engine, topo, tamperer = self.build(seed)
        run_rounds(engine, topo, rounds=8, seed=seed + 3)
        engine.finalize()
        return engine, topo, tamperer

    def test_byzantine_majority_soak(self):
        from repro.core.regret import rwm_bound

        engine, topo, tamperer = self.run_soak()
        assert tamperer.stats.total > 0  # the adversary actually acted
        honest_govs = [
            gid for gid in topo.governors if gid not in engine.quarantined_nodes
        ]
        # 1. Zero safety violations on honest governors' replicas.
        for gid in honest_govs:
            assert not engine.auditors[gid].report.safety_violations(), gid
        assert not engine.harness_auditor.report.safety_violations()
        check_agreement([engine.governors[gid].ledger for gid in honest_govs])
        for gid in honest_govs:
            engine.governors[gid].ledger.verify_integrity()
        # 2. The equivocator — and only the equivocator — was provably
        # caught, within two rounds of the attack.
        assert engine.quarantined_nodes == {"g2"}
        _t, rnd, node, vtype = engine.quarantine_log[0]
        assert node == "g2" and vtype == "governor-equivocation"
        assert rnd <= self.EQUIVOCATE_AT + 2
        provable = [
            v
            for gid in honest_govs
            for v in engine.auditors[gid].report.violations
            if v.provable
        ]
        assert provable and {v.culprit for v in provable} == {"g2"}
        # 3. Honest governor loss stays under the Theorem-1 bound.
        bound = rwm_bound(s_min=0.0, r=topo.r, beta=engine.params.beta)
        worst = max(
            engine.governors[gid].metrics.expected_loss for gid in honest_govs
        )
        assert worst <= bound, f"loss {worst} exceeds rwm_bound {bound}"

    def test_byzantine_soak_is_deterministic(self):
        def fingerprint():
            engine, _topo, _tamperer = self.run_soak(seed=130)
            return (
                [
                    engine.store.retrieve(s).hash()
                    for s in range(1, engine.store.height + 1)
                ],
                list(engine.quarantine_log),
            )

        first, second = fingerprint(), fingerprint()
        assert first[0] == second[0]
        assert first[1] == second[1]
