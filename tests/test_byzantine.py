"""Byzantine adversary suite: in-flight tampering, strategic collectors,
governor equivocation — and the auditor/quarantine responses to each.
"""

from __future__ import annotations

import pytest

from repro.audit.auditor import ViolationType
from repro.byzantine.scenario import install_equivocation, reputation_probe
from repro.byzantine.strategies import (
    AdaptiveAttackerBehavior,
    CartelPlan,
    ColludingCollectorBehavior,
    TwoFacedCollectorBehavior,
)
from repro.byzantine.tampering import MessageTamperer, TamperSpec
from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.crypto.signatures import SigningKey
from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.ledger.chain import check_agreement
from repro.ledger.transaction import (
    Label,
    make_labeled_transaction,
    make_signed_transaction,
)
from repro.network.broadcast import SequencedPayload
from repro.network.reliable import ReliableEnvelope
from repro.network.topology import Topology
from repro.rng import default_rng
from repro.workloads.generator import BernoulliWorkload


def make_engine(seed=0, f=0.5, behaviors=None, resilience=False):
    topo = Topology.regular(l=8, n=4, m=3, r=2)
    engine = NetworkedProtocolEngine(
        topo,
        ProtocolParams(f=f, delta=0.2),
        behaviors=behaviors,
        seed=seed,
        max_delay=0.05,
        resilience=resilience,
    )
    return engine, topo


def run_rounds(engine, topo, rounds, seed=1, per_round=8, p_valid=0.85):
    workload = BernoulliWorkload(topo.providers, p_valid=p_valid, seed=seed)
    for _ in range(rounds):
        engine.run_round(workload.take(per_round))


def make_upload(n=0, label=Label.VALID):
    provider = SigningKey(owner="p0", secret=b"\x0a" * 32)
    collector = SigningKey(owner="c0", secret=b"\x0b" * 32)
    tx = make_signed_transaction(provider, {"n": n}, timestamp=1.0, nonce=n)
    return make_labeled_transaction(collector, tx, label)


class TestTamperSpec:
    def test_probabilities_validated(self):
        with pytest.raises(ConfigurationError):
            TamperSpec(strip_signature=1.5)
        with pytest.raises(ConfigurationError):
            TamperSpec(flip_label=-0.1)
        with pytest.raises(ConfigurationError):
            TamperSpec(replay_horizon=0)


class TestMessageTamperer:
    def test_flip_keeps_signature_and_inverts_label(self):
        tamperer = MessageTamperer(TamperSpec(flip_label=1.0), seed=1)
        upload = make_upload()
        out = tamperer.maybe_tamper("c0", "g0", upload)
        assert out is not None
        assert out.label is Label.INVALID
        assert out.collector_signature == upload.collector_signature
        assert tamperer.stats.flipped == 1

    def test_strip_zeroes_signature_tag(self):
        tamperer = MessageTamperer(TamperSpec(strip_signature=1.0), seed=1)
        out = tamperer.maybe_tamper("c0", "g0", make_upload())
        assert out.collector_signature == b"\x00" * 32
        assert out.label is Label.VALID

    def test_replay_substitutes_stale_upload(self):
        tamperer = MessageTamperer(TamperSpec(replay=1.0), seed=1)
        first = make_upload(n=0)
        # Nothing in history yet: the first message passes untouched.
        assert tamperer.maybe_tamper("c0", "g0", first) is None
        out = tamperer.maybe_tamper("c0", "g0", make_upload(n=1))
        assert out is not None
        assert out.tx.tx_id == first.tx.tx_id
        assert tamperer.stats.replayed == 1

    def test_history_is_per_receiver(self):
        tamperer = MessageTamperer(TamperSpec(replay=1.0), seed=1)
        assert tamperer.maybe_tamper("c0", "g0", make_upload(n=0)) is None
        # Different receiver: its own history is empty, no replay pool.
        assert tamperer.maybe_tamper("c0", "g1", make_upload(n=1)) is None

    def test_rewraps_transport_envelopes(self):
        tamperer = MessageTamperer(TamperSpec(flip_label=1.0), seed=1)
        wrapped = ReliableEnvelope(
            msg_id=1, sender="c0",
            body=SequencedPayload(
                group="uploads", seqno=7, sender="c0", body=make_upload()
            ),
        )
        out = tamperer.maybe_tamper("c0", "g0", wrapped)
        assert isinstance(out, ReliableEnvelope)
        assert out.msg_id == 1
        assert out.body.seqno == 7
        assert out.body.body.label is Label.INVALID

    def test_non_upload_payloads_untouched(self):
        tamperer = MessageTamperer(
            TamperSpec(strip_signature=1.0, flip_label=1.0, replay=1.0), seed=1
        )
        assert tamperer.maybe_tamper("a", "b", "ack") is None

    def test_deterministic(self):
        def decisions(seed):
            tamperer = MessageTamperer(TamperSpec(flip_label=0.5), seed=seed)
            return [
                tamperer.maybe_tamper("c0", "g0", make_upload(n=i)) is not None
                for i in range(20)
            ]

        assert decisions(3) == decisions(3)
        assert tampered_any(decisions(3))


def tampered_any(decisions):
    return any(decisions) and not all(decisions)


class TestTamperedRuns:
    """The engine under an in-flight tamperer: every mode is defused."""

    def test_strip_and_flip_cannot_frame_collectors(self):
        engine, topo = make_engine(seed=10)
        tamperer = MessageTamperer(
            TamperSpec(strip_signature=0.15, flip_label=0.15), seed=11
        )
        engine.install_faults(FaultPlan(seed=12), tamperer=tamperer)
        run_rounds(engine, topo, 4, seed=13)
        engine.finalize()
        assert tamperer.stats.stripped > 0 and tamperer.stats.flipped > 0
        # Tampered uploads fail verification and are dropped unattributed:
        # nobody gets quarantined, no equivocation is ever recorded.
        assert not engine.quarantined_nodes
        for auditor in engine.auditors.values():
            assert all(
                v.type is not ViolationType.COLLECTOR_EQUIVOCATION
                for v in auditor.report.violations
            )
        check_agreement(engine.ledgers())

    def test_replay_defused_by_pack_dedup(self):
        engine, topo = make_engine(seed=20)
        tamperer = MessageTamperer(TamperSpec(replay=0.3), seed=21)
        engine.install_faults(FaultPlan(seed=22), tamperer=tamperer)
        run_rounds(engine, topo, 4, seed=23)
        engine.finalize()
        assert tamperer.stats.replayed > 0
        seen: set[str] = set()
        for serial in range(1, engine.store.height + 1):
            for rec in engine.store.retrieve(serial).tx_list:
                assert rec.tx.tx_id not in seen, "replayed tx packed twice"
                seen.add(rec.tx.tx_id)
        check_agreement(engine.ledgers())

    def test_block_corruption_contained_by_store_crosscheck(self):
        engine, topo = make_engine(seed=30)
        tamperer = MessageTamperer(TamperSpec(corrupt_block=0.5), seed=31)
        engine.install_faults(FaultPlan(seed=32), tamperer=tamperer)
        run_rounds(engine, topo, 4, seed=33)
        engine.finalize()
        assert tamperer.stats.blocks_corrupted > 0
        tampers = [
            v
            for auditor in engine.auditors.values()
            for v in auditor.report.violations
            if v.type is ViolationType.BLOCK_TAMPER
        ]
        assert tampers, "store cross-check never fired"
        # Containment: every replica appended the authentic copy anyway.
        check_agreement(engine.ledgers())
        for gov in engine.governors.values():
            assert gov.ledger.height == engine.store.height
            gov.ledger.verify_integrity()
        # In-flight corruption is unattributable: nobody was quarantined.
        assert not engine.quarantined_nodes


class TestCartel:
    def test_plan_validates_mode(self):
        with pytest.raises(ConfigurationError):
            CartelPlan(target_provider="p0", mode="bribe")

    def test_cartel_conceals_only_the_target(self):
        plan = CartelPlan(target_provider="p0", mode="conceal")
        rng = default_rng(0)
        member = ColludingCollectorBehavior(plan)
        target_tx = make_signed_transaction(
            SigningKey(owner="p0", secret=b"\x0a" * 32), "x", 1.0, nonce=0
        )
        other_tx = make_signed_transaction(
            SigningKey(owner="p3", secret=b"\x0c" * 32), "x", 1.0, nonce=0
        )
        assert member.label_for_tx(target_tx, True, rng) is None
        assert member.label_for_tx(other_tx, True, rng) is Label.VALID
        assert member.label_for_tx(other_tx, False, rng) is Label.INVALID
        assert member.suppressed == 1
        inverter = ColludingCollectorBehavior(
            CartelPlan(target_provider="p0", mode="invert")
        )
        assert inverter.label_for_tx(target_tx, True, rng) is Label.INVALID

    def test_cartel_run_stays_safe(self):
        plan = CartelPlan(target_provider="p0", mode="conceal")
        behaviors = {
            "c1": ColludingCollectorBehavior(plan),
            "c2": ColludingCollectorBehavior(plan),
        }
        engine, topo = make_engine(seed=40, behaviors=behaviors)
        run_rounds(engine, topo, 5, seed=41)
        engine.finalize()
        suppressed = sum(b.suppressed for b in behaviors.values())
        assert suppressed > 0
        # Selective concealment is not equivocation: no quarantine.
        assert not engine.quarantined_nodes
        check_agreement(engine.ledgers())


class TestAdaptiveAttacker:
    def test_honest_until_probe_bound(self):
        rng = default_rng(0)
        attacker = AdaptiveAttackerBehavior(defect_above=1.0, p_defect=1.0)
        assert attacker.label_for(True, rng) is Label.VALID
        assert attacker.defections == 0
        attacker.bind_probe(lambda: 2.0)
        assert attacker.label_for(True, rng) is Label.INVALID
        assert attacker.defections == 1
        attacker.bind_probe(lambda: 0.5)
        assert attacker.label_for(True, rng) is Label.VALID

    def test_probe_reads_live_weights(self):
        attacker = AdaptiveAttackerBehavior(defect_above=0.9, p_defect=0.6)
        engine, topo = make_engine(seed=50, behaviors={"c3": attacker})
        attacker.bind_probe(reputation_probe(engine, "g0", "c3"))
        run_rounds(engine, topo, 6, seed=51)
        engine.finalize()
        assert attacker.defections > 0
        # Defections burn the very weight the strategy conditions on.
        probe = reputation_probe(engine, "g0", "c3")
        assert probe() < 1.0
        check_agreement(engine.ledgers())

    def test_probe_handles_retired_collector(self):
        engine, topo = make_engine(seed=52)
        probe = reputation_probe(engine, "g0", "nope")
        assert probe() == 0.0


class TestTwoFaced:
    def test_period_validated(self):
        with pytest.raises(ConfigurationError):
            TwoFacedCollectorBehavior(period=0)

    def test_conflicting_label_every_period(self):
        rng = default_rng(0)
        behavior = TwoFacedCollectorBehavior(period=2)
        tx = make_signed_transaction(
            SigningKey(owner="p0", secret=b"\x0a" * 32), "x", 1.0, nonce=0
        )
        assert behavior.conflicting_label_for(tx, Label.VALID, rng) is None
        assert behavior.conflicting_label_for(tx, Label.VALID, rng) is Label.INVALID

    def test_equivocating_collector_is_quarantined(self):
        behaviors = {"c0": TwoFacedCollectorBehavior(period=1)}
        engine, topo = make_engine(seed=60, behaviors=behaviors)
        run_rounds(engine, topo, 3, seed=61)
        engine.finalize()
        assert "c0" in engine.quarantined_nodes
        _t, rnd, node, vtype = engine.quarantine_log[0]
        assert node == "c0" and vtype == "collector-equivocation"
        assert rnd <= 2  # caught within the ISSUE's two-round bar
        for gov in engine.governors.values():
            assert not gov.book.is_registered("c0")
        check_agreement(engine.ledgers())


class TestGovernorEquivocation:
    def test_equivocator_detected_and_quarantined_within_two_rounds(self):
        engine, topo = make_engine(seed=70)
        install_equivocation(engine, "g2", serial=3)
        run_rounds(engine, topo, 6, seed=71)
        engine.finalize()
        assert "g2" in engine.quarantined_nodes
        _t, rnd, node, vtype = engine.quarantine_log[0]
        assert node == "g2" and vtype == "governor-equivocation"
        assert rnd <= 3 + 2, f"quarantine too late (round {rnd})"
        proofs = [
            v
            for auditor in engine.auditors.values()
            for v in auditor.report.violations
            if v.type is ViolationType.GOVERNOR_EQUIVOCATION
        ]
        assert proofs
        for violation in proofs:
            assert violation.culprit == "g2"
            assert violation.provable and len(violation.evidence) == 2
            hashes = {vote.block_hash for vote in violation.evidence}
            assert len(hashes) == 2  # genuinely conflicting signed votes
        # Containment: g2 packs no further blocks, honest replicas agree.
        for serial in range(1, engine.store.height + 1):
            block = engine.store.retrieve(serial)
            if block.round_number > rnd:
                assert block.proposer != "g2"
        honest = [
            gov.ledger
            for gid, gov in engine.governors.items()
            if gid not in engine.quarantined_nodes
        ]
        check_agreement(honest)

    def test_honest_votes_never_trip_the_auditor(self):
        engine, topo = make_engine(seed=80)
        run_rounds(engine, topo, 4, seed=81)
        engine.finalize()
        assert not engine.quarantined_nodes
        for auditor in engine.auditors.values():
            assert auditor.report.clean, auditor.report.violations
