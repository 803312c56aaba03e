"""Safety auditor: invariant checks, commit votes, quarantine."""

from __future__ import annotations

from repro.audit.auditor import (
    AuditReport,
    AuditViolation,
    SafetyAuditor,
    ViolationType,
    harness_audit,
)
from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.core.regret import rwm_bound
from repro.crypto.signatures import SigningKey
from repro.consensus import messages
from repro.consensus.messages import CommitVote
from repro.crypto.identity import IdentityManager, Role
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.transaction import (
    Label,
    make_labeled_transaction,
    make_signed_transaction,
)
from repro.network.topology import Topology
from repro.workloads.generator import BernoulliWorkload


def make_engine(seed=0, resilience=False, behaviors=None):
    topo = Topology.regular(l=8, n=4, m=3, r=2)
    engine = NetworkedProtocolEngine(
        topo,
        ProtocolParams(f=0.5, delta=0.2),
        behaviors=behaviors,
        seed=seed,
        max_delay=0.05,
        resilience=resilience,
    )
    return engine, topo


def run_rounds(engine, topo, rounds, seed=1, per_round=8):
    workload = BernoulliWorkload(topo.providers, p_valid=0.85, seed=seed)
    for _ in range(rounds):
        engine.run_round(workload.take(per_round))


def make_vote(key: SigningKey, serial: int, block_hash: bytes, rnd=1) -> CommitVote:
    return messages.make_vote(key, serial, block_hash, rnd)


class TestAuditBlock:
    def make_block(self, serial=1, prev=GENESIS_PREV_HASH):
        return Block(
            serial=serial, tx_list=(), prev_hash=prev,
            proposer="g0", round_number=1,
        )

    def test_clean_block_passes(self):
        auditor = SafetyAuditor("g0")
        block = self.make_block()
        found = auditor.audit_block(
            block, expected_serial=1, expected_prev=GENESIS_PREV_HASH,
            round_number=1, store_hash=block.hash(),
        )
        assert found == []
        assert auditor.report.clean
        assert sum(auditor.report.checks.values()) >= 3

    def test_wrong_serial_and_prev_flagged(self):
        auditor = SafetyAuditor("g0")
        block = self.make_block(serial=3, prev=b"\x01" * 32)
        found = auditor.audit_block(
            block, expected_serial=1, expected_prev=GENESIS_PREV_HASH,
            round_number=1,
        )
        types = [v.type for v in found]
        assert types.count(ViolationType.CHAIN_INTEGRITY) == 2
        assert all(not v.provable for v in found)
        assert all(v.culprit == "g0" for v in found)

    def test_store_crosscheck_catches_tamper(self):
        auditor = SafetyAuditor("g0")
        block = self.make_block()
        found = auditor.audit_block(
            block, expected_serial=1, expected_prev=GENESIS_PREV_HASH,
            round_number=2, store_hash=b"\x02" * 32,
        )
        assert [v.type for v in found] == [ViolationType.BLOCK_TAMPER]
        # In-flight tampering is unattributable, hence never provable.
        assert found[0].culprit == "unknown"
        assert not found[0].provable


class TestIngestVote:
    def test_consistent_votes_are_clean(self):
        auditor = SafetyAuditor("g1")
        key = SigningKey(owner="g0", secret=b"\x01" * 32)
        h = b"\x03" * 32
        for _ in range(2):
            violation, mismatch = auditor.ingest_vote(make_vote(key, 1, h), h, 1)
            assert violation is None
            assert not mismatch

    def test_equivocation_is_provable(self):
        auditor = SafetyAuditor("g1")
        key = SigningKey(owner="g0", secret=b"\x01" * 32)
        auditor.ingest_vote(make_vote(key, 1, b"\x03" * 32), b"\x03" * 32, 1)
        violation, _ = auditor.ingest_vote(
            make_vote(key, 1, b"\x04" * 32), b"\x03" * 32, 1
        )
        assert violation is not None
        assert violation.type is ViolationType.GOVERNOR_EQUIVOCATION
        assert violation.provable
        assert violation.culprit == "g0"
        assert len(violation.evidence) == 2

    def test_mismatch_flag_signals_forwarding(self):
        auditor = SafetyAuditor("g1")
        key = SigningKey(owner="g0", secret=b"\x01" * 32)
        _, mismatch = auditor.ingest_vote(
            make_vote(key, 1, b"\x04" * 32), own_hash=b"\x03" * 32, round_number=1
        )
        assert mismatch
        # No own commit yet: nothing to contradict.
        _, mismatch = auditor.ingest_vote(
            make_vote(key, 2, b"\x04" * 32), own_hash=None, round_number=1
        )
        assert not mismatch

    def test_forged_vote_is_no_evidence(self):
        im = IdentityManager(seed=5)
        im.enroll("g0", Role.GOVERNOR)
        auditor = SafetyAuditor("g1", im=im)
        wrong_key = SigningKey(owner="g0", secret=b"\x09" * 32)
        violation, mismatch = auditor.ingest_vote(
            make_vote(wrong_key, 1, b"\x03" * 32), b"\x04" * 32, 1
        )
        assert violation is None and not mismatch
        assert [v.type for v in auditor.report.violations] == [
            ViolationType.BAD_SIGNATURE
        ]
        # The forgery names nobody: it cannot frame g0.
        assert auditor.report.violations[0].culprit == "unknown"


class TestObserveUpload:
    def setup_method(self):
        self.provider_key = SigningKey(owner="p0", secret=b"\x0a" * 32)
        self.collector_key = SigningKey(owner="c0", secret=b"\x0b" * 32)
        self.tx = make_signed_transaction(self.provider_key, "x", 1.0, nonce=0)

    def test_conflicting_signed_labels_are_provable(self):
        auditor = SafetyAuditor("g0")
        first = make_labeled_transaction(self.collector_key, self.tx, Label.VALID)
        second = make_labeled_transaction(self.collector_key, self.tx, Label.INVALID)
        assert auditor.observe_upload(first, 1) is None
        violation = auditor.observe_upload(second, 1)
        assert violation is not None
        assert violation.type is ViolationType.COLLECTOR_EQUIVOCATION
        assert violation.provable and violation.culprit == "c0"

    def test_tampered_upload_cannot_frame(self):
        im = IdentityManager(seed=6)
        key = im.enroll("c0", Role.COLLECTOR)
        auditor = SafetyAuditor("g0", im=im)
        honest = make_labeled_transaction(key, self.tx, Label.VALID)
        assert auditor.observe_upload(honest, 1) is None
        # A flipped label under the old signature never becomes evidence.
        from dataclasses import replace

        flipped = replace(honest, label=Label.INVALID)
        assert auditor.observe_upload(flipped, 1) is None
        stripped = replace(
            honest,
            label=Label.INVALID,
            collector_signature=b"\x00" * 32,
        )
        assert auditor.observe_upload(stripped, 1) is None
        assert auditor.report.clean


class TestEvidenceScript:
    """One scripted sequence per evidence buffer, checked step by step:
    the returned verdict, ``report.violations`` and the checks run.
    Pins what the auditor holds and re-reports, at any distance in rounds."""

    def setup_method(self):
        self.im = IdentityManager(seed=9)
        self.auditor = SafetyAuditor("g9", im=self.im)

    def expect(self, checks_run, violations):
        report = self.auditor.report
        assert (sum(report.checks.values()), len(report.violations)) == (checks_run, violations)

    def assert_provable(self, violation, vtype, culprit, rnd, first, second):
        assert violation is self.auditor.report.violations[-1]
        assert violation.type is vtype
        assert violation.provable and violation.culprit == culprit
        assert violation.round_number == rnd
        assert violation.evidence == (first, second)
        assert violation.evidence[0] is first and violation.evidence[1] is second

    def test_observe_upload_script(self):
        from dataclasses import replace

        c0 = self.im.enroll("c0", Role.COLLECTOR)
        c1 = self.im.enroll("c1", Role.COLLECTOR)
        provider = self.im.enroll("p0", Role.PROVIDER)
        tx, tx2, tx3, tx4 = (
            make_signed_transaction(provider, "x", 1.0, nonce=i) for i in range(4)
        )
        observe = self.auditor.observe_upload
        kind = ViolationType.COLLECTOR_EQUIVOCATION

        first = make_labeled_transaction(c0, tx, Label.VALID)
        assert observe(first, 1) is None
        self.expect(1, 0)
        # A byte-identical replay (a retransmission) is no conflict.
        assert observe(make_labeled_transaction(c0, tx, Label.VALID), 1) is None
        self.expect(2, 0)
        second = make_labeled_transaction(c0, tx, Label.INVALID)
        self.assert_provable(observe(second, 2), kind, "c0", 2, first, second)
        self.expect(3, 1)
        # Once proven, every further upload for (c0, tx) re-reports the
        # same pair, whichever label it carries.
        again = make_labeled_transaction(c0, tx, Label.VALID)
        self.assert_provable(observe(again, 3), kind, "c0", 3, first, second)
        self.expect(4, 2)
        again = make_labeled_transaction(c0, tx, Label.INVALID)
        self.assert_provable(observe(again, 3), kind, "c0", 3, first, second)
        self.expect(5, 3)
        # Another collector disagreeing about the same tx is no equivocation.
        assert observe(make_labeled_transaction(c1, tx, Label.INVALID), 3) is None
        self.expect(6, 3)
        # Nor is the same collector's other label on another tx.
        assert observe(make_labeled_transaction(c0, tx2, Label.INVALID), 3) is None
        self.expect(7, 3)
        # A tampered upload is no evidence, before or after the honest one:
        # it cannot frame c1 and it does not occupy c1's slot.
        honest = make_labeled_transaction(c1, tx3, Label.VALID)
        flipped = replace(honest, label=Label.INVALID)
        stripped = replace(flipped, collector_signature=b"\x00" * 32)
        assert observe(flipped, 4) is None
        assert observe(honest, 4) is None
        assert observe(stripped, 4) is None
        assert observe(flipped, 4) is None
        self.expect(11, 3)
        other = make_labeled_transaction(c1, tx3, Label.INVALID)
        self.assert_provable(observe(other, 5), kind, "c1", 5, honest, other)
        self.expect(12, 4)
        # Evidence is held for the life of the run: a conflict 500 rounds
        # after the first label is as provable as one in the same round.
        early = make_labeled_transaction(c0, tx4, Label.INVALID)
        assert observe(early, 6) is None
        late = make_labeled_transaction(c0, tx4, Label.VALID)
        violation = observe(late, 506)
        self.assert_provable(violation, kind, "c0", 506, early, late)
        self.expect(14, 5)
        for upload in violation.evidence:
            assert self.im.verify(upload)
        assert {u.label for u in violation.evidence} == {Label.VALID, Label.INVALID}
        assert all(v.type is kind for v in self.auditor.report.violations)

    def test_ingest_vote_script(self):
        g0 = self.im.enroll("g0", Role.GOVERNOR)
        g1 = self.im.enroll("g1", Role.GOVERNOR)
        g2 = self.im.enroll("g2", Role.GOVERNOR)
        a, b, c = (bytes([i]) * 32 for i in (3, 4, 5))
        ingest = self.auditor.ingest_vote
        kind = ViolationType.GOVERNOR_EQUIVOCATION

        first = make_vote(g0, 1, a)
        assert ingest(first, a, 1) == (None, False)
        self.expect(1, 0)
        assert ingest(make_vote(g0, 1, a), a, 1) == (None, False)  # replay
        self.expect(2, 0)
        second = make_vote(g0, 1, b)
        violation, mismatch = ingest(second, a, 2)
        assert mismatch
        self.assert_provable(violation, kind, "g0", 2, first, second)
        assert violation.serial == 1
        self.expect(3, 1)
        # Re-reported on every further vote for (g0, 1): either hash
        # already held, or a third one — the pair stays the first two.
        violation, mismatch = ingest(make_vote(g0, 1, a), a, 3)
        assert not mismatch
        self.assert_provable(violation, kind, "g0", 3, first, second)
        self.expect(4, 2)
        violation, mismatch = ingest(make_vote(g0, 1, c), a, 3)
        assert mismatch
        self.assert_provable(violation, kind, "g0", 3, first, second)
        self.expect(5, 3)
        # Another governor voting the other hash: a mismatch to forward,
        # not an equivocation.
        assert ingest(make_vote(g1, 1, b), a, 3) == (None, True)
        self.expect(6, 3)
        # Another serial, nothing committed locally yet.
        assert ingest(make_vote(g0, 2, b), None, 3) == (None, False)
        self.expect(7, 3)
        # A forged vote is recorded as a bad signature naming nobody; it
        # cannot frame g2 and does not occupy g2's slot.
        forger = SigningKey(owner="g2", secret=b"\x09" * 32)
        assert ingest(make_vote(forger, 1, b), a, 4) == (None, False)
        self.expect(8, 4)
        bad = self.auditor.report.violations[-1]
        assert bad.type is ViolationType.BAD_SIGNATURE
        assert bad.culprit == "unknown" and not bad.provable and bad.evidence == ()
        assert ingest(make_vote(g2, 1, a), a, 4) == (None, False)
        self.expect(9, 4)
        # Held for the life of the run: 500 rounds apart is still provable.
        early = make_vote(g1, 3, a, rnd=5)
        assert ingest(early, a, 5) == (None, False)
        late = make_vote(g1, 3, b, rnd=505)
        violation, mismatch = ingest(late, a, 505)
        assert mismatch
        self.assert_provable(violation, kind, "g1", 505, early, late)
        self.expect(11, 5)
        for vote in violation.evidence:
            assert self.im.verify(vote)
        assert violation.evidence[0].block_hash != violation.evidence[1].block_hash


class TestBookAndRegret:
    def test_healthy_book_is_clean(self):
        engine, topo = make_engine(seed=3)
        run_rounds(engine, topo, 2, seed=4)
        auditor = SafetyAuditor("harness")
        for gov in engine.governors.values():
            assert auditor.audit_book(gov.book, 2) == []
        assert auditor.report.clean

    def test_poisoned_weight_flagged(self):
        engine, topo = make_engine(seed=3)
        run_rounds(engine, topo, 1, seed=4)
        gov = engine.governors["g0"]
        cid = next(iter(gov.book.collectors()))
        vector = gov.book.vector(cid)
        provider = next(iter(vector.provider_weights))
        vector.provider_weights[provider] = -1.0
        auditor = SafetyAuditor("harness")
        found = auditor.audit_book(gov.book, 1)
        assert any(v.type is ViolationType.REPUTATION_INVARIANT for v in found)

    def test_regret_guardrail(self):
        auditor = SafetyAuditor("harness")
        bound = rwm_bound(s_min=0.0, r=2, beta=0.9)
        assert auditor.audit_regret(bound * 0.5, r=2, beta=0.9, round_number=1) is None
        violation = auditor.audit_regret(bound + 1.0, r=2, beta=0.9, round_number=2)
        assert violation is not None
        assert violation.type is ViolationType.REGRET_BOUND
        assert violation.is_safety

    def test_report_helpers(self):
        report = AuditReport(auditor="x")
        assert report.clean
        v1 = AuditViolation(
            type=ViolationType.GOVERNOR_EQUIVOCATION, culprit="g0",
            round_number=1, detail="d", provable=True,
        )
        v2 = AuditViolation(
            type=ViolationType.AGREEMENT, culprit="unknown",
            round_number=1, detail="d",
        )
        report.violations.extend([v1, v2])
        assert not report.clean
        assert [v for v in report.violations if v.type is ViolationType.AGREEMENT] == [v2]
        assert [v for v in report.violations if v.provable] == [v1]
        # Attributed misbehaviour of others is not a local safety failure.
        assert report.safety_violations() == [v2]


class TestHarnessAudit:
    def test_clean_networked_run(self):
        engine, topo = make_engine(seed=11)
        run_rounds(engine, topo, 3, seed=12)
        engine.finalize()
        report = harness_audit(
            "harness", engine.ledgers(), list(engine.governors.values()),
            r=topo.r, beta=engine.params.beta, round_number=3,
        )
        assert report.clean, report.violations

    def test_engine_round_audit_is_clean_on_honest_runs(self):
        engine, topo = make_engine(seed=13)
        run_rounds(engine, topo, 3, seed=14)
        assert engine.harness_auditor.report.clean
        for auditor in engine.auditors.values():
            assert auditor.report.clean, auditor.report.violations
            assert sum(auditor.report.checks.values()) > 0

    def test_inprocess_engine_audit_report(self):
        topo = Topology.regular(l=8, n=4, m=3, r=2)
        engine = ProtocolEngine(topo, ProtocolParams(f=0.5), seed=21)
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=22)
        for _ in range(3):
            engine.run_round(workload.take(8))
        engine.finalize()
        assert engine.audit_report is not None
        assert engine.audit_report.clean, engine.audit_report.violations


class TestBitIdentity:
    """Commit votes flow on every run; their fixed-delay, fault-exempt
    path draws from no seeded stream, which is what keeps them
    ledger-neutral."""

    def test_audit_traffic_flows_when_enabled(self):
        engine, topo = make_engine(seed=7)
        run_rounds(engine, topo, 2, seed=8)
        voted = sum(
            len(votes)
            for auditor in engine.auditors.values()
            for votes in auditor._votes.values()
        )
        assert voted > 0


class TestQuarantine:
    def test_quarantined_collector_is_suppressed_and_dropped(self):
        engine, topo = make_engine(seed=31)
        run_rounds(engine, topo, 1, seed=32)
        violation = AuditViolation(
            type=ViolationType.COLLECTOR_EQUIVOCATION, culprit="c0",
            round_number=1, detail="test", provable=True,
        )
        engine.lifecycle.quarantine("c0", violation)
        assert "c0" in engine.quarantined_nodes
        for gov in engine.governors.values():
            assert not gov.book.is_registered("c0")
        assert engine.quarantine_log
        _t, _rnd, node, vtype = engine.quarantine_log[-1]
        assert node == "c0" and vtype == "collector-equivocation"
        # Quarantine is idempotent.
        engine.lifecycle.quarantine("c0", violation)
        assert len(engine.quarantine_log) == 1
        run_rounds(engine, topo, 2, seed=33)
        assert engine.store.height == 3
        # No fresh uploads from c0 were ingested post-quarantine.
        assert all(
            gov.ledger.height == engine.store.height
            for gov in engine.governors.values()
        )

    def test_quarantined_governor_excluded_from_leadership(self):
        engine, topo = make_engine(seed=41)
        violation = AuditViolation(
            type=ViolationType.GOVERNOR_EQUIVOCATION, culprit="g0",
            round_number=0, detail="test", provable=True,
        )
        engine.lifecycle.quarantine("g0", violation)
        run_rounds(engine, topo, 4, seed=42)
        for serial in range(1, engine.store.height + 1):
            assert engine.store.retrieve(serial).proposer != "g0"

    def test_release_readmits_collector_at_median(self):
        engine, topo = make_engine(seed=51)
        run_rounds(engine, topo, 2, seed=52)
        violation = AuditViolation(
            type=ViolationType.COLLECTOR_EQUIVOCATION, culprit="c1",
            round_number=2, detail="test", provable=True,
        )
        engine.lifecycle.quarantine("c1", violation)
        run_rounds(engine, topo, 1, seed=53)
        engine.lifecycle.release_quarantine("c1")
        assert "c1" not in engine.quarantined_nodes
        for gov in engine.governors.values():
            assert gov.book.is_registered("c1")
        run_rounds(engine, topo, 1, seed=54)
        engine.finalize()
        assert engine.store.height == 4

    def test_release_resyncs_governor(self):
        engine, topo = make_engine(seed=61)
        run_rounds(engine, topo, 1, seed=62)
        violation = AuditViolation(
            type=ViolationType.GOVERNOR_EQUIVOCATION, culprit="g2",
            round_number=1, detail="test", provable=True,
        )
        engine.lifecycle.quarantine("g2", violation)
        run_rounds(engine, topo, 2, seed=63)
        # Quarantined governors still receive blocks (ledgers never stall).
        assert engine.governors["g2"].ledger.height == engine.store.height
        engine.lifecycle.release_quarantine("g2")
        run_rounds(engine, topo, 1, seed=64)
        assert engine.governors["g2"].ledger.height == engine.store.height == 4
