"""Integration tests for the packet-level networked protocol engine."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.agents.behaviors import AlwaysInvertBehavior, ForgeBehavior, MisreportBehavior
from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.exceptions import ConfigurationError
from repro.ledger.chain import check_agreement
from repro.ledger.properties import check_all_properties
from repro.ledger.transaction import CheckStatus, Label, make_labeled_transaction
from repro.network.topology import Topology
from repro.sharding.inbox import ReceiptInbox
from repro.sharding.receipts import make_receipt
from repro.workloads.generator import BernoulliWorkload


def make_engine(f=0.5, behaviors=None, seed=0, delta=0.2, max_delay=0.05):
    topo = Topology.regular(l=8, n=4, m=3, r=2)
    params = ProtocolParams(f=f, delta=delta)
    engine = NetworkedProtocolEngine(
        topo, params, behaviors=behaviors, seed=seed, max_delay=max_delay
    )
    return engine, topo


class TestConstruction:
    def test_delta_must_cover_spread(self):
        topo = Topology.regular(l=8, n=4, m=3, r=2)
        with pytest.raises(ConfigurationError):
            NetworkedProtocolEngine(
                topo, ProtocolParams(delta=0.01), max_delay=0.05
            )

    def test_delta_equal_to_the_spread_is_accepted(self):
        # Two hops of at most max_delay each: a Δ of exactly that covers
        # the last report, so the bound is inclusive.
        engine, _ = make_engine(delta=0.1, max_delay=0.05)
        assert engine.params.delta == 2 * 0.05

    def test_unknown_behavior_rejected(self):
        topo = Topology.regular(l=8, n=4, m=3, r=2)
        with pytest.raises(ConfigurationError):
            NetworkedProtocolEngine(
                topo, ProtocolParams(delta=0.2),
                behaviors={"zz": MisreportBehavior(0.1)},
            )

    def test_stake_for_unknown_governor_rejected(self):
        topo = Topology.regular(l=8, n=4, m=3, r=2)
        with pytest.raises(ConfigurationError, match=r"unknown governors.*'g9'"):
            NetworkedProtocolEngine(
                topo, ProtocolParams(delta=0.2), stake={"g0": 2, "g9": 1}
            )

    @pytest.mark.parametrize("engine_cls", [ProtocolEngine, NetworkedProtocolEngine])
    def test_behaviors_for_unknown_collector_rejected(self, engine_cls):
        topo = Topology.regular(l=8, n=4, m=3, r=2)
        with pytest.raises(ConfigurationError, match=r"unknown collectors.*'c9'"):
            engine_cls(
                topo, ProtocolParams(delta=0.2),
                behaviors={"c0": MisreportBehavior(0.5), "c9": MisreportBehavior(0.5)},
            )

    def test_plain_engine_holds_no_receipt_state(self):
        """Only ``build_shard_engine`` gives an engine a receipt inbox."""
        engine, _ = make_engine()
        assert engine.receipts is None
        with pytest.raises(ConfigurationError, match="no cross-shard receipt inbox"):
            engine.inject_receipts([])

    def test_oversized_batch_reports_batch_and_queue_sizes(self):
        topo = Topology.regular(l=8, n=4, m=3, r=2)
        engine = NetworkedProtocolEngine(topo, ProtocolParams(delta=0.2, b_limit=4))
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=1)
        with pytest.raises(
            ConfigurationError, match=r"batch of 5 plus 0 re-evaluated.*b_limit=4"
        ):
            engine.run_round(workload.take(5))
        assert engine.store.height == 0


class TestCrashStop:
    """What a governor's crash takes with it shows after its recovery."""

    def crash_mid_round(self):
        """Crash and recover ``g0`` while it buffers a cross-shard receipt
        and holds armed Δ timers; returns the engine and one upload ``g0``
        received before its crash."""
        engine, topo = make_engine()
        engine.receipts = ReceiptInbox(engine, relay_id="relay")
        gid, other = topo.governors[:2]
        receipt = make_receipt(engine.governors[other].key, 0, 1, "tx-x", home_serial=1)
        for governor in (gid, other):
            engine.receipts.ingest(governor, receipt)
        uploads = []
        ingest = engine.governors[gid].ingest_upload
        engine.governors[gid].ingest_upload = (
            lambda up, *buffer: (uploads.append(up), ingest(up, *buffer))[1]
        )
        workload = BernoulliWorkload(topo.providers, p_valid=1.0, seed=1)
        engine.begin_round(workload.take(4))
        engine.sim.run(until=engine.sim.now + 2 * 0.05 + 0.001)  # uploads in, Δ armed
        assert uploads and engine.timer(gid, uploads[0].tx.tx_id) == "pending"
        engine.lifecycle.crash(gid)
        engine.lifecycle.recover(gid)
        return engine, uploads[0]

    def test_recovered_governor_packs_no_receipt_it_buffered_before(self):
        engine, _ = self.crash_mid_round()
        gid, other = engine.topology.governors[:2]
        # The relay re-sends; until then the recovered governor, were it
        # leader, has nothing to pack, while a governor that stayed up does.
        assert engine.receipts.take(gid, 8) == []
        assert len(engine.receipts.take(other, 8)) == 1

    def test_recovered_governor_arms_a_timer_for_a_late_upload(self):
        engine, upload = self.crash_mid_round()
        gid = engine.topology.governors[0]
        delta = engine.params.delta
        tx_id = upload.tx.tx_id
        assert engine.timer(gid, tx_id) is None  # the crash disarmed it
        engine.sim.run(until=engine.sim.now + delta + 0.001)  # old timers fire
        assert engine.timer(gid, tx_id) is None
        engine._governor_on_upload(gid)(upload.collector, upload)
        assert engine.governors[gid].has_buffered(tx_id)
        assert engine.timer(gid, tx_id) == "pending"
        engine.sim.run(until=engine.sim.now + delta + 0.001)
        # Screened by the timer the late upload armed: a timer id kept
        # across the crash would leave it buffered for good.
        assert not engine.governors[gid].has_buffered(tx_id)
        assert engine.timer(gid, tx_id) == "fired"


class TestUploadDelivery:
    """What one governor does with each upload it is delivered: audit it,
    ingest it, and arm one Δ timer per transaction, at the first upload it
    ingests.  Screening times show which upload armed the timer."""

    def setup_method(self):
        self.engine, topo = make_engine()
        self.gid = topo.governors[0]
        self.governor = self.engine.governors[self.gid]
        provider = self.engine.providers[topo.providers[0]]
        self.cid, self.other = provider.linked_collectors[:2]
        self.tx = provider.create_transaction({"seq": 0}, timestamp=0.0)
        self.screened = []
        screen = self.governor.screen_single

        def record(tx_id):
            self.screened.append((tx_id, self.engine.sim.now))
            return screen(tx_id)

        self.governor.screen_single = record

    def upload(self, cid, label=Label.VALID, tx=None):
        key = self.engine.collectors[cid].key
        return make_labeled_transaction(key, self.tx if tx is None else tx, label)

    def deliver(self, upload):
        """Hand ``upload`` to the governor as the uploads group does; returns when."""
        self.engine._governor_on_upload(self.gid)(upload.collector, upload)
        return self.engine.sim.now

    def wait(self, seconds):
        self.engine.sim.run(until=self.engine.sim.now + seconds)

    def test_upload_after_screening_arms_no_second_timer(self):
        delta = self.engine.params.delta
        first = self.upload(self.cid)
        armed_at = self.deliver(first)
        self.wait(delta + 0.001)
        assert self.screened == [(self.tx.tx_id, pytest.approx(armed_at + delta))]
        # A late report from another collector, and a replay of the first:
        # both audited and checked, neither arms a second timer.
        checks = self.engine.auditors[self.gid].report.checks["upload-label"]
        received = self.governor.metrics.uploads_received
        self.deliver(self.upload(self.other))
        self.deliver(first)
        assert not self.governor.has_buffered(self.tx.tx_id)
        self.wait(2 * delta)
        assert self.engine.auditors[self.gid].report.checks["upload-label"] == checks + 2
        assert self.governor.metrics.uploads_received == received + 2
        assert len(self.screened) == 1
        assert self.engine.timer(self.gid, self.tx.tx_id) == "fired"

    def test_forged_first_upload_arms_nothing(self):
        delta = self.engine.params.delta
        forged_tx = replace(self.tx, provider_signature=b"\x00" * 32)
        assert forged_tx.tx_id == self.tx.tx_id
        self.deliver(self.upload(self.cid, tx=forged_tx))
        assert self.governor.metrics.forgeries_caught == 1
        self.wait(delta / 2)
        armed_at = self.deliver(self.upload(self.other))
        self.wait(delta + 0.001)
        assert self.screened == [(self.tx.tx_id, pytest.approx(armed_at + delta))]

    def test_upload_from_a_churned_out_collector_arms_nothing(self):
        delta = self.engine.params.delta
        self.engine.lifecycle.crash(self.cid)
        assert not self.governor.book.is_registered(self.cid)
        self.deliver(self.upload(self.cid))
        self.wait(delta / 2)
        armed_at = self.deliver(self.upload(self.other))
        self.wait(delta + 0.001)
        assert self.screened == [(self.tx.tx_id, pytest.approx(armed_at + delta))]

    def test_two_labels_broadcast_quarantine_with_the_delivered_pair(self):
        engine = self.engine
        first = self.upload(self.cid, Label.VALID)
        second = self.upload(self.cid, Label.INVALID)
        engine.broadcast.broadcast("uploads", self.cid, first)
        engine.broadcast.broadcast("uploads", self.cid, second)
        self.wait(2 * engine.network.max_delay + 0.001)
        assert self.cid in engine.quarantined_nodes
        # The first governor to hold both contains the collector; the rest
        # drop its second upload unaudited.
        (violation,) = [
            v for auditor in engine.auditors.values() for v in auditor.report.violations
        ]
        assert violation.provable and violation.culprit == self.cid
        assert violation.evidence[0] is first and violation.evidence[1] is second


class TestRounds:
    def test_blocks_flow_to_all_governors(self):
        engine, topo = make_engine()
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=1)
        for _ in range(4):
            engine.run_round(workload.take(8))
        assert engine.store.height == 4
        for gov in engine.governors.values():
            assert gov.ledger.height == 4
        check_agreement(engine.ledgers())

    def test_feed_in_flight_to_a_released_collector_is_dropped(self):
        """A feed that outlives the collector's migration must not crash the shard."""
        engine, topo = make_engine()
        workload = BernoulliWorkload(topo.providers, p_valid=1.0, seed=3)
        engine.run_round(workload.take(8))
        ctx = engine.begin_round(workload.take(8))  # feeds are on the wire
        engine.lifecycle.release("c0")
        engine.network.run_until(ctx.drain_until)  # KeyError before the fix
        engine.network.run_until(engine.begin_argue(ctx))
        engine.complete_round(ctx)
        engine.run_round([])
        assert engine.store.height == 3
        check_agreement(engine.ledgers())
        # r = 2: the other linked collector still uploaded every tx.
        packed = sum(len(engine.store.retrieve(s)) for s in (1, 2, 3))
        assert packed == 16

    def test_every_offered_valid_tx_lands(self):
        engine, topo = make_engine(f=0.3)
        workload = BernoulliWorkload(topo.providers, p_valid=1.0, seed=2)
        result = engine.run_round(workload.take(8))
        # All-honest collectors + all-valid txs: all 8 in the block.
        assert len(result.block) == 8
        assert all(rec.label is Label.VALID for rec in result.block.tx_list)

    def test_five_properties_hold(self):
        behaviors = {"c0": MisreportBehavior(0.5), "c1": ForgeBehavior(0.3)}
        engine, topo = make_engine(behaviors=behaviors, seed=4)
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=5)
        for _ in range(8):
            engine.run_round(workload.take(8))
        engine.finalize()
        report = check_all_properties(engine.ledgers(), engine.transcript)
        assert report.all_hold, report.violations

    def test_argue_roundtrip_over_network(self):
        behaviors = {f"c{i}": AlwaysInvertBehavior() for i in range(2)}
        engine, topo = make_engine(f=0.9, behaviors=behaviors, seed=6)
        workload = BernoulliWorkload(topo.providers, p_valid=1.0, seed=7)
        total_argues = 0
        reevaluated = []
        for _ in range(12):
            result = engine.run_round(workload.take(8))
            total_argues += result.argues
            reevaluated.extend(
                rec for rec in result.block.tx_list
                if rec.status is CheckStatus.REEVALUATED
            )
        assert total_argues > 0
        assert reevaluated
        assert all(rec.label is Label.VALID for rec in reevaluated)

    def test_forgeries_caught_over_network(self):
        engine, topo = make_engine(behaviors={"c0": ForgeBehavior(1.0)}, seed=8)
        workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=9)
        for _ in range(3):
            engine.run_round(workload.take(8))
        for gov in engine.governors.values():
            assert gov.metrics.forgeries_caught == 3
            assert gov.book.vector("c0").forge == -3


class TestCrossEngineConsistency:
    def test_packet_and_analytic_engines_agree_on_outcomes(self):
        """Same topology/workload/behaviours: both engines catch the same
        misreporter and record comparable unchecked rates."""
        topo = Topology.regular(l=8, n=4, m=3, r=2)
        behaviors = {"c0": MisreportBehavior(0.6)}
        params = ProtocolParams(f=0.6, delta=0.2)

        net = NetworkedProtocolEngine(topo, params, behaviors=dict(behaviors), seed=11)
        wl1 = BernoulliWorkload(topo.providers, p_valid=0.7, seed=12)
        for _ in range(15):
            net.run_round(wl1.take(8))
        net.finalize()

        direct = ProtocolEngine(topo, params, behaviors=dict(behaviors), seed=11)
        wl2 = BernoulliWorkload(topo.providers, p_valid=0.7, seed=12)
        for _ in range(15):
            direct.run_round(wl2.take(8))
        direct.finalize()

        for engine in (net, direct):
            gov = engine.governors["g0"]
            honest_w = gov.book.weight("c1", topo.providers_of("c1")[0])
            liar_providers = topo.providers_of("c0")
            liar_w = min(gov.book.weight("c0", p) for p in liar_providers)
            # The misreporter's worst weight is below the honest baseline
            # in both engines (they see different RNG streams, so exact
            # values differ; the qualitative outcome must not).
            assert liar_w <= honest_w

    def test_real_message_counts_scale_with_m(self):
        def messages(m):
            topo = Topology.regular(l=8, n=4, m=m, r=2)
            engine = NetworkedProtocolEngine(
                topo, ProtocolParams(f=0.5, delta=0.2), seed=13
            )
            wl = BernoulliWorkload(topo.providers, p_valid=0.8, seed=14)
            engine.run_round(wl.take(8))
            return engine.network.stats.messages_sent

        m3, m6 = messages(3), messages(6)
        assert m6 > m3
        # Upload fan-out doubles with m; total grows but is sub-quadratic
        # for the ordinary-block path.
        assert m6 < 4 * m3
