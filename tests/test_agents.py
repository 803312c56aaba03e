"""Unit tests for provider, collector, and governor agents."""

from __future__ import annotations

import pytest

from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    ConcealBehavior,
    ForgeBehavior,
    HonestBehavior,
)
from repro.agents.collector import Collector
from repro.agents.governor import Governor
from repro.agents.provider import Provider
from repro.core.params import ProtocolParams
from repro.crypto.identity import IdentityManager, Role
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    TxRecord,
    make_labeled_transaction,
)
from repro.ledger.validation import CountingOracle, GroundTruthOracle
from repro.network.topology import Topology
from repro.rng import default_rng


@pytest.fixture
def world():
    """A tiny world: IM, topology, oracle."""
    topo = Topology.regular(l=4, n=4, m=2, r=2)
    im = IdentityManager(seed=8)
    for p in topo.providers:
        im.enroll(p, Role.PROVIDER)
    for c in topo.collectors:
        im.enroll(c, Role.COLLECTOR)
    for g in topo.governors:
        im.enroll(g, Role.GOVERNOR)
    for c in topo.collectors:
        for p in topo.providers_of(c):
            im.register_link(c, p)
    oracle = GroundTruthOracle()
    return topo, im, oracle


def make_provider(world, pid="p0", active=True):
    topo, im, _oracle = world
    return Provider(
        provider_id=pid,
        key=im.record(pid).key,
        linked_collectors=topo.collectors_of(pid),
        active=active,
    )


def make_collector(world, cid="c0", behavior=None, seed=0):
    topo, im, _oracle = world
    return Collector(
        collector_id=cid,
        key=im.record(cid).key,
        linked_providers=topo.providers_of(cid),
        behavior=behavior or HonestBehavior(),
        rng=default_rng(seed),
    )


def make_governor(world, gid="g0", params=None):
    topo, im, oracle = world
    gov = Governor(
        governor_id=gid,
        key=im.record(gid).key,
        params=params or ProtocolParams(f=0.5),
        im=im,
        oracle=CountingOracle(inner=oracle),
        rng=default_rng(99),
    )
    gov.register_topology(topo)
    return gov


class TestProvider:
    def test_key_ownership_checked(self, world):
        _topo, im, _oracle = world
        with pytest.raises(ValueError):
            Provider(
                provider_id="p0", key=im.record("p1").key, linked_collectors=("c0",)
            )

    def test_transactions_have_fresh_nonces(self, world):
        provider = make_provider(world)
        a = provider.create_transaction("x", 1.0)
        b = provider.create_transaction("x", 1.0)
        assert a.tx_id != b.tx_id
        # What the provider counts as sent is exactly {a, b}: a twin holding
        # the same key signs the next nonce, and neither claims the other's.
        twin = make_provider(world)
        twin._nonce = provider._nonce
        c = twin.create_transaction("x", 1.0)
        _topo, _im, oracle = world
        for tx in (a, b, c):
            oracle.assign(tx, True)
        block = Block(
            serial=1,
            tx_list=tuple(
                TxRecord(tx=tx, label=Label.INVALID, status=CheckStatus.UNCHECKED)
                for tx in (a, b, c)
            ),
            prev_hash=GENESIS_PREV_HASH, proposer="g0", round_number=1,
        )
        assert provider.review_block(block, oracle) == [a.tx_id, b.tx_id]
        assert twin.review_block(block, oracle) == [c.tx_id]

    def test_review_block_argues_on_mislabel(self, world):
        _topo, _im, oracle = world
        provider = make_provider(world)
        tx = provider.create_transaction("x", 1.0)
        oracle.assign(tx, True)
        rec = TxRecord(tx=tx, label=Label.INVALID, status=CheckStatus.UNCHECKED)
        block = Block(
            serial=1, tx_list=(rec,), prev_hash=GENESIS_PREV_HASH,
            proposer="g0", round_number=1,
        )
        assert provider.review_block(block, oracle) == [tx.tx_id]

    def test_review_block_skips_valid_records(self, world):
        _topo, _im, oracle = world
        provider = make_provider(world)
        tx = provider.create_transaction("x", 1.0)
        oracle.assign(tx, True)
        rec = TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED)
        block = Block(
            serial=1, tx_list=(rec,), prev_hash=GENESIS_PREV_HASH,
            proposer="g0", round_number=1,
        )
        assert provider.review_block(block, oracle) == []

    def test_review_block_skips_truly_invalid(self, world):
        _topo, _im, oracle = world
        provider = make_provider(world)
        tx = provider.create_transaction("x", 1.0)
        oracle.assign(tx, False)
        rec = TxRecord(tx=tx, label=Label.INVALID, status=CheckStatus.UNCHECKED)
        block = Block(
            serial=1, tx_list=(rec,), prev_hash=GENESIS_PREV_HASH,
            proposer="g0", round_number=1,
        )
        assert provider.review_block(block, oracle) == []

    def test_inactive_provider_never_argues(self, world):
        _topo, _im, oracle = world
        provider = make_provider(world, active=False)
        tx = provider.create_transaction("x", 1.0)
        oracle.assign(tx, True)
        rec = TxRecord(tx=tx, label=Label.INVALID, status=CheckStatus.UNCHECKED)
        block = Block(
            serial=1, tx_list=(rec,), prev_hash=GENESIS_PREV_HASH,
            proposer="g0", round_number=1,
        )
        assert provider.review_block(block, oracle) == []

    def test_argues_only_once(self, world):
        _topo, _im, oracle = world
        provider = make_provider(world)
        tx = provider.create_transaction("x", 1.0)
        oracle.assign(tx, True)
        rec = TxRecord(tx=tx, label=Label.INVALID, status=CheckStatus.UNCHECKED)
        block = Block(
            serial=1, tx_list=(rec,), prev_hash=GENESIS_PREV_HASH,
            proposer="g0", round_number=1,
        )
        assert provider.review_block(block, oracle) == [tx.tx_id]
        assert provider.review_block(block, oracle) == []

    def test_ignores_other_providers_tx(self, world):
        _topo, _im, oracle = world
        provider = make_provider(world, "p0")
        other = make_provider(world, "p1")
        tx = other.create_transaction("x", 1.0)
        oracle.assign(tx, True)
        rec = TxRecord(tx=tx, label=Label.INVALID, status=CheckStatus.UNCHECKED)
        block = Block(
            serial=1, tx_list=(rec,), prev_hash=GENESIS_PREV_HASH,
            proposer="g0", round_number=1,
        )
        assert provider.review_block(block, oracle) == []


class TestCollector:
    def test_honest_processing(self, world):
        _topo, _im, oracle = world
        provider = make_provider(world)
        collector = make_collector(world)
        tx = provider.create_transaction("x", 1.0)
        oracle.assign(tx, True)
        (labeled,) = collector.process_all(tx, oracle)
        assert labeled.label is Label.VALID
        assert collector.uploads == 1

    def test_inverter_flips(self, world):
        _topo, _im, oracle = world
        provider = make_provider(world)
        collector = make_collector(world, behavior=AlwaysInvertBehavior())
        tx = provider.create_transaction("x", 1.0)
        oracle.assign(tx, True)
        assert [u.label for u in collector.process_all(tx, oracle)] == [Label.INVALID]

    def test_concealer_returns_none(self, world):
        _topo, _im, oracle = world
        provider = make_provider(world)
        collector = make_collector(world, behavior=ConcealBehavior(1.0))
        tx = provider.create_transaction("x", 1.0)
        oracle.assign(tx, True)
        assert collector.process_all(tx, oracle) == []
        assert collector.conceals == 1

    def test_forged_upload_fails_verification(self, world):
        _topo, im, _oracle = world
        collector = make_collector(world, behavior=ForgeBehavior(1.0))
        forged = collector.maybe_forge(timestamp=1.0)
        assert forged is not None
        tx = forged.tx
        assert not im.verify(tx)

    def test_honest_never_forges(self, world):
        collector = make_collector(world)
        assert collector.maybe_forge(1.0) is None


class TestGovernor:
    def _upload(self, world, payload="x", valid=True, label=None, cid="c0"):
        topo, im, oracle = world
        pid = topo.providers_of(cid)[0]
        provider = Provider(
            provider_id=pid, key=im.record(pid).key,
            linked_collectors=topo.collectors_of(pid),
        )
        tx = provider.create_transaction(payload, 1.0)
        oracle.assign(tx, valid)
        use_label = label if label is not None else Label.from_bool(valid)
        return make_labeled_transaction(im.record(cid).key, tx, use_label), tx

    def test_ingest_valid_upload(self, world):
        gov = make_governor(world)
        upload, _tx = self._upload(world)
        assert gov.ingest_upload(upload)
        assert gov.metrics.uploads_received == 1

    def test_ingest_detects_forgery(self, world):
        gov = make_governor(world)
        collector = make_collector(world, behavior=ForgeBehavior(1.0))
        forged = collector.maybe_forge(1.0)
        assert not gov.ingest_upload(forged)
        assert gov.metrics.forgeries_caught == 1
        assert gov.book.vector("c0").forge == -1

    def test_ingest_rejects_bad_collector_signature(self, world):
        topo, im, oracle = world
        gov = make_governor(world)
        upload, tx = self._upload(world)
        # Re-sign claiming a different collector.
        from repro.ledger.transaction import LabeledTransaction

        impostor = LabeledTransaction(
            tx=upload.tx,
            label=upload.label,
            collector="c1",
            collector_signature=upload.collector_signature,
        )
        assert not gov.ingest_upload(impostor)
        # No reputational damage to c1: unattributable messages are dropped.
        assert gov.book.vector("c1").forge == 0

    def test_duplicate_upload_ignored(self, world):
        gov = make_governor(world)
        upload, _tx = self._upload(world)
        assert gov.ingest_upload(upload)
        assert not gov.ingest_upload(upload)

    def test_screen_pending_produces_records(self, world):
        gov = make_governor(world)
        upload, _tx = self._upload(world, valid=True)
        gov.ingest_upload(upload)
        records = gov.screen_pending()
        assert len(records) == 1
        assert records[0].label is Label.VALID
        assert gov.metrics.transactions_screened == 1

    def test_checked_invalid_discarded(self, world):
        # A +1 label is always checked (only a -1 may skip), so the
        # invalid transaction is verified and dropped for any seed.
        gov = make_governor(world)
        upload, _tx = self._upload(world, valid=False, label=Label.VALID)
        gov.ingest_upload(upload)
        records = gov.screen_pending()
        assert records == []

    def test_case2_updates_applied(self, world):
        gov = make_governor(world)
        upload, _tx = self._upload(world, valid=True)
        gov.ingest_upload(upload)
        gov.screen_pending()
        assert gov.book.vector("c0").misreport == 1

    def test_argue_flow(self, world):
        # Force an unchecked-invalid record for a valid transaction: the
        # collector lies and the governor's rng is made to skip the check.
        topo, im, oracle = world

        class SkippyRng:
            def choice(self, n, p=None):
                return 0
            def random(self):
                return 0.0

        gov = Governor(
            governor_id="g0", key=im.record("g0").key,
            params=ProtocolParams(f=0.99), im=im,
            oracle=CountingOracle(inner=oracle), rng=SkippyRng(),
        )
        gov.register_topology(topo)
        upload, tx = self._upload(world, valid=True, label=Label.INVALID)
        gov.ingest_upload(upload)
        records = gov.screen_pending()
        assert records[0].status is CheckStatus.UNCHECKED
        assert gov.metrics.unchecked == 1

        reevaluated = gov.handle_argue(tx.tx_id)
        assert reevaluated is not None
        assert reevaluated.label is Label.VALID
        assert reevaluated.status is CheckStatus.REEVALUATED
        assert gov.metrics.mistakes == 1
        assert gov.metrics.realized_loss == 2.0
        # The lying collector's weight was discounted.
        assert gov.book.weight("c0", tx.provider) < 1.0

    def test_argue_for_unknown_tx_rejected(self, world):
        gov = make_governor(world)
        assert gov.handle_argue("ghost") is None

    def test_reveal_truth_accounts_loss(self, world):
        topo, im, oracle = world

        class SkippyRng:
            def choice(self, n, p=None):
                return 0
            def random(self):
                return 0.0

        gov = Governor(
            governor_id="g0", key=im.record("g0").key,
            params=ProtocolParams(f=0.99), im=im,
            oracle=CountingOracle(inner=oracle), rng=SkippyRng(),
        )
        gov.register_topology(topo)
        upload, tx = self._upload(world, valid=True, label=Label.INVALID)
        gov.ingest_upload(upload)
        gov.screen_pending()
        gov.reveal_truth(tx.tx_id, oracle)
        assert gov.metrics.mistakes == 1
        assert gov.metrics.expected_loss > 0
        # A later argue is rejected: already resolved.
        assert gov.handle_argue(tx.tx_id) is None

    def test_fresh_governor_links_before_any_registration(self, world):
        _topo, im, oracle = world
        gov = Governor(
            governor_id="g0", key=im.record("g0").key,
            params=ProtocolParams(f=0.5), im=im,
            oracle=CountingOracle(inner=oracle), rng=default_rng(99),
        )
        gov.link_provider("p0", ("c0",))  # nothing visible yet: links nobody
        assert gov._linked["p0"] == ()
        gov.admit_collector("c0", ["p0"])
        assert gov._linked["p0"] == ("c0",)


class TestAbusiveArguer:
    def _invalid_unchecked_block(self, world, provider):
        topo, _im, oracle = world
        tx = provider.create_transaction("junk", 1.0)
        oracle.assign(tx, False)  # genuinely invalid
        rec = TxRecord(tx=tx, label=Label.INVALID, status=CheckStatus.UNCHECKED)
        return Block(
            serial=1, tx_list=(rec,), prev_hash=GENESIS_PREV_HASH,
            proposer="g0", round_number=1,
        ), tx

    def test_honest_provider_never_argues_correct_records(self, world):
        _topo, _im, oracle = world
        provider = make_provider(world)
        block, _tx = self._invalid_unchecked_block(world, provider)
        assert provider.review_block(block, oracle) == []

    def test_abusive_provider_argues_spuriously(self, world):
        topo, im, oracle = world
        provider = Provider(
            provider_id="p0",
            key=im.record("p0").key,
            linked_collectors=topo.collectors_of("p0"),
            argue_abuse_rate=1.0,
            abuse_rng=default_rng(1),
        )
        block, tx = self._invalid_unchecked_block(world, provider)
        assert provider.review_block(block, oracle) == [tx.tx_id]
        assert provider.spurious_argues == 1

    def test_spurious_argue_cannot_flip_record(self, world):
        """The governor re-validates and the truth stands: no record is
        produced, the griefing cost is one validation."""
        topo, im, oracle = world

        class SkippyRng:
            def choice(self, n, p=None):
                return 0
            def random(self):
                return 0.0

        gov = Governor(
            governor_id="g0", key=im.record("g0").key,
            params=ProtocolParams(f=0.99), im=im,
            oracle=CountingOracle(inner=oracle), rng=SkippyRng(),
        )
        gov.register_topology(topo)
        provider = Provider(
            provider_id="p0", key=im.record("p0").key,
            linked_collectors=topo.collectors_of("p0"),
            argue_abuse_rate=1.0, abuse_rng=default_rng(2),
        )
        tx = provider.create_transaction("junk", 1.0)
        oracle.assign(tx, False)
        upload = make_labeled_transaction(
            im.record("c0").key, tx, Label.INVALID
        )
        gov.ingest_upload(upload)
        records = gov.screen_pending()
        assert records[0].status is CheckStatus.UNCHECKED
        validations_before = gov.oracle.calls
        result = gov.handle_argue(tx.tx_id)
        assert result is None  # truth is invalid: nothing re-enters a block
        assert gov.oracle.calls == validations_before + 1  # the griefing cost
        assert gov.metrics.mistakes == 0  # record was right all along

    def test_abuse_rate_validation(self, world):
        _topo, im, _oracle = world
        with pytest.raises(ValueError):
            Provider(
                provider_id="p0", key=im.record("p0").key,
                linked_collectors=("c0",), argue_abuse_rate=1.5,
            )
        with pytest.raises(ValueError):
            Provider(
                provider_id="p0", key=im.record("p0").key,
                linked_collectors=("c0",), argue_abuse_rate=0.5,  # no rng
            )
