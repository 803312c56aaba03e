"""Tests for replica catch-up (ledger sync)."""

from __future__ import annotations

import pytest

from repro.crypto.signatures import SigningKey
from repro.exceptions import ChainIntegrityError
from repro.ledger.block import Block
from repro.ledger.chain import Ledger
from repro.ledger.store import BlockStore
from repro.ledger.sync import sync_replica
from repro.ledger.transaction import CheckStatus, Label, TxRecord, make_signed_transaction

KEY = SigningKey(owner="p0", secret=b"\x15" * 32)
_NONCE = iter(range(100_000))


def publish_chain(store: BlockStore, n: int) -> list[Block]:
    prev = b"\x00" * 32
    blocks = []
    for serial in range(1, n + 1):
        tx = make_signed_transaction(KEY, f"b{serial}", 1.0, nonce=next(_NONCE))
        rec = TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED)
        block = Block(
            serial=serial, tx_list=(rec,), prev_hash=prev,
            proposer="g0", round_number=serial,
        )
        store.publish(block)
        blocks.append(block)
        prev = block.hash()
    return blocks


def assert_caught_up(replica: Ledger, store: BlockStore) -> None:
    assert replica.height == store.height
    assert replica.tip_hash() == store.tip_hash()


class TestSyncReplica:
    def test_full_catchup_from_genesis(self):
        store = BlockStore()
        publish_chain(store, 5)
        replica = Ledger(owner="late")
        appended = sync_replica(replica, store)
        assert appended == 5
        assert_caught_up(replica, store)

    def test_noop_when_caught_up(self):
        store = BlockStore()
        blocks = publish_chain(store, 3)
        replica = Ledger(owner="r")
        for block in blocks:
            replica.append(block)
        assert sync_replica(replica, store) == 0
        assert_caught_up(replica, store)

    def test_corrupt_replica_detected(self):
        store = BlockStore()
        publish_chain(store, 3)
        # A replica holding a divergent block cannot link the next one.
        replica = Ledger(owner="corrupt")
        tx = make_signed_transaction(KEY, "evil", 1.0, nonce=next(_NONCE))
        rec = TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED)
        replica.append(
            Block(serial=1, tx_list=(rec,), prev_hash=b"\x00" * 32,
                  proposer="gX", round_number=1)
        )
        with pytest.raises(ChainIntegrityError):
            sync_replica(replica, store)


class TestLocalCorruptionRecovery:
    """Satellite: what a node does when its own replica is the bad one.

    ``sync_replica`` refuses to extend a divergent replica; the operator
    guidance (DESIGN.md §durability) is to discard it and rebuild from
    genesis — or, when the peer's store is compacted, from the peer's
    checkpoint base via ``Ledger.from_checkpoint``.
    """

    def _divergent_replica(self) -> Ledger:
        replica = Ledger(owner="corrupt")
        tx = make_signed_transaction(KEY, "evil", 1.0, nonce=next(_NONCE))
        rec = TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED)
        replica.append(
            Block(serial=1, tx_list=(rec,), prev_hash=b"\x00" * 32,
                  proposer="gX", round_number=1)
        )
        return replica

    def test_corrupt_replica_never_partially_extended(self):
        store = BlockStore()
        publish_chain(store, 4)
        replica = self._divergent_replica()
        with pytest.raises(ChainIntegrityError):
            sync_replica(replica, store)
        # The failed sync must not have smuggled any peer blocks in.
        assert replica.height == 1

    def test_rebuild_from_genesis_recovers(self):
        store = BlockStore()
        publish_chain(store, 4)
        replica = self._divergent_replica()
        with pytest.raises(ChainIntegrityError):
            sync_replica(replica, store)
        # Guidance: throw the corrupt replica away, start fresh.
        rebuilt = Ledger(owner="corrupt")
        assert sync_replica(rebuilt, store) == 4
        assert_caught_up(rebuilt, store)
        rebuilt.verify_integrity()

    def test_rebuild_from_checkpoint_base_when_peer_compacted(self):
        store = BlockStore()
        blocks = publish_chain(store, 6)
        # A compacted peer can only serve serials above its base; the
        # rebuilt replica must anchor at the matching checkpoint.
        compacted = BlockStore()
        compacted.anchor(serial=4, tip_hash=blocks[3].hash())
        for b in blocks[4:]:
            compacted.publish(b)
        rebuilt = Ledger.from_checkpoint(
            owner="corrupt", serial=4, tip_hash=blocks[3].hash()
        )
        assert sync_replica(rebuilt, compacted) == 2
        assert rebuilt.height == 6
        assert rebuilt.tip_hash() == blocks[-1].hash()
        rebuilt.verify_integrity()

    def test_mismatched_anchor_detected_not_absorbed(self):
        store = BlockStore()
        publish_chain(store, 5)
        # Anchored on a tip hash the peer chain never produced: the very
        # first pulled block fails to link.
        rebuilt = Ledger.from_checkpoint(
            owner="corrupt", serial=2, tip_hash=b"\x99" * 32
        )
        with pytest.raises(ChainIntegrityError):
            sync_replica(rebuilt, store)
        assert rebuilt.height == 2  # still only the bad anchor, nothing loaded


class _CorruptingPeerStore(BlockStore):
    """A peer whose transfer hands over a tampered block for one serial.

    Models mid-transfer corruption (a wire bit-flip, a bad disk read on
    the peer): the block arrives with the right serial but a broken
    hash link.  ``poisoned`` counts how many retrievals of that serial
    corrupt before the peer serves clean copies again; ``None`` poisons
    forever (a persistently bad peer).
    """

    def __init__(self, corrupt_serial: int, poisoned: int | None = 1):
        super().__init__()
        self._corrupt_serial = corrupt_serial
        self._poisoned = poisoned

    def retrieve(self, serial: int) -> Block:
        block = super().retrieve(serial)
        if serial != self._corrupt_serial or self._poisoned == 0:
            return block
        if self._poisoned is not None:
            self._poisoned -= 1
        return Block(
            serial=block.serial, tx_list=block.tx_list,
            prev_hash=b"\x77" * 32, proposer=block.proposer,
            round_number=block.round_number,
        )


class TestMidTransferCorruption:
    """Satellite: catch-up retried against a peer that corrupts in flight.

    The replica's own append checks are the integrity boundary: a
    tampered block fails to link, the sync aborts at the good prefix,
    and a retry resumes from ``height + 1`` — either against the healed
    peer or against a different one.  Nothing corrupt is ever absorbed,
    and no progress is lost.
    """

    def test_transient_corruption_retried_to_convergence(self):
        peer = _CorruptingPeerStore(corrupt_serial=3, poisoned=1)
        publish_chain(peer, 5)
        replica = Ledger(owner="late")
        with pytest.raises(ChainIntegrityError):
            sync_replica(replica, peer)
        # Aborted exactly at the good prefix: serials 1-2 kept, the
        # tampered serial 3 rejected before it could take effect.
        assert replica.height == 2
        replica.verify_integrity()
        # Retry once the corruption clears: resumes, not restarts.
        assert sync_replica(replica, peer) == 3
        assert_caught_up(replica, peer)
        replica.verify_integrity()

    def test_persistent_corruptor_never_absorbed_then_peer_switch(self):
        bad_peer = _CorruptingPeerStore(corrupt_serial=3, poisoned=None)
        blocks = publish_chain(bad_peer, 5)
        good_peer = BlockStore()
        for block in blocks:
            good_peer.publish(block)
        replica = Ledger(owner="late")
        for _ in range(3):  # every retry fails identically, no creep
            with pytest.raises(ChainIntegrityError):
                sync_replica(replica, bad_peer)
            assert replica.height == 2
        # Operator gives up on the bad peer; an honest one finishes.
        assert sync_replica(replica, good_peer) == 3
        assert_caught_up(replica, good_peer)
        replica.verify_integrity()
