"""Unit tests for the shared block store."""

from __future__ import annotations

import pytest

from repro.crypto.signatures import SigningKey
from repro.exceptions import (
    AgreementError,
    BlockNotFoundError,
    ChainIntegrityError,
    LedgerError,
    SkippedBlockError,
)
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.store import BlockStore
from repro.ledger.transaction import CheckStatus, Label, TxRecord, make_signed_transaction

KEY = SigningKey(owner="p0", secret=b"\x0e" * 32)


def block(serial: int, payload: str = "x", prev: bytes = GENESIS_PREV_HASH) -> Block:
    tx = make_signed_transaction(KEY, payload, 1.0, nonce=serial)
    rec = TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED)
    return Block(
        serial=serial, tx_list=(rec,), prev_hash=prev, proposer="g0", round_number=serial
    )


def chain(n: int) -> list[Block]:
    """Blocks ``1 .. n``, each linked to the one before."""
    blocks, tip = [], GENESIS_PREV_HASH
    for serial in range(1, n + 1):
        blocks.append(block(serial, prev=tip))
        tip = blocks[-1].hash()
    return blocks


def published(n: int) -> tuple[BlockStore, list[Block]]:
    store, blocks = BlockStore(), chain(n)
    for b in blocks:
        store.publish(b)
    return store, blocks


class TestPublish:
    def test_publish_and_retrieve(self):
        store = BlockStore()
        b = block(1)
        store.publish(b)
        assert store.retrieve(1) is b
        assert store.height == 1

    def test_republish_identical_is_noop(self):
        store = BlockStore()
        b = block(1)
        store.publish(b)
        store.publish(b)
        assert store.height == 1

    def test_conflicting_publish_rejected(self):
        store = BlockStore()
        store.publish(block(1, "a"))
        with pytest.raises(AgreementError):
            store.publish(block(1, "b"))

    def test_retrieve_missing(self):
        with pytest.raises(BlockNotFoundError):
            BlockStore().retrieve(1)


class TestCursors:
    def test_next_for_walks_in_order(self):
        store, _ = published(2)
        assert store.next_for("reader").serial == 1
        assert store.next_for("reader").serial == 2
        assert store.next_for("reader") is None

    def test_cursors_independent_per_reader(self):
        store = BlockStore()
        store.publish(block(1))
        assert store.next_for("a").serial == 1
        assert store.next_for("b").serial == 1

    def test_unread_count(self):
        store, _ = published(2)
        assert store.unread_count("r") == 2
        store.next_for("r")
        assert store.unread_count("r") == 1

    def test_reader_resumes_after_gap_fill(self):
        store, (b1,) = published(1)
        store.next_for("r")
        assert store.next_for("r") is None
        store.publish(block(2, prev=b1.hash()))
        assert store.next_for("r").serial == 2


class TestIncrementalHeight:
    def test_height_tracks_max_serial(self):
        # The store is a ledger: a gap or a broken link never lands, so
        # the height is the highest serial of an unbroken chain.
        b1, b2, b3 = chain(3)
        store = BlockStore()
        store.publish(b1)
        with pytest.raises(SkippedBlockError):
            store.publish(b3)
        with pytest.raises(ChainIntegrityError):
            store.publish(block(2, prev=b3.hash()))
        assert store.height == 1
        assert store.next_for("r") is b1 and store.next_for("r") is None
        store.publish(b2)
        store.publish(b3)
        assert store.height == 3

    def test_republish_leaves_height_alone(self):
        store, blocks = published(2)
        store.publish(blocks[1])
        store.publish(blocks[0])
        assert store.height == 2

    def test_tip_hash_follows_latest(self):
        store = BlockStore()
        assert store.tip_hash() == GENESIS_PREV_HASH
        b1 = block(1)
        store.publish(b1)
        assert store.tip_hash() == b1.hash()


class TestForgetReader:
    def test_forget_resets_cursor(self):
        store, _ = published(2)
        assert store.next_for("r").serial == 1
        store.forget_reader("r")
        assert store.next_for("r").serial == 1
        assert store.unread_count("r") == 1

    def test_forget_unknown_reader_is_noop(self):
        BlockStore().forget_reader("never-seen")


class TestAnchoredStore:
    TIP = b"\xaa" * 32

    def anchored(self) -> BlockStore:
        store = BlockStore()
        store.anchor(serial=5, tip_hash=self.TIP)
        return store

    def test_anchor_sets_base_and_tip(self):
        store = self.anchored()
        assert store.height == 5
        assert store.base_serial == 5
        assert store.tip_hash() == self.TIP

    def test_anchor_nonempty_rejected(self):
        store, _ = published(1)
        with pytest.raises(LedgerError):
            store.anchor(serial=1, tip_hash=self.TIP)

    def test_anchor_malformed_rejected(self):
        with pytest.raises(LedgerError):
            BlockStore().anchor(serial=0, tip_hash=self.TIP)
        with pytest.raises(LedgerError):
            BlockStore().anchor(serial=1, tip_hash=b"short")

    def test_publish_below_base_is_noop(self):
        store = self.anchored()
        store.publish(block(3))
        assert store.height == 5
        with pytest.raises(BlockNotFoundError, match="compacted"):
            store.retrieve(3)

    def test_publish_continues_above_base(self):
        store = self.anchored()
        b6 = block(6, prev=self.TIP)
        store.publish(b6)
        assert store.height == 6
        assert store.tip_hash() == b6.hash()

    def test_cursors_start_at_base(self):
        store = self.anchored()
        assert store.next_for("r") is None
        b6 = block(6, prev=self.TIP)
        store.publish(b6)
        assert store.unread_count("r") == 1
        assert store.next_for("r").serial == 6
