"""Unit tests for blocks."""

from __future__ import annotations

import pytest

from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import SigningKey
from repro.exceptions import BlockLimitExceededError, LedgerError
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    TxRecord,
    make_signed_transaction,
)


def make_records(n: int) -> tuple[TxRecord, ...]:
    key = SigningKey(owner="p0", secret=b"\x0c" * 32)
    out = []
    for i in range(n):
        tx = make_signed_transaction(key, f"payload-{i}", timestamp=1.0, nonce=i)
        out.append(TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED))
    return tuple(out)


def make_block(serial=1, n_tx=3, prev=GENESIS_PREV_HASH, **kw) -> Block:
    return Block(
        serial=serial,
        tx_list=make_records(n_tx),
        prev_hash=prev,
        proposer="g0",
        round_number=serial,
        **kw,
    )


class TestConstruction:
    def test_basic(self):
        block = make_block()
        assert block.serial == 1
        assert len(block) == 3

    def test_serial_starts_at_one(self):
        with pytest.raises(LedgerError):
            make_block(serial=0)

    def test_prev_hash_length_checked(self):
        with pytest.raises(LedgerError):
            make_block(prev=b"short")

    def test_b_limit_enforced(self):
        with pytest.raises(BlockLimitExceededError):
            make_block(n_tx=5, b_limit=4)

    def test_b_limit_exact_ok(self):
        assert len(make_block(n_tx=4, b_limit=4)) == 4

    def test_empty_block_allowed(self):
        assert len(make_block(n_tx=0)) == 0


class TestHashing:
    def test_hash_deterministic(self):
        a, b = make_block(), make_block()
        assert a.hash() == b.hash()

    def test_hash_depends_on_content(self):
        assert make_block(n_tx=2).hash() != make_block(n_tx=3).hash()

    def test_hash_depends_on_serial(self):
        b1 = make_block(serial=1)
        b2 = Block(
            serial=2, tx_list=b1.tx_list, prev_hash=b1.prev_hash,
            proposer="g0", round_number=1,
        )
        assert b1.hash() != b2.hash()

    def test_hash_depends_on_prev(self):
        other_prev = bytes(31) + b"\x01"
        assert make_block().hash() != make_block(prev=other_prev).hash()

    def test_hash_depends_on_proposer(self):
        b1 = make_block()
        b2 = Block(
            serial=1, tx_list=b1.tx_list, prev_hash=b1.prev_hash,
            proposer="g1", round_number=1,
        )
        assert b1.hash() != b2.hash()


class TestCommitments:
    def test_tx_root_matches_merkle(self):
        block = make_block(n_tx=5)
        assert block.tx_root == MerkleTree([rec.hash() for rec in block.tx_list]).root
