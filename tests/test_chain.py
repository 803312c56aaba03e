"""Unit tests for the ledger (chain) and the Agreement checker."""

from __future__ import annotations

import pytest

from repro.crypto.signatures import SigningKey
from repro.exceptions import (
    AgreementError,
    BlockNotFoundError,
    ChainIntegrityError,
    SkippedBlockError,
)
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.chain import Ledger, check_agreement
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    TxRecord,
    make_signed_transaction,
)

KEY = SigningKey(owner="p0", secret=b"\x0d" * 32)
_NONCE = iter(range(10_000))


def record(payload="x") -> TxRecord:
    tx = make_signed_transaction(KEY, payload, 1.0, nonce=next(_NONCE))
    return TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED)


def extend(ledger: Ledger, n: int = 1, records=None) -> list[Block]:
    out = []
    for _ in range(n):
        block = Block(
            serial=ledger.height + 1,
            tx_list=tuple(records or (record(),)),
            prev_hash=ledger.tip_hash(),
            proposer="g0",
            round_number=ledger.height + 1,
        )
        ledger.append(block)
        out.append(block)
    return out


class TestAppend:
    def test_genesis_append(self):
        ledger = Ledger()
        extend(ledger)
        assert ledger.height == 1

    def test_serials_consecutive(self):
        ledger = Ledger()
        extend(ledger, 5)
        assert [b.serial for b in ledger.blocks()] == [1, 2, 3, 4, 5]

    def test_skipped_serial_rejected(self):
        ledger = Ledger()
        extend(ledger)
        bad = Block(
            serial=3, tx_list=(), prev_hash=ledger.tip_hash(),
            proposer="g0", round_number=3,
        )
        with pytest.raises(SkippedBlockError):
            ledger.append(bad)

    def test_wrong_prev_hash_rejected(self):
        ledger = Ledger()
        extend(ledger)
        bad = Block(
            serial=2, tx_list=(), prev_hash=GENESIS_PREV_HASH,
            proposer="g0", round_number=2,
        )
        with pytest.raises(ChainIntegrityError):
            ledger.append(bad)

    def test_duplicate_serial_rejected(self):
        ledger = Ledger()
        blocks = extend(ledger)
        with pytest.raises(SkippedBlockError):
            ledger.append(blocks[0])


class TestRetrieve:
    def test_retrieve_returns_block(self):
        ledger = Ledger()
        blocks = extend(ledger, 3)
        assert ledger.retrieve(2) is blocks[1]

    def test_retrieve_missing_raises(self):
        ledger = Ledger()
        with pytest.raises(BlockNotFoundError):
            ledger.retrieve(1)
        extend(ledger, 2)
        with pytest.raises(BlockNotFoundError):
            ledger.retrieve(3)
        with pytest.raises(BlockNotFoundError):
            ledger.retrieve(0)

    def test_all_records(self):
        ledger = Ledger()
        extend(ledger, 3)
        assert len(list(ledger.all_records())) == 3


class TestIntegrity:
    def test_verify_integrity_ok(self):
        ledger = Ledger()
        extend(ledger, 4)
        ledger.verify_integrity()

    def test_verify_integrity_detects_tampering(self):
        ledger = Ledger()
        extend(ledger, 3)
        # Corrupt the middle block in place.
        tampered = Block(
            serial=2, tx_list=(record("evil"),),
            prev_hash=ledger.retrieve(1).hash(), proposer="g0", round_number=2,
        )
        ledger._blocks[1] = tampered
        with pytest.raises(ChainIntegrityError):
            ledger.verify_integrity()


class TestAgreement:
    def _twin_ledgers(self, n=3):
        a, b = Ledger(owner="a"), Ledger(owner="b")
        for _ in range(n):
            block = Block(
                serial=a.height + 1, tx_list=(record(),),
                prev_hash=a.tip_hash(), proposer="g0", round_number=a.height + 1,
            )
            a.append(block)
            b.append(block)
        return a, b

    def test_identical_replicas_agree(self):
        a, b = self._twin_ledgers()
        check_agreement([a, b])

    def test_lagging_replica_still_agrees(self):
        a, b = self._twin_ledgers()
        extend(a, 1)
        check_agreement([a, b])  # compares only the common prefix

    def test_divergent_replicas_detected(self):
        a, b = self._twin_ledgers(2)
        extend(a, 1)
        extend(b, 1)  # different block contents at serial 3
        with pytest.raises(AgreementError):
            check_agreement([a, b])

    def test_single_replica_trivially_agrees(self):
        ledger = Ledger()
        extend(ledger, 2)
        check_agreement([ledger])
