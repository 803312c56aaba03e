"""Unit tests for the five-property run checker."""

from __future__ import annotations

import pytest

from repro.crypto.signatures import SigningKey
from repro.exceptions import LedgerError
from repro.ledger.block import Block
from repro.ledger.chain import Ledger
from repro.ledger.properties import (
    BROADCAST,
    HONEST_VALID,
    UPLOADED,
    RunTranscript,
    check_all_properties,
)
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    TxRecord,
    make_signed_transaction,
)

KEY = SigningKey(owner="p0", secret=b"\x10" * 32)
_NONCE = iter(range(10_000))


def record(label=Label.VALID, status=CheckStatus.CHECKED):
    tx = make_signed_transaction(KEY, "x", 1.0, nonce=next(_NONCE))
    return TxRecord(tx=tx, label=label, status=status)


def chain_with(records_per_block):
    ledger = Ledger(owner="g0")
    for records in records_per_block:
        ledger.append(
            Block(
                serial=ledger.height + 1,
                tx_list=tuple(records),
                prev_hash=ledger.tip_hash(),
                proposer="g0",
                round_number=ledger.height + 1,
            )
        )
    return ledger


def full_transcript(*ledgers):
    t = RunTranscript()
    for ledger in ledgers:
        for _serial, rec in ledger.all_records():
            t.flags[rec.tx.tx_id] = BROADCAST | UPLOADED
    return t


def mark_honest_valid(t, tx_id):
    t.flags[tx_id] = t.flags.get(tx_id, 0) | HONEST_VALID


def clear(t, flag):
    for tx_id in t.flags:
        t.flags[tx_id] &= ~flag


class TestHappyPath:
    def test_all_properties_hold(self):
        ledger = chain_with([[record()], [record(), record()]])
        report = check_all_properties([ledger], full_transcript(ledger))
        assert report.all_hold
        assert report.violations == []

    def test_validity_checked_for_honest_tx(self):
        rec = record()
        ledger = chain_with([[rec]])
        t = full_transcript(ledger)
        mark_honest_valid(t, rec.tx.tx_id)
        report = check_all_properties([ledger], t)
        assert report.validity


class TestViolations:
    def test_no_replicas_rejected(self):
        with pytest.raises(LedgerError):
            check_all_properties([], RunTranscript())

    def test_almost_no_creation_missing_provider_broadcast(self):
        ledger = chain_with([[record()]])
        t = full_transcript(ledger)
        clear(t, BROADCAST)
        report = check_all_properties([ledger], t)
        assert not report.almost_no_creation
        assert not report.all_hold

    def test_almost_no_creation_missing_collector_upload(self):
        ledger = chain_with([[record()]])
        t = full_transcript(ledger)
        clear(t, UPLOADED)
        report = check_all_properties([ledger], t)
        assert not report.almost_no_creation

    def test_validity_missing_tx(self):
        ledger = chain_with([[record()]])
        t = full_transcript(ledger)
        mark_honest_valid(t, "never-included")
        report = check_all_properties([ledger], t)
        assert not report.validity

    def test_validity_permanently_invalid(self):
        rec = record(label=Label.INVALID, status=CheckStatus.UNCHECKED)
        ledger = chain_with([[rec]])
        t = full_transcript(ledger)
        mark_honest_valid(t, rec.tx.tx_id)
        report = check_all_properties([ledger], t)
        assert not report.validity

    def test_validity_reevaluated_counts_as_ok(self):
        buried = record(label=Label.INVALID, status=CheckStatus.UNCHECKED)
        fixed = TxRecord(
            tx=buried.tx, label=Label.VALID, status=CheckStatus.REEVALUATED
        )
        ledger = chain_with([[buried], [fixed]])
        t = full_transcript(ledger)
        mark_honest_valid(t, buried.tx.tx_id)
        report = check_all_properties([ledger], t)
        assert report.validity

    def test_agreement_violation_reported(self):
        a = chain_with([[record()]])
        b = chain_with([[record()]])  # different contents at serial 1
        t = full_transcript(a, b)
        report = check_all_properties([a, b], t)
        assert not report.agreement
        assert any("agreement" in v for v in report.violations)


class TestValidityLookup:
    """Validity reads the reference replica's latest record of each tx."""

    def test_record_found_in_any_block(self):
        rec = record()
        ledger = chain_with([[record()], [record(), rec]])
        t = full_transcript(ledger)
        mark_honest_valid(t, rec.tx.tx_id)
        assert check_all_properties([ledger], t).validity
        mark_honest_valid(t, "missing")
        report = check_all_properties([ledger], t)
        assert not report.validity
        assert report.violations == [
            "validity: honest valid tx missing never appeared in a block"
        ]

    @pytest.mark.parametrize("reevaluated_last", [True, False])
    def test_latest_record_decides(self, reevaluated_last):
        tx = record().tx
        buried = TxRecord(tx=tx, label=Label.INVALID, status=CheckStatus.UNCHECKED)
        fixed = TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.REEVALUATED)
        order = [[buried], [fixed]] if reevaluated_last else [[fixed], [buried]]
        ledger = chain_with(order)
        t = full_transcript(ledger)
        mark_honest_valid(t, tx.tx_id)
        report = check_all_properties([ledger], t)
        assert report.validity is reevaluated_last
        assert report.all_hold is reevaluated_last
