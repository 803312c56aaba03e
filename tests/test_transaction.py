"""Unit tests for transactions, labels, and block records."""

from __future__ import annotations

import pytest

from repro.crypto.signatures import SigningKey
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    LabeledTransaction,
    SignedTransaction,
    TransactionBody,
    TxRecord,
    make_labeled_transaction,
    make_signed_transaction,
)


@pytest.fixture
def provider_key() -> SigningKey:
    return SigningKey(owner="p0", secret=b"\x0a" * 32)


@pytest.fixture
def collector_key() -> SigningKey:
    return SigningKey(owner="c0", secret=b"\x0b" * 32)


class TestLabel:
    def test_values_match_paper(self):
        assert int(Label.VALID) == 1
        assert int(Label.INVALID) == -1

    def test_from_bool(self):
        assert Label.from_bool(True) is Label.VALID
        assert Label.from_bool(False) is Label.INVALID


class TestSignedTransaction:
    def test_make_signs_correctly(self, provider_key, im):
        tx = make_signed_transaction(provider_key, {"v": 1}, timestamp=3.0, nonce=0)
        assert tx.provider == "p0"
        # The IM fixture enrolled its own p0 with a different secret; use
        # direct key verification here.
        from repro.crypto.signatures import verify_with_key

        assert verify_with_key(provider_key, tx.signed_message(), tx.provider_signature)

    def test_tx_id_unique_per_nonce(self, provider_key):
        a = make_signed_transaction(provider_key, "x", 1.0, nonce=0)
        b = make_signed_transaction(provider_key, "x", 1.0, nonce=1)
        assert a.tx_id != b.tx_id

    def test_tx_id_changes_with_timestamp(self, provider_key):
        a = make_signed_transaction(provider_key, "x", 1.0, nonce=0)
        b = make_signed_transaction(provider_key, "x", 2.0, nonce=0)
        assert a.tx_id != b.tx_id

    def test_replay_with_new_timestamp_breaks_signature(self, provider_key):
        from repro.crypto.signatures import verify_with_key

        tx = make_signed_transaction(provider_key, "x", 1.0, nonce=0)
        replayed = SignedTransaction(
            body=tx.body, timestamp=9.0, provider_signature=tx.provider_signature
        )
        assert not verify_with_key(
            provider_key, replayed.signed_message(), replayed.provider_signature
        )

    def test_canonical_bytes_stable(self, provider_key):
        tx = make_signed_transaction(provider_key, "x", 1.0, nonce=0)
        again = make_signed_transaction(provider_key, "x", 1.0, nonce=0)
        assert tx.digest == again.digest
        assert tx.signed_message() == again.signed_message()


class TestLabeledTransaction:
    def test_make_and_parse(self, provider_key, collector_key):
        tx = make_signed_transaction(provider_key, "x", 1.0, nonce=0)
        labeled = make_labeled_transaction(collector_key, tx, Label.INVALID)
        parsed_tx, label = labeled.parse()
        assert parsed_tx is tx
        assert label is Label.INVALID
        assert labeled.collector == "c0"

    def test_collector_signature_covers_label(self, provider_key, collector_key):
        from repro.crypto.signatures import verify_with_key

        tx = make_signed_transaction(provider_key, "x", 1.0, nonce=0)
        labeled = make_labeled_transaction(collector_key, tx, Label.VALID)
        # Flipping the label invalidates the collector signature.
        flipped = LabeledTransaction(
            tx=tx,
            label=Label.INVALID,
            collector="c0",
            collector_signature=labeled.collector_signature,
        )
        assert verify_with_key(
            collector_key, labeled.signed_message(), labeled.collector_signature
        )
        assert not verify_with_key(
            collector_key, flipped.signed_message(), flipped.collector_signature
        )


class TestTxRecord:
    def test_unchecked_flag(self, provider_key):
        tx = make_signed_transaction(provider_key, "x", 1.0, nonce=0)
        rec = TxRecord(tx=tx, label=Label.INVALID, status=CheckStatus.UNCHECKED)
        assert rec.status is CheckStatus.UNCHECKED
        rec2 = TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED)
        assert rec2.status is not CheckStatus.UNCHECKED

    def test_canonical_bytes_distinguish_status(self, provider_key):
        tx = make_signed_transaction(provider_key, "x", 1.0, nonce=0)
        a = TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.CHECKED)
        b = TxRecord(tx=tx, label=Label.VALID, status=CheckStatus.REEVALUATED)
        assert a.hash() != b.hash()

    def test_body_canonical_bytes_distinguish_nonce(self):
        a = TransactionBody(provider="p", payload="x", nonce=0)
        b = TransactionBody(provider="p", payload="x", nonce=1)
        assert a.digest != b.digest
