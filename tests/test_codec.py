"""Tests for the JSON ledger codec (round-trip + tamper evidence)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.signatures import SigningKey
from repro.exceptions import LedgerError
from repro.ledger.block import Block
from repro.ledger.chain import Ledger
from repro.ledger.codec import (
    decode_block,
    decode_record,
    decode_transaction,
    dump_chain,
    encode_block,
    encode_record,
    encode_transaction,
    load_chain,
)
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    TxRecord,
    make_signed_transaction,
)

PROVIDER_KEY = SigningKey(owner="p0", secret=b"\x16" * 32)
_NONCE = iter(range(100_000))


def make_tx(payload="x"):
    return make_signed_transaction(PROVIDER_KEY, payload, 1.5, nonce=next(_NONCE))


def make_chain(n=3) -> Ledger:
    ledger = Ledger(owner="g0")
    for serial in range(1, n + 1):
        rec = TxRecord(
            tx=make_tx({"k": serial}), label=Label.VALID, status=CheckStatus.CHECKED
        )
        ledger.append(
            Block(
                serial=serial, tx_list=(rec,), prev_hash=ledger.tip_hash(),
                proposer="g0", round_number=serial,
            )
        )
    return ledger


class TestTransactionRoundTrip:
    def test_roundtrip_preserves_identity(self):
        tx = make_tx({"amount": 12, "note": "hello"})
        back = decode_transaction(encode_transaction(tx))
        assert back.tx_id == tx.tx_id
        assert back.digest == tx.digest
        assert back.signed_message() == tx.signed_message()
        assert back.provider_signature == tx.provider_signature

    def test_json_serialisable(self):
        text = json.dumps(encode_transaction(make_tx()))
        assert decode_transaction(json.loads(text)).provider == "p0"

    def test_missing_field_rejected(self):
        obj = encode_transaction(make_tx())
        del obj["timestamp"]
        with pytest.raises(LedgerError):
            decode_transaction(obj)

    def test_malformed_signature_rejected(self):
        obj = encode_transaction(make_tx())
        obj["signature"]["tag"] = "zz-not-hex"
        with pytest.raises(LedgerError):
            decode_transaction(obj)

    def test_foreign_signer_rejected(self):
        # A record names its signer once: a stored signature object naming
        # another member is refused at decode, not later at verify.
        obj = encode_transaction(make_tx())
        obj["signature"]["signer"] = "p1"
        with pytest.raises(LedgerError, match="'p1'"):
            decode_transaction(obj)

    def test_short_tag_rejected(self):
        obj = encode_transaction(make_tx())
        obj["signature"]["tag"] = obj["signature"]["tag"][:62]  # 31 bytes
        with pytest.raises(LedgerError, match="31 bytes"):
            decode_transaction(obj)


class TestRecordAndBlock:
    def test_record_roundtrip_all_statuses(self):
        for status in CheckStatus:
            rec = TxRecord(tx=make_tx(), label=Label.INVALID, status=status)
            back = decode_record(encode_record(rec))
            assert back.status is status
            assert back.hash() == rec.hash()

    def test_block_roundtrip_preserves_hash(self):
        ledger = make_chain(1)
        block = ledger.retrieve(1)
        back = decode_block(encode_block(block))
        assert back.hash() == block.hash()
        assert back.tx_root == block.tx_root

    def test_tampered_block_detected(self):
        block = make_chain(1).retrieve(1)
        obj = encode_block(block)
        obj["proposer"] = "gX"  # payload edit, stale recorded hash
        with pytest.raises(LedgerError):
            decode_block(obj)


    @pytest.mark.parametrize(
        "path, value",
        [
            ((), []),
            ((), None),
            ((), "x"),
            (("tx_list",), 5),
            (("tx_list", 0), "x"),
            (("tx_list", 0, "tx"), []),
            (("tx_list", 0, "tx"), None),
            (("tx_list", 0, "tx"), "x"),
            (("tx_list", 0, "tx", "signature"), ["p0", "00"]),
            (("tx_list", 0, "tx", "signature", "tag"), 7),
            (("tx_list", 0, "label"), [1]),
            (("tx_list", 0, "status"), {}),
            (("serial",), "1"),
            (("prev_hash",), 0),
            (("b_limit",), None),
        ],
    )
    def test_wrong_shaped_value_is_a_ledger_error(self, path, value):
        """Untrusted JSON of the wrong shape never escapes as another exception."""
        obj = encode_block(make_chain(1).retrieve(1))
        if not path:
            obj = value
        else:
            holder = obj
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] = value
        with pytest.raises(LedgerError):
            decode_block(obj)


class TestChainFiles:
    def test_dump_load_roundtrip(self):
        ledger = make_chain(4)
        text = dump_chain(ledger)
        loaded = load_chain(text)
        assert loaded.height == 4
        assert loaded.retrieve(4).hash() == ledger.retrieve(4).hash()
        loaded.verify_integrity()

    def test_dump_to_file_object(self, tmp_path):
        ledger = make_chain(2)
        path = tmp_path / "chain.json"
        with open(path, "w") as fp:
            dump_chain(ledger, fp)
        loaded = load_chain(path.read_text())
        assert loaded.height == 2

    def test_tampered_file_rejected(self):
        ledger = make_chain(3)
        doc = json.loads(dump_chain(ledger))
        # Replace block 2's payload and refresh its recorded hash so only
        # the *chain link* can catch it.
        doc["blocks"][1]["tx_list"][0]["tx"]["payload"] = {"k": 999}
        tampered_block = decode_block({**doc["blocks"][1], "hash": None})
        doc["blocks"][1]["hash"] = tampered_block.hash().hex()
        with pytest.raises(Exception):  # ChainIntegrityError
            load_chain(json.dumps(doc))

    def test_wrong_format_version(self):
        with pytest.raises(LedgerError):
            load_chain(json.dumps({"format": 99, "blocks": []}))

    def test_garbage_rejected(self):
        with pytest.raises(LedgerError):
            load_chain("this is not json")

    @pytest.mark.parametrize("text", ["[]", "null", '{"format": 1, "blocks": 3}'])
    def test_json_that_is_no_chain_document_rejected(self, text):
        with pytest.raises(LedgerError):
            load_chain(text)

    def test_height_mismatch_rejected(self):
        ledger = make_chain(2)
        doc = json.loads(dump_chain(ledger))
        doc["height"] = 5
        with pytest.raises(LedgerError):
            load_chain(json.dumps(doc))


_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=5), kids, max_size=3),
    max_leaves=8,
)


@given(_payloads)
def test_property_payload_roundtrip_preserves_tx_id(payload):
    """Any JSON-typed payload round-trips with its tx id (hash) intact."""
    tx = make_signed_transaction(PROVIDER_KEY, payload, 2.0, nonce=1)
    back = decode_transaction(json.loads(json.dumps(encode_transaction(tx))))
    assert back.tx_id == tx.tx_id
