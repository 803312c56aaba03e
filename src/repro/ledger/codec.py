"""JSON codec for ledger objects — persistence and interchange.

A downstream deployment needs to store the chain and replay it; this
module serialises every ledger object to plain JSON-compatible
structures and back, with two guarantees:

* **round-trip fidelity** — ``decode(encode(x))`` reproduces ``x``
  exactly, including signatures (bytes are hex-encoded), so block
  hashes survive the trip (property-tested);
* **tamper evidence on import** — :func:`load_chain` re-runs the
  ledger's own append-time checks, so an edited file fails with
  ``ChainIntegrityError`` rather than silently loading.

Payloads must be JSON-typed (dict/list/str/int/float/bool/None), which
all workloads and apps in this repository satisfy; tuples inside
payloads are normalised to lists on the round trip (their canonical
hashes already coincide).
"""

from __future__ import annotations

import json
from typing import Any

from repro.exceptions import LedgerError
from repro.ledger.block import Block
from repro.ledger.chain import Ledger
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    SignedTransaction,
    TransactionBody,
    TxRecord,
)

__all__ = [
    "encode_transaction",
    "decode_transaction",
    "encode_record",
    "decode_record",
    "encode_block",
    "decode_block",
    "dump_chain",
    "load_chain",
]

_FORMAT_VERSION = 1


def _tag_from_json(obj: dict, signer: str) -> bytes:
    """The tag of a stored signature object that must name ``signer``.

    A record names its signer once; the stored object names it again, so
    this is where a signature in another member's name is refused.
    """
    try:
        stored_signer, tag = obj["signer"], bytes.fromhex(obj["tag"])
    except (KeyError, ValueError, TypeError) as exc:
        raise LedgerError(f"malformed signature object: {exc}") from exc
    if stored_signer != signer:
        raise LedgerError(
            f"signature names {stored_signer!r}, not its signer {signer!r}"
        )
    if len(tag) != 32:
        raise LedgerError(f"signature tag is {len(tag)} bytes, not 32")
    return tag


def encode_transaction(tx: SignedTransaction) -> dict:
    """Serialise a signed transaction."""
    return {
        "provider": tx.body.provider,
        "payload": tx.body.payload,
        "nonce": tx.body.nonce,
        "timestamp": tx.timestamp,
        "signature": {"signer": tx.provider, "tag": tx.provider_signature.hex()},
    }


def decode_transaction(obj: dict) -> SignedTransaction:
    """Deserialise a signed transaction.

    Raises:
        LedgerError: on missing or malformed fields, or a signature object
            naming a signer other than the provider.
    """
    try:
        provider = obj["provider"]
        body = TransactionBody(
            provider=provider, payload=obj["payload"], nonce=obj["nonce"]
        )
        return SignedTransaction(
            body=body,
            timestamp=obj["timestamp"],
            provider_signature=_tag_from_json(obj["signature"], provider),
        )
    except (KeyError, TypeError) as exc:
        raise LedgerError(f"malformed transaction object: {exc}") from exc


def encode_record(record: TxRecord) -> dict:
    """Serialise a block TXList entry."""
    return {
        "tx": encode_transaction(record.tx),
        "label": int(record.label),
        "status": record.status.value,
    }


def decode_record(obj: dict) -> TxRecord:
    """Deserialise a block TXList entry."""
    try:
        return TxRecord(
            tx=decode_transaction(obj["tx"]),
            label=Label(obj["label"]),
            status=CheckStatus(obj["status"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise LedgerError(f"malformed tx record: {exc}") from exc


def encode_block(block: Block) -> dict:
    """Serialise a block, embedding its hash for import verification."""
    return {
        "serial": block.serial,
        "prev_hash": block.prev_hash.hex(),
        "proposer": block.proposer,
        "round_number": block.round_number,
        "b_limit": block.b_limit,
        "tx_list": [encode_record(rec) for rec in block.tx_list],
        "hash": block.hash().hex(),
    }


def decode_block(obj: dict) -> Block:
    """Deserialise a block and verify its recorded hash.

    Raises:
        LedgerError: missing fields or a hash mismatch (tampering).
    """
    try:
        block = Block(
            serial=obj["serial"],
            tx_list=tuple(decode_record(rec) for rec in obj["tx_list"]),
            prev_hash=bytes.fromhex(obj["prev_hash"]),
            proposer=obj["proposer"],
            round_number=obj["round_number"],
            b_limit=obj["b_limit"],
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise LedgerError(f"malformed block object: {exc}") from exc
    recorded = obj.get("hash")
    if recorded is not None and block.hash().hex() != recorded:
        raise LedgerError(
            f"block {obj.get('serial')} hash mismatch on import — file tampered?"
        )
    return block


def dump_chain(ledger: Ledger, fp: Any = None) -> str:
    """Serialise a whole chain to a JSON string (and optionally a file)."""
    doc = {
        "format": _FORMAT_VERSION,
        "owner": ledger.owner,
        "height": ledger.height,
        "blocks": [encode_block(block) for block in ledger.blocks()],
    }
    text = json.dumps(doc, indent=None, separators=(",", ":"), sort_keys=True)
    if fp is not None:
        fp.write(text)
    return text


def load_chain(text: str, owner: str | None = None) -> Ledger:
    """Rebuild a ledger from :func:`dump_chain` output.

    Every block passes through ``Ledger.append``, so hash links and
    serial continuity are re-verified — a tampered file cannot load.

    Raises:
        LedgerError / ChainIntegrityError / SkippedBlockError: on any
            malformation or inconsistency.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LedgerError(f"chain file is not valid JSON: {exc}") from exc
    blocks = doc.get("blocks", []) if isinstance(doc, dict) else None
    if not isinstance(blocks, list):
        raise LedgerError("chain file is not a chain document")
    if doc.get("format") != _FORMAT_VERSION:
        raise LedgerError(f"unsupported chain format {doc.get('format')!r}")
    ledger = Ledger(owner=owner or doc.get("owner", "imported"))
    for block_obj in blocks:
        ledger.append(decode_block(block_obj))
    if ledger.height != doc.get("height"):
        raise LedgerError(
            f"declared height {doc.get('height')} != loaded height {ledger.height}"
        )
    return ledger
