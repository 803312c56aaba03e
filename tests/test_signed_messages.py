"""One property over every signed message type.

Each of the seven signed formats is spelled by one ``*_message`` function
that both its maker and its verifier call.  So for every type: the bytes
the object says it was signed over verify under the signer's enrolled
key, and changing any field those bytes cover changes the bytes and
breaks the signature.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.consensus.messages import make_vote
from repro.consensus.stake import StakeLedger, make_transfer
from repro.consensus.stake_consensus import evaluate_proposal, make_proposal
from repro.crypto.identity import IdentityManager, Role
from repro.crypto.signatures import SigningKey
from repro.ledger.transaction import (
    Label,
    TransactionBody,
    make_labeled_transaction,
    make_signed_transaction,
)
from repro.sharding.receipts import make_receipt


def _signed_objects() -> tuple[IdentityManager, dict]:
    """An Identity Manager and one object of each signed type, made by its maker."""
    im = IdentityManager(seed=11)
    keys = {
        node: im.enroll(node, role)
        for node, role in (
            ("p0", Role.PROVIDER), ("c0", Role.COLLECTOR),
            ("g0", Role.GOVERNOR), ("g1", Role.GOVERNOR),
        )
    }
    tx = make_signed_transaction(keys["p0"], {"amount": 5}, timestamp=2.5, nonce=1)
    prev_state = StakeLedger.from_balances({"g0": 3, "g1": 3})
    transfers = [make_transfer(keys["g0"], "g1", 1, nonce=0)]
    proposal = make_proposal(keys["g0"], 4, prev_state, transfers)
    return im, {
        "tx": tx,
        "labeled": make_labeled_transaction(keys["c0"], tx, Label.VALID),
        "receipt": make_receipt(keys["g0"], 0, 1, tx.tx_id, home_serial=7),
        "vote": make_vote(keys["g0"], 3, b"\x05" * 32, round_number=9),
        "proposal": proposal,
        "ack": evaluate_proposal(im, keys["g1"], proposal, prev_state, transfers),
        "transfer": transfers[0],
    }


#: type -> (signer field, signature field, {covered field: another value}).
SIGNED_TYPES = {
    "tx": ("provider", "provider_signature", {
        "body": TransactionBody(provider="p0", payload={"amount": 6}, nonce=1),
        "timestamp": 2.75,
    }),
    "labeled": ("collector", "collector_signature", {
        "tx": make_signed_transaction(
            SigningKey(owner="p0", secret=b"\x09" * 32), {"amount": 5}, 2.5, nonce=2
        ),
        "label": Label.INVALID,
    }),
    "receipt": ("proposer", "signature", {
        "receipt_id": "0" * 32, "home_shard": 2, "remote_shard": 0,
        "tx_id": "1" * 32, "home_serial": 8, "proposer": "g1",
    }),
    "vote": ("governor", "signature", {
        "governor": "g1", "serial": 4, "block_hash": b"\x06" * 32, "round_number": 10,
    }),
    "proposal": ("leader", "signature", {
        "round_number": 5, "new_state": {"g0": 3, "g1": 3},
        "transfers_digest": b"\x07" * 32,
    }),
    "ack": ("governor", "signature", {
        "round_number": 5, "proposal_digest": b"\x08" * 32,
    }),
    "transfer": ("sender", "signature", {
        "sender": "p0", "receiver": "c0", "amount": 2, "nonce": 1,
    }),
}


def _signed_bytes(obj) -> bytes:
    """The bytes ``obj`` says its signature covers (its verifier's view)."""
    return obj.signed_message()


def _verifies(im: IdentityManager, obj, signer: str, signature: str) -> bool:
    # The IM reads the claimed signer and the signature through the
    # record's ``signed_by``: it must name the table's two fields.
    assert obj.signed_by(obj) == (getattr(obj, signer), getattr(obj, signature))
    return im.verify(obj)


def test_every_signed_type_is_covered():
    assert set(_signed_objects()[1]) == set(SIGNED_TYPES)
    assert len(SIGNED_TYPES) == 7


@pytest.mark.parametrize(
    "kind, field",
    [(kind, field) for kind, spec in SIGNED_TYPES.items() for field in spec[2]],
)
def test_maker_signs_what_verifier_checks_and_every_covered_field_counts(kind, field):
    signer, signature, covered = SIGNED_TYPES[kind]
    im, objects = _signed_objects()
    obj = objects[kind]
    assert isinstance(_signed_bytes(obj), bytes)
    assert _verifies(im, obj, signer, signature)
    changed = dataclasses.replace(obj, **{field: covered[field]})
    assert getattr(changed, field) != getattr(obj, field)
    assert _signed_bytes(changed) != _signed_bytes(obj)
    assert not _verifies(im, changed, signer, signature)
