"""Signed cross-shard commit receipts.

When a cross-shard transaction commits on its home shard, the
coordinator mints a :class:`CrossShardReceipt` — a compact, signed
statement "transaction ``tx_id`` is on shard ``home_shard``'s chain at
serial ``home_serial``" — and relays it to every governor of the
counterparty's shard.  The receipt id is **content-derived**
(:func:`receipt_id_for` hashes the home shard and transaction id), so
every relay attempt, duplicate delivery, and re-mint of the same commit
names the same id; the remote shard's dedup layers key on it, which is
what makes the commit replay-proof.

The signature is the home-shard proposer's, over the full receipt
content, verifiable against the home shard's
:class:`~repro.crypto.identity.IdentityManager` — a remote shard (or
the :class:`~repro.audit.xshard.CrossShardAuditor`) accepts no receipt it
cannot authenticate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.crypto.hashing import canonical_encode, hash_value
from repro.crypto.signatures import SignedRecord, SigningKey, sign

__all__ = [
    "CrossShardReceipt", "make_receipt", "receipt_id_for", "receipt_message",
    "verify_receipt",
]


def receipt_message(
    receipt_id: str, home_shard: int, remote_shard: int, tx_id: str,
    home_serial: int, proposer: str,
) -> bytes:
    """The bytes a home-shard proposer signs to certify one commit."""
    return canonical_encode(
        ("xshard-receipt", receipt_id, home_shard, remote_shard, tx_id,
         home_serial, proposer)
    )


@dataclass(frozen=True, slots=True)
class CrossShardReceipt(SignedRecord):
    """A home-shard commit certificate for one cross-shard transaction.

    Attributes:
        receipt_id: Content-derived id (see :func:`receipt_id_for`).
        home_shard: Shard index where the transaction committed first.
        remote_shard: Shard index that must commit the receipt.
        tx_id: The committed transaction's id on the home chain.
        home_serial: Serial of the home-shard block carrying it.
        proposer: Governor that packed the home block (the signer).
        signature: ``proposer``'s signature over the receipt content.
    """

    receipt_id: str
    home_shard: int
    remote_shard: int
    tx_id: str
    home_serial: int
    proposer: str
    signature: bytes
    #: Payload discriminator for network dispatch.  Deliberately **not**
    #: in :data:`repro.faults.injector.EXEMPT_KINDS`: receipt relays are
    #: ordinary traffic the fault injector may drop or duplicate — the
    #: dedup/retry machinery, not exemption, provides exactly-once.
    kind: str = field(default="xshard-receipt", repr=False)

    signed_by = attrgetter("proposer", "signature")
    message_of = staticmethod(receipt_message)
    message_fields = attrgetter(
        "receipt_id", "home_shard", "remote_shard", "tx_id", "home_serial", "proposer"
    )


def receipt_id_for(home_shard: int, tx_id: str) -> str:
    """Deterministic receipt id of one (home shard, transaction) commit."""
    return hash_value(("xshard-receipt", home_shard, tx_id)).hex()[:32]


def make_receipt(
    key: SigningKey,
    home_shard: int,
    remote_shard: int,
    tx_id: str,
    home_serial: int,
) -> CrossShardReceipt:
    """Mint the signed receipt for a home-committed cross-shard tx."""
    receipt_id = receipt_id_for(home_shard, tx_id)
    message = receipt_message(
        receipt_id, home_shard, remote_shard, tx_id, home_serial, key.owner
    )
    return CrossShardReceipt(
        receipt_id=receipt_id,
        home_shard=home_shard,
        remote_shard=remote_shard,
        tx_id=tx_id,
        home_serial=home_serial,
        proposer=key.owner,
        signature=sign(key, message),
    )


def verify_receipt(receipt: CrossShardReceipt, im) -> bool:
    """Authenticate a receipt against the home shard's identity manager."""
    return im.verify(receipt)
