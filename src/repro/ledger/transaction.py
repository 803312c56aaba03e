"""Transactions, labels, and the records blocks store.

Terminology follows the paper:

* ``tx`` — a *signed transaction*: payload + timestamp + the provider's
  signature over both, so *"no collector could forge a transaction"*
  (Section 3.1).
* ``Tx`` — a *labeled transaction*: a tx plus a collector's ±1 label and
  the collector's signature over (tx, label) (Section 3.3).
* A block's TXList holds :class:`TxRecord` entries: the tx, its final
  label in the block, and whether the governor actually checked it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter

from repro.crypto.hashing import canonical_encode, hash_value
from repro.crypto.signatures import FrozenSlots, Signature, SignedRecord, SigningKey, sign

__all__ = [
    "Label",
    "CheckStatus",
    "TransactionBody",
    "SignedTransaction",
    "LabeledTransaction",
    "TxRecord",
    "tx_message",
    "labeled_message",
    "make_signed_transaction",
    "make_labeled_transaction",
]


def tx_message(body_digest: bytes, timestamp: float) -> bytes:
    """The bytes a provider signs: (body, timestamp)."""
    return canonical_encode(("tx", body_digest, timestamp))


def labeled_message(tx_digest: bytes, label: int) -> bytes:
    """The bytes a collector signs: (tx, label)."""
    return canonical_encode(("labeled-tx", tx_digest, int(label)))


class Label(enum.IntEnum):
    """A collector's verdict on a transaction: +1 valid, -1 invalid."""

    VALID = 1
    INVALID = -1

    @staticmethod
    def from_bool(is_valid: bool) -> "Label":
        """Map a boolean validity check to the paper's +/-1 label."""
        return Label.VALID if is_valid else Label.INVALID


class CheckStatus(enum.Enum):
    """How a transaction entered the block (Algorithm 2's outcomes)."""

    CHECKED = "checked"        # governor ran validate(tx) itself
    UNCHECKED = "unchecked"    # recorded with the sampled label, unverified
    REEVALUATED = "reevaluated"  # validated later due to an argue() call


@dataclass(frozen=True)
class TransactionBody(FrozenSlots):
    """The application payload a provider wants recorded.

    ``payload`` is any canonically-hashable structure; domain apps (car
    sharing, insurance) put their request objects here.  ``nonce`` keeps
    bodies from identical (provider, payload) pairs distinct.  ``digest``
    is derived at construction: every id, signature and record downstream
    hashes it.
    """

    __slots__ = ("provider", "payload", "nonce", "digest")

    provider: str
    payload: object
    nonce: int

    def __post_init__(self) -> None:
        digest = hash_value(("tx-body", self.provider, self.payload, self.nonce))
        object.__setattr__(self, "digest", digest)


@dataclass(frozen=True)
class SignedTransaction(SignedRecord):
    """The paper's ``tx``: body + timestamp + provider signature.

    The signature covers (body, timestamp), so replaying a transaction
    under a different timestamp — the paper's "cannot simply replicate a
    transaction since it is signed together with the timestamp" — breaks
    the signature.  Derived at construction: ``provider`` (the body's
    originating provider's node id), ``tx_id`` (hash of body +
    timestamp) and ``digest`` (covers the signature too; what a label or
    a record commits to).  The signed bytes are not kept: a check that
    finds no verdict on the record rebuilds them.
    """

    __slots__ = (
        "body", "timestamp", "provider_signature", "provider", "tx_id", "digest",
    )

    body: TransactionBody
    timestamp: float
    provider_signature: Signature

    signed_by = attrgetter("provider", "provider_signature")
    message_of = staticmethod(tx_message)
    message_fields = attrgetter("body.digest", "timestamp")

    def __post_init__(self) -> None:
        body_digest, timestamp = self.body.digest, self.timestamp
        signature = self.provider_signature
        tx_id = hash_value(("tx-id", body_digest, timestamp)).hex()[:32]
        digest = hash_value(
            ("signed-tx", body_digest, timestamp, signature.signer, signature.tag)
        )
        object.__setattr__(self, "provider", self.body.provider)
        object.__setattr__(self, "tx_id", tx_id)
        object.__setattr__(self, "digest", digest)


@dataclass(frozen=True)
class LabeledTransaction(SignedRecord):
    """The paper's ``Tx``: a signed tx + the collector's label + signature."""

    __slots__ = ("tx", "label", "collector", "collector_signature")

    tx: SignedTransaction
    label: Label
    collector: str
    collector_signature: Signature

    signed_by = attrgetter("collector", "collector_signature")
    message_of = staticmethod(labeled_message)
    message_fields = attrgetter("tx.digest", "label")

    def parse(self) -> tuple[SignedTransaction, Label]:
        """The paper's ``parse(Tx)``: the original tx and the label."""
        return self.tx, self.label


@dataclass(frozen=True)
class TxRecord(FrozenSlots):
    """One TXList entry: how a transaction appears in a block."""

    __slots__ = ("tx", "label", "status", "_hash")

    tx: SignedTransaction
    label: Label
    status: CheckStatus

    @property
    def is_unchecked(self) -> bool:
        """Whether the governor skipped validation for this record."""
        return self.status is CheckStatus.UNCHECKED

    def hash(self) -> bytes:
        """The record's digest: its Merkle leaf and its share of the block hash.

        Derived on first call, not at construction: governors build a
        record for every transaction they screen, and only the ones a
        leader packs into a block are ever hashed.  Kept once derived:
        every auditor re-derives a delivered block's Merkle root from it.
        """
        try:
            return self._hash
        except AttributeError:
            digest = hash_value(
                ("tx-record", self.tx.digest, int(self.label), self.status.value)
            )
            object.__setattr__(self, "_hash", digest)
            return digest


def make_signed_transaction(
    key: SigningKey, payload: object, timestamp: float, nonce: int
) -> SignedTransaction:
    """Create and sign a transaction as provider ``key.owner``."""
    body = TransactionBody(provider=key.owner, payload=payload, nonce=nonce)
    signature = sign(key, tx_message(body.digest, timestamp))
    return SignedTransaction(body=body, timestamp=timestamp, provider_signature=signature)


def make_labeled_transaction(
    key: SigningKey, tx: SignedTransaction, label: Label
) -> LabeledTransaction:
    """Label ``tx`` and sign (tx, label) as collector ``key.owner``."""
    signature = sign(key, labeled_message(tx.digest, label))
    return LabeledTransaction(
        tx=tx, label=label, collector=key.owner, collector_signature=signature
    )
