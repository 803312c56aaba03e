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
from functools import wraps
from typing import Callable, TypeVar

from repro.crypto.hashing import canonical_encode, hash_value
from repro.crypto.signatures import FrozenSlots, Signature, SigningKey, sign

__all__ = [
    "memoized",
    "Label",
    "CheckStatus",
    "TransactionBody",
    "SignedTransaction",
    "LabeledTransaction",
    "TxRecord",
    "make_signed_transaction",
    "make_labeled_transaction",
]

_T = TypeVar("_T")


def memoized(slot: str) -> Callable[[Callable[..., _T]], Callable[..., _T]]:
    """Decorator: run ``method(self)`` once per instance; keep it in attribute ``slot``.

    For the frozen ledger dataclasses: their fields never change, so a
    value derived from the fields alone is the same on every call.  The
    memo is no field — ``==``, ``hash`` and ``dataclasses.replace`` ignore
    it — but it is instance state, so ``pickle`` and ``copy`` carry it
    (``slot`` is part of what crosses pool pipes and TCP frames).  On a
    slotted class ``slot`` must be one of its ``__slots__``.
    """

    def decorate(method: Callable[..., _T]) -> Callable[..., _T]:
        @wraps(method)
        def cached(self) -> _T:
            try:
                return getattr(self, slot)
            except AttributeError:
                value = method(self)
                object.__setattr__(self, slot, value)  # a frozen __setattr__ raises
                return value

        return cached

    return decorate


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
    bodies from identical (provider, payload) pairs distinct.
    """

    __slots__ = ("provider", "payload", "nonce", "_canonical")

    provider: str
    payload: object
    nonce: int

    @memoized("_canonical")
    def canonical_bytes(self) -> bytes:
        """Stable encoding used for hashing and signing.

        Memoized on the (frozen) instance: bodies are encoded once and
        then hashed into every downstream id, signature, and record, so
        the cache turns the dominant hot-path cost into a slot read.
        """
        return hash_value(("tx-body", self.provider, self.payload, self.nonce))


@dataclass(frozen=True)
class SignedTransaction(FrozenSlots):
    """The paper's ``tx``: body + timestamp + provider signature.

    The signature covers (body, timestamp), so replaying a transaction
    under a different timestamp — the paper's "cannot simply replicate a
    transaction since it is signed together with the timestamp" — breaks
    the signature.
    """

    # ``_codec_json`` is :mod:`repro.ledger.codec`'s memo of the JSON form.
    __slots__ = (
        "body", "timestamp", "provider_signature",
        "_tx_id", "_signed_msg", "_canonical", "_codec_json",
    )

    body: TransactionBody
    timestamp: float
    provider_signature: Signature

    @property
    def provider(self) -> str:
        """Originating provider's node id."""
        return self.body.provider

    @property
    @memoized("_tx_id")
    def tx_id(self) -> str:
        """Content-derived unique id (hash of body + timestamp)."""
        return hash_value(("tx-id", self.body.canonical_bytes(), self.timestamp)).hex()[:32]

    def signed_message(self) -> tuple:
        """The exact structure the provider's signature covers."""
        return ("tx", self.body.canonical_bytes(), self.timestamp)

    @memoized("_signed_msg")
    def signed_message_bytes(self) -> bytes:
        """Canonical encoding of :meth:`signed_message`, memoized.

        These are the exact bytes the provider's HMAC covers, so they can
        be handed to ``IdentityManager.verify`` directly — encode once,
        verify many (once per linked collector and again per governor).
        """
        return canonical_encode(self.signed_message())

    @memoized("_canonical")
    def canonical_bytes(self) -> bytes:
        """Stable encoding (includes the signature tag)."""
        return hash_value(
            ("signed-tx", self.body.canonical_bytes(), self.timestamp,
             self.provider_signature.signer, self.provider_signature.tag)
        )


@dataclass(frozen=True)
class LabeledTransaction(FrozenSlots):
    """The paper's ``Tx``: a signed tx + the collector's label + signature."""

    __slots__ = (
        "tx", "label", "collector", "collector_signature",
        "_signed_msg", "_canonical",
    )

    tx: SignedTransaction
    label: Label
    collector: str
    collector_signature: Signature

    def signed_message(self) -> tuple:
        """The structure the collector's signature covers: (tx, label)."""
        return ("labeled-tx", self.tx.canonical_bytes(), int(self.label))

    @memoized("_signed_msg")
    def signed_message_bytes(self) -> bytes:
        """Canonical encoding of :meth:`signed_message`, memoized."""
        return canonical_encode(self.signed_message())

    @memoized("_canonical")
    def canonical_bytes(self) -> bytes:
        """Stable encoding of the labeled transaction."""
        return hash_value(
            ("Tx", self.tx.canonical_bytes(), int(self.label),
             self.collector, self.collector_signature.tag)
        )

    def parse(self) -> tuple[SignedTransaction, Label]:
        """The paper's ``parse(Tx)``: the original tx and the label."""
        return self.tx, self.label


@dataclass(frozen=True)
class TxRecord(FrozenSlots):
    """One TXList entry: how a transaction appears in a block."""

    __slots__ = ("tx", "label", "status", "_canonical")

    tx: SignedTransaction
    label: Label
    status: CheckStatus

    @property
    def is_unchecked(self) -> bool:
        """Whether the governor skipped validation for this record."""
        return self.status is CheckStatus.UNCHECKED

    @memoized("_canonical")
    def canonical_bytes(self) -> bytes:
        """Stable encoding for block hashing."""
        return hash_value(
            ("tx-record", self.tx.canonical_bytes(), int(self.label), self.status.value)
        )


def make_signed_transaction(
    key: SigningKey, payload: object, timestamp: float, nonce: int
) -> SignedTransaction:
    """Create and sign a transaction as provider ``key.owner``."""
    body = TransactionBody(provider=key.owner, payload=payload, nonce=nonce)
    message = ("tx", body.canonical_bytes(), timestamp)
    signature = sign(key, message)
    return SignedTransaction(body=body, timestamp=timestamp, provider_signature=signature)


def make_labeled_transaction(
    key: SigningKey, tx: SignedTransaction, label: Label
) -> LabeledTransaction:
    """Label ``tx`` and sign (tx, label) as collector ``key.owner``."""
    message = ("labeled-tx", tx.canonical_bytes(), int(label))
    signature = sign(key, message)
    return LabeledTransaction(
        tx=tx, label=label, collector=key.owner, collector_signature=signature
    )
