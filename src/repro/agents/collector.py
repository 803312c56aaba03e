"""Collector agents — label, sign, upload (or misbehave).

A collector verifies each incoming transaction's provider signature,
validates it, labels it ±1, signs (tx, label) and uploads to all
governors (Algorithm 1).  Misbehaviour is delegated to a
:class:`~repro.agents.behaviors.CollectorBehavior`: the behaviour may
flip the label, stay silent, or direct the collector to *forge* — upload
a transaction whose provider signature it fabricated, which governors
detect via ``verify`` (except with negligible probability, modelled
as certainty here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.behaviors import CollectorBehavior
from repro.crypto.signatures import SigningKey, sign
from repro.ledger.transaction import (
    LabeledTransaction,
    Label,
    SignedTransaction,
    TransactionBody,
    make_labeled_transaction,
    tx_message,
)
from repro.ledger.validation import ValidityOracle
from repro.rng import Generator

__all__ = ["Collector"]


@dataclass
class Collector:
    """One collector node.

    Attributes:
        collector_id: Node id.
        key: Signing credential from the IM.
        linked_providers: The ``s`` providers this collector oversees.
        behavior: The conduct model (honest by default at call sites).
        rng: Behaviour randomness (explicit, reproducible).
    """

    collector_id: str
    key: SigningKey
    linked_providers: tuple[str, ...]
    behavior: CollectorBehavior
    rng: Generator
    uploads: int = field(default=0, repr=False)
    conceals: int = field(default=0, repr=False)
    forgeries: int = field(default=0, repr=False)
    _forge_nonce: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.key.owner != self.collector_id:
            raise ValueError(
                f"key owner {self.key.owner!r} != collector {self.collector_id!r}"
            )

    def process_all(
        self, tx: SignedTransaction, oracle: ValidityOracle
    ) -> list[LabeledTransaction]:
        """Algorithm 1's body for one delivered transaction: zero, one or
        two signed uploads.

        The collector learns the true status via ``validate`` (collectors
        can always check — the paper's efficiency concern is only the
        governors), then lets the behaviour decide what to upload.  Two
        behaviour hooks are *optional* (looked up with ``getattr``, so a
        behaviour that has neither works unchanged):

        * ``label_for_tx(tx, true_valid, rng)`` — provider-aware
          labelling, used by colluding cartels that target one
          provider's transactions while staying honest elsewhere;
        * ``conflicting_label_for(tx, primary_label, rng)`` — a second,
          *differently labelled* signed upload for the same transaction.
          Both uploads carry valid collector signatures, which is
          exactly the two-signed-messages equivocation proof the safety
          auditor quarantines on.
        """
        true_valid = oracle.validate(tx)
        label_for_tx = getattr(self.behavior, "label_for_tx", None)
        if label_for_tx is not None:
            label = label_for_tx(tx, true_valid, self.rng)
        else:
            label = self.behavior.label_for(true_valid, self.rng)
        if label is None:
            self.conceals += 1
            return []
        self.uploads += 1
        uploads = [make_labeled_transaction(self.key, tx, label)]
        conflicting = getattr(self.behavior, "conflicting_label_for", None)
        if conflicting is not None:
            second = conflicting(tx, label, self.rng)
            if second is not None and second != label:
                self.uploads += 1
                uploads.append(make_labeled_transaction(self.key, tx, second))
        return uploads

    def maybe_forge(self, timestamp: float) -> LabeledTransaction | None:
        """Attempt a forgery if the behaviour calls for one.

        The forged transaction names a linked provider but carries a
        signature produced with the *collector's* key — exactly what a
        collector without the provider's secret can do, and exactly what
        ``verify`` rejects.

        Returns:
            The bogus upload, or None.
        """
        if not self.behavior.should_forge(self.rng):
            return None
        self.forgeries += 1
        victim = self.linked_providers[self._forge_nonce % len(self.linked_providers)]
        body = TransactionBody(
            provider=victim,
            payload={"forged-by": self.collector_id, "n": self._forge_nonce},
            nonce=self._forge_nonce,
        )
        self._forge_nonce += 1
        # Fabricated provider signature: a tag made with the collector's
        # key on a tx in the victim's name -> never verifies.
        forged_tx = SignedTransaction(
            body=body,
            timestamp=timestamp,
            provider_signature=sign(self.key, tx_message(body.digest, timestamp)),
        )
        return make_labeled_transaction(self.key, forged_tx, Label.VALID)
