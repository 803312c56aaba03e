"""Provider agents — the transaction sources.

A provider signs each transaction together with a timestamp
(Section 3.2), broadcasts it to his ``r`` linked collectors, and — if
*active* — retrieves every block and argues whenever one of his valid
transactions is recorded as invalid (the Validity property quantifies
over exactly these active honest providers).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.signatures import SigningKey
from repro.ledger.block import Block
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    SignedTransaction,
    make_signed_transaction,
)
from repro.ledger.validation import ValidityOracle
from repro.rng import keyed_draws

__all__ = ["Provider"]


@dataclass
class Provider:
    """One provider node.

    Attributes:
        provider_id: Node id (matches the Identity Manager enrolment).
        key: Signing credential issued by the IM.
        linked_collectors: The ``r`` collectors this provider feeds.
        active: Whether the provider retrieves blocks and argues; the
            Validity property only protects active providers.
        argue_abuse_rate: Adversarial-provider model — probability of
            *also* arguing about own transactions that were correctly
            recorded invalid.  Each such argue forces governors to
            re-validate (a bounded griefing cost: one validation per
            argue, and the burial window U caps how long a transaction
            stays arguable) but can never flip the record, since the
            governors' own ``validate`` settles it.
        seed: The run seed, which keys the abuse draw about each record
            (:func:`repro.rng.keyed_draws`).
    """

    provider_id: str
    key: SigningKey
    linked_collectors: tuple[str, ...]
    active: bool = True
    argue_abuse_rate: float = 0.0
    seed: int = 0
    _nonce: int = field(default=0, repr=False)
    #: Nonce of this object's first signature (None until it signs): its
    #: own transactions are exactly those naming it with a nonce in
    #: ``[_first_nonce, _nonce)``.
    _first_nonce: int | None = field(default=None, repr=False)
    argued_tx_ids: set[str] = field(default_factory=set, repr=False)
    spurious_argues: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.key.owner != self.provider_id:
            raise ValueError(
                f"key owner {self.key.owner!r} does not match provider {self.provider_id!r}"
            )
        if not 0.0 <= self.argue_abuse_rate <= 1.0:
            raise ValueError(
                f"argue_abuse_rate must be in [0, 1], got {self.argue_abuse_rate}"
            )

    def create_transaction(self, payload: object, timestamp: float) -> SignedTransaction:
        """Generate and sign the next transaction (fresh nonce)."""
        nonce = self._nonce
        if self._first_nonce is None:
            # Taken here, not at construction: a re-instantiated provider
            # resumes at a nonce its host sets after building it.
            self._first_nonce = nonce
        tx = make_signed_transaction(self.key, payload, timestamp, nonce=nonce)
        self._nonce = nonce + 1
        return tx

    def review_block(self, block: Block, oracle: ValidityOracle) -> list[str]:
        """The active provider's block scan: which own txs to argue about.

        A provider argues when a transaction he knows to be valid is
        recorded as invalid *and unchecked* (a checked-invalid record
        means the governor already validated, and with a truthful oracle
        that cannot contradict the provider).  Each transaction is argued
        at most once.  His own transactions are the ones naming him with
        a nonce this object signed: only he holds the key, and a forged
        or tampered copy fails its signature and is never packed.

        Args:
            block: A freshly retrieved block.
            oracle: The provider's own knowledge of validity — providers
                know their transactions, modelled via the shared oracle.

        Returns:
            tx ids to invoke ``argue(tx, s)`` for, in block order.
        """
        first = self._first_nonce
        if not self.active or first is None:
            return []
        me, end = self.provider_id, self._nonce
        to_argue: list[str] = []
        for rec in block.tx_list:
            body = rec.tx.body
            if body.provider != me or not first <= body.nonce < end:
                continue
            tx_id = rec.tx.tx_id
            if tx_id in self.argued_tx_ids:
                continue
            if rec.label is not Label.INVALID or rec.status is not CheckStatus.UNCHECKED:
                continue
            if oracle.validate(rec.tx):
                self.argued_tx_ids.add(tx_id)
                to_argue.append(tx_id)
            elif self.argue_abuse_rate > 0.0 and (
                keyed_draws(self.seed, me, body.digest).random() < self.argue_abuse_rate
            ):
                # Spurious argue: the record is correct, but the abusive
                # provider contests it anyway to burn governor validations.
                self.argued_tx_ids.add(tx_id)
                self.spurious_argues += 1
                to_argue.append(tx_id)
        return to_argue
