"""Stake accounting for the PoS leader election.

Section 3.4.3: each governor ``g_j`` holds ``y_j`` units of stake; a
governor's chance of leading a round is proportional to his stake.
Stake units are discrete and individually enumerable because the VRF is
evaluated *per unit*: ``VRF_{g_j}(r, j, u)`` for ``1 <= u <= y_j``.

:class:`StakeLedger` tracks balances and applies signed stake-transfer
transactions; the 3-step stake-transform consensus commits a new state
snapshot at the end of a round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping

from repro.crypto.hashing import canonical_encode, sha256
from repro.crypto.signatures import SignedRecord, SigningKey, sign
from repro.exceptions import StakeError

__all__ = ["StakeTransfer", "StakeLedger", "transfer_message", "make_transfer"]


def transfer_message(sender: str, receiver: str, amount: int, nonce: int) -> bytes:
    """The bytes a sender signs to move ``amount`` stake to ``receiver``."""
    return canonical_encode(("stake-transfer", sender, receiver, amount, nonce))


@dataclass(frozen=True, slots=True)
class StakeTransfer(SignedRecord):
    """A signed stake movement between governors."""

    sender: str
    receiver: str
    amount: int
    nonce: int
    signature: bytes

    signed_by = attrgetter("sender", "signature")
    message_of = staticmethod(transfer_message)
    message_fields = attrgetter("sender", "receiver", "amount", "nonce")

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise StakeError(f"transfer amount must be positive, got {self.amount}")
        if self.sender == self.receiver:
            raise StakeError("self-transfers are meaningless")

    def canonical_bytes(self) -> bytes:
        """Stable digest (for inclusion in NEW_STATE hashing)."""
        return sha256(self.signed_message())


def make_transfer(
    key: SigningKey, receiver: str, amount: int, nonce: int
) -> StakeTransfer:
    """Sign a transfer of ``amount`` stake from ``key.owner`` to ``receiver``."""
    signature = sign(key, transfer_message(key.owner, receiver, amount, nonce))
    return StakeTransfer(key.owner, receiver, amount, nonce, signature)


@dataclass
class StakeLedger:
    """Integral stake balances with transfer application and snapshots."""

    _balances: dict[str, int] = field(default_factory=dict)

    @staticmethod
    def from_balances(balances: Mapping[str, int]) -> "StakeLedger":
        """Build a ledger from initial balances.

        Raises:
            StakeError: on a negative balance.
        """
        for gov, amount in balances.items():
            if amount < 0:
                raise StakeError(f"negative initial stake for {gov!r}: {amount}")
        return StakeLedger(_balances=dict(balances))

    def balance(self, governor: str) -> int:
        """Stake units held by ``governor`` (0 if none)."""
        return self._balances.get(governor, 0)

    def apply(self, transfer: StakeTransfer) -> None:
        """Apply a transfer.

        Raises:
            StakeError: insufficient balance.
        """
        if self.balance(transfer.sender) < transfer.amount:
            raise StakeError(
                f"{transfer.sender!r} holds {self.balance(transfer.sender)} "
                f"stake, cannot send {transfer.amount}"
            )
        self._balances[transfer.sender] -= transfer.amount
        self._balances[transfer.receiver] = (
            self._balances.get(transfer.receiver, 0) + transfer.amount
        )

    def applied(self, transfers: list[StakeTransfer]) -> "StakeLedger":
        """A copy with ``transfers`` applied in order (self unchanged)."""
        copy = StakeLedger(_balances=dict(self._balances))
        for transfer in transfers:
            copy.apply(transfer)
        return copy

    def snapshot(self) -> dict[str, int]:
        """A plain-dict snapshot (the NEW_STATE content)."""
        return dict(self._balances)
