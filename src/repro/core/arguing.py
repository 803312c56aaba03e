"""Argue handling and the burial window ``U``.

An honest provider that finds a *valid* transaction of his recorded as
``(invalid, unchecked)`` invokes ``argue(tx, s)``; governors then
re-evaluate the transaction, include it (as valid) in a later block, and
run the case-3 reputation update (Algorithm 2's ``deliver_argue`` arm).

The latency bound (Sections 3.1 and 4.2): an unchecked transaction can
only be argued before it is **buried by more than U transactions with
the same state** — i.e. U later unchecked transactions.  Past that, it
is regarded as invalid permanently.  :class:`ArgueManager` tracks the
global unchecked sequence and enforces the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ProtocolViolationError

__all__ = ["ArgueOutcome", "ArgueManager"]


@dataclass(frozen=True)
class ArgueOutcome:
    """Result of an argue attempt."""

    tx_id: str
    accepted: bool
    reason: str


@dataclass
class ArgueManager:
    """Tracks unchecked transactions and admits timely argues.

    Attributes:
        window: The bound ``U``.
    """

    window: int
    _positions: dict[str, int] = field(default_factory=dict)
    _next_position: int = 0
    _resolved: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ProtocolViolationError(f"argue window U must be >= 1, got {self.window}")

    def record_unchecked(self, tx_id: str) -> int:
        """Register a transaction that entered a block unchecked.

        Returns its position in the global unchecked sequence.  Re-recording
        an id raises — each transaction is buried once.
        """
        if tx_id in self._positions:
            raise ProtocolViolationError(f"tx {tx_id} already recorded as unchecked")
        position = self._next_position
        self._positions[tx_id] = position
        self._next_position += 1
        return position

    def burial_depth(self, tx_id: str) -> int:
        """How many unchecked transactions have followed ``tx_id``."""
        try:
            position = self._positions[tx_id]
        except KeyError:
            raise ProtocolViolationError(f"tx {tx_id} was never recorded unchecked") from None
        return self._next_position - 1 - position

    def argue(self, tx_id: str) -> ArgueOutcome:
        """Attempt an argue; idempotently rejects duplicates and expiries."""
        if tx_id not in self._positions:
            return ArgueOutcome(tx_id, False, "transaction was never unchecked")
        if tx_id in self._resolved:
            return ArgueOutcome(tx_id, False, "already resolved")
        depth = self.burial_depth(tx_id)
        if depth > self.window:
            return ArgueOutcome(
                tx_id, False, f"buried by {depth} > U = {self.window} transactions"
            )
        self._resolved.add(tx_id)
        return ArgueOutcome(tx_id, True, "admitted")

    def resolve_silently(self, tx_id: str) -> None:
        """Mark a transaction resolved without an argue.

        Used when the truth is revealed through another channel (e.g. an
        experiment's reveal schedule) so a later argue is rejected.
        """
        if tx_id in self._positions:
            self._resolved.add(tx_id)
