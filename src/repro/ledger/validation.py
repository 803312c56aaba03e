"""Transaction validity: the ``validate(tx)`` oracle.

The paper treats validity as an oracle bit: collectors and governors can
both call ``validate(tx)`` and always learn the true status (collectors
may then *lie about* it; governors pay a cost to call it).  We model the
ground truth as a :class:`ValidityOracle` strategy object so that:

* synthetic workloads fix validity at generation time
  (:class:`GroundTruthOracle`);
* experiments can count every governor-side validation
  (:class:`CountingOracle`), which is what the efficiency benches
  measure — the paper's whole point is reducing these calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.exceptions import LedgerError
from repro.ledger.transaction import SignedTransaction

__all__ = [
    "ValidityOracle",
    "GroundTruthOracle",
    "CountingOracle",
]


class ValidityOracle(Protocol):
    """Anything that can answer ``validate(tx)`` with the true status."""

    def validate(self, tx: SignedTransaction) -> bool:
        """True iff ``tx`` is genuinely valid."""
        ...


@dataclass
class GroundTruthOracle:
    """Validity fixed per transaction id at workload-generation time."""

    _truth: dict[str, bool] = field(default_factory=dict)

    def assign(self, tx: SignedTransaction, is_valid: bool) -> None:
        """Record the ground truth for ``tx`` (idempotent if unchanged).

        Raises:
            LedgerError: on an attempt to flip an already-assigned truth,
                which would make experiment accounting meaningless.
        """
        prior = self._truth.get(tx.tx_id)
        if prior is not None and prior != is_valid:
            raise LedgerError(f"conflicting ground truth for tx {tx.tx_id}")
        self._truth[tx.tx_id] = is_valid

    def validate(self, tx: SignedTransaction) -> bool:
        """The true status; unknown transactions are invalid (forgeries)."""
        return self._truth.get(tx.tx_id, False)


@dataclass
class CountingOracle:
    """Wrap an oracle and count calls — the governor's validation cost."""

    inner: ValidityOracle
    calls: int = 0

    def validate(self, tx: SignedTransaction) -> bool:
        """Delegate and count."""
        self.calls += 1
        return self.inner.validate(tx)
