"""Transaction screening — Algorithm 2 as a pure decision procedure.

For one transaction ``tx`` from provider ``p_k``, a governor holding
reports from ``x <= r`` collectors:

1. computes ``W_{+1}``, ``W_{-1}`` (reputation mass behind each label)
   and ``W_0`` (mass of linked collectors that stayed silent);
2. draws one reporting collector with probability proportional to his
   reputation w.r.t. ``p_k``;
3. if the drawn label is **+1**, validates the transaction;
   if **-1**, validates with probability ``1 - f * Pr[chosen]`` —
   i.e. leaves it *unchecked* with probability ``f * Pr[chosen]``;
4. checked-valid transactions enter the block as valid, checked-invalid
   are discarded, unchecked ones enter as ``(tx, invalid, unchecked)``.

:func:`screen_transaction` performs 1-3 and returns a
:class:`ScreeningDecision`; :func:`decision_to_record` maps it to the
block record (or ``None`` for a discard).  Case-2 reputation updates for
checked transactions are applied by the caller via
:func:`repro.core.updating.apply_checked_update` so that screening stays
side-effect-free and unit-testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.core.params import ProtocolParams
from repro.core.reputation import ReputationBook
from repro.exceptions import ProtocolViolationError
from repro.ledger.transaction import CheckStatus, Label, SignedTransaction, TxRecord
from repro.rng import Generator

__all__ = ["ReportSet", "ScreeningDecision", "screen_transaction", "decision_to_record"]


@dataclass(frozen=True)
class ReportSet:
    """All reports a governor holds for one transaction after the Δ timer.

    Attributes:
        tx: The transaction.
        provider: ``p_k`` (must match ``tx.provider``).
        labels: collector id -> the label he uploaded.
        linked_collectors: the full set ``{c_{k,1}, ..., c_{k,r}}`` the
            provider is linked with (silent ones contribute to ``W_0``).
    """

    tx: SignedTransaction
    provider: str
    labels: Mapping[str, Label]
    linked_collectors: Sequence[str]

    def __post_init__(self) -> None:
        if self.provider != self.tx.provider:
            raise ProtocolViolationError(
                f"report set provider {self.provider!r} != tx provider {self.tx.provider!r}"
            )
        unknown = set(self.labels) - set(self.linked_collectors)
        if unknown:
            raise ProtocolViolationError(
                f"reports from collectors not linked with {self.provider!r}: {sorted(unknown)}"
            )
        if not self.labels:
            raise ProtocolViolationError("cannot screen a transaction with no reports")


@dataclass(frozen=True)
class ScreeningDecision:
    """Everything Algorithm 2 decided for one transaction."""

    tx: SignedTransaction
    provider: str
    chosen_collector: str
    chosen_label: Label
    chosen_probability: float
    checked: bool
    validation_result: bool | None
    w_plus: float
    w_minus: float
    w_silent: float
    labels: Mapping[str, Label]

    @property
    def reported_mass(self) -> float:
        """``W_{+1} + W_{-1}`` — the selection denominator."""
        return self.w_plus + self.w_minus


def screen_transaction(
    params: ProtocolParams,
    book: ReputationBook,
    reports: ReportSet,
    validate: Callable[[SignedTransaction], bool],
    rng: Generator,
) -> ScreeningDecision:
    """Run Algorithm 2's screening step for one transaction.

    Args:
        params: Protocol parameters (only ``f`` is used here).
        book: The governor's reputation table (read-only here).
        reports: The collected reports after the Δ window closed.
        validate: The governor's ``validate(tx)`` oracle; called at most
            once, and only when the decision is to check.
        rng: The governor's RNG (explicit for reproducibility).

    Returns:
        The full :class:`ScreeningDecision`.
    """
    provider = reports.provider
    reporters = sorted(reports.labels)  # deterministic ordering for the draw
    # Amortized-O(1) snapshot: weights, their total mass, and normalized
    # probabilities are all cached per (provider, reporters) row and
    # reused until some underlying reputation entry changes.
    row = book.selection_row(provider, reporters)
    weights = row.weights
    mass = row.total
    if mass <= 0.0:
        raise ProtocolViolationError(
            f"non-positive reputation mass {mass} for provider {provider!r}"
        )
    w_plus = sum(
        w
        for c, w in zip(reporters, weights)
        if reports.labels[c] is Label.VALID
    )
    w_minus = mass - w_plus
    silent = [c for c in reports.linked_collectors if c not in reports.labels]
    w_silent = book.total_weight(provider, silent) if silent else 0.0

    probabilities = row.probabilities()
    drawn_index = int(rng.choice(len(reporters), p=probabilities))
    chosen = reporters[drawn_index]
    chosen_label = reports.labels[chosen]
    chosen_probability = probabilities[drawn_index]

    if chosen_label is Label.VALID:
        checked = True
    else:
        # Check with probability 1 - f * Pr[chosen]; i.e. skip with
        # probability f * Pr[chosen].
        skip_probability = params.f * chosen_probability
        checked = bool(rng.random() >= skip_probability)

    validation_result = bool(validate(reports.tx)) if checked else None
    return ScreeningDecision(
        tx=reports.tx,
        provider=provider,
        chosen_collector=chosen,
        chosen_label=chosen_label,
        chosen_probability=chosen_probability,
        checked=checked,
        validation_result=validation_result,
        w_plus=w_plus,
        w_minus=w_minus,
        w_silent=w_silent,
        labels=dict(reports.labels),
    )


def decision_to_record(decision: ScreeningDecision) -> TxRecord | None:
    """Map a screening decision to its block record.

    Returns:
        * ``TxRecord(valid, CHECKED)`` for checked-valid transactions;
        * ``None`` for checked-invalid ones (discarded, per §3.4.1);
        * ``TxRecord(invalid, UNCHECKED)`` for unchecked ones — the
          governor provisionally trusts the sampled -1 label.
    """
    if decision.checked:
        assert decision.validation_result is not None
        if decision.validation_result:
            return TxRecord(tx=decision.tx, label=Label.VALID, status=CheckStatus.CHECKED)
        return None
    return TxRecord(tx=decision.tx, label=Label.INVALID, status=CheckStatus.UNCHECKED)
