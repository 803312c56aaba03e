"""Reputation updating — Algorithm 3's three cases, applied to a book.

Case 1 (forge): an upload with an illegal signature costs the uploader
1 on ``w_forge``.

Case 2 (checked): every collector that reported the transaction gains
+1 on ``w_misreport`` if his label matched the governor's validation
result, and loses 1 otherwise.

Case 3 (unchecked truth revealed): every *linked* collector's
provider-entry is multiplied by 1 (labeled correctly), ``gamma_tx``
(labeled wrongly) or ``beta`` (stayed silent); ``gamma_tx`` is derived
from the realised loss ``L_tx = 2 W_wrong / (W_right + W_wrong)`` where
the weight sums are taken *at reveal time*, matching Algorithm 3 which
recomputes them from the current book.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.params import ProtocolParams, gamma_for
from repro.core.reputation import ReputationBook
from repro.ledger.transaction import Label

__all__ = [
    "RevealSummary",
    "apply_forge_update",
    "apply_checked_update",
    "compute_loss",
    "apply_reveal_update",
]


@dataclass(frozen=True)
class RevealSummary:
    """What a case-3 update did, for metrics and tests."""

    provider: str
    true_label: Label
    loss: float
    gamma: float
    outcomes: Mapping[str, str]
    w_right: float
    w_wrong: float


def apply_forge_update(book: ReputationBook, collector: str) -> None:
    """Case 1: penalise a forged upload."""
    book.record_forge(collector)


def apply_checked_update(
    book: ReputationBook,
    labels: Mapping[str, Label],
    true_label: Label,
) -> None:
    """Case 2: ±1 misreport updates for a transaction the governor checked.

    Args:
        book: The governor's reputation table (mutated).
        labels: collector -> label, for every collector that reported.
        true_label: The governor's validation result as a label.
    """
    for collector, label in labels.items():
        book.record_checked(collector, labeled_correctly=(label is true_label))


def compute_loss(
    book: ReputationBook,
    provider: str,
    labels: Mapping[str, Label],
    true_label: Label,
) -> tuple[float, float, float]:
    """``(L_tx, W_right, W_wrong)`` at the current book state.

    ``L_tx = 2 W_wrong / (W_right + W_wrong)``; when nobody reported
    (both sums zero) the loss is defined as 0 — there was no sampled
    label to mislead the governor.
    """
    w_right = sum(
        book.weight(c, provider) for c, lab in labels.items() if lab is true_label
    )
    w_wrong = sum(
        book.weight(c, provider) for c, lab in labels.items() if lab is not true_label
    )
    total = w_right + w_wrong
    loss = 0.0 if total == 0.0 else 2.0 * w_wrong / total
    return loss, w_right, w_wrong


def apply_reveal_update(
    params: ProtocolParams,
    book: ReputationBook,
    provider: str,
    linked_collectors: Sequence[str],
    labels: Mapping[str, Label],
    true_label: Label,
    gamma_override: float | None = None,
) -> RevealSummary:
    """Case 3: apply the multiplicative update for a revealed truth.

    The one site of the update: the engines' governors, the Theorem-1
    game (:mod:`repro.core.game`) and the E8 policy
    (:class:`repro.baselines.base.ReputationPolicy`) all step through
    here, so the bound is measured on the mechanism that runs.

    Args:
        params: Supplies ``beta`` (and thus the gamma rule).
        book: The governor's reputation table (mutated).
        provider: The transaction's provider.
        linked_collectors: All collectors linked with the provider —
            silent ones are discounted by ``beta``.
        labels: collector -> label uploaded for the transaction.
        true_label: The revealed true status.
        gamma_override: A fixed mislabel discount in place of the
            paper's ``gamma_tx`` rule (the ablation that violates the
            inequality chain on purpose).

    Returns:
        A :class:`RevealSummary` with the realised loss and gamma.
    """
    loss, w_right, w_wrong = compute_loss(book, provider, labels, true_label)
    gamma = gamma_for(params.beta, loss) if gamma_override is None else gamma_override
    outcomes: dict[str, str] = {}
    for collector in linked_collectors:
        label = labels.get(collector)
        if label is None:
            outcomes[collector] = "missed"
        elif label is true_label:
            outcomes[collector] = "correct"
        else:
            outcomes[collector] = "wrong"
    book.apply_revealed_truth(provider, outcomes, beta=params.beta, gamma=gamma)
    return RevealSummary(
        provider=provider,
        true_label=true_label,
        loss=loss,
        gamma=gamma,
        outcomes=outcomes,
        w_right=w_right,
        w_wrong=w_wrong,
    )
