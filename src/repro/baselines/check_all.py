"""Check-all baseline: the f -> 0 extreme.

The governor validates every transaction himself.  Zero mistakes, but a
validation per transaction — exactly the cost the paper's mechanism is
designed to avoid.  E8's accuracy ceiling and cost ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.baselines.base import PolicyDecision
from repro.ledger.transaction import Label
from repro.rng import Generator

__all__ = ["CheckAllPolicy"]


@dataclass
class CheckAllPolicy:
    """Validate everything; labels are irrelevant."""

    def screen(
        self, labels: Mapping[str, Label], rng: Generator
    ) -> PolicyDecision:
        return PolicyDecision(recorded_label=Label.VALID, checked=True)

    def on_truth(
        self, labels: Mapping[str, Label], truth: Label, was_checked: bool
    ) -> None:
        # Nothing to learn: every transaction is checked.
        return
