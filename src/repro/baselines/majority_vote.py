"""Majority-vote baseline: unweighted voting over the uploaded labels.

The governor records the label the majority of reporters agree on and
validates only ties.  Strong against *independent* low-rate noise, but
an adversarial majority (collusion) flips every record and the policy
never adapts — contrast with the reputation draw, which de-weights a
lying majority after enough reveals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.baselines.base import PolicyDecision
from repro.ledger.transaction import Label
from repro.rng import Generator

__all__ = ["MajorityVotePolicy"]


@dataclass
class MajorityVotePolicy:
    """Record the unweighted majority label; check ties only."""

    def screen(
        self, labels: Mapping[str, Label], rng: Generator
    ) -> PolicyDecision:
        ups = sum(1 for lab in labels.values() if lab is Label.VALID)
        downs = len(labels) - ups
        if ups == downs:
            return PolicyDecision(recorded_label=Label.VALID, checked=True)
        majority = Label.VALID if ups > downs else Label.INVALID
        return PolicyDecision(recorded_label=majority, checked=False)

    def on_truth(
        self, labels: Mapping[str, Label], truth: Label, was_checked: bool
    ) -> None:
        # Votes are unweighted; nothing adapts.
        return
