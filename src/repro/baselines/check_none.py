"""Check-none baseline: the f -> 1 extreme.

The governor never validates; he records the label of a uniformly drawn
reporter.  Zero validation cost, but every adversarial label lands —
the floor E8 compares mistake counts against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.baselines.base import PolicyDecision
from repro.ledger.transaction import Label
from repro.rng import Generator

__all__ = ["CheckNonePolicy"]


@dataclass
class CheckNonePolicy:
    """Trust a uniformly random reporter, never validate."""

    def screen(
        self, labels: Mapping[str, Label], rng: Generator
    ) -> PolicyDecision:
        reporters = sorted(labels)
        drawn = reporters[int(rng.integers(len(reporters)))]
        return PolicyDecision(recorded_label=labels[drawn], checked=False)

    def on_truth(
        self, labels: Mapping[str, Label], truth: Label, was_checked: bool
    ) -> None:
        # No learning signal is used.
        return
