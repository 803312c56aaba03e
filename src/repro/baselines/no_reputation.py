"""No-reputation baseline: the paper's rule with uniform source selection.

Identical to the mechanism — valid-labeled transactions are checked,
invalid-labeled ones are skipped with probability ``f * Pr[chosen]`` —
except the source collector is drawn *uniformly* among reporters and no
weights are learned.  Isolates the value of the reputation-proportional
draw: with adversarial collectors in the pool, the uniform draw keeps
sampling them forever while the reputation draw starves them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.baselines.base import PolicyDecision
from repro.core.params import ProtocolParams
from repro.ledger.transaction import Label
from repro.rng import Generator

__all__ = ["UniformSelectionPolicy"]


@dataclass
class UniformSelectionPolicy:
    """f-tuned skipping with a uniform (unlearned) source draw."""

    params: ProtocolParams

    def screen(
        self, labels: Mapping[str, Label], rng: Generator
    ) -> PolicyDecision:
        reporters = sorted(labels)
        probability = 1.0 / len(reporters)
        drawn = reporters[int(rng.integers(len(reporters)))]
        label = labels[drawn]
        if label is Label.VALID:
            return PolicyDecision(recorded_label=Label.VALID, checked=True)
        skip = self.params.f * probability
        checked = bool(rng.random() >= skip)
        return PolicyDecision(recorded_label=Label.INVALID, checked=checked)

    def on_truth(
        self, labels: Mapping[str, Label], truth: Label, was_checked: bool
    ) -> None:
        # Deliberately no learning — that is the ablation.
        return
