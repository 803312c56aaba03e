"""Static-trust baseline: fixed weights, no updates.

The operator assigns trust weights once (e.g. from an off-chain audit)
and the governor uses the paper's selection/skipping rule over those
*frozen* weights.  If the audit was right, this matches the mechanism's
steady state; when a trusted collector turns coat (the sleeper
behaviour), static trust keeps sampling the traitor while the learned
mechanism demotes him — the scenario E8's sleeper column isolates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.baselines.base import PolicyDecision
from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.ledger.transaction import Label
from repro.rng import Generator

__all__ = ["StaticTrustPolicy"]


@dataclass
class StaticTrustPolicy:
    """The paper's selection/skip rule over operator-frozen weights."""

    params: ProtocolParams
    trust: dict[str, float]

    def __post_init__(self) -> None:
        if not self.trust:
            raise ConfigurationError("static trust table cannot be empty")
        if any(w <= 0 for w in self.trust.values()):
            raise ConfigurationError("static trust weights must be positive")

    def screen(
        self, labels: Mapping[str, Label], rng: Generator
    ) -> PolicyDecision:
        reporters = sorted(c for c in labels if c in self.trust)
        if not reporters:
            # Only unknown reporters: fall back to checking.
            return PolicyDecision(recorded_label=Label.VALID, checked=True)
        w = [self.trust[c] for c in reporters]
        total = sum(w)
        probs = [x / total for x in w]
        drawn_idx = int(rng.choice(len(reporters), p=probs))
        label = labels[reporters[drawn_idx]]
        if label is Label.VALID:
            return PolicyDecision(recorded_label=Label.VALID, checked=True)
        skip = self.params.f * float(probs[drawn_idx])
        checked = bool(rng.random() >= skip)
        return PolicyDecision(recorded_label=Label.INVALID, checked=checked)

    def on_truth(
        self, labels: Mapping[str, Label], truth: Label, was_checked: bool
    ) -> None:
        # Frozen by definition.
        return
