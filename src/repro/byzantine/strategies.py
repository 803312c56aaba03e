"""Agent-level Byzantine collector strategies.

These extend the conduct models in :mod:`repro.agents.behaviors` with
the coordinated and adaptive attackers of the adversary model (see
DESIGN.md).  They rely on the two optional behaviour hooks consumed by
:meth:`repro.agents.collector.Collector.process_all`:

* ``label_for_tx(tx, true_valid, rng)`` — provider-aware labelling;
* ``conflicting_label_for(tx, primary_label, rng)`` — a second signed
  upload with a different label (provable equivocation).

All strategies implement the plain
:class:`~repro.agents.behaviors.CollectorBehavior` protocol too, so
they drop into every existing engine unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ConfigurationError
from repro.ledger.transaction import Label, SignedTransaction
from repro.rng import Draws

__all__ = [
    "CartelPlan",
    "ColludingCollectorBehavior",
    "AdaptiveAttackerBehavior",
    "TwoFacedCollectorBehavior",
]


@dataclass(frozen=True)
class CartelPlan:
    """Shared coordination state of a colluding collector cartel.

    One plan instance is handed to every member, so the collusion is
    *consistent by construction*: every member conceals (or inverts)
    the same target provider's transactions while labelling everyone
    else honestly — the coordinated-concealment attack the per-provider
    reputation rows exist to absorb.

    Attributes:
        target_provider: The provider the cartel acts against.
        mode: ``"conceal"`` (stay silent on the target's transactions)
            or ``"invert"`` (upload the wrong label for them).
    """

    target_provider: str
    mode: str = "conceal"

    def __post_init__(self) -> None:
        if self.mode not in ("conceal", "invert"):
            raise ConfigurationError(
                f"cartel mode must be 'conceal' or 'invert', got {self.mode!r}"
            )


@dataclass
class ColludingCollectorBehavior:
    """One member of a :class:`CartelPlan` cartel.

    Honest on every transaction except the target provider's — those it
    conceals or inverts per the shared plan.  Because the misconduct is
    provider-selective, it is invisible to any screening that only
    aggregates per collector; the per-provider weight rows are what
    eventually starve the cartel's influence on the target.
    """

    plan: CartelPlan
    suppressed: int = field(default=0, repr=False)

    def label_for(self, true_valid: bool, rng: Draws) -> Label | None:
        # Provider-blind fallback (in-process paths): honest.
        return Label.from_bool(true_valid)

    def should_forge(self, rng: Draws) -> bool:
        return False

    def label_for_tx(
        self, tx: SignedTransaction, true_valid: bool, rng: Draws
    ) -> Label | None:
        if tx.provider != self.plan.target_provider:
            return Label.from_bool(true_valid)
        self.suppressed += 1
        if self.plan.mode == "conceal":
            return None
        return Label.from_bool(not true_valid)


@dataclass
class AdaptiveAttackerBehavior:
    """Defects only while its *current* reputation can absorb it.

    The strategic mirror of
    :class:`~repro.agents.behaviors.SleeperBehavior`: instead of a fixed
    honest prefix, it reads the governor's live weight row through a
    bound probe (:func:`repro.byzantine.scenario.reputation_probe`) and
    misreports with probability ``p_defect`` only while its mean weight
    exceeds ``defect_above``.  The multiplicative-weights update makes
    this self-defeating — every defection burns the very capital the
    strategy conditions on, which is precisely the Theorem-1 argument —
    and the soak test pins that down.

    Before a probe is bound (or if it reports no standing) the attacker
    plays honest.
    """

    defect_above: float = 1.0
    p_defect: float = 0.5
    weight_probe: Callable[[], float] | None = None
    defections: int = field(default=0, repr=False)

    def bind_probe(self, probe: Callable[[], float]) -> None:
        """Attach the live reputation read-out this attacker conditions on."""
        self.weight_probe = probe

    def label_for(self, true_valid: bool, rng: Draws) -> Label | None:
        weight = 0.0 if self.weight_probe is None else float(self.weight_probe())
        if weight > self.defect_above and rng.random() < self.p_defect:
            self.defections += 1
            return Label.from_bool(not true_valid)
        return Label.from_bool(true_valid)

    def should_forge(self, rng: Draws) -> bool:
        return False


@dataclass
class TwoFacedCollectorBehavior:
    """Signs *two conflicting labels* for every ``period``-th transaction.

    Both uploads carry valid collector signatures, so any single
    governor holding the pair has a provable
    :data:`~repro.audit.auditor.ViolationType.COLLECTOR_EQUIVOCATION` — the
    cheapest way to earn a quarantine, and the regression fixture for
    the two-signed-messages evidence rule.
    """

    period: int = 1
    _count: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ConfigurationError(f"period must be >= 1, got {self.period}")

    def label_for(self, true_valid: bool, rng: Draws) -> Label | None:
        return Label.from_bool(true_valid)

    def should_forge(self, rng: Draws) -> bool:
        return False

    def conflicting_label_for(
        self, tx: SignedTransaction, primary: Label, rng: Draws
    ) -> Label | None:
        self._count += 1
        if self._count % self.period == 0:
            return Label(-int(primary))
        return None
