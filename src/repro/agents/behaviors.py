"""Agent behaviour models — the adversary space of Section 4.2.

The paper names three classes of collector misbehaviour:

1. **misreport** — upload the opposite label;
2. **conceal** — fail to report a received transaction;
3. **forge** — fabricate a transaction.

A behaviour decides, per received transaction, whether to report the
truth, lie, or stay silent, and how often to attempt forgeries.  All
randomness flows through the caller-supplied RNG, keeping runs
reproducible.  Stateful behaviours (flip-flop, sleeper) count their own
decisions, and switch only when told a round closed (their optional
``end_round`` hook): every transaction of one round reads the same
count, whatever order the collector meets them in.

Theorem 1 quantifies over arbitrary behaviour as long as *one* collector
behaves well, so the experiments mix these models freely.

A provider has one misbehaviour, :class:`ArgueAbuse`: it also argues
about its own correctly recorded invalid transactions.  An engine's
``behaviors`` map takes both kinds, keyed by agent id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.exceptions import ConfigurationError
from repro.ledger.transaction import Label
from repro.rng import Draws

__all__ = [
    "CollectorBehavior",
    "HonestBehavior",
    "MisreportBehavior",
    "ConcealBehavior",
    "ForgeBehavior",
    "FlipFlopBehavior",
    "SleeperBehavior",
    "AlwaysInvertBehavior",
    "ArgueAbuse",
    "standard_adversary_mix",
]


class CollectorBehavior(Protocol):
    """Strategy interface for a collector's per-transaction conduct."""

    def label_for(self, true_valid: bool, rng: Draws) -> Label | None:
        """The label to upload for a transaction, or None to conceal."""
        ...

    def should_forge(self, rng: Draws) -> bool:
        """Whether to also submit a forged transaction this opportunity."""
        ...


def _check_probability(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {p}")


@dataclass
class HonestBehavior:
    """Always report the true label, never forge — the well-behaved collector."""

    def label_for(self, true_valid: bool, rng: Draws) -> Label | None:
        return Label.from_bool(true_valid)

    def should_forge(self, rng: Draws) -> bool:
        return False


@dataclass
class MisreportBehavior:
    """Flip the label independently with probability ``p``."""

    p: float

    def __post_init__(self) -> None:
        _check_probability("misreport probability p", self.p)

    def label_for(self, true_valid: bool, rng: Draws) -> Label | None:
        if rng.random() < self.p:
            return Label.from_bool(not true_valid)
        return Label.from_bool(true_valid)

    def should_forge(self, rng: Draws) -> bool:
        return False


@dataclass
class ConcealBehavior:
    """Stay silent with probability ``q``; report truthfully otherwise."""

    q: float

    def __post_init__(self) -> None:
        _check_probability("conceal probability q", self.q)

    def label_for(self, true_valid: bool, rng: Draws) -> Label | None:
        if rng.random() < self.q:
            return None
        return Label.from_bool(true_valid)

    def should_forge(self, rng: Draws) -> bool:
        return False


@dataclass
class ForgeBehavior:
    """Report honestly but attempt a forgery with probability ``w``."""

    w: float

    def __post_init__(self) -> None:
        _check_probability("forge probability w", self.w)

    def label_for(self, true_valid: bool, rng: Draws) -> Label | None:
        return Label.from_bool(true_valid)

    def should_forge(self, rng: Draws) -> bool:
        return bool(rng.random() < self.w)


@dataclass
class _RoundCounter:
    """Transactions labelled in closed rounds (``_seen``) and in the open one."""

    _seen: int = field(default=0, init=False, repr=False)
    _this_round: int = field(default=0, init=False, repr=False)

    def end_round(self) -> None:
        self._seen += self._this_round
        self._this_round = 0


@dataclass
class FlipFlopBehavior(_RoundCounter):
    """Alternate honest/lying phases of ``period`` transactions each,
    switching at the first round boundary past each phase's end.

    A worst-case pattern for naive (windowed-average) reputation schemes;
    the multiplicative scheme keeps punishing each lying phase.
    """

    period: int = 10

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ConfigurationError(f"flip-flop period must be >= 1, got {self.period}")

    def label_for(self, true_valid: bool, rng: Draws) -> Label | None:
        self._this_round += 1
        if (self._seen // self.period) % 2 == 0:
            return Label.from_bool(true_valid)
        return Label.from_bool(not true_valid)

    def should_forge(self, rng: Draws) -> bool:
        return False


@dataclass
class SleeperBehavior(_RoundCounter):
    """Behave perfectly for ``honest_prefix`` transactions, then defect
    from the first round that begins past them.

    Models reputation farming: build weight, then spend it lying with
    probability ``p_after``.  Theorem 1 still bounds the damage because
    every wrong sampled label multiplies the sleeper's weight down.
    """

    honest_prefix: int = 100
    p_after: float = 1.0

    def __post_init__(self) -> None:
        if self.honest_prefix < 0:
            raise ConfigurationError("honest_prefix cannot be negative")
        _check_probability("p_after", self.p_after)

    def label_for(self, true_valid: bool, rng: Draws) -> Label | None:
        self._this_round += 1
        if self._seen < self.honest_prefix:
            return Label.from_bool(true_valid)
        if rng.random() < self.p_after:
            return Label.from_bool(not true_valid)
        return Label.from_bool(true_valid)

    def should_forge(self, rng: Draws) -> bool:
        return False


@dataclass
class AlwaysInvertBehavior:
    """Deterministically report the opposite label — maximal misreporting."""

    def label_for(self, true_valid: bool, rng: Draws) -> Label | None:
        return Label.from_bool(not true_valid)

    def should_forge(self, rng: Draws) -> bool:
        return False


@dataclass(frozen=True)
class ArgueAbuse:
    """A provider that also contests correctly recorded invalid transactions
    with probability ``rate``: each spurious argue burns one validation at
    every governor holding the record unchecked (bounded griefing; the
    record never flips)."""

    rate: float

    def __post_init__(self) -> None:
        _check_probability("argue abuse rate", self.rate)


def standard_adversary_mix() -> list[CollectorBehavior]:
    """The r = 8 collector mix used across experiments: 2 honest, 6 bad."""
    return [
        HonestBehavior(),
        HonestBehavior(),
        MisreportBehavior(0.4),
        ConcealBehavior(0.4),
        AlwaysInvertBehavior(),
        AlwaysInvertBehavior(),
        MisreportBehavior(0.8),
        ConcealBehavior(0.8),
    ]
