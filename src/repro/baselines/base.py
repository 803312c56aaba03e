"""Screening-policy interface and the comparison harness (experiment E8).

The paper's mechanism is, at its core, a *screening policy*: given the
labels collectors uploaded for a transaction, decide whether to spend a
validation and what to record.  Expressing the baselines and the paper's
mechanism behind one interface lets E8 compare them on identical
transaction streams:

* :class:`ReputationPolicy` — the paper (reputation-proportional source
  selection, f-tuned skipping, and the governors' own multiplicative
  update on a one-provider book);
* check-all / check-none / uniform-no-reputation / majority-vote /
  static-trust — in the sibling modules.

:class:`PolicySimulation` replays a seeded stream of (truth, labels)
pairs through a policy and accounts mistakes, validations and loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

from repro.agents.behaviors import CollectorBehavior
from repro.core.game import PROVIDER, theorem1_book
from repro.core.params import ProtocolParams
from repro.core.reputation import ReputationBook
from repro.core.updating import apply_reveal_update
from repro.exceptions import ConfigurationError
from repro.ledger.transaction import Label
from repro.rng import Generator, default_rng

__all__ = [
    "PolicyDecision",
    "ScreeningPolicy",
    "ReputationPolicy",
    "PolicyStats",
    "PolicySimulation",
]


@dataclass(frozen=True)
class PolicyDecision:
    """What a policy did for one transaction."""

    recorded_label: Label
    checked: bool


class ScreeningPolicy(Protocol):
    """A governor-side screening strategy."""

    def screen(
        self, labels: Mapping[str, Label], rng: Generator
    ) -> PolicyDecision:
        """Decide on one transaction given the uploaded labels.

        A policy that checks learns the truth via the harness (the
        harness validates when ``checked`` is True); policies must not
        peek at the truth themselves.
        """
        ...

    def on_truth(
        self, labels: Mapping[str, Label], truth: Label, was_checked: bool
    ) -> None:
        """Learn from a revealed truth (checked now, unchecked later)."""
        ...


@dataclass
class ReputationPolicy:
    """The paper's mechanism as a policy (one provider's collector group).

    The weights live in a one-provider
    :class:`~repro.core.reputation.ReputationBook` and move only through
    the governors' own update code, so E8 measures the mechanism the
    engines run.
    """

    params: ProtocolParams
    collector_ids: Sequence[str]
    book: ReputationBook = field(init=False)

    def __post_init__(self) -> None:
        self.book = theorem1_book(self.collector_ids, self.params.initial_reputation)

    def screen(
        self, labels: Mapping[str, Label], rng: Generator
    ) -> PolicyDecision:
        reporters = sorted(c for c in labels if self.book.is_registered(c))
        if not reporters:
            # No known reporter: the conservative fallback is to check.
            return PolicyDecision(recorded_label=Label.VALID, checked=True)
        probs = self.book.selection_row(PROVIDER, reporters).probabilities()
        drawn_idx = int(rng.choice(len(reporters), p=probs))
        drawn = reporters[drawn_idx]
        label = labels[drawn]
        if label is Label.VALID:
            return PolicyDecision(recorded_label=Label.VALID, checked=True)
        skip = self.params.f * float(probs[drawn_idx])
        checked = bool(rng.random() >= skip)
        return PolicyDecision(recorded_label=Label.INVALID, checked=checked)

    def on_truth(
        self, labels: Mapping[str, Label], truth: Label, was_checked: bool
    ) -> None:
        if was_checked:
            # Case 2 uses the additive misreport entry, which does not
            # feed back into source selection; selection weights are the
            # first-s entries, updated only on unchecked reveals.
            return
        known = {c: lab for c, lab in labels.items() if self.book.is_registered(c)}
        apply_reveal_update(
            self.params, self.book, PROVIDER, self.collector_ids, known, truth
        )


@dataclass
class PolicyStats:
    """Outcome of one policy over one stream."""

    transactions: int = 0
    validations: int = 0
    unchecked: int = 0
    mistakes: int = 0
    realized_loss: float = 0.0

    @property
    def check_rate(self) -> float:
        """Fraction of transactions the policy validated."""
        return self.validations / self.transactions if self.transactions else 0.0

    @property
    def mistake_rate(self) -> float:
        """Mistakes per transaction."""
        return self.mistakes / self.transactions if self.transactions else 0.0


@dataclass
class PolicySimulation:
    """Replay one seeded stream through a policy.

    The stream is generated from collector behaviours by the same
    procedure as in :class:`repro.core.game.ReputationGame`, but not from
    the same draws: the game also draws the governor's pick from its
    generator.  Identical (behaviours, horizon, seed) produce identical
    (truth, labels) sequences, so different policies face the same
    adversary.
    """

    behaviors: Sequence[CollectorBehavior]
    horizon: int
    p_valid: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if not 0.0 <= self.p_valid <= 1.0:
            raise ConfigurationError("p_valid must be in [0, 1]")

    def stream(self) -> list[tuple[Label, dict[str, Label]]]:
        """Materialise the (truth, labels) stream."""
        rng = default_rng(self.seed)
        ids = [f"c{i}" for i in range(len(self.behaviors))]
        out: list[tuple[Label, dict[str, Label]]] = []
        # One transaction a round: a counting behaviour closes one after each.
        round_ends = [b.end_round for b in self.behaviors if hasattr(b, "end_round")]
        for _ in range(self.horizon):
            truth_valid = bool(rng.random() < self.p_valid)
            labels: dict[str, Label] = {}
            for cid, behavior in zip(ids, self.behaviors, strict=True):
                label = behavior.label_for(truth_valid, rng)
                if label is not None:
                    labels[cid] = label
            for end_round in round_ends:
                end_round()
            out.append((Label.from_bool(truth_valid), labels))
        return out

    def run(self, policy: ScreeningPolicy, policy_seed: int = 1) -> PolicyStats:
        """Run ``policy`` over the stream and account its performance.

        A *mistake* is recording the wrong final label: an unchecked
        record whose provisional label contradicts the truth (checked
        transactions are never mistaken — validation reveals the truth).
        """
        rng = default_rng(policy_seed)
        stats = PolicyStats()
        for truth, labels in self.stream():
            stats.transactions += 1
            if not labels:
                # Nothing uploaded: the transaction is invisible to the
                # governor; skip (no decision possible for any policy).
                continue
            decision = policy.screen(labels, rng)
            if decision.checked:
                stats.validations += 1
                policy.on_truth(labels, truth, was_checked=True)
            else:
                stats.unchecked += 1
                if decision.recorded_label is not truth:
                    stats.mistakes += 1
                    stats.realized_loss += 2.0
                policy.on_truth(labels, truth, was_checked=False)
        return stats
