"""The reputation game — Theorem 1's setting as a focused simulation.

Theorem 1 concerns one provider ``p_k``, the ``r`` collectors that
oversee him, and one governor: T transactions are recorded unchecked,
their real states are revealed after the fact, and the governor's
accumulated expected loss ``L_T`` is compared to the best collector's
accumulated loss ``S_min_T`` plus ``O(sqrt(T))``.

:class:`ReputationGame` runs exactly that process:

* per transaction, each collector reports a label (or conceals) per his
  behaviour model;
* the governor samples one reporter with probability proportional to
  his weight and incurs expected loss ``L_t = 2 W_wrong / (W_right +
  W_wrong)`` (realised loss 2 when the sampled label is wrong);
* the truth is revealed after a configurable latency of ``reveal_lag``
  transactions (0 = immediately, the theorem's idealisation; positive
  values reproduce the paper's U-latency discussion), triggering the
  case-3 multiplicative update with the paper's ``gamma_tx`` rule —
  the governors' own :func:`repro.core.updating.apply_reveal_update`
  on a one-provider :class:`~repro.core.reputation.ReputationBook`;
* collector losses accrue 2 per wrong label and 1 per concealment
  (matching the potential argument, where a miss costs ``beta`` =
  ``beta^1`` and a wrong label costs ``gamma >= beta^2``).

The game drives experiments E1 (regret), the beta/gamma ablations, and
the latency study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.agents.behaviors import CollectorBehavior
from repro.core.params import ProtocolParams, tuned_beta
from repro.core.regret import theorem1_bound
from repro.core.reputation import ReputationBook
from repro.core.updating import apply_reveal_update
from repro.exceptions import ConfigurationError
from repro.ledger.transaction import Label
from repro.rng import default_rng

__all__ = ["GameResult", "ReputationGame", "PROVIDER", "theorem1_book"]

#: Theorem 1's one provider ``p_k``.
PROVIDER = "p_k"


def theorem1_book(collector_ids: Sequence[str], initial: float = 1.0) -> ReputationBook:
    """The governor's table in Theorem 1's setting: the ``r`` collectors
    overseeing :data:`PROVIDER`, every weight at ``initial``."""
    book = ReputationBook(governor="g", initial=initial)
    for cid in collector_ids:
        book.register_collector(cid, (PROVIDER,))
    return book


@dataclass
class GameResult:
    """Everything a regret experiment needs from one game run."""

    horizon: int
    r: int
    beta: float
    expected_loss: float
    realized_loss: float
    collector_losses: dict[str, float]
    final_weights: dict[str, float]

    @property
    def s_min(self) -> float:
        """The best collector's accumulated loss ``S_min_T``."""
        return min(self.collector_losses.values())

    @property
    def regret(self) -> float:
        """``L_T - S_min_T`` — what Theorem 1 bounds by O(sqrt(T))."""
        return self.expected_loss - self.s_min

    def theorem1_rhs(self) -> float:
        """Theorem 1's bound value for this run."""
        return theorem1_bound(self.s_min, self.horizon, self.r)


@dataclass
class ReputationGame:
    """Simulate Theorem 1's reveal process for one provider.

    Args:
        behaviors: One behaviour per collector (index -> collector id
            ``c{i}``); Theorem 1 needs at least one well-behaved entry
            for the bound to be meaningful, but the game runs regardless.
        horizon: ``T`` — number of (unchecked) transactions.
        beta: Conceal discount; None selects the proof's tuned schedule
            ``1 - 4 sqrt(log(r)/T)``.
        p_valid: Probability a transaction is genuinely valid.
        reveal_lag: Transactions between burial and truth revelation
            (the paper's latency ``V``; 0 = immediate).
        seed: RNG seed (one generator drives truth, behaviours, and the
            governor's draws, in a fixed order).
        gamma_override: Force a fixed gamma (for the ablation that
            violates the paper's inequality); None uses the paper rule.
    """

    behaviors: Sequence[CollectorBehavior]
    horizon: int
    beta: float | None = None
    p_valid: float = 0.5
    reveal_lag: int = 0
    seed: int = 0
    gamma_override: float | None = None
    #: Source-selection rule: "proportional" (the paper), "uniform" and
    #: "greedy" (ablations), or "wmajority" — follow the *weighted
    #: majority* label deterministically (the non-randomised WM
    #: algorithm; regret O(log r + S_min) but with a worse constant than
    #: RWM, the classic comparison from the expert-advice literature).
    selection: str = "proportional"
    collector_ids: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.behaviors) < 2:
            raise ConfigurationError("the game needs at least 2 collectors")
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {self.horizon}")
        if not 0.0 <= self.p_valid <= 1.0:
            raise ConfigurationError(f"p_valid must be in [0, 1], got {self.p_valid}")
        if self.reveal_lag < 0:
            raise ConfigurationError("reveal_lag cannot be negative")
        if self.selection not in ("proportional", "uniform", "greedy", "wmajority"):
            raise ConfigurationError(f"unknown selection rule {self.selection!r}")
        self.collector_ids = tuple(f"c{i}" for i in range(len(self.behaviors)))

    def run(self) -> GameResult:
        """Play the game and return the losses and final weights."""
        r = len(self.behaviors)
        beta = self.beta if self.beta is not None else tuned_beta(r, self.horizon)
        rng = default_rng(self.seed)
        book = theorem1_book(self.collector_ids)
        params = ProtocolParams(beta=beta)
        collector_losses = {c: 0.0 for c in self.collector_ids}
        expected_loss = 0.0
        realized_loss = 0.0
        # Reveal pipeline: list of (due_step, labels, truth) awaiting update.
        pending: list[tuple[int, dict[str, Label], Label]] = []

        def reveal(labels: dict[str, Label], truth: Label) -> None:
            apply_reveal_update(
                params, book, PROVIDER, self.collector_ids, labels, truth,
                gamma_override=self.gamma_override,
            )

        # One transaction a round: a counting behaviour closes one after each.
        round_ends = [b.end_round for b in self.behaviors if hasattr(b, "end_round")]
        for t in range(self.horizon):
            truth_valid = bool(rng.random() < self.p_valid)
            truth = Label.from_bool(truth_valid)
            labels: dict[str, Label] = {}
            for cid, behavior in zip(self.collector_ids, self.behaviors, strict=True):
                label = behavior.label_for(truth_valid, rng)
                if label is not None:
                    labels[cid] = label
                # Collector loss: 2 wrong, 1 missed, 0 correct.
                if label is None:
                    collector_losses[cid] += 1.0
                elif label is not truth:
                    collector_losses[cid] += 2.0
            for end_round in round_ends:
                end_round()

            if labels:
                reporters = sorted(labels)
                row = book.selection_row(PROVIDER, reporters)
                if self.selection == "proportional":
                    probs = row.probabilities()
                elif self.selection == "uniform":
                    probs = [1.0 / len(reporters)] * len(reporters)
                elif self.selection == "wmajority":
                    # Deterministic WM: all mass on the side with more
                    # reputation; model as choosing any reporter whose
                    # label equals the weighted-majority label.
                    mass_valid = sum(
                        w
                        for c, w in zip(reporters, row.weights)
                        if labels[c] is Label.VALID
                    )
                    majority = (
                        Label.VALID if mass_valid * 2 >= row.total else Label.INVALID
                    )
                    agreeing = sum(labels[c] is majority for c in reporters)
                    probs = [
                        (1.0 if labels[c] is majority else 0.0) / agreeing
                        for c in reporters
                    ]
                else:  # greedy: all mass on the (first) max-weight reporter
                    best = max(range(len(reporters)), key=row.weights.__getitem__)
                    probs = [0.0] * len(reporters)
                    probs[best] = 1.0
                # Expected loss under the governor's *actual* rule uses the
                # actual selection probabilities.
                expected_loss += 2.0 * sum(
                    p for p, c in zip(probs, reporters) if labels[c] is not truth
                )
                drawn = reporters[rng.choice(len(reporters), p=probs)]
                if labels[drawn] is not truth:
                    realized_loss += 2.0
            # (If every collector concealed, the governor has nothing to
            # sample; no loss accrues on this transaction.)

            pending.append((t + self.reveal_lag, labels, truth))
            while pending and pending[0][0] <= t:
                _due, old_labels, old_truth = pending.pop(0)
                reveal(old_labels, old_truth)

        # Flush remaining reveals (the theorem reveals everything "sometime").
        for _due, old_labels, old_truth in pending:
            reveal(old_labels, old_truth)

        return GameResult(
            horizon=self.horizon,
            r=r,
            beta=beta,
            expected_loss=expected_loss,
            realized_loss=realized_loss,
            collector_losses=collector_losses,
            final_weights=book.weights_for(PROVIDER, self.collector_ids),
        )
