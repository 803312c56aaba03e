"""Run-level metric aggregation over protocol-engine executions.

Collects per-governor counters into the summary rows the benches print:
check rates, mistake counts, loss totals, validation cost — plus
cross-run sweep containers used by the f-sweep (E5) and baseline (E8)
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.protocol import ProtocolEngine
from repro.exceptions import ConfigurationError

__all__ = ["GovernorSummary", "RunSummary", "summarize_run", "SweepTable"]


@dataclass(frozen=True)
class GovernorSummary:
    """One governor's per-run totals."""

    governor: str
    screened: int
    validations: int
    unchecked: int
    mistakes: int
    expected_loss: float
    realized_loss: float
    forgeries_caught: int

    @property
    def check_rate(self) -> float:
        """Validations per screened transaction."""
        return self.validations / self.screened if self.screened else 0.0

    @property
    def unchecked_rate(self) -> float:
        """Unchecked fraction — Lemma 2 bounds its expectation by f."""
        return self.unchecked / self.screened if self.screened else 0.0


@dataclass(frozen=True)
class RunSummary:
    """A whole run: per-governor rows plus system totals."""

    governors: tuple[GovernorSummary, ...]
    rounds: int
    transactions: int
    provider_messages: int
    collector_messages: int
    governor_messages: int
    stake_messages: int
    argues: int
    rewards_paid: dict[str, float]

    @property
    def mean_unchecked_rate(self) -> float:
        """Average unchecked fraction across governors."""
        rates = [g.unchecked_rate for g in self.governors]
        return sum(rates) / len(rates) if rates else 0.0

    @property
    def total_mistakes(self) -> int:
        """Sum of governor mistakes."""
        return sum(g.mistakes for g in self.governors)

    @property
    def total_validations(self) -> int:
        """Sum of governor validations (the protocol's main cost)."""
        return sum(g.validations for g in self.governors)


def summarize_run(engine: ProtocolEngine) -> RunSummary:
    """Snapshot an engine's metrics into a :class:`RunSummary`."""
    rows = []
    for gid, gov in sorted(engine.governors.items()):
        m = gov.metrics
        rows.append(
            GovernorSummary(
                governor=gid,
                screened=m.transactions_screened,
                validations=m.validations,
                unchecked=m.unchecked,
                mistakes=m.mistakes,
                expected_loss=m.expected_loss,
                realized_loss=m.realized_loss,
                forgeries_caught=m.forgeries_caught,
            )
        )
    em = engine.metrics
    return RunSummary(
        governors=tuple(rows),
        rounds=em.rounds,
        transactions=em.transactions_offered,
        provider_messages=em.provider_messages,
        collector_messages=em.collector_messages,
        governor_messages=em.governor_messages,
        stake_messages=em.stake_messages,
        argues=em.argues_total,
        rewards_paid=dict(em.rewards_paid),
    )


@dataclass
class SweepTable:
    """A parameter sweep accumulated into printable columns.

    ``add`` appends one row (parameter value -> metric dict); ``column``
    extracts a series; rows keep insertion order.
    """

    parameter: str
    _rows: list[tuple[float, dict[str, float]]] = field(default_factory=list)

    def add(self, value: float, metrics: dict[str, float]) -> None:
        """Record the metrics measured at ``parameter = value``."""
        self._rows.append((value, dict(metrics)))

    def column(self, name: str) -> list[float]:
        """One metric across the sweep.

        Raises:
            ConfigurationError: if any row lacks the metric.
        """
        out = []
        for value, metrics in self._rows:
            if name not in metrics:
                raise ConfigurationError(
                    f"row {self.parameter}={value} lacks metric {name!r}"
                )
            out.append(metrics[name])
        return out

    def metric_names(self) -> list[str]:
        """Union of metric names across rows, first-seen order."""
        seen: dict[str, None] = {}
        for _value, metrics in self._rows:
            for name in metrics:
                seen.setdefault(name)
        return list(seen)

    def rows(self) -> Iterable[tuple[float, dict[str, float]]]:
        """Iterate (value, metrics) rows."""
        return iter(self._rows)
