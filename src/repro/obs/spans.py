"""Sim-time span tracing.

A :class:`Span` is one named interval of *simulated* time — a round, a
block pack, a recovery drain — with string labels.  Spans complement
the counters in :mod:`repro.obs.registry`: counters say *how much*,
spans say *where the sim time went*.

Spans are recorded through the registry so one object travels through
the stack.  The caller reads the simulator's clock at both ends::

    start = sim.now
    ...  # simulated work
    registry.record_span("round", start, sim.now, round="3", leader="g1")

Deliberately minimal: no nesting bookkeeping, no ids — the (name,
labels, start, end) tuple plus record order is everything the analysis
recipes in OBSERVABILITY.md need, and nothing here can perturb a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = ["Span"]


@dataclass(frozen=True)
class Span:
    """One closed interval of simulated time."""

    name: str
    labels: Mapping[str, str]
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Simulated seconds the span covered."""
        return self.end - self.start

    def as_dict(self) -> dict:
        """JSON-ready representation (what ``obs/export.py::snapshot`` records)."""
        return {
            "span": self.name,
            "labels": dict(self.labels),
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
