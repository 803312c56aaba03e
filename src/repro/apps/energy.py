"""Peer-to-peer energy trading on the streaming protocol.

Mapping: **prosumers are providers** (each metered trade — an export to
or an import from the grid — is a transaction), **meter aggregators are
collectors** (label +1 when the reading is plausible against the feeder
telemetry, -1 otherwise), **the distribution consortium's settlement
nodes are governors**.  A trade is *valid* when the meter reading is
genuine; tampered readings (inflated exports, under-reported imports)
are the invalid transactions.

Load is **diurnal**: arrivals follow a sinusoidal day cycle, and the
flow *direction* swings with the same phase — daylight rounds are
export-heavy (solar), night rounds import-heavy — so reputations are
learned under bidirectional, time-varying traffic.

The adversary mix models **tampering aggregators**: some certify
inflated readings for a kickback (misreporting), one drops inconvenient
readings (concealing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.agents.behaviors import CollectorBehavior, ConcealBehavior, MisreportBehavior
from repro.core.params import ProtocolParams
from repro.streaming.app import StreamingApp
from repro.workloads.arrivals import DiurnalArrivals
from repro.workloads.generator import TxSpec

__all__ = ["EnergyTrade", "EnergyMarket", "EnergyReport"]


@dataclass(frozen=True)
class EnergyTrade:
    """One metered trade payload."""

    prosumer: str
    direction: str  # "export" | "import"
    kwh: float
    price_per_kwh: float
    genuine: bool

    def as_payload(self) -> dict:
        """Canonically hashable payload form."""
        return {
            "prosumer": self.prosumer,
            "direction": self.direction,
            "kwh": self.kwh,
            "price_per_kwh": self.price_per_kwh,
            "genuine": self.genuine,
        }


@dataclass(frozen=True)
class EnergyReport:
    """Domain metrics for an energy-market run."""

    trades_committed: int
    exported_kwh: float
    imported_kwh: float
    tamper_rate: float
    peak_active_prosumers: int
    retirements: int
    audit_clean: bool


@dataclass
class EnergyMarket(StreamingApp):
    """A streaming energy-trading deployment.

    Prosumers, aggregators and settlers are the base's ``universe``,
    ``n`` and ``m``; ``r`` is the aggregators per prosumer.

    Args:
        base_rate / day_period / amplitude: The diurnal arrival cycle
            (a prosumer idle for one ``day_period`` is retired).
        tamper_misreport / tamper_conceal: Aggregator indices in the
            tampering ring, by conduct.
    """

    params: ProtocolParams = field(default_factory=lambda: ProtocolParams(f=0.5, b_limit=64))
    base_rate: float = 20.0
    day_period: int = 12
    amplitude: float = 0.7
    tamper_misreport: tuple[int, ...] = (5, 6)
    tamper_conceal: tuple[int, ...] = (7,)

    def __post_init__(self) -> None:
        self._exported = 0.0
        self._imported = 0.0
        self._committed = 0
        self._tampered = 0
        self.retirement_rounds = self.day_period
        super().__post_init__()

    def offered_load(self) -> dict:
        return {
            "arrivals": DiurnalArrivals(
                self.base_rate,
                period=self.day_period,
                amplitude=self.amplitude,
                seed=self.seed,
            ),
            "validity": "bernoulli",
            "p_valid": 0.85,
        }

    def adversary_mix(self) -> Mapping[str, CollectorBehavior]:
        """The tampering aggregators' behaviours."""
        return {
            **self._seat(self.tamper_misreport, lambda: MisreportBehavior(0.5)),
            **self._seat(self.tamper_conceal, lambda: ConcealBehavior(0.4)),
        }

    def _phase(self) -> float:
        """Daylight fraction for the round currently being generated."""
        round_number = self.round_number + 1
        return math.sin(
            2.0 * math.pi * (round_number % self.day_period) / self.day_period
        )

    def _enrich(
        self, spec: TxSpec, index: int, rng: np.random.Generator
    ) -> TxSpec:
        """Attach direction (diurnal-phase-biased) and meter reading."""
        daylight = self._phase()
        p_export = 0.5 + 0.4 * daylight  # day: export-heavy; night: imports
        direction = "export" if rng.random() < p_export else "import"
        kwh = round(float(rng.uniform(0.5, 8.0)), 3)
        trade = EnergyTrade(
            prosumer=spec.provider,
            direction=direction,
            kwh=kwh,
            price_per_kwh=round(0.1 + 0.05 * (1.0 - daylight), 4),
            genuine=spec.is_valid,
        )
        return TxSpec(
            provider=spec.provider,
            payload=trade.as_payload(),
            is_valid=spec.is_valid,
        )

    def _tally(self, rec) -> None:
        payload = rec.tx.body.payload
        self._committed += 1
        if not payload.get("genuine", True):
            self._tampered += 1
        elif payload.get("direction") == "export":
            self._exported += payload.get("kwh", 0.0)
        else:
            self._imported += payload.get("kwh", 0.0)

    def report(self) -> EnergyReport:
        """Domain metrics so far (finalises the harness audit)."""
        self.finalize()
        return EnergyReport(
            trades_committed=self._committed,
            exported_kwh=round(self._exported, 3),
            imported_kwh=round(self._imported, 3),
            tamper_rate=(
                self._tampered / self._committed if self._committed else 0.0
            ),
            peak_active_prosumers=self.metrics.peak_active,
            retirements=self.metrics.retirements,
            audit_clean=self.audit_clean,
        )
