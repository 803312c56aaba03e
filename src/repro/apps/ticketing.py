"""Flash-sale ticketing on the streaming protocol.

Mapping: **buyers are providers** (each purchase attempt is a
transaction), **ticketing gateways are collectors** (label +1 when the
purchase passes the bot/identity screen, -1 otherwise), **the event
consortium's clearing nodes are governors**.  A purchase is *valid*
when it comes from a real buyer within the per-person limit; bot
purchases are the invalid transactions.

Load is **extremely bursty**: a quiet trickle punctuated by on-sale
spikes an order of magnitude above ``b_limit``, driven by
:class:`~repro.workloads.arrivals.BurstyArrivals`.  Spikes spill into
the session's backlog and drain over subsequent rounds — the open-loop
behaviour the ``stream_backlog`` gauge measures.  Buyer selection is
uniform over the universe: a flash sale is exactly the workload where
most arrivals are first-time identities, so this preset maximises
instantiation churn.

The adversary mix is a **scalper cartel**: gateways sharing one
:class:`~repro.byzantine.strategies.CartelPlan` conceal the victim
buyer's purchases (denial-of-ticket), while scalper-bot gateways
misreport to wave their own bots through.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.agents.behaviors import CollectorBehavior, MisreportBehavior
from repro.byzantine.strategies import CartelPlan, ColludingCollectorBehavior
from repro.streaming.app import StreamingApp
from repro.workloads.arrivals import BurstyArrivals
from repro.workloads.generator import TxSpec

__all__ = ["TicketOrder", "FlashSaleTicketing", "TicketingReport"]


@dataclass(frozen=True)
class TicketOrder:
    """One purchase-attempt payload."""

    buyer: str
    event: str
    quantity: int
    human: bool

    def as_payload(self) -> dict:
        """Canonically hashable payload form."""
        return {
            "buyer": self.buyer,
            "event": self.event,
            "quantity": self.quantity,
            "human": self.human,
        }


@dataclass(frozen=True)
class TicketingReport:
    """Domain metrics for a flash-sale run."""

    orders_committed: int
    tickets_sold: int
    bot_rate: float
    peak_backlog: int
    peak_active_buyers: int
    victim_orders_on_chain: int
    cartel_suppressions: int
    audit_clean: bool


@dataclass
class FlashSaleTicketing(StreamingApp):
    """A streaming flash-sale deployment.

    Buyers, gateways and clearers are the base's ``universe``, ``n``
    and ``m``; ``r`` is the gateways per buyer.

    Args:
        trickle_rate / spike_rate: Background and on-sale arrival rates.
        victim: Buyer index the scalper cartel acts against.
        cartel / scalper_bots: Gateway indices by conduct.
    """

    universe: int = 100_000
    trickle_rate: float = 6.0
    spike_rate: float = 120.0
    p_spike: float = 0.15
    p_spike_end: float = 0.4
    victim: int = 0
    cartel: tuple[int, ...] = (2, 3, 4)
    scalper_bots: tuple[int, ...] = (6, 7)

    retirement_rounds = 4  # flash buyers churn fast

    def __post_init__(self) -> None:
        self.victim_id = f"p{self.victim}"
        self.plan = CartelPlan(target_provider=self.victim_id, mode="conceal")
        self._committed = 0
        self._tickets = 0
        self._bots = 0
        self._victim_on_chain = 0
        super().__post_init__()

    def offered_load(self) -> dict:
        return {
            "arrivals": BurstyArrivals(
                self.trickle_rate,
                self.spike_rate,
                p_burst=self.p_spike,
                p_end=self.p_spike_end,
                seed=self.seed,
            ),
            "validity": "bernoulli",
            "p_valid": 0.75,
        }

    def adversary_mix(self) -> Mapping[str, CollectorBehavior]:
        """Scalper cartel (one shared plan) plus misreporting bot lanes."""
        cartel = self._seat(self.cartel, lambda: ColludingCollectorBehavior(self.plan))
        self._cartel_members = list(cartel.values())
        return {**cartel, **self._seat(self.scalper_bots, lambda: MisreportBehavior(0.6))}

    def _enrich(
        self, spec: TxSpec, index: int, rng: np.random.Generator
    ) -> TxSpec:
        """Attach the order payload; every ~40th arrival is the victim.

        The cartel needs its target to actually appear in the stream, so
        a slice of arrivals is redirected to the victim buyer — the
        superfan refreshing the sale page all day.
        """
        provider = spec.provider
        if index % 40 == 7:
            provider = self.victim_id
        order = TicketOrder(
            buyer=provider,
            event="onsale-0",
            quantity=1 + int(rng.integers(4)),
            human=spec.is_valid,
        )
        return TxSpec(
            provider=provider,
            payload=order.as_payload(),
            is_valid=spec.is_valid,
        )

    def _tally(self, rec) -> None:
        payload = rec.tx.body.payload
        self._committed += 1
        if payload.get("buyer") == self.victim_id:
            self._victim_on_chain += 1
        if payload.get("human", True):
            self._tickets += payload.get("quantity", 0)
        else:
            self._bots += 1

    def report(self) -> TicketingReport:
        """Domain metrics so far (finalises the session's audit)."""
        self.finalize()
        return TicketingReport(
            orders_committed=self._committed,
            tickets_sold=self._tickets,
            bot_rate=(self._bots / self._committed if self._committed else 0.0),
            peak_backlog=self.session.metrics.peak_backlog,
            peak_active_buyers=self.session.metrics.peak_active,
            victim_orders_on_chain=self._victim_on_chain,
            cartel_suppressions=sum(m.suppressed for m in self._cartel_members),
            audit_clean=self.audit_clean,
        )
