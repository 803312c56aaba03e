"""Application domains: the Section-5 pair plus the streaming oracles.

Car-sharing and insurance are the paper's own use cases (materialized
populations on :class:`~repro.core.protocol.ProtocolEngine`); supply
chain, energy and ticketing are streaming-population domains, each a
:class:`~repro.streaming.app.StreamingApp` subclass.  A ``stream``
:class:`~repro.workloads.scenarios.Scenario` names the class here that
runs it (``app=``), the synthetic ``StreamingApp`` included.
"""

from repro.apps.carsharing import (
    CarSharingMarket,
    GreedyDispatcher,
    MarketReport,
    RideRequest,
)
from repro.apps.energy import EnergyMarket, EnergyReport, EnergyTrade
from repro.apps.insurance import (
    Application,
    CommissionBiasedAgent,
    HealthRecord,
    InsuranceAlliance,
    UnderwritingReport,
)
from repro.apps.supplychain import (
    ProvenanceReport,
    ShipmentRecord,
    SupplyChainProvenance,
)
from repro.apps.ticketing import FlashSaleTicketing, TicketingReport, TicketOrder
from repro.streaming.app import StreamingApp

__all__ = [
    "Application",
    "CarSharingMarket",
    "CommissionBiasedAgent",
    "EnergyMarket",
    "EnergyReport",
    "EnergyTrade",
    "FlashSaleTicketing",
    "GreedyDispatcher",
    "HealthRecord",
    "InsuranceAlliance",
    "MarketReport",
    "ProvenanceReport",
    "RideRequest",
    "ShipmentRecord",
    "StreamingApp",
    "SupplyChainProvenance",
    "TicketOrder",
    "TicketingReport",
    "UnderwritingReport",
]
