"""Supply-chain provenance on the streaming protocol.

Mapping: **suppliers are providers** (each shipment lot is a
transaction carrying its chain of custody), **certification bureaus are
collectors** (label +1 when the provenance documents check out, -1
otherwise), **consortium auditors are governors** (screen, pack,
arbitrate argues).  A shipment is *valid* when its certificate chain is
genuine; counterfeit lots — injected by suppliers with poor controls —
are the invalid transactions the alliance must catch.

Every shipment names a **consignee**: the next custodian in the
multi-hop chain, carried in :attr:`TxSpec.counterparty`.  On a sharded
deployment these settle as cross-shard receipts (the consignee's home
shard commits the receipt); the flat streaming deployment records them in
the payload, so the same workload exercises both paths.

The adversary mix is a **counterfeit-laundering ring**: a slice of
bureaus that certifies fakes (misreporting) and a slice that sits on
genuine paperwork to starve rivals (concealing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.agents.behaviors import CollectorBehavior, ConcealBehavior, MisreportBehavior
from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.network.topology import provider_id
from repro.streaming.app import StreamingApp
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.generator import TxSpec

__all__ = ["ShipmentRecord", "SupplyChainProvenance", "ProvenanceReport"]


@dataclass(frozen=True)
class ShipmentRecord:
    """One shipment lot's provenance payload."""

    lot: str
    origin: str
    hops: tuple[str, ...]
    consignee: str
    certified: bool

    def as_payload(self) -> dict:
        """Canonically hashable payload form."""
        return {
            "lot": self.lot,
            "origin": self.origin,
            "hops": list(self.hops),
            "consignee": self.consignee,
            "certified": self.certified,
        }


@dataclass(frozen=True)
class ProvenanceReport:
    """Domain metrics for a provenance run."""

    shipments_committed: int
    counterfeit_rate: float
    mean_chain_hops: float
    distinct_suppliers: int
    peak_active_suppliers: int
    audit_clean: bool


@dataclass
class SupplyChainProvenance(StreamingApp):
    """A streaming supply-chain deployment.

    Suppliers, bureaus and auditors are the base's ``universe``, ``n``
    and ``m``; ``r`` is the bureaus per supplier.

    Args:
        arrival_rate: Poisson lots offered per round.
        max_hops: Longest custody chain (2..max_hops custodians).
        ring_misreport / ring_conceal: Bureau indices in the laundering
            ring, by conduct.
    """

    params: ProtocolParams = field(default_factory=lambda: ProtocolParams(f=0.5, b_limit=64))
    arrival_rate: float = 24.0
    max_hops: int = 4
    ring_misreport: tuple[int, ...] = (2, 3)
    ring_conceal: tuple[int, ...] = (4,)

    def __post_init__(self) -> None:
        if self.max_hops < 2:
            raise ConfigurationError(f"max_hops must be >= 2, got {self.max_hops}")
        self._hops_sum = 0
        self._committed = 0
        self._counterfeit = 0
        super().__post_init__()

    def offered_load(self) -> dict:
        return {
            "arrivals": PoissonArrivals(self.arrival_rate, seed=self.seed),
            "validity": "per_provider",
            "alpha": 9.0,
            "beta": 1.5,
        }

    def adversary_mix(self) -> Mapping[str, CollectorBehavior]:
        """The counterfeit-laundering ring's bureau behaviours."""
        return {
            **self._seat(self.ring_misreport, lambda: MisreportBehavior(0.6)),
            **self._seat(self.ring_conceal, lambda: ConcealBehavior(0.5)),
        }

    def _enrich(
        self, spec: TxSpec, index: int, rng: np.random.Generator
    ) -> TxSpec:
        """Attach the custody chain and consignee to a raw spec."""
        hop_count = 2 + int(rng.integers(self.max_hops - 1))
        hops = tuple(
            provider_id(int(rng.integers(self.universe))) for _ in range(hop_count)
        )
        consignee = hops[-1]
        record = ShipmentRecord(
            lot=f"lot-{index}",
            origin=spec.provider,
            hops=hops,
            consignee=consignee,
            certified=spec.is_valid,
        )
        self._hops_sum += hop_count
        return TxSpec(
            provider=spec.provider,
            payload=record.as_payload(),
            is_valid=spec.is_valid,
            counterparty=consignee,
        )

    def _tally(self, rec) -> None:
        self._committed += 1
        if not rec.tx.body.payload.get("certified", True):
            self._counterfeit += 1

    def report(self) -> ProvenanceReport:
        """Domain metrics so far (finalises the harness audit)."""
        self.finalize()
        offered = self.workload.emitted
        return ProvenanceReport(
            shipments_committed=self._committed,
            counterfeit_rate=(
                self._counterfeit / self._committed if self._committed else 0.0
            ),
            mean_chain_hops=(self._hops_sum / offered if offered else 0.0),
            distinct_suppliers=self.metrics.instantiations,
            peak_active_suppliers=self.metrics.peak_active,
            audit_clean=self.audit_clean,
        )
