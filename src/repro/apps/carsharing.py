"""Car-sharing market on the protocol (Section 5.1).

Mapping, per the paper: **users are providers** (ride requests and
payments are transactions), **drivers are collectors** (label +1 when
willing/able to serve, -1 otherwise), **schedulers are governors**
(decide assignments, pack blocks; the elected leader's block tells every
user and driver what to do; unassigned requests are re-sent later).

The domain substrate is a grid city: users and drivers have coordinates,
a request is *valid* when it is well-formed and affordable (the payment
check), and the scheduler assigns each valid request to the nearest
driver that labeled it +1.  Dishonest drivers — who claim requests they
will not serve, or deny requests to starve rivals — are exactly the
misreporting collectors the reputation mechanism demotes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.agents.behaviors import CollectorBehavior, HonestBehavior
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.exceptions import ConfigurationError
from repro.ledger.transaction import CheckStatus, Label
from repro.network.topology import Topology
from repro.rng import default_rng
from repro.workloads.generator import TxSpec

__all__ = ["RideRequest", "GreedyDispatcher", "CarSharingMarket", "MarketReport"]


@dataclass(frozen=True)
class RideRequest:
    """One ride request payload.

    ``funded`` models the payment check: an unfunded request is an
    invalid transaction the alliance must catch.
    """

    rider: str
    pickup: tuple[float, float]
    dropoff: tuple[float, float]
    fare: float
    funded: bool

    def as_payload(self) -> dict:
        """Canonically hashable payload form."""
        return {
            "rider": self.rider,
            "pickup": list(self.pickup),
            "dropoff": list(self.dropoff),
            "fare": self.fare,
            "funded": self.funded,
        }


@dataclass
class GreedyDispatcher:
    """Nearest-willing-driver assignment over one block's valid requests.

    Drivers serve at most ``capacity`` rides per block; the dispatcher
    walks requests in block order and picks the closest driver that
    labeled the request +1 and has capacity left.
    """

    driver_positions: Mapping[str, tuple[float, float]]
    capacity: int = 4

    def assign(
        self, requests: Sequence[tuple[RideRequest, Mapping[str, Label]]]
    ) -> dict[int, str | None]:
        """Request index -> assigned driver (None if unassignable)."""
        load: dict[str, int] = {d: 0 for d in self.driver_positions}
        out: dict[int, str | None] = {}
        for idx, (request, labels) in enumerate(requests):
            willing = [
                d
                for d, lab in labels.items()
                if lab is Label.VALID and load.get(d, self.capacity) < self.capacity
            ]
            if not willing:
                out[idx] = None
                continue
            best = min(
                willing,
                key=lambda d: math.dist(self.driver_positions[d], request.pickup),
            )
            load[best] = load.get(best, 0) + 1
            out[idx] = best
        return out


@dataclass(frozen=True)
class MarketReport:
    """Domain metrics for a market run."""

    requests_offered: int
    requests_on_chain: int
    requests_assigned: int
    mean_pickup_distance: float
    honest_driver_revenue: float
    dishonest_driver_revenue: float

    @property
    def assignment_rate(self) -> float:
        """Assigned / on-chain requests."""
        return (
            self.requests_assigned / self.requests_on_chain
            if self.requests_on_chain
            else 0.0
        )


@dataclass
class CarSharingMarket:
    """A full car-sharing deployment of the protocol.

    Args:
        n_users / n_drivers / n_schedulers: Population sizes (users are
            providers, drivers collectors, schedulers governors).
        drivers_per_user: The link degree ``r``.
        dishonest_drivers: driver id -> behaviour overriding honest.
        city_size: Side of the square city grid.
        unfunded_rate: Fraction of requests that fail the payment check.
        seed: Master seed.
    """

    n_users: int = 24
    n_drivers: int = 8
    n_schedulers: int = 4
    drivers_per_user: int = 4
    dishonest_drivers: Mapping[str, CollectorBehavior] = field(default_factory=dict)
    params: ProtocolParams = field(default_factory=ProtocolParams)
    city_size: float = 10.0
    unfunded_rate: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.unfunded_rate <= 1.0:
            raise ConfigurationError("unfunded_rate must be in [0, 1]")
        self.topology = Topology.regular(
            l=self.n_users, n=self.n_drivers, m=self.n_schedulers, r=self.drivers_per_user
        )
        behaviors = {c: HonestBehavior() for c in self.topology.collectors}
        unknown = set(self.dishonest_drivers) - set(self.topology.collectors)
        if unknown:
            raise ConfigurationError(f"unknown dishonest drivers: {sorted(unknown)}")
        behaviors.update(self.dishonest_drivers)
        self.engine = ProtocolEngine(
            self.topology, self.params, behaviors=behaviors, seed=self.seed
        )
        self._rng = default_rng(self.seed + 1)
        self.driver_positions = {
            d: (
                self._rng.uniform(0, self.city_size),
                self._rng.uniform(0, self.city_size),
            )
            for d in self.topology.collectors
        }
        self.dispatcher = GreedyDispatcher(self.driver_positions)
        self._assigned = 0
        self._on_chain = 0
        self._offered = 0
        self._distance_sum = 0.0

    def _make_request(self, rider: str) -> RideRequest:
        pickup = (
            self._rng.uniform(0, self.city_size),
            self._rng.uniform(0, self.city_size),
        )
        dropoff = (
            self._rng.uniform(0, self.city_size),
            self._rng.uniform(0, self.city_size),
        )
        funded = bool(self._rng.random() >= self.unfunded_rate)
        fare = 2.0 + 1.5 * math.dist(pickup, dropoff)
        return RideRequest(
            rider=rider, pickup=pickup, dropoff=dropoff, fare=round(fare, 2), funded=funded
        )

    def run_round(self, requests_per_round: int = 16) -> None:
        """One market round: requests -> labels -> block -> dispatch."""
        riders = list(self.topology.providers)
        specs = []
        for i in range(requests_per_round):
            rider = riders[i % len(riders)]
            request = self._make_request(rider)
            specs.append(
                TxSpec(
                    provider=rider,
                    payload=request.as_payload(),
                    is_valid=request.funded,
                )
            )
        self._offered += len(specs)
        result = self.engine.run_round(specs)
        # Driver willingness: the actual labels each driver uploaded.
        willingness: dict[str, dict[str, Label]] = {}
        for upload in result.uploads:
            willingness.setdefault(upload.tx.tx_id, {})[upload.collector] = upload.label
        # Dispatch over the block's on-chain valid/unchecked requests.
        dispatchable: list[tuple[RideRequest, Mapping[str, Label]]] = []
        for rec in result.block.tx_list:
            if rec.label is Label.INVALID and rec.status is CheckStatus.UNCHECKED:
                continue  # provisionally invalid: rescheduled after argue
            payload = rec.tx.body.payload
            request = RideRequest(
                rider=payload["rider"],
                pickup=tuple(payload["pickup"]),
                dropoff=tuple(payload["dropoff"]),
                fare=payload["fare"],
                funded=payload["funded"],
            )
            labels = willingness.get(rec.tx.tx_id, {})
            if not labels:
                continue  # nobody uploaded (argue-requeued records)
            dispatchable.append((request, labels))
        assignment = self.dispatcher.assign(dispatchable)
        for idx, driver in assignment.items():
            self._on_chain += 1
            if driver is not None:
                self._assigned += 1
                self._distance_sum += math.dist(
                    self.driver_positions[driver], dispatchable[idx][0].pickup
                )

    def report(self) -> MarketReport:
        """Domain metrics so far (finalises the engine's loss books)."""
        self.engine.finalize()
        rewards = self.engine.metrics.rewards_paid
        dishonest = set(self.dishonest_drivers)
        honest_rev = sum(v for c, v in rewards.items() if c not in dishonest)
        dishonest_rev = sum(v for c, v in rewards.items() if c in dishonest)
        return MarketReport(
            requests_offered=self._offered,
            requests_on_chain=self._on_chain,
            requests_assigned=self._assigned,
            mean_pickup_distance=(
                self._distance_sum / self._assigned if self._assigned else 0.0
            ),
            honest_driver_revenue=honest_rev,
            dishonest_driver_revenue=dishonest_rev,
        )
