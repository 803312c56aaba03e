"""Synchronous network substrate.

One discrete-event loop and clock (:class:`Simulator`), point-to-point
channels with the synchrony bound Delta, atomic (total-order) broadcast,
the reliable channel, and the Figure-1 topology builder.
"""

from repro.network.broadcast import AtomicBroadcast, GapRepairRequest, SequencedPayload
from repro.network.reliable import (
    ReliableAck,
    ReliableChannel,
    ReliableEnvelope,
    ReliableStats,
)
from repro.network.simnet import Message, NetworkStats, Simulator, SyncNetwork
from repro.network.topology import Topology, collector_id, governor_id, provider_id
from repro.network.visibility import VisibilityMap

__all__ = [
    "AtomicBroadcast",
    "GapRepairRequest",
    "Message",
    "NetworkStats",
    "ReliableAck",
    "ReliableChannel",
    "ReliableEnvelope",
    "ReliableStats",
    "SequencedPayload",
    "Simulator",
    "SyncNetwork",
    "Topology",
    "VisibilityMap",
    "collector_id",
    "governor_id",
    "provider_id",
]
