"""Streaming million-provider workload subsystem.

Open-loop transaction streams over *virtual* provider populations:
identities instantiate on first arrival and retire on inactivity, so
resident memory is bounded by the active set — not the universe — while
the sparse reputation layer (:class:`~repro.core.reputation.SparseWeightMap`)
keeps governor state proportional to the rows actually touched.
"""

from repro.streaming.session import StreamingSession, StreamMetrics, stream_metrics
from repro.streaming.universe import CollectorMembers, VirtualUniverse
from repro.streaming.workload import StreamingWorkload, derived_rates, provider_rate

__all__ = [
    "CollectorMembers",
    "StreamMetrics",
    "StreamingSession",
    "StreamingWorkload",
    "VirtualUniverse",
    "derived_rates",
    "provider_rate",
    "stream_metrics",
]
