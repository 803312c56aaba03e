"""Ack/retransmit reliable channel over the lossy simulated network.

:class:`~repro.network.simnet.SyncNetwork` under fault injection
(``repro.faults``) may drop, duplicate, or reorder messages.
:class:`ReliableChannel` restores at-least-once delivery with duplicate
suppression — i.e. exactly-once *application* delivery — for the traffic
the protocol cannot afford to lose (provider→collector feeds and
collector→governor uploads):

* every payload is wrapped in a :class:`ReliableEnvelope` carrying a
  channel-unique ``msg_id``;
* the receiver acks each envelope and suppresses ``msg_id`` replays, so
  retransmissions and fault-injected duplicates deliver at most once;
* the sender retransmits unacked envelopes with exponential backoff in
  *simulated* time, up to ``MAX_RETRIES``; a message unacked after the
  full budget is abandoned (``gave_up``) — bounded retries keep a
  crashed receiver from pinning sender state forever.

Nodes register their handlers through the channel; non-envelope traffic
passes through untouched, so a node can receive both reliable and plain
messages on the same identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.exceptions import SimulationError
from repro.network.simnet import Message, SyncNetwork
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

__all__ = ["ReliableEnvelope", "ReliableAck", "ReliableStats", "ReliableChannel"]


@dataclass(frozen=True)
class ReliableEnvelope:
    """A payload wrapped for acked delivery."""

    msg_id: int
    sender: str
    body: Any
    kind: str = "rel"


@dataclass(frozen=True)
class ReliableAck:
    """Receiver's acknowledgement of one envelope."""

    msg_id: int
    kind: str = "rel-ack"


@dataclass
class ReliableStats:
    """Channel-level counters for the fault experiments (E12)."""

    sent: int = 0
    delivered: int = 0
    retransmits: int = 0
    duplicates_suppressed: int = 0
    acks_sent: int = 0
    gave_up: int = 0


@dataclass
class _Pending:
    sender: str
    receiver: str
    envelope: ReliableEnvelope
    size_hint: int
    attempts: int = 0


class ReliableChannel:
    """At-least-once delivery with dedup over a :class:`SyncNetwork`.

    The first retransmit timer is ``3 * network.max_delay`` (one round
    trip plus slack); each attempt multiplies it by ``BACKOFF``.

    Args:
        network: The underlying (possibly faulty) network.
        obs: Metrics registry (see OBSERVABILITY.md); defaults to the
            no-op registry.
    """

    #: Retransmissions per message after the initial send.
    MAX_RETRIES = 5
    #: Multiplier applied to the retransmit timer per attempt.
    BACKOFF = 2.0

    def __init__(self, network: SyncNetwork, obs: MetricsRegistry | None = None):
        self.base_timeout = 3 * network.max_delay
        if self.base_timeout <= 0:
            raise SimulationError(
                f"a reliable channel needs max_delay > 0, got {network.max_delay}"
            )
        self.network = network
        self.stats = ReliableStats()
        self._ids = itertools.count()
        self._pending: dict[int, _Pending] = {}
        self._seen: dict[str, set[int]] = {}
        self.obs = obs if obs is not None else NULL_REGISTRY
        stats = self.stats
        for name, field, help in (
            ("rel_sent_total", "sent",
             "Application payloads submitted for reliable delivery"),
            ("rel_delivered_total", "delivered",
             "Envelopes delivered to application handlers"),
            ("rel_retransmits_total", "retransmits",
             "Envelope retransmissions after timeout"),
            ("rel_duplicates_suppressed_total", "duplicates_suppressed",
             "Envelope replays suppressed by msg_id dedup"),
            ("rel_acks_total", "acks_sent", "Acknowledgements sent by receivers"),
            ("rel_gave_up_total", "gave_up",
             "Envelopes abandoned after the full retry budget"),
        ):
            self.obs.counter(name, help, read=lambda f=field: getattr(stats, f))
        self.obs.gauge(
            "rel_unacked",
            "Envelopes currently awaiting an ack",
            read=lambda: len(self._pending),
        )
        self._m_backoff = self.obs.histogram(
            "rel_backoff_wait_seconds",
            "Retransmit timer values scheduled (sim seconds)",
        )

    # -- receiver side --------------------------------------------------

    def register(self, node_id: str, handler: Callable[[Message], None]) -> None:
        """Register ``handler`` on the network behind the reliable layer.

        Envelopes are acked + deduped and unwrapped before reaching the
        handler (which sees a :class:`Message` whose payload is the
        inner body); acks are consumed; anything else passes through.
        """
        self._seen.setdefault(node_id, set())

        def wrapped(message: Message) -> None:
            payload = message.payload
            if isinstance(payload, ReliableAck):
                self._pending.pop(payload.msg_id, None)
                return
            if isinstance(payload, ReliableEnvelope):
                self.stats.acks_sent += 1
                self.network.send(node_id, payload.sender, ReliableAck(payload.msg_id))
                seen = self._seen[node_id]
                if payload.msg_id in seen:
                    self.stats.duplicates_suppressed += 1
                    return
                seen.add(payload.msg_id)
                self.stats.delivered += 1
                handler(replace(message, payload=payload.body))
                return
            handler(message)

        self.network.register(node_id, wrapped)

    # -- sender side ----------------------------------------------------

    def send(self, sender: str, receiver: str, body: Any, size_hint: int = 1) -> int:
        """Send ``body`` reliably; returns the assigned message id."""
        msg_id = next(self._ids)
        envelope = ReliableEnvelope(msg_id=msg_id, sender=sender, body=body)
        self._pending[msg_id] = _Pending(
            sender=sender, receiver=receiver, envelope=envelope, size_hint=size_hint
        )
        self.stats.sent += 1
        self._transmit(msg_id)
        return msg_id

    def _transmit(self, msg_id: int) -> None:
        pending = self._pending.get(msg_id)
        if pending is None:
            return
        self.network.send(
            pending.sender, pending.receiver, pending.envelope, pending.size_hint
        )
        timeout = self.base_timeout * (self.BACKOFF ** pending.attempts)
        self._m_backoff.observe(timeout)
        self.network.sim.schedule_after(timeout, lambda: self._retry(msg_id))

    def _retry(self, msg_id: int) -> None:
        pending = self._pending.get(msg_id)
        if pending is None:
            return  # acked in the meantime
        if pending.attempts >= self.MAX_RETRIES:
            del self._pending[msg_id]
            self.stats.gave_up += 1
            return
        pending.attempts += 1
        self.stats.retransmits += 1
        self._transmit(msg_id)
