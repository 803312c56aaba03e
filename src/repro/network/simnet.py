"""Discrete-event simulator and synchronous message-passing network.

The paper assumes a synchronous system (Section 3.1): known upper bounds
on processing and transmission delays.  :class:`Simulator` is the whole
discrete-event substrate — the clock and the one event heap under every
networked, sharded, durable and real-TCP run; :class:`SyncNetwork`
layers message delivery with per-message delays drawn in ``(min_delay, max_delay]`` where ``max_delay`` plays the
role of the paper's synchrony bound.  Delivery order between distinct
(sender, receiver) pairs is by delivery time; per-channel FIFO is
enforced so a node never observes reordering from a single peer, which
the atomic-broadcast layer builds on.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import SimulationError, SynchronyViolationError
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.rng import default_rng

if TYPE_CHECKING:  # pragma: no cover - repro.faults imports this module
    from repro.faults.plan import FaultAction

__all__ = ["Message", "Simulator", "SyncNetwork", "NetworkStats"]

#: Runaway guard: one call that drains more events than this raises
#: instead of hanging a bench (read once per :meth:`Simulator.run` and
#: ``RealNetwork.run_until`` call).
MAX_EVENTS = 10_000_000


@dataclass(frozen=True, slots=True)
class Message:
    """An in-flight network message (slotted — allocated per edge copy)."""

    sender: str
    receiver: str
    payload: Any
    sent_at: float
    deliver_at: float

    @property
    def latency(self) -> float:
        """Transmission delay experienced by this message."""
        return self.deliver_at - self.sent_at


@dataclass
class NetworkStats:
    """Counters used by the complexity experiments (E7).

    ``messages_by_kind`` buckets on ``payload.kind`` when present (all
    protocol payloads define it) so benches can report per-phase counts.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_by_kind: dict[str, int] = field(default_factory=dict)
    #: ``partition`` / ``fault`` / ``in_flight`` -> messages destroyed.
    drops_by_reason: dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, size_hint: int) -> None:
        """Account for one sent message copy."""
        self.messages_sent += 1
        self.bytes_sent += size_hint
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + 1

    def record_drop(self, reason: str) -> None:
        """Account for one message that was dropped before delivery.

        Dropped messages never contribute to ``messages_sent`` or
        ``bytes_sent`` — they never crossed the wire, so counting them
        would inflate the complexity experiments (E7).
        """
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1


class Simulator:
    """Deterministic discrete-event loop: one clock, one heap.

    Callbacks run in (time, schedule order), so two events scheduled
    for the same instant execute in the order they were scheduled —
    the determinism that makes whole-protocol runs reproducible
    bit-for-bit from a seed.  ``now`` is the one clock every node
    reads (Section 3.1's bounded clock drift is assumed away, not
    modelled) and only :meth:`advance_to` moves it.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time ``time`` (>= now).

        Raises:
            SimulationError: for a past, negative, NaN or infinite time.
        """
        if not self.now <= time < math.inf:
            raise SimulationError(
                f"cannot schedule at {time!r}: need {self.now} <= time < inf"
            )
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after a relative ``delay`` (>= 0)."""
        self.schedule_at(self.now + delay, callback)

    def next_time(self) -> float | None:
        """Time of the earliest scheduled event, or None when drained."""
        return self._heap[0][0] if self._heap else None

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without running anything.

        Raises:
            SimulationError: on an attempt to move time backwards.
        """
        if not time >= self.now:
            raise SimulationError(f"clock cannot move backwards: {time} < {self.now}")
        self.now = time

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        if not self._heap:
            return False
        time, _, callback = heapq.heappop(self._heap)
        self.advance_to(time)
        callback()
        return True

    def run(self, until: float | None = None) -> int:
        """Drain the event queue, optionally stopping at time ``until``.

        With ``until`` given, the clock always ends exactly at ``until``
        — including when the queue empties early.  Engines rely on this
        to make phase boundaries (and hence transaction timestamps)
        independent of which straggler event happened to execute last,
        so optional traffic (audit votes) cannot shift the next round's
        start time.

        Returns the number of events executed; more than
        :data:`MAX_EVENTS` raises instead of hanging a bench.
        """
        executed = 0
        heap = self._heap
        limit = MAX_EVENTS
        while heap and (until is None or heap[0][0] <= until):
            self.step()
            executed += 1
            if executed > limit:
                raise SimulationError(f"exceeded MAX_EVENTS={limit}; runaway simulation?")
        if until is not None and self.now < until:
            self.advance_to(until)
        return executed


class SyncNetwork:
    """Point-to-point synchronous network over a :class:`Simulator`.

    Args:
        sim: The event loop that drives delivery.
        min_delay: Lower bound on message latency.
        max_delay: The synchrony bound Delta-net; every message arrives
            within it.  Screening's per-transaction window must be at
            least the spread collectors' uploads can exhibit.
        seed: Per-network RNG seed for latency draws — the network's
            own stream, so workload randomness does not perturb network
            timing and vice versa.
        obs: Metrics registry (see OBSERVABILITY.md); defaults to the
            no-op registry, leaving the hot path untouched.
    """

    def __init__(
        self,
        sim: Simulator,
        min_delay: float = 0.01,
        max_delay: float = 0.1,
        seed: int = 1,
        obs: MetricsRegistry | None = None,
    ):
        if not 0 <= min_delay <= max_delay:
            raise SimulationError(
                f"need 0 <= min_delay <= max_delay, got [{min_delay}, {max_delay}]"
            )
        self.sim = sim
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.stats = NetworkStats()
        self.obs = obs if obs is not None else NULL_REGISTRY
        stats = self.stats
        self.obs.counter(
            "net_messages_sent_total",
            "Messages scheduled for delivery, by payload kind",
            labels=("kind",),
            read=lambda: stats.messages_by_kind,
        )
        self.obs.counter(
            "net_bytes_sent_total",
            "Sum of size hints over sent messages",
            read=lambda: stats.bytes_sent,
        )
        self.obs.counter(
            "net_messages_dropped_total",
            "Messages destroyed before delivery, by cause",
            labels=("reason",),
            read=lambda: stats.drops_by_reason,
        )
        # Bound only when obs records: a null histogram would still cost
        # two calls per scheduled copy.
        self._m_delay = (
            self.obs.histogram(
                "net_delay_seconds", "Per-message transmission delay (sim seconds)"
            )
            if self.obs.enabled
            else None
        )
        self._rng = default_rng(seed)
        self._handlers: dict[str, Callable[[Message], None]] = {}
        # Per (sender, receiver) channel: time of the latest scheduled
        # delivery, used to enforce FIFO per channel.
        self._channel_front: dict[tuple[str, str], float] = {}
        self._partitioned: set[str] = set()
        # Optional fault-interception hook (see repro.faults): called as
        # fault_filter(sender, receiver, payload); returns a
        # repro.faults.plan.FaultAction, or None to deliver normally.
        self.fault_filter: Callable[[str, str, Any], FaultAction | None] | None = None

    def register(self, node_id: str, handler: Callable[[Message], None]) -> None:
        """Attach a node's message handler; overwrites any previous one."""
        self._handlers[node_id] = handler

    def close(self) -> None:
        """Release backend resources — nothing to do for pure simulation."""

    def run_until(self, until: float) -> int:
        """Advance the clock to ``until``, executing due deliveries.

        The driver-side spelling of :meth:`Simulator.run` shared with
        :class:`~repro.network.realnet.RealNetwork` (where advancing the
        clock additionally waits for physical frame conveyance), so
        harnesses drive either backend through one call.
        """
        return self.sim.run(until=until)

    def partition(self, node_id: str) -> None:
        """Crash-fault a node: messages to/from it are silently dropped.

        Used by failure-injection tests; the paper's model has no
        governor crashes, but the substrate supports exploring them.
        """
        self._partitioned.add(node_id)

    def heal(self, node_id: str) -> None:
        """Reconnect a partitioned node."""
        self._partitioned.discard(node_id)

    def _draw_delay(self) -> float:
        if self.max_delay == self.min_delay:
            return self.max_delay
        return self._rng.uniform(self.min_delay, self.max_delay)

    def send(
        self,
        sender: str,
        receiver: str,
        payload: Any,
        size_hint: int = 1,
        fixed_delay: float | None = None,
    ) -> None:
        """Send one message; delivery is scheduled on the event loop.

        Dropped silently if either endpoint is partitioned — the sender
        cannot tell, exactly as with a real crash fault.  Dropped
        messages (partition or fault injection) are counted in
        ``stats.drops_by_reason`` and never in the sent counters.

        A fault hook may substitute the payload (``action.replace`` —
        Byzantine in-flight tampering); the receiver then gets the
        substituted object with the original timing.

        ``fixed_delay`` bypasses the latency RNG entirely and delivers
        after exactly that many seconds (must respect the synchrony
        bound).  Commit votes use it: Byzantine vote strategies and
        vote forwarding change how many votes are sent, and with no
        latency draw per vote they shift no other message's delay.
        """
        if receiver not in self._handlers:
            raise SimulationError(f"no handler registered for receiver {receiver!r}")
        if sender in self._partitioned or receiver in self._partitioned:
            self.stats.record_drop("partition")
            return
        copies, extra_delay = 1, 0.0
        action = (
            self.fault_filter(sender, receiver, payload)
            if self.fault_filter is not None
            else None
        )
        if action is not None:
            if action.drop:
                self.stats.record_drop("fault")
                return
            if action.replace is not None:
                payload = action.replace
            copies += action.duplicates
            extra_delay = action.extra_delay
        delay = float(fixed_delay) if fixed_delay is not None else self._draw_delay()
        self._schedule_delivery(
            sender, receiver, payload, size_hint,
            self.sim.now, delay, copies, extra_delay,
        )

    def _schedule_delivery(
        self,
        sender: str,
        receiver: str,
        payload: Any,
        size_hint: int,
        now: float,
        delay: float,
        copies: int = 1,
        extra_delay: float = 0.0,
    ) -> None:
        """Schedule delivery of an already-admitted message.

        Shared by :meth:`send` and the batched :meth:`multicast` fast
        path; ``delay`` is the primary latency draw, already consumed
        from the network RNG by the caller.
        """
        if delay > self.max_delay:
            raise SynchronyViolationError(
                f"drawn delay {delay} exceeds synchrony bound {self.max_delay}"
            )
        deliver_at = now + delay
        # FIFO per channel: never deliver before the channel's current front.
        key = (sender, receiver)
        front = self._channel_front.get(key, 0.0)
        deliver_at = max(deliver_at, front)
        self._channel_front[key] = deliver_at
        # Injected extra delay is applied AFTER the FIFO bookkeeping, so
        # later sends on the channel may overtake this one — that is the
        # reordering fault.  It intentionally escapes the synchrony
        # bound: faults model exactly the failures the paper assumes
        # away.
        deliver_at += extra_delay
        kind = getattr(payload, "kind", type(payload).__name__)
        for copy in range(copies):
            at = deliver_at if copy == 0 else deliver_at + copy * self._draw_delay()
            message = Message(
                sender=sender, receiver=receiver, payload=payload,
                sent_at=now, deliver_at=at,
            )
            self.stats.record(kind, size_hint)
            if self._m_delay is not None:
                self._m_delay.observe(message.latency)
            self.sim.schedule_at(at, lambda m=message: self._deliver(m))
            self._convey(message, size_hint)

    def _convey(self, message: Message, size_hint: int) -> None:
        """Hook: physically ship an admitted message (no-op in simulation).

        :class:`~repro.network.realnet.RealNetwork` overrides this to
        put the payload on a real socket; the base simulator delivers
        purely from the event queue.  Called once per scheduled copy,
        after all RNG draws for the copy — overriding it cannot perturb
        the seeded delivery schedule.
        """

    def _deliver(self, message: Message) -> None:
        """Hand a message to its receiver — unless it crashed in flight.

        Partition state is re-checked at delivery time: a receiver that
        crashed after the send loses the in-flight message (a sender
        crash does not destroy packets already on the wire).
        """
        if message.receiver in self._partitioned:
            self.stats.record_drop("in_flight")
            return
        self._handlers[message.receiver](message)

    def multicast(self, sender: str, receivers: list[str], payload: Any, size_hint: int = 1) -> None:
        """Send the same payload to each receiver (independent delays).

        Fast path: with no fault hook, no partitions, and all receivers
        registered, it skips :meth:`send`'s per-edge fault and
        partition checks.  The latencies still come one scalar draw per
        edge (:meth:`repro.rng.Generator.uniform` with ``size=n`` loops
        over n draws in order), so the fast path is bit-identical to the
        loop of :meth:`send` calls it replaces.
        """
        if (
            len(receivers) > 1
            and self.fault_filter is None
            and not self._partitioned
            and self.max_delay != self.min_delay
            and all(r in self._handlers for r in receivers)
        ):
            now = self.sim.now
            delays = self._rng.uniform(
                self.min_delay, self.max_delay, size=len(receivers)
            )
            for receiver, delay in zip(receivers, delays):
                self._schedule_delivery(
                    sender, receiver, payload, size_hint, now, delay
                )
            return
        for receiver in receivers:
            self.send(sender, receiver, payload, size_hint)
