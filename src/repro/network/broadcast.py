"""Atomic (total-order) broadcast primitives.

The paper requires that ``broadcast_provider``, ``broadcast_collector``
and ``broadcast_governor`` all implement atomic broadcast — total-order
delivery [Cachin-Guerraoui-Rodrigues] — so that receivers agree on the
order of messages from the same layer and "collectors are not confused
about the order of transactions" (Section 3.2).

In a synchronous permissioned network, total order can be realised with
a sequencer: the (trusted for ordering, not for content) Identity
Manager timestamps each broadcast with a global sequence number, and
receivers deliver in sequence-number order, buffering out-of-order
arrivals.  :class:`AtomicBroadcast` implements exactly that.  It gives:

* **validity** — a broadcast by a correct sender is delivered to every
  registered, non-partitioned receiver;
* **total order** — all receivers in a group deliver the same sequence;
* **integrity** — each broadcast is delivered at most once per receiver.

Each broadcast *group* (providers->their collectors, collectors->governors,
governors->governors) is an independent total order, which is all the
protocol needs.

Under fault injection (``repro.faults``) a sequenced payload can be
lost, leaving a receiver blocked on the sequence gap forever.  The
*gap-repair* extension closes that hole: the sequencer retains a
bounded send-buffer of recent payloads, a receiver whose gap persists
past a timeout sends a :class:`GapRepairRequest` (a NACK) to the
sequencer node, and the sequencer retransmits the missing range.  If
the primary sequencer node is itself crashed, the receiver fails over
to a deterministic backup after ``REPAIR_FAILOVER_AFTER`` unanswered
attempts, and NACKs the backup from then on.
The manual :meth:`AtomicBroadcast.skip_to` escape hatch remains for
out-of-band recovery (ledger sync).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exceptions import SimulationError
from repro.network.simnet import Message, SyncNetwork
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "SequencedPayload",
    "GapRepairRequest",
    "AtomicBroadcast",
    "walk_recovery_drain",
]

#: The end-of-run recovery drain advances in slices of
#: ``RECOVERY_GRACE_DELAYS / RECOVERY_DRAIN_CYCLES * max_delay`` simulated
#: seconds, several repair round trips each.
RECOVERY_GRACE_DELAYS = 40
RECOVERY_DRAIN_CYCLES = 6
#: NACK budget per gap before a member gives up and waits for
#: out-of-band recovery (``skip_to``).
REPAIR_MAX_ATTEMPTS = 16
#: NACKs addressed to the primary sequencer endpoint before a member
#: fails over to the backup.
REPAIR_FAILOVER_AFTER = 2


def walk_recovery_drain(
    lagging: Callable[[], int],
    advance: Callable[[float], object],
    max_delay: float,
) -> None:
    """Advance the clock slice by slice until ``lagging()`` reads 0, or
    until ``RECOVERY_DRAIN_CYCLES`` slices in a row repair nothing.

    ``lagging`` probes for members behind their group tip (and NACKs
    them, see :meth:`AtomicBroadcast.force_repair_scan`) and returns how
    many payloads they miss; ``advance(dt)`` moves the caller's clock
    ``dt`` on, its own way.  Several probe/run cycles, not one long run:
    a NACK or its answer can be crossing a link the moment a crashed
    endpoint heals, and failover from a dead primary sequencer needs
    repeated attempts, gaining a payload every few slices.
    """
    missing, stalled = lagging(), 0
    while missing and stalled < RECOVERY_DRAIN_CYCLES:
        advance(RECOVERY_GRACE_DELAYS * max_delay / RECOVERY_DRAIN_CYCLES)
        before, missing = missing, lagging()
        stalled = stalled + 1 if missing >= before else 0


@dataclass(frozen=True)
class SequencedPayload:
    """A broadcast payload stamped with its group-wide sequence number."""

    group: str
    seqno: int
    sender: str
    body: Any
    kind: str = "abcast"


@dataclass(frozen=True)
class GapRepairRequest:
    """A receiver's NACK: re-send ``[from_seqno, to_seqno]`` of ``group``."""

    group: str
    requester: str
    from_seqno: int
    to_seqno: int
    kind: str = "abcast-nack"


@dataclass
class _ReceiverState:
    """Delivery buffer of one receiver within one group."""

    next_seqno: int = 0
    #: In-order deliveries made (``next_seqno`` also moves on ``skip_to``).
    delivered: int = 0
    pending: list[tuple[int, int, SequencedPayload, Message]] = field(default_factory=list)
    tiebreak: itertools.count = field(default_factory=itertools.count)
    # Gap-repair bookkeeping: whether a repair timer is outstanding, how
    # many NACKs this gap has already cost, and whether this member has
    # failed over to the backup (for good: a later gap NACKs it too).
    repair_scheduled: bool = False
    repair_attempts: int = 0
    failed_over: bool = False


class AtomicBroadcast:
    """Sequencer-based total-order broadcast over a :class:`SyncNetwork`.

    One instance manages many named groups.  Group membership is static
    after :meth:`create_group` calls, matching the permissioned setting
    where membership is known.
    """

    #: How many recent payloads the sequencer retains per group for
    #: gap repair.  Far larger than any gap a bounded fault plan can
    #: open; a request below the retention horizon is counted in
    #: ``repairs_expired`` and the member must fall back to ``skip_to``.
    RETENTION = 4096

    def __init__(self, network: SyncNetwork, obs: MetricsRegistry | None = None):
        self.network = network
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._members: dict[str, list[str]] = {}
        self._deliver: dict[tuple[str, str], Callable[[str, Any], None]] = {}
        self._state: dict[tuple[str, str], _ReceiverState] = {}
        self._next_seqno: dict[str, int] = {}
        # Sequencer-side retained payloads: group -> {seqno: (payload, size_hint)}.
        self._sent: dict[str, dict[int, tuple[SequencedPayload, int]]] = {}
        # Gap repair configuration (enable_gap_repair) and counters.
        self._repair_primary: str | None = None
        self._repair_backup: str | None = None
        self._repair_timeout: float = 0.0
        self.misrouted_dropped = 0
        self.repairs_requested = 0
        self.repairs_served = 0
        self.repairs_expired = 0
        self.repairs_gave_up = 0
        self.failover_nacks = 0
        self._declare_metrics()
        # Optional reliable transport (repro.network.reliable) for a
        # subset of groups; all other groups use plain network.send.
        self._transport = None
        self._reliable_groups: set[str] = set()

    def _declare_metrics(self) -> None:
        def delivered() -> dict[str, int]:
            by_group: dict[str, int] = {}
            for (group, _member), state in self._state.items():
                if state.delivered:
                    by_group[group] = by_group.get(group, 0) + state.delivered
            return by_group

        self.obs.counter(
            "abcast_broadcasts_total",
            "Payloads sequenced per broadcast group",
            labels=("group",),
            read=lambda: {g: n for g, n in self._next_seqno.items() if n},
        )
        self.obs.counter(
            "abcast_delivered_total",
            "In-order deliveries (cursor advances) per broadcast group",
            labels=("group",),
            read=delivered,
        )
        self.obs.counter(
            "abcast_misrouted_dropped_total",
            "Sequenced payloads dropped at a non-member receiver",
            read=lambda: self.misrouted_dropped,
        )
        self.obs.counter(
            "abcast_repairs_total",
            "Gap-repair (NACK) events by outcome",
            labels=("event",),
            read=lambda: {
                event: count
                for event, count in (
                    ("requested", self.repairs_requested),
                    ("served", self.repairs_served),
                    ("expired", self.repairs_expired),
                    ("gave_up", self.repairs_gave_up),
                )
                if count
            },
        )
        self.obs.counter(
            "abcast_failover_nacks_total",
            "Repair requests addressed to the backup sequencer endpoint",
            read=lambda: self.failover_nacks,
        )

    def create_group(self, group: str, members: list[str]) -> None:
        """Declare a broadcast group with a fixed receiver set."""
        if group in self._members:
            raise SimulationError(f"broadcast group {group!r} already exists")
        if len(set(members)) != len(members):
            raise SimulationError(f"duplicate members in group {group!r}")
        self._members[group] = list(members)
        self._next_seqno[group] = 0
        for member in members:
            self._state[(group, member)] = _ReceiverState()

    def has_group(self, group: str) -> bool:
        """Whether ``group`` has been declared."""
        return group in self._members

    def register_handler(
        self, group: str, member: str, handler: Callable[[str, Any], None]
    ) -> None:
        """Set the in-order delivery callback ``handler(sender, body)``."""
        if (group, member) not in self._state:
            raise SimulationError(f"{member!r} is not a member of group {group!r}")
        self._deliver[(group, member)] = handler

    def broadcast(self, group: str, sender: str, body: Any, size_hint: int = 1) -> int:
        """Atomically broadcast ``body`` to every member of ``group``.

        Returns the assigned sequence number.  The sender need not be a
        member (providers broadcast *to* collectors without receiving).
        """
        if group not in self._members:
            raise SimulationError(f"unknown broadcast group {group!r}")
        seqno = self._next_seqno[group]
        self._next_seqno[group] = seqno + 1
        payload = SequencedPayload(group=group, seqno=seqno, sender=sender, body=body)
        if self._repair_primary is not None:
            retained = self._sent.setdefault(group, {})
            retained[seqno] = (payload, size_hint)
            if len(retained) > self.RETENTION:
                # Seqnos are inserted in increasing order: the first key
                # is the oldest (``min`` would scan the whole log).
                del retained[next(iter(retained))]
        reliable = self._transport is not None and group in self._reliable_groups
        if reliable:
            for member in self._members[group]:
                self._transport.send(sender, member, payload, size_hint=size_hint)
        else:
            # One fan-out call (see SyncNetwork.multicast), bit-identical
            # to per-member sends.
            self.network.multicast(
                sender, self._members[group], payload, size_hint=size_hint
            )
        return seqno

    # -- receiver side -------------------------------------------------

    def on_message(self, member: str, message: Message) -> bool:
        """Feed a raw network message into the broadcast layer.

        Returns True if the message was handled here: a broadcast
        payload (delivered, buffered, or — if misrouted to a member
        outside its group — explicitly dropped and counted); False lets
        the caller route non-broadcast traffic elsewhere.
        """
        payload = message.payload
        if not isinstance(payload, SequencedPayload):
            return False
        key = (payload.group, member)
        state = self._state.get(key)
        if state is None:
            # A sequenced payload for a group this member does not
            # belong to must never fall through to the application
            # handler: fault-injected duplicates or misrouted repairs
            # would corrupt it.  Drop and count.
            self.misrouted_dropped += 1
            return True
        heapq.heappush(
            state.pending, (payload.seqno, next(state.tiebreak), payload, message)
        )
        self._drain(key, state)
        self._maybe_schedule_repair(key, state)
        return True

    def _drain(self, key: tuple[str, str], state: _ReceiverState) -> None:
        handler = self._deliver.get(key)
        while state.pending and state.pending[0][0] <= state.next_seqno:
            seqno, _tie, payload, _msg = heapq.heappop(state.pending)
            if seqno < state.next_seqno:
                # Duplicate delivery attempt; integrity says drop it.
                continue
            state.next_seqno = seqno + 1
            state.delivered += 1
            if handler is not None:
                handler(payload.sender, payload.body)

    def skip_to(self, group: str, member: str, seqno: int) -> None:
        """Recovery hook: advance a member's delivery cursor to ``seqno``.

        A member that missed broadcasts while crashed/partitioned can
        never deliver later ones (total order blocks on the gap).  After
        it recovers the missed *content* out-of-band — e.g. blocks via
        :func:`repro.ledger.sync.sync_replica` — it calls ``skip_to`` to
        declare seqnos below ``seqno`` handled, which releases buffered
        later messages.  Moving the cursor backwards is a no-op
        (delivered messages are never replayed).
        """
        state = self._state.get((group, member))
        if state is None:
            raise SimulationError(f"{member!r} is not a member of group {group!r}")
        if seqno > state.next_seqno:
            state.next_seqno = seqno
        state.repair_attempts = 0
        self._drain((group, member), state)

    # -- gap repair (NACK / retransmit) ---------------------------------

    def enable_gap_repair(self, primary: str, backup: str) -> None:
        """Turn on automatic NACK-based repair of sequence gaps.

        A gap must persist ``4 * network.max_delay`` before the first
        NACK; that is also the base of the mildly-exponential re-NACK
        backoff.

        Args:
            primary: Node id of the sequencer's repair endpoint; it is
                registered on the network here, so use a dedicated id
                (not one of the group members).
            backup: Deterministic failover endpoint; a receiver switches
                to it after ``REPAIR_FAILOVER_AFTER`` unanswered NACKs and
                stays with it for every later gap, removing the sequencer
                as a single point of failure.  In the simulation both
                endpoints answer from the same retained send-buffer,
                modelling a sequencer that replicates its buffer to the
                backup synchronously.
        """
        timeout = 4 * self.network.max_delay
        if timeout <= 0:
            raise SimulationError(f"repair timeout must be positive, got {timeout}")
        self._repair_primary = primary
        self._repair_backup = backup
        self._repair_timeout = timeout
        self.network.register(primary, self._sequencer_handler(primary))
        self.network.register(backup, self._sequencer_handler(backup))

    def set_transport(self, transport, groups: set[str]) -> None:
        """Route the given groups' broadcasts through a reliable channel.

        ``transport`` must expose ``send(sender, receiver, payload,
        size_hint)`` — see :class:`repro.network.reliable.ReliableChannel`.
        """
        self._transport = transport
        self._reliable_groups = set(groups)

    def add_reliable_group(self, group: str) -> None:
        """Route one more group through the reliable transport.

        Used when a group is created after :meth:`set_transport` (e.g. a
        collector migrating onto this shard mid-run).
        """
        if self._transport is None:
            raise SimulationError("no reliable transport installed")
        self._reliable_groups.add(group)

    def _sequencer_handler(self, seq_id: str):
        def handle(message: Message) -> None:
            request = message.payload
            if not isinstance(request, GapRepairRequest):
                return
            retained = self._sent.get(request.group, {})
            for seqno in range(request.from_seqno, request.to_seqno + 1):
                entry = retained.get(seqno)
                if entry is None:
                    # Evicted past the retention horizon: unrepairable
                    # here, the member needs ledger sync + skip_to.
                    self.repairs_expired += 1
                    continue
                payload, size_hint = entry
                self.repairs_served += 1
                self.network.send(seq_id, request.requester, payload, size_hint=size_hint)
        return handle

    def _active_repair_target(self, state: _ReceiverState) -> str:
        assert self._repair_primary is not None
        if state.repair_attempts >= REPAIR_FAILOVER_AFTER:
            state.failed_over = True
        return self._repair_backup if state.failed_over else self._repair_primary

    def _gap_head(self, state: _ReceiverState) -> int | None:
        """Seqno of the oldest buffered-but-undeliverable payload, or None."""
        if state.pending and state.pending[0][0] > state.next_seqno:
            return state.pending[0][0]
        return None

    def _maybe_schedule_repair(self, key: tuple[str, str], state: _ReceiverState) -> None:
        if self._repair_primary is None or state.repair_scheduled:
            return
        if self._gap_head(state) is None:
            state.repair_attempts = 0
            return
        state.repair_scheduled = True
        delay = self._repair_timeout * (1.5 ** min(state.repair_attempts, 8))
        self.network.sim.schedule_after(delay, lambda: self._repair_check(key))

    def _repair_check(self, key: tuple[str, str]) -> None:
        state = self._state.get(key)
        if state is None:
            return
        state.repair_scheduled = False
        head = self._gap_head(state)
        if head is None:
            state.repair_attempts = 0
            return
        if state.repair_attempts >= REPAIR_MAX_ATTEMPTS:
            self.repairs_gave_up += 1
            return
        group, member = key
        target = self._active_repair_target(state)
        state.repair_attempts += 1
        self.repairs_requested += 1
        if target == self._repair_backup:
            self.failover_nacks += 1
        request = GapRepairRequest(
            group=group,
            requester=member,
            from_seqno=state.next_seqno,
            to_seqno=head - 1,
        )
        self.network.send(member, target, request)
        # Re-arm: if the retransmission is itself lost (or the target is
        # crashed), the next check escalates / fails over.
        self._maybe_schedule_repair(key, state)

    def force_repair_scan(self) -> int:
        """Issue a NACK for every member lagging the group's seqno.

        Timer-based detection only fires when a *later* payload sits in
        the buffer; a member whose missing payload was the last one sent
        has an invisible gap.  Harnesses call this at round/finalize
        boundaries — a stand-in for the periodic sequencer heartbeat a
        deployment would run.  Returns the number of NACKs issued.
        """
        if self._repair_primary is None:
            return 0
        issued = 0
        for (group, member), state in self._state.items():
            tip = self._next_seqno[group]
            if state.next_seqno >= tip:
                continue
            target = self._active_repair_target(state)
            state.repair_attempts += 1
            self.repairs_requested += 1
            if target == self._repair_backup:
                self.failover_nacks += 1
            self.network.send(
                member,
                target,
                GapRepairRequest(
                    group=group,
                    requester=member,
                    from_seqno=state.next_seqno,
                    to_seqno=tip - 1,
                ),
            )
            issued += 1
        return issued

    def missing_total(self) -> int:
        """Payloads members have yet to deliver, across every group."""
        tips = self._next_seqno
        return sum(
            max(tips[group] - state.next_seqno, 0) for (group, _m), state in self._state.items()
        )

    def pending_gap_total(self) -> int:
        """Messages stuck in gap buffers across every group and member."""
        return sum(len(state.pending) for state in self._state.values())

    def current_seqno(self, group: str) -> int:
        """The next sequence number the group will assign."""
        if group not in self._members:
            raise SimulationError(f"unknown broadcast group {group!r}")
        return self._next_seqno[group]
