"""Real-socket transport: seeded delivery over asyncio TCP conveyance.

:class:`RealNetwork` is the deployable twin of
:class:`~repro.network.simnet.SyncNetwork`.  It keeps the simulator's
*seeded logical delivery schedule* byte for byte — the same RNG draws
produce the same latency stamps, the same FIFO fronts, the same total
order — and adds **physical conveyance**: every admitted message copy is
framed (length-prefixed, CRC-checked, the storage segment-log header
reused verbatim; the wire format lives in :mod:`repro.network.custodian`)
and shipped over a real TCP connection to the custodian peer process
hosting the receiver, which validates the frame and acknowledges it.
Logical delivery of a message is gated on the physical
acknowledgement of its frame: :meth:`RealNetwork.run_until` refuses to
execute a delivery event whose frame has not yet made the wire round
trip, so protocol progress is *physically mediated* — a dead custodian
stalls exactly the deliveries it custodies, until reconnection or the
structured give-up.

Why this shape: the engines' determinism contract (bit-identical seeded
ledgers — the property every audit and cross-backend test leans on) is a
statement about *which* messages arrive in *what order*, and real socket
timing can never reproduce it.  So the schedule stays seeded and the
sockets carry the bytes: `NetworkedProtocolEngine`, `ReliableChannel`
and the broadcast layer run unmodified over either backend, chaos plans
injected at the logical layer (:class:`~repro.faults.FaultInjector`)
behave identically on both, and *physical* faults (dropped frames, dead
peers, partitions — see :class:`repro.faults.proxy.TransportFaultProxy`)
exercise the robustness machinery below without being able to corrupt
the committed history, only to delay or abort it.

The robustness machinery, per peer connection:

* bounded **exponential backoff with jitter** on connect and reconnect;
* per-frame **send deadlines** — an unacknowledged frame is
  retransmitted after ``send_deadline`` seconds, up to ``max_retries``;
* a **liveness watchdog** — heartbeat pings every
  ``heartbeat_interval``; ``heartbeat_budget`` consecutive misses mark
  the peer *suspect* and recycle the connection (outstanding frames are
  buffered and retried on the next session);
* a structured :class:`~repro.exceptions.PeerUnreachableError` once the
  retry/backoff budgets are exhausted or the conveyance watchdog sees no
  progress at all — the transport degrades to an error, never a hang.

Everything socket-side runs on a dedicated asyncio loop in a background
thread; the simulator thread talks to it only through
``call_soon_threadsafe`` and a condition variable, and none of it ever
touches the seeded RNG streams (jitter has its own wall-clock-only
generator), so enabling the real transport cannot perturb a seeded run.
"""

from __future__ import annotations

import asyncio
import heapq
import pickle
import random
import threading
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass, field

from repro.exceptions import (
    ConfigurationError,
    FrameError,
    PeerUnreachableError,
    SimulationError,
)
from repro.network.custodian import (
    KIND_ACK,
    KIND_MSG,
    KIND_PING,
    KIND_PONG,
    FrameReader,
    encode_frame,
)
from repro.network.simnet import Message, Simulator, SyncNetwork
from repro.obs.registry import MetricsRegistry

__all__ = ["RealNetwork", "TransportConfig", "transport_metrics"]

# -- telemetry --------------------------------------------------------------


@dataclass
class TransportStats:
    """What one :class:`RealNetwork`'s conveyance layer did (wall-clock
    side).  Written by the loop thread only; the registry reads it."""

    frames: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    reconnects: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    backoff_sleeps: int = 0
    deadline_expiries: int = 0
    retransmits: int = 0
    heartbeat_misses: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    suspects: int = 0
    crc_errors: int = 0


#: (:class:`TransportStats` field, family, label names, help).
_TPT_FAMILIES = (
    ("frames", "tpt_frames_total", ("direction",),
     "Wire frames moved by the transport, by direction"),
    ("bytes", "tpt_bytes_total", ("direction",),
     "Wire bytes moved by the transport, by direction"),
    ("reconnects", "tpt_reconnects_total", ("peer",),
     "Successful peer re-connections after a lost session, by peer"),
    ("backoff_sleeps", "tpt_backoff_sleeps_total", (),
     "Exponential-backoff sleeps taken before (re)connect attempts"),
    ("deadline_expiries", "tpt_send_deadline_expiries_total", (),
     "Frames whose acknowledgement missed the send deadline"),
    ("retransmits", "tpt_retransmits_total", (),
     "Frame retransmissions (deadline expiry or session recycle)"),
    ("heartbeat_misses", "tpt_heartbeat_misses_total", ("peer",),
     "Heartbeat intervals that elapsed without a pong, by peer"),
    ("suspects", "tpt_suspect_transitions_total", (),
     "Peers marked suspect after exhausting the heartbeat budget"),
    ("crc_errors", "tpt_crc_errors_total", (),
     "Frames rejected for CRC or structural errors"),
)


def transport_metrics(
    obs: MetricsRegistry, stats: TransportStats | None = None
) -> dict[str, object]:
    """Declare the ``tpt_*`` family on ``obs``, by :class:`TransportStats` field.

    A :class:`RealNetwork` passes its ``stats`` for the counters to read;
    a labelled reader copies its dict, which the loop thread may grow.
    """

    def read(name: str, labelled: bool):
        if stats is None:
            return None
        if labelled:
            return lambda: dict(getattr(stats, name))
        return lambda: getattr(stats, name)

    return {
        name: obs.counter(family, help, labels=labels, read=read(name, bool(labels)))
        for name, family, labels, help in _TPT_FAMILIES
    }


# -- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class TransportConfig:
    """Knobs of the robustness machinery (all wall-clock seconds)."""

    #: TCP connect attempt timeout.
    connect_timeout: float = 2.0
    #: Consecutive failed connect attempts before the peer is declared
    #: unreachable (each attempt is preceded by a backoff sleep).
    connect_attempts: int = 8
    #: First backoff sleep; doubles per consecutive failure.
    backoff_base: float = 0.05
    #: Backoff ceiling.
    backoff_max: float = 2.0
    #: Multiplicative jitter: sleep *= 1 + uniform(0, jitter).
    backoff_jitter: float = 0.25
    #: Unacknowledged-frame retransmission deadline.
    send_deadline: float = 1.0
    #: How often the writer scans for expired deadlines.
    deadline_poll: float = 0.1
    #: Retransmissions per frame before giving up on the peer.
    max_retries: int = 8
    #: Heartbeat ping period.
    heartbeat_interval: float = 0.5
    #: Consecutive missed heartbeats before the peer is marked suspect
    #: and the session is recycled.
    heartbeat_budget: int = 3
    #: Sessions shorter than this count as failed connect attempts —
    #: a peer that accepts and instantly drops (partition window, dying
    #: process) must ride the backoff curve, not a reconnect spin.
    session_floor: float = 0.05
    #: Conveyance watchdog: if no acknowledgement arrives for this long
    #: while deliveries are gated, the driver raises instead of hanging.
    stall_timeout: float = 20.0
    #: Jitter RNG seed — wall-clock side only, never the sim streams.
    jitter_seed: int = 0


class _Pending:
    """One conveyed frame awaiting acknowledgement."""

    __slots__ = ("frame", "attempts", "sent_at")

    def __init__(self, frame: bytes):
        self.frame = frame
        self.attempts = 0
        self.sent_at = 0.0


class _PeerSupervisor:
    """Owns the connection to one custodian peer (loop thread only).

    Lifecycle: connect (with bounded backoff+jitter) → run a session
    (writer drains the queue and polices send deadlines, reader collects
    acks/pongs, heartbeat polices liveness) → on any session failure,
    recycle: unacknowledged frames go back on the queue and the connect
    loop runs again.  Budget exhaustion escalates to the network as a
    :class:`PeerUnreachableError`.
    """

    def __init__(self, network: "RealNetwork", name: str, host: str, port: int):
        self.network = network
        self.name = name
        self.host = host
        self.port = port
        self.cfg = network.config
        self.metrics = network.metrics
        self._rng = random.Random(
            (self.cfg.jitter_seed << 16) ^ zlib.crc32(name.encode())
        )
        self._unacked: dict[int, _Pending] = {}
        self._queue: list[int] = []
        self._control: list[bytes] = []
        self._wake = asyncio.Event()
        self._sessions = 0
        self.suspect = False
        self._misses = 0
        self._closing = False

    # -- driver-facing (via call_soon_threadsafe) ------------------------

    def submit(self, seq: int, frame: bytes) -> None:
        self._unacked[seq] = _Pending(frame)
        self._queue.append(seq)
        self._wake.set()

    def shutdown(self) -> None:
        self._closing = True
        self._wake.set()

    # -- connect / reconnect loop ----------------------------------------

    async def run(self) -> None:
        attempt = 0
        while not self._closing:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    timeout=self.cfg.connect_timeout,
                )
            except asyncio.CancelledError:
                return
            except Exception as exc:
                attempt += 1
                if attempt >= self.cfg.connect_attempts:
                    self.network._fail(
                        PeerUnreachableError(
                            self.name,
                            f"connect backoff budget exhausted: {exc}",
                            attempts=attempt,
                        )
                    )
                    return
                await self._backoff(attempt)
                continue
            if self._sessions > 0:
                self.metrics.reconnects[self.name] += 1
            self._sessions += 1
            attempt = 0
            if self.suspect:
                self.suspect = False
            self._misses = 0
            # Everything unacknowledged rides again on the new session.
            requeued = sorted(set(self._unacked) - set(self._queue))
            if requeued:
                self.metrics.retransmits += len(requeued)
            self._queue = sorted(set(self._queue) | set(requeued))
            self._wake.set()
            started = time.monotonic()
            try:
                await self._session(reader, writer)
            except asyncio.CancelledError:
                writer.close()
                return
            finally:
                writer.close()
            if time.monotonic() - started < self.cfg.session_floor:
                # Accepted then instantly dropped: treat like a failed
                # connect so a dark window cannot induce a busy loop.
                attempt += 1
                if attempt >= self.cfg.connect_attempts:
                    self.network._fail(
                        PeerUnreachableError(
                            self.name,
                            "sessions dying instantly; reconnect backoff "
                            "budget exhausted",
                            attempts=attempt,
                        )
                    )
                    return
                await self._backoff(attempt)

    async def _backoff(self, attempt: int) -> None:
        sleep = min(
            self.cfg.backoff_base * (2 ** (attempt - 1)), self.cfg.backoff_max
        )
        sleep *= 1.0 + self._rng.uniform(0.0, self.cfg.backoff_jitter)
        self.metrics.backoff_sleeps += 1
        try:
            await asyncio.sleep(sleep)
        except asyncio.CancelledError:
            raise

    async def _session(self, reader, writer) -> None:
        tasks = [
            asyncio.ensure_future(self._read_loop(reader)),
            asyncio.ensure_future(self._write_loop(writer)),
            asyncio.ensure_future(self._heartbeat_loop()),
        ]
        try:
            done, pending = await asyncio.wait(
                tasks, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- session sub-loops ------------------------------------------------

    async def _write_loop(self, writer) -> None:
        while not self._closing:
            while self._control:
                frame = self._control.pop(0)
                writer.write(frame)
                self.metrics.frames["out"] += 1
                self.metrics.bytes["out"] += len(frame)
            while self._queue:
                seq = self._queue.pop(0)
                pending = self._unacked.get(seq)
                if pending is None:  # acked while queued
                    continue
                pending.attempts += 1
                pending.sent_at = time.monotonic()
                writer.write(pending.frame)
                self.metrics.frames["out"] += 1
                self.metrics.bytes["out"] += len(pending.frame)
            await writer.drain()
            self._wake.clear()
            try:
                await asyncio.wait_for(
                    self._wake.wait(), timeout=self.cfg.deadline_poll
                )
            except asyncio.TimeoutError:
                pass
            self._police_deadlines()

    def _police_deadlines(self) -> None:
        now = time.monotonic()
        queued = set(self._queue)
        for seq, pending in self._unacked.items():
            if seq in queued or pending.sent_at == 0.0:
                continue
            if now - pending.sent_at < self.cfg.send_deadline:
                continue
            self.metrics.deadline_expiries += 1
            if pending.attempts > self.cfg.max_retries:
                self.network._fail(
                    PeerUnreachableError(
                        self.name,
                        f"frame {seq} unacknowledged after "
                        f"{pending.attempts} transmissions",
                        attempts=pending.attempts,
                    )
                )
                return
            self.metrics.retransmits += 1
            self._queue.append(seq)
            queued.add(seq)
        if self._queue:
            self._wake.set()

    async def _read_loop(self, reader) -> None:
        frames = FrameReader()
        while True:
            data = await reader.read(65536)
            if not data:
                return  # peer closed; outer loop reconnects
            self.metrics.bytes["in"] += len(data)
            try:
                decoded = frames.feed(data)
            except FrameError:
                self.metrics.crc_errors += 1
                return  # corrupted stream: recycle the session
            for seq, kind, _body in decoded:
                self.metrics.frames["in"] += 1
                if kind == KIND_ACK:
                    if self._unacked.pop(seq, None) is not None:
                        self.network._acked(seq)
                elif kind == KIND_PONG:
                    self._misses = 0

    async def _heartbeat_loop(self) -> None:
        seq = 0
        while True:
            await asyncio.sleep(self.cfg.heartbeat_interval)
            if self._misses:
                self.metrics.heartbeat_misses[self.name] += 1
            if self._misses >= self.cfg.heartbeat_budget:
                if not self.suspect:
                    self.suspect = True
                    self.metrics.suspects += 1
                return  # recycle the session; frames stay buffered
            self._misses += 1
            seq += 1
            self.submit_control(encode_frame(seq, KIND_PING))

    def submit_control(self, frame: bytes) -> None:
        """Queue a fire-and-forget control frame (no ack, no deadline).

        Control frames bypass the unacked table entirely: a lost ping
        simply counts as a heartbeat miss, it is never retransmitted.
        """
        self._control.append(frame)
        self._wake.set()

    # -- driver-side observability ----------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self._unacked)


class RealNetwork(SyncNetwork):
    """Seeded delivery schedule, physically conveyed over asyncio TCP.

    Drop-in for :class:`SyncNetwork` (same constructor surface plus the
    custodian cluster): the latency RNG, FIFO fronts, fault hook and
    stats behave identically, so a seeded run commits bit-identical
    ledgers over either backend.  Additionally every scheduled message
    copy is framed and shipped to the custodian peer that hosts its
    receiver, and :meth:`run_until` blocks the corresponding logical
    delivery until the frame's acknowledgement returns.

    Args:
        sim: Shared simulator (clock authority), as for the base class.
        custodians: ``(name, host, port)`` triples — the peer processes
            (started with ``python -m repro.network.custodian`` or
            in-process :class:`~repro.network.custodian.NodeServer`) that
            custody node identities.  Node ids
            are assigned round-robin in registration order, so the
            assignment is deterministic for a deterministic build order.
        config: Robustness knobs (:class:`TransportConfig`).
    """

    def __init__(
        self,
        sim: Simulator,
        min_delay: float = 0.01,
        max_delay: float = 0.1,
        seed: int = 1,
        obs: MetricsRegistry | None = None,
        custodians: tuple[tuple[str, str, int], ...] = (),
        config: TransportConfig | None = None,
    ):
        super().__init__(
            sim, min_delay=min_delay, max_delay=max_delay, seed=seed, obs=obs
        )
        if not custodians:
            raise ConfigurationError(
                "RealNetwork needs at least one custodian peer; use "
                "SyncNetwork for pure simulation"
            )
        self.config = config if config is not None else TransportConfig()
        self.metrics = TransportStats()
        transport_metrics(self.obs, self.metrics)
        self._seq = 0
        #: seq -> (logical stamp, custodian name) for in-flight frames.
        self._outstanding: dict[int, tuple[float, str]] = {}
        #: Lazy min-heap of (stamp, seq) mirrors of ``_outstanding``.
        self._stamps: list[tuple[float, int]] = []
        self._cond = threading.Condition()
        self._failure: PeerUnreachableError | None = None
        self._last_progress = time.monotonic()
        self._closed = False
        self._assign: dict[str, _PeerSupervisor] = {}
        self._loop = asyncio.new_event_loop()
        self.supervisors = [
            _PeerSupervisor(self, name, host, port)
            for name, host, port in custodians
        ]
        self._thread = threading.Thread(
            target=self._loop_main, name="realnet-io", daemon=True
        )
        self._thread.start()

    # -- background loop ---------------------------------------------------

    def _loop_main(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._tasks = [
            self._loop.create_task(sup.run()) for sup in self.supervisors
        ]
        self._loop.run_forever()
        for task in self._tasks:
            task.cancel()
        try:
            self._loop.run_until_complete(
                asyncio.gather(*self._tasks, return_exceptions=True)
            )
        finally:
            self._loop.close()

    def close(self) -> None:
        """Stop supervisors, drop connections, join the IO thread."""
        if self._closed:
            return
        self._closed = True
        for sup in self.supervisors:
            self._loop.call_soon_threadsafe(sup.shutdown)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)

    # -- conveyance --------------------------------------------------------

    def _custodian_for(self, node_id: str) -> _PeerSupervisor:
        sup = self._assign.get(node_id)
        if sup is None:
            sup = self.supervisors[len(self._assign) % len(self.supervisors)]
            self._assign[node_id] = sup
        return sup

    def _convey(self, message: Message, size_hint: int) -> None:
        if self._closed:
            return
        self._seq += 1
        seq = self._seq
        body = pickle.dumps(
            (message.sender, message.receiver, message.payload),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        frame = encode_frame(seq, KIND_MSG, body)
        sup = self._custodian_for(message.receiver)
        with self._cond:
            self._outstanding[seq] = (message.deliver_at, sup.name)
            heapq.heappush(self._stamps, (message.deliver_at, seq))
        self._loop.call_soon_threadsafe(sup.submit, seq, frame)

    # -- loop-thread callbacks --------------------------------------------

    def _acked(self, seq: int) -> None:
        with self._cond:
            self._outstanding.pop(seq, None)
            self._last_progress = time.monotonic()
            self._cond.notify_all()

    def _fail(self, exc: PeerUnreachableError) -> None:
        with self._cond:
            if self._failure is None:
                self._failure = exc
            self._cond.notify_all()

    # -- gated clock advance ----------------------------------------------

    def _gate(self) -> tuple[float, int] | None:
        """Earliest logical stamp still awaiting physical conveyance."""
        while self._stamps and self._stamps[0][1] not in self._outstanding:
            heapq.heappop(self._stamps)
        return self._stamps[0] if self._stamps else None

    def run_until(self, until: float, max_events: int = 10_000_000) -> int:
        """Advance the seeded clock to ``until``, physically mediated.

        Identical to :meth:`SyncNetwork.run_until` in logical effect —
        the clock always parks exactly at ``until`` — but a delivery
        event is executed only once its frame's acknowledgement has
        physically arrived; until then the driver blocks (bounded by the
        stall watchdog and the supervisors' own budgets, which surface
        as :class:`~repro.exceptions.PeerUnreachableError`).
        """
        executed = 0
        while True:
            with self._cond:
                if self._failure is not None:
                    raise self._failure
            next_time = self.sim.next_time()
            if next_time is None or next_time > until:
                break
            with self._cond:
                gate = self._gate()
            if gate is not None and next_time >= gate[0] - 1e-12:
                self._await_conveyance(gate)
                continue
            self.sim.step()
            executed += 1
            if executed > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events}; runaway simulation?"
                )
        if self.sim.now < until:
            self.sim.advance_to(until)
        return executed

    def _await_conveyance(self, gate: tuple[float, int]) -> None:
        stamp, seq = gate
        with self._cond:
            self._last_progress = time.monotonic()
            while seq in self._outstanding:
                if self._failure is not None:
                    raise self._failure
                waited = time.monotonic() - self._last_progress
                if waited > self.config.stall_timeout:
                    peer = self._outstanding[seq][1]
                    raise PeerUnreachableError(
                        peer,
                        f"no conveyance progress for {waited:.1f}s "
                        f"(stall watchdog; frame {seq}, stamp {stamp:.4f})",
                    )
                self._cond.wait(timeout=0.05)
