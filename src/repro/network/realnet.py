"""Real-socket transport: seeded delivery over TCP conveyance.

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
injected at the logical layer (:class:`~repro.faults.injector.FaultInjector`)
behave identically on both, and *physical* faults (dropped frames, dead
peers, partitions — see :class:`repro.faults.proxy.TransportFaultProxy`)
exercise the robustness machinery below without being able to corrupt
the committed history, only to delay or abort it.

The driver thread owns the sockets; no other thread runs.  ``_convey``
writes each frame without blocking, and ``_await_conveyance`` is the
send / ack / retransmit loop of a selective-repeat ARQ, on one
``selectors`` selector:

* per-frame **send deadlines** — an unacknowledged frame is
  retransmitted after ``send_deadline`` seconds, up to ``max_retries``
  times;
* bounded **exponential backoff** on connect and reconnect — a session
  that ends (or a connect that fails) before carrying an acknowledgement
  counts against ``connect_attempts``, and every frame it held rides
  again on the next session;
* a structured :class:`~repro.exceptions.PeerUnreachableError` once a
  budget is exhausted or no acknowledgement arrives for
  ``stall_timeout`` — the transport degrades to an error, never a hang.

None of it touches the seeded RNG streams, so enabling the real
transport cannot perturb a seeded run.
"""

from __future__ import annotations

import heapq
import pickle
import selectors
import socket
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.exceptions import (
    ConfigurationError,
    FrameError,
    PeerUnreachableError,
    SimulationError,
)
from repro.network.custodian import KIND_ACK, KIND_MSG, FrameReader, encode_frame
from repro.network.simnet import Message, Simulator, SyncNetwork
from repro.obs.registry import MetricsRegistry

__all__ = ["RealNetwork", "TransportConfig", "transport_metrics"]

# -- telemetry --------------------------------------------------------------


@dataclass
class TransportStats:
    """What one :class:`RealNetwork`'s conveyance layer did (wall-clock
    side); the registry reads it."""

    frames: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    reconnects: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    backoff_sleeps: int = 0
    deadline_expiries: int = 0
    retransmits: int = 0
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
    ("crc_errors", "tpt_crc_errors_total", (),
     "Frames rejected for CRC or structural errors"),
)


def transport_metrics(
    obs: MetricsRegistry, stats: TransportStats | None = None
) -> dict[str, object]:
    """Declare the ``tpt_*`` family on ``obs``, by :class:`TransportStats` field.

    A :class:`RealNetwork` passes its ``stats`` for the counters to read;
    a labelled reader copies its dict.
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
    #: Consecutive connects or sessions that end without an
    #: acknowledgement before the peer is declared unreachable (each
    #: is followed by a backoff sleep).
    connect_attempts: int = 8
    #: First backoff sleep; doubles per consecutive failure.
    backoff_base: float = 0.05
    #: Backoff ceiling.
    backoff_max: float = 2.0
    #: Unacknowledged-frame retransmission deadline.
    send_deadline: float = 1.0
    #: Retransmissions per frame before giving up on the peer.
    max_retries: int = 8
    #: Conveyance watchdog: if no acknowledgement arrives for this long
    #: while deliveries are gated, the driver raises instead of hanging.
    stall_timeout: float = 20.0


class _Pending:
    """One conveyed frame awaiting acknowledgement."""

    __slots__ = ("frame", "attempts", "sent_at")

    def __init__(self, frame: bytes):
        self.frame = frame
        self.attempts = 0
        self.sent_at = 0.0


class _Peer:
    """The driver's side of one custodian: its session and unacked frames."""

    def __init__(self, name: str, host: str, port: int):
        self.name = name
        self.address = (host, port)
        self.sock: socket.socket | None = None
        self.reader = FrameReader()
        #: Bytes written but not yet taken by the kernel.
        self.out = bytearray()
        self.unacked: dict[int, _Pending] = {}
        self.sessions = 0
        #: Consecutive connects / sessions that carried no acknowledgement.
        self.failures = 0
        self.retry_at = 0.0


class RealNetwork(SyncNetwork):
    """Seeded delivery schedule, physically conveyed over TCP.

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
        #: seq -> custodian peer, for frames not yet acknowledged.
        self._outstanding: dict[int, _Peer] = {}
        #: Lazy min-heap of (stamp, seq) mirrors of ``_outstanding``.
        self._stamps: list[tuple[float, int]] = []
        self._closed = False
        self._assign: dict[str, _Peer] = {}
        self.peers = [_Peer(name, host, port) for name, host, port in custodians]
        self._selector = selectors.DefaultSelector()

    def close(self) -> None:
        """Close every custodian session and the selector."""
        if self._closed:
            return
        self._closed = True
        for peer in self.peers:
            if peer.sock is not None:
                self._selector.unregister(peer.sock)
                peer.sock.close()
                peer.sock = None
        self._selector.close()

    # -- conveyance --------------------------------------------------------

    def _custodian_for(self, node_id: str) -> _Peer:
        peer = self._assign.get(node_id)
        if peer is None:
            peer = self.peers[len(self._assign) % len(self.peers)]
            self._assign[node_id] = peer
        return peer

    def _convey(self, message: Message, size_hint: int) -> None:
        if self._closed:
            return
        self._seq += 1
        seq = self._seq
        body = pickle.dumps(
            (message.sender, message.receiver, message.payload),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        pending = _Pending(encode_frame(seq, KIND_MSG, body))
        peer = self._custodian_for(message.receiver)
        peer.unacked[seq] = pending
        self._outstanding[seq] = peer
        heapq.heappush(self._stamps, (message.deliver_at, seq))
        if peer.sock is not None:
            self._transmit(peer, pending)

    def _transmit(self, peer: _Peer, pending: _Pending) -> None:
        """Queue one frame on the peer's session and write what fits."""
        pending.attempts += 1
        pending.sent_at = time.monotonic()
        peer.out += pending.frame
        self.metrics.frames["out"] += 1
        self.metrics.bytes["out"] += len(pending.frame)
        self._flush(peer)

    def _flush(self, peer: _Peer) -> None:
        try:
            del peer.out[: peer.sock.send(peer.out)]
        except OSError:
            pass  # full buffer: the selector says when; dead: the read sees it
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if peer.out else 0)
        if self._selector.get_key(peer.sock).events != events:
            self._selector.modify(peer.sock, events, peer)

    # -- the send / ack / retransmit loop -----------------------------------

    def _connect(self, peer: _Peer) -> None:
        try:
            sock = socket.create_connection(
                peer.address, timeout=self.config.connect_timeout
            )
        except OSError as exc:
            self._lose(peer, f"connect failed: {exc}")
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        peer.sock = sock
        self._selector.register(sock, selectors.EVENT_READ, peer)
        if peer.sessions:
            self.metrics.reconnects[peer.name] += 1
        peer.sessions += 1
        for pending in peer.unacked.values():
            if pending.attempts:
                self.metrics.retransmits += 1
            self._transmit(peer, pending)

    def _lose(self, peer: _Peer, why: str) -> None:
        """End the peer's session; back off, or give up once over budget."""
        if peer.sock is not None:
            self._selector.unregister(peer.sock)
            peer.sock.close()
            peer.sock = None
        peer.out.clear()
        peer.reader = FrameReader()
        peer.failures += 1
        if peer.failures >= self.config.connect_attempts:
            raise PeerUnreachableError(
                peer.name, f"reconnect budget exhausted; {why}",
                attempts=peer.failures,
            )
        self.metrics.backoff_sleeps += 1
        peer.retry_at = time.monotonic() + min(
            self.config.backoff_base * 2 ** (peer.failures - 1),
            self.config.backoff_max,
        )

    def _receive(self, peer: _Peer) -> bool:
        """Read what the peer sent; True if it acknowledged a frame."""
        try:
            data = peer.sock.recv(65536)
        except BlockingIOError:
            return False
        except OSError as exc:
            self._lose(peer, f"session failed: {exc}")
            return False
        if not data:
            self._lose(peer, "session closed by the peer")
            return False
        self.metrics.bytes["in"] += len(data)
        try:
            frames = peer.reader.feed(data)
        except FrameError as exc:
            self.metrics.crc_errors += 1
            self._lose(peer, str(exc))
            return False
        acked = False
        for seq, kind, _body in frames:
            self.metrics.frames["in"] += 1
            if kind == KIND_ACK and peer.unacked.pop(seq, None) is not None:
                del self._outstanding[seq]
                acked = True
        if acked:
            peer.failures = 0
        return acked

    def _tend(self, peer: _Peer, now: float) -> float:
        """Connect or retransmit as due; return when to look again."""
        if not peer.unacked:
            return float("inf")
        if peer.sock is None:
            if now < peer.retry_at:
                return peer.retry_at
            self._connect(peer)
            if peer.sock is None:
                return peer.retry_at
        deadline = self.config.send_deadline
        wake = float("inf")
        for seq, pending in peer.unacked.items():
            if now - pending.sent_at >= deadline:
                self.metrics.deadline_expiries += 1
                if pending.attempts > self.config.max_retries:
                    raise PeerUnreachableError(
                        peer.name,
                        f"frame {seq} unacknowledged after "
                        f"{pending.attempts} transmissions",
                        attempts=pending.attempts,
                    )
                self.metrics.retransmits += 1
                self._transmit(peer, pending)
            wake = min(wake, pending.sent_at + deadline)
        return wake

    def _await_conveyance(self, gate: tuple[float, int]) -> None:
        """Run the selector until frame ``gate[1]`` is acknowledged."""
        stamp, seq = gate
        progress = time.monotonic()
        while seq in self._outstanding:
            now = time.monotonic()
            waited = now - progress
            if waited > self.config.stall_timeout:
                raise PeerUnreachableError(
                    self._outstanding[seq].name,
                    f"no conveyance progress for {waited:.1f}s "
                    f"(stall watchdog; frame {seq}, stamp {stamp:.4f})",
                )
            wake = min(self._tend(peer, now) for peer in self.peers)
            wake = min(wake, progress + self.config.stall_timeout)
            for key, events in self._selector.select(max(0.0, wake - now)):
                peer = key.data
                if events & selectors.EVENT_WRITE and peer.sock is not None:
                    self._flush(peer)
                if events & selectors.EVENT_READ and peer.sock is not None:
                    if self._receive(peer):
                        progress = time.monotonic()

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
        physically arrived; until then the driver runs the conveyance
        loop (bounded by its budgets and the stall watchdog, which
        surface as :class:`~repro.exceptions.PeerUnreachableError`).
        """
        executed = 0
        while True:
            next_time = self.sim.next_time()
            if next_time is None or next_time > until:
                break
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
