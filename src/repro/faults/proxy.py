"""Socket-boundary fault injection: a frame-aware chaos TCP proxy.

:class:`TransportFaultProxy` sits between a
:class:`~repro.network.realnet.RealNetwork` driver and one custodian
peer and applies a seeded :class:`~repro.faults.plan.FaultPlan` to the
**wire frames themselves** — the physical twin of the logical
:class:`~repro.faults.injector.FaultInjector`:

* ``default_link.loss`` — the frame is swallowed (the sender's ack
  deadline expires and it retransmits);
* ``default_link.duplicate`` — the frame is forwarded twice (the
  receiver acks both; duplicate acks are ignored);
* ``default_link.reorder`` — the frame is held for a uniform draw in
  ``(0, reorder_delay]`` *wall* seconds while later frames overtake it;
* partition windows and node crash schedules — reinterpreted on the
  **wall clock**, as seconds since proxy start: while a window is open
  the proxy severs every live connection and refuses new ones, forcing
  the driver through its reconnect-backoff path until the window
  closes.

Because the logical delivery schedule is seeded independently of the
wire (see :mod:`repro.network.realnet`), socket chaos can delay or
abort a run but never alter which messages the engines deliver — a
chaos run that completes must therefore commit the *identical* chain
tip and a clean safety audit, which is exactly what the chaos tests
assert.

All faulting is seeded (``plan.seed``) per proxy and per direction, so
a given proxy decides the same fates for the same frame sequence —
though wall-clock interleaving of retransmissions makes full-run
determinism a property of the *logical* layer only.
"""

from __future__ import annotations

import heapq
import random
import select
import socket
import threading
import time
from typing import Callable

from repro.exceptions import FrameError
from repro.faults.plan import FaultPlan
from repro.network.custodian import ConnectionServer, FrameReader, encode_frame

__all__ = ["TransportFaultProxy", "start_proxy_thread"]

#: How often a pump waiting for input looks at the chaos clock.
_PATROL = 0.02


class TransportFaultProxy(ConnectionServer):
    """A seeded chaos proxy in front of one custodian peer.

    Each accepted connection gets an upstream connection and two pumps,
    one per direction: the connection's own thread carries driver to
    custodian, a second thread carries custodian to driver.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        plan: FaultPlan,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.plan = plan
        self._t0 = time.monotonic()
        #: (start, end) wall-second offsets during which the link is dark.
        self._blackouts: list[tuple[float, float]] = [
            (window.start, window.end) for window in plan.partitions
        ] + [
            (spec.crash_at, spec.recover_at if spec.recover_at is not None else float("inf"))
            for spec in plan.node_faults
        ]
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self.frames_delayed = 0
        self.connections_killed = 0
        super().__init__(host, port)

    def _dark(self) -> bool:
        now = time.monotonic() - self._t0
        return any(start <= now < end for start, end in self._blackouts)

    def serve_connection(self, client: socket.socket) -> None:
        if self._dark():
            return  # refused: the server closes the connection
        with socket.create_connection((self.upstream_host, self.upstream_port)) as up:
            up.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            back = threading.Thread(
                target=self._pump, args=(up, client, 1), name="fault-proxy-back"
            )
            back.start()
            try:
                self._pump(client, up, 0)
            finally:
                back.join()
        if self._dark():
            with self.lock:
                self.connections_killed += 1

    def _pump(self, src: socket.socket, dst: socket.socket, direction: int) -> None:
        """Forward ``src``'s frames to ``dst`` under the plan; sever both
        sockets when either side ends or a dark window opens."""
        rng = random.Random((self.plan.seed << 1) | direction)
        spec = self.plan.default_link
        frames = FrameReader()
        held: list[tuple[float, int, bytes]] = []  # (release time, seq, frame)
        try:
            while not self._dark():
                now = time.monotonic()
                while held and held[0][0] <= now:
                    dst.sendall(heapq.heappop(held)[2])
                wait = min(_PATROL, held[0][0] - now) if held else _PATROL
                if not select.select([src], [], [], wait)[0]:
                    continue
                data = src.recv(65536)
                if not data:
                    return
                for seq, kind, body in frames.feed(data):
                    frame = encode_frame(seq, kind, body)
                    if spec.loss and rng.random() < spec.loss:
                        with self.lock:
                            self.frames_dropped += 1
                        continue
                    if spec.reorder and rng.random() < spec.reorder:
                        with self.lock:
                            self.frames_delayed += 1
                        delay = rng.uniform(0.0, spec.reorder_delay)
                        heapq.heappush(held, (now + delay, seq, frame))
                        continue
                    dst.sendall(frame)
                    if spec.duplicate and rng.random() < spec.duplicate:
                        with self.lock:
                            self.frames_duplicated += 1
                        dst.sendall(frame)
        except (OSError, FrameError):
            pass  # a side closed or the stream is corrupt: sever both
        finally:
            for sock in (src, dst):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


def start_proxy_thread(
    upstream_host: str, upstream_port: int, plan: FaultPlan
) -> tuple[TransportFaultProxy, Callable[[], None]]:
    """Run a :class:`TransportFaultProxy` on a background thread.

    Returns ``(proxy, stop)``; ``proxy.port`` is bound on return.
    """
    proxy = TransportFaultProxy(upstream_host, upstream_port, plan)
    return proxy, proxy.start_thread("fault-proxy")
