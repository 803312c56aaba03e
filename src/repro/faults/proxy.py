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
  the proxy kills every live connection and refuses new ones, forcing
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

import asyncio
import random
import threading
import time
from typing import Callable

from repro.exceptions import FrameError, PeerUnreachableError
from repro.faults.plan import FaultPlan
from repro.network.custodian import FrameReader, encode_frame

__all__ = ["TransportFaultProxy", "start_proxy_thread"]


class TransportFaultProxy:
    """A seeded chaos proxy in front of one custodian peer."""

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
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._patrol: asyncio.Task | None = None
        self._t0 = time.monotonic()
        self._writers: set[asyncio.StreamWriter] = set()
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

    # -- chaos clock -------------------------------------------------------

    def _dark(self) -> bool:
        now = time.monotonic() - self._t0
        return any(start <= now < end for start, end in self._blackouts)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._t0 = time.monotonic()
        if self._blackouts:
            self._patrol = asyncio.ensure_future(self._blackout_patrol())

    async def _blackout_patrol(self) -> None:
        """Kill live connections the moment a dark window opens."""
        while True:
            await asyncio.sleep(0.02)
            if self._dark():
                for writer in list(self._writers):
                    self.connections_killed += 1
                    writer.close()
                self._writers.clear()

    def close(self) -> None:
        if self._patrol is not None:
            self._patrol.cancel()
        if self._server is not None:
            self._server.close()

    # -- proxying ----------------------------------------------------------

    async def _on_client(self, client_reader, client_writer) -> None:
        if self._dark():
            client_writer.close()
            return
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.upstream_host, self.upstream_port
            )
        except OSError:
            client_writer.close()
            return
        self._writers.update((client_writer, up_writer))
        pumps = [
            asyncio.ensure_future(
                self._pump(client_reader, up_writer, direction=0)
            ),
            asyncio.ensure_future(
                self._pump(up_reader, client_writer, direction=1)
            ),
        ]
        await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
        for pump in pumps:
            pump.cancel()
        await asyncio.gather(*pumps, return_exceptions=True)
        for writer in (client_writer, up_writer):
            self._writers.discard(writer)
            writer.close()

    async def _pump(self, reader, writer, direction: int) -> None:
        rng = random.Random((self.plan.seed << 1) | direction)
        spec = self.plan.default_link
        frames = FrameReader()
        lock = asyncio.Lock()

        async def forward(frame: bytes) -> None:
            async with lock:
                writer.write(frame)
                await writer.drain()

        while True:
            data = await reader.read(65536)
            if not data:
                return
            try:
                decoded = frames.feed(data)
            except FrameError:
                return  # corrupt stream: sever both sides
            for seq, kind, body in decoded:
                if self._dark():
                    return  # window opened mid-pump: sever
                frame = encode_frame(seq, kind, body)
                if spec.loss and rng.random() < spec.loss:
                    self.frames_dropped += 1
                    continue
                if spec.reorder and rng.random() < spec.reorder:
                    self.frames_delayed += 1
                    delay = rng.uniform(0.0, spec.reorder_delay)
                    asyncio.get_running_loop().create_task(
                        self._delayed(forward, frame, delay)
                    )
                    continue
                await forward(frame)
                if spec.duplicate and rng.random() < spec.duplicate:
                    self.frames_duplicated += 1
                    await forward(frame)

    async def _delayed(
        self, forward: Callable, frame: bytes, delay: float
    ) -> None:
        await asyncio.sleep(delay)
        try:
            await forward(frame)
        except (ConnectionError, RuntimeError):
            pass  # connection died while the frame was held


def start_proxy_thread(
    upstream_host: str, upstream_port: int, plan: FaultPlan
) -> tuple[TransportFaultProxy, Callable[[], None]]:
    """Run a :class:`TransportFaultProxy` on a background thread.

    Returns ``(proxy, stop)``; ``proxy.port`` is bound on return.
    """
    proxy = TransportFaultProxy(upstream_host, upstream_port, plan)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def main() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(proxy.start())
        started.set()
        try:
            loop.run_forever()
        finally:
            proxy.close()
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(target=main, name="fault-proxy", daemon=True)
    thread.start()
    if not started.wait(timeout=10.0):  # pragma: no cover - defensive
        raise PeerUnreachableError("fault-proxy", "proxy thread failed to bind")

    def stop() -> None:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)

    return proxy, stop
