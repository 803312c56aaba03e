"""The wire format and the custodian peer, on the standard library alone.

A custodian is the process at the far end of
:class:`~repro.network.realnet.RealNetwork`'s sockets: it CRC-checks
every conveyed frame, acknowledges it and answers heartbeats.  It holds
no agent state (the driving engine does; see DESIGN.md, "The custodian
split"), so this module imports nothing but the standard library and
:mod:`repro.exceptions` — a peer boots without numpy and without the
engines, and a custodian that one day runs engines will import the
engine modules it runs, never the CLI.

Run one with ``python -m repro.network.custodian``: it binds an
OS-assigned port on 127.0.0.1, prints the :data:`ANNOUNCEMENT` line and
serves until terminated.  ``repro serve --host H --port P`` is the same
:func:`serve` with the address chosen.
"""

from __future__ import annotations

import asyncio
import re
import struct
import threading
import zlib
from typing import Any

from repro.exceptions import FrameError, PeerUnreachableError

__all__ = [
    "ANNOUNCEMENT",
    "FRAME_HEADER",
    "KIND_ACK",
    "KIND_MSG",
    "KIND_PING",
    "KIND_PONG",
    "LISTENING",
    "MAX_FRAME_PAYLOAD",
    "FrameReader",
    "NodeServer",
    "encode_frame",
    "serve",
    "start_server_thread",
]

# -- wire framing -----------------------------------------------------------

#: Same header as the storage segment log: u32 payload length | u32 crc32
#: of the payload | u64 sequence number.  One codec for disk and wire.
FRAME_HEADER = struct.Struct("<IIQ")

#: Refuse absurd lengths before allocating (matches the segment log).
MAX_FRAME_PAYLOAD = 1 << 26

#: Frame kinds — first payload byte.  ``MSG`` carries a pickled
#: (sender, receiver, payload) triple; the control frames carry nothing.
KIND_MSG = b"M"
KIND_ACK = b"A"
KIND_PING = b"P"
KIND_PONG = b"O"


def encode_frame(seq: int, kind: bytes, body: bytes = b"") -> bytes:
    """One wire frame: header + kind byte + body, CRC over kind+body."""
    payload = kind + body
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise FrameError(
            f"frame payload {len(payload)} exceeds cap {MAX_FRAME_PAYLOAD}"
        )
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload), seq) + payload


class FrameReader:
    """Incremental frame decoder over a byte stream.

    Feed it chunks as they arrive; it yields complete ``(seq, kind,
    body)`` frames and raises :class:`~repro.exceptions.FrameError` on a
    malformed header, an oversized length, or a CRC mismatch — the
    caller then drops the connection (TCP preserves ordering, so a bad
    frame means a corrupted or hostile stream, not a resumable gap).
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes, bytes]]:
        self._buf.extend(data)
        frames: list[tuple[int, bytes, bytes]] = []
        while True:
            if len(self._buf) < FRAME_HEADER.size:
                return frames
            length, crc, seq = FRAME_HEADER.unpack_from(self._buf)
            if length == 0 or length > MAX_FRAME_PAYLOAD:
                raise FrameError(f"frame length {length} out of range")
            end = FRAME_HEADER.size + length
            if len(self._buf) < end:
                return frames
            payload = bytes(self._buf[FRAME_HEADER.size:end])
            del self._buf[:end]
            if zlib.crc32(payload) != crc:
                raise FrameError(f"frame {seq} CRC mismatch")
            frames.append((seq, payload[:1], payload[1:]))


# -- custodian peer ---------------------------------------------------------


class NodeServer:
    """A custodian peer: validates and acknowledges conveyed frames.

    :func:`serve` runs one of these per cluster process.  For every
    CRC-valid ``MSG`` frame it returns an ``ACK`` carrying the same
    sequence number (acknowledging *conveyance* — the custodied
    identities' logical state lives with the driving engine; see
    DESIGN.md on the split).  ``PING`` frames earn a ``PONG``.
    Malformed or CRC-corrupt input drops the connection, which pushes
    the sender down its retransmit/reconnect path.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self.frames_acked = 0
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _serve_connection(self, reader, writer) -> None:
        frames = FrameReader()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    decoded = frames.feed(data)
                except FrameError:
                    break  # corrupt stream: force the client to resend
                for seq, kind, _body in decoded:
                    if kind == KIND_MSG:
                        self.frames_acked += 1
                        writer.write(encode_frame(seq, KIND_ACK))
                    elif kind == KIND_PING:
                        writer.write(encode_frame(seq, KIND_PONG))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def close(self) -> None:
        if self._server is not None:
            self._server.close()


def start_server_thread(
    host: str = "127.0.0.1", port: int = 0
) -> tuple[NodeServer, Any]:
    """Run a :class:`NodeServer` on a background thread (tests, harness).

    Returns ``(server, stop)`` where ``server.port`` is bound and
    ``stop()`` shuts the loop down and joins the thread.  ``port=0``
    binds an OS-assigned port; a fixed port supports restart tests.
    """
    server = NodeServer(host=host, port=port)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def main() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(target=main, name="node-server", daemon=True)
    thread.start()
    if not started.wait(timeout=10.0):  # pragma: no cover - defensive
        raise PeerUnreachableError("node-server", "server thread failed to bind")

    def stop() -> None:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)

    return server, stop


# -- process entry ----------------------------------------------------------

#: The line a serving process prints once bound — the launcher's
#: readiness cue, carrying the OS-assigned port when ``port=0`` —
#: and the pattern :func:`~repro.network.cluster.launch_custodians`
#: reads it back with.
ANNOUNCEMENT = "listening host={host} port={port}"
LISTENING = re.compile(r"listening host=(\S+) port=(\d+)")


def serve(host: str = "127.0.0.1", port: int = 0) -> None:
    """Bind a :class:`NodeServer`, announce its address, serve until killed."""

    async def main() -> None:
        server = NodeServer(host=host, port=port)
        await server.start()
        print(ANNOUNCEMENT.format(host=server.host, port=server.port), flush=True)
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":  # pragma: no cover - the launched peer process
    serve()
