"""The wire format and the custodian peer, on the standard library alone.

A custodian is the process at the far end of
:class:`~repro.network.realnet.RealNetwork`'s sockets: it CRC-checks
every conveyed frame and acknowledges it.  It holds no agent state (the
driving engine does; see DESIGN.md, "The custodian split"), so this
module imports nothing but the standard library and
:mod:`repro.exceptions` — a peer boots without the engines, and a
custodian that one day runs engines will import the engine modules it
runs, never the CLI.

Run one with ``python -m repro.network.custodian``: it binds an
OS-assigned port on 127.0.0.1, prints the :data:`ANNOUNCEMENT` line and
serves until terminated.  ``repro serve --host H --port P`` is the same
:func:`serve` with the address chosen.
"""

from __future__ import annotations

import re
import socket
import socketserver
import struct
import threading
import zlib
from typing import Callable

from repro.exceptions import FrameError

__all__ = [
    "ANNOUNCEMENT",
    "FRAME_HEADER",
    "KIND_ACK",
    "KIND_MSG",
    "LISTENING",
    "MAX_FRAME_PAYLOAD",
    "ConnectionServer",
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
#: (sender, receiver, payload) triple; ``ACK`` carries nothing but the
#: sequence number of the ``MSG`` it acknowledges.
KIND_MSG = b"M"
KIND_ACK = b"A"


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


# -- a threaded TCP server ----------------------------------------------------


class _Connection(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            self.server.serve_connection(self.request)
        except (OSError, FrameError):
            pass  # the peer or stop() closed it, or the stream is corrupt


class ConnectionServer(socketserver.ThreadingTCPServer):
    """A TCP server that runs :meth:`serve_connection` on a thread per
    connection and, on ``stop``, closes the connections still open.

    The custodian and the fault proxy are the two subclasses.  Binding
    happens in the constructor, so ``port`` is known at once (``0``
    asks the OS for one; a fixed port may be rebound after a stop).
    """

    allow_reuse_address = True

    def __init__(self, host: str, port: int):
        self.live: set[socket.socket] = set()
        #: Guards the counters that connection threads add to.
        self.lock = threading.Lock()
        super().__init__((host, port), _Connection)
        self.host, self.port = self.server_address[:2]

    def serve_connection(self, sock: socket.socket) -> None:
        raise NotImplementedError

    def process_request(self, request, client_address) -> None:
        self.live.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        self.live.discard(request)
        super().shutdown_request(request)

    def start_thread(self, name: str) -> Callable[[], None]:
        """Serve on a background thread; return the ``stop`` that ends it.

        ``stop()`` stops accepting, shuts every live connection down so
        its thread returns, and joins all of them.
        """
        thread = threading.Thread(
            target=self.serve_forever, args=(0.05,), name=name, daemon=True
        )
        thread.start()

        def stop() -> None:
            self.shutdown()
            for sock in list(self.live):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            self.server_close()  # joins the connection threads
            thread.join()

        return stop


# -- custodian peer ---------------------------------------------------------


class NodeServer(ConnectionServer):
    """A custodian peer: validates and acknowledges conveyed frames.

    :func:`serve` runs one of these per cluster process.  For every
    CRC-valid ``MSG`` frame it returns an ``ACK`` carrying the same
    sequence number (acknowledging *conveyance* — the custodied
    identities' logical state lives with the driving engine; see
    DESIGN.md on the split).  Malformed or CRC-corrupt input drops the
    connection, which pushes the sender down its retransmit/reconnect
    path.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.frames_acked = 0
        super().__init__(host, port)

    def serve_connection(self, sock: socket.socket) -> None:
        frames = FrameReader()
        while data := sock.recv(65536):
            acks = [
                encode_frame(seq, KIND_ACK)
                for seq, kind, _body in frames.feed(data)
                if kind == KIND_MSG
            ]
            with self.lock:
                self.frames_acked += len(acks)
            sock.sendall(b"".join(acks))


def start_server_thread(
    host: str = "127.0.0.1", port: int = 0
) -> tuple[NodeServer, Callable[[], None]]:
    """Run a :class:`NodeServer` on a background thread (tests, harness).

    Returns ``(server, stop)`` where ``server.port`` is bound and
    ``stop()`` closes the server and its connections and joins their
    threads.  ``port=0`` binds an OS-assigned port; a fixed port
    supports restart tests.
    """
    server = NodeServer(host=host, port=port)
    return server, server.start_thread("node-server")


# -- process entry ----------------------------------------------------------

#: The line a stand-alone serving process prints once bound — a
#: launcher's readiness cue, carrying the OS-assigned port when
#: ``port=0`` — and the pattern that reads it back.
ANNOUNCEMENT = "listening host={host} port={port}"
LISTENING = re.compile(r"listening host=(\S+) port=(\d+)")


def serve(host: str = "127.0.0.1", port: int = 0) -> None:
    """Bind a :class:`NodeServer`, announce its address, serve until killed."""
    with NodeServer(host=host, port=port) as server:
        print(ANNOUNCEMENT.format(host=server.host, port=server.port), flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass


if __name__ == "__main__":  # pragma: no cover - the launched peer process
    serve()
