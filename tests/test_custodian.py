"""Custodian processes: a forked peer acks, a stand-alone one announces.

``launch_custodians`` forks peers that serve ports the driver bound, so
they announce nothing.  A stand-alone peer — ``python -m
repro.network.custodian`` or ``repro serve``, both
:func:`~repro.network.custodian.serve` — prints
:data:`~repro.network.custodian.ANNOUNCEMENT`, which a launcher reads back
with :data:`~repro.network.custodian.LISTENING`.
"""

from __future__ import annotations

import os
import pathlib
import socket
import subprocess
import sys

import pytest

from repro.network.cluster import launch_custodians
from repro.network.custodian import (
    KIND_ACK,
    KIND_MSG,
    LISTENING,
    FrameReader,
    encode_frame,
)

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.mark.realnet
def test_launched_custodian_acknowledges_a_message_frame():
    handle = launch_custodians(1)
    try:
        _name, host, port = handle.addresses[0]
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.settimeout(5.0)
            sock.sendall(encode_frame(7, KIND_MSG, b"payload"))
            reader, frames = FrameReader(), []
            while not frames:
                frames = reader.feed(sock.recv(4096))
        assert frames == [(7, KIND_ACK, b"")]
    finally:
        handle.close()


@pytest.mark.realnet
def test_repro_serve_announces_what_the_launcher_parses():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
    )
    try:
        match = LISTENING.search(proc.stdout.readline())
        assert match is not None
        assert match.group(1) == "127.0.0.1" and int(match.group(2)) > 0
    finally:
        proc.terminate()
        proc.wait(timeout=10.0)
        proc.stdout.close()
