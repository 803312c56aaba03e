"""Transport backend tests: framing, robustness machinery, socket chaos.

Three layers, cheapest first:

* pure-function framing tests (no sockets);
* :class:`RealNetwork` against in-process :class:`NodeServer` peers —
  conveyance, reconnect-with-backoff, send-deadline retransmission,
  and the structured give-up (:class:`PeerUnreachableError`, never a
  hang) of a dead peer and of a mute one;
* socket-boundary chaos — the seeded scenario committed over real TCP
  through loss, duplication, reordering and a partition at the proxies
  produces the simulator's tip.  The parity of real TCP itself, with and
  without logical fault plans, is the ``tcp`` column of
  ``tests/test_parity.py``.

The heavier socket tests carry the ``realnet`` marker so CI can run
them as a dedicated job (``-m realnet``); all of them are budgeted to
stay inside the tier-1 wall-clock envelope.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.exceptions import ConfigurationError, FrameError, PeerUnreachableError
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.faults.proxy import start_proxy_thread
from repro.network.cluster import ClusterScenario, launch_custodians, run_scenario
from repro.network.custodian import (
    FRAME_HEADER,
    KIND_ACK,
    KIND_MSG,
    MAX_FRAME_PAYLOAD,
    FrameReader,
    encode_frame,
    start_server_thread,
)
from repro.network.realnet import RealNetwork, TransportConfig, transport_metrics
from repro.network.simnet import Simulator, SyncNetwork
from repro.obs.registry import MetricsRegistry
from tests.test_parallel import exited, still_running

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Wall-clock-fast robustness knobs for the socket tests.
#: Twelve connect attempts back off for 0.85 s in all, which outlasts
#: the 0.5 s partition window of the socket-chaos case; a frame may go
#: unacknowledged for 4 s (40 deadlines of 0.1 s) before the give-up.
FAST = TransportConfig(
    connect_timeout=1.0,
    connect_attempts=12,
    backoff_base=0.01,
    backoff_max=0.1,
    send_deadline=0.1,
    max_retries=40,
    stall_timeout=15.0,
)


# -- framing -----------------------------------------------------------------


class TestFraming:
    def test_roundtrip(self):
        reader = FrameReader()
        wire = encode_frame(7, KIND_MSG, b"hello") + encode_frame(8, KIND_ACK)
        assert reader.feed(wire) == [(7, KIND_MSG, b"hello"), (8, KIND_ACK, b"")]

    def test_incremental_feed(self):
        reader = FrameReader()
        wire = encode_frame(1, KIND_MSG, b"x" * 100)
        out = []
        for i in range(0, len(wire), 7):
            out.extend(reader.feed(wire[i : i + 7]))
        assert out == [(1, KIND_MSG, b"x" * 100)]

    def test_crc_mismatch_raises(self):
        wire = bytearray(encode_frame(1, KIND_MSG, b"payload"))
        wire[-1] ^= 0xFF
        with pytest.raises(FrameError, match="CRC"):
            FrameReader().feed(bytes(wire))

    def test_zero_length_raises(self):
        header = FRAME_HEADER.pack(0, 0, 1)
        with pytest.raises(FrameError, match="out of range"):
            FrameReader().feed(header)

    def test_oversize_refused_on_encode_and_decode(self):
        with pytest.raises(FrameError):
            encode_frame(1, KIND_MSG, b"x" * MAX_FRAME_PAYLOAD)
        header = FRAME_HEADER.pack(MAX_FRAME_PAYLOAD + 1, 0, 1)
        with pytest.raises(FrameError, match="out of range"):
            FrameReader().feed(header)


# -- the surface drivers call on either backend ------------------------------


class TestTransportProtocol:
    def test_syncnetwork_close_is_a_noop(self):
        sim = Simulator()
        net = SyncNetwork(sim, seed=1)
        got = []
        net.register("a", got.append)
        net.send("a", "a", "x")
        net.close()  # drivers close either backend; simulation holds nothing
        assert net.run_until(1.0) == 1
        assert [m.payload for m in got] == ["x"]

    def test_realnetwork_requires_custodians(self):
        with pytest.raises(ConfigurationError, match="custodian"):
            RealNetwork(Simulator())


# -- real sockets: conveyance and robustness ---------------------------------


def _twin_sends(net):
    """Issue the same seeded traffic on either backend; return the log."""
    log = []
    for node in ("a", "b", "c"):
        net.register(
            node,
            lambda msg, n=node: log.append(
                (n, msg.sender, msg.payload, msg.deliver_at)
            ),
        )
    for i in range(12):
        net.send("a", ("b", "c")[i % 2], ("tx", i))
    net.run_until(5.0)
    return log


def _blackhole():
    """A TCP listener that accepts and reads but never answers."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(8)
    sock.settimeout(0.05)
    port = sock.getsockname()[1]
    stop = threading.Event()

    def run():
        conns = []
        while not stop.is_set():
            try:
                conn, _ = sock.accept()
                conn.settimeout(0.05)
                conns.append(conn)
            except OSError:
                pass
            for conn in conns:
                try:
                    conn.recv(65536)
                except OSError:
                    pass
        for conn in conns:
            conn.close()
        sock.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return port, stop, thread


@pytest.mark.realnet
def test_custodian_counts_every_ack_across_concurrent_connections():
    before = threading.active_count()
    server, stop = start_server_thread()
    clients, frames = 8, 200
    wire = b"".join(encode_frame(seq, KIND_MSG, b"x") for seq in range(frames))

    def client():
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(wire)
            reader, acks = FrameReader(), []
            while len(acks) < frames:
                acks += reader.feed(sock.recv(65536))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        stop()
    assert server.frames_acked == clients * frames
    assert threading.active_count() == before  # stop() joined every thread


@pytest.mark.realnet
class TestRealNetwork:
    def test_conveyed_delivery_matches_simulator(self):
        sim_log = _twin_sends(SyncNetwork(Simulator(), seed=1))
        server, stop = start_server_thread()
        reg = MetricsRegistry()
        net = RealNetwork(
            Simulator(),
            seed=1,
            custodians=(("p0", server.host, server.port),),
            config=FAST,
            obs=reg,
        )
        try:
            real_log = _twin_sends(net)
        finally:
            net.close()
            stop()
        assert real_log == sim_log
        assert server.frames_acked == len(real_log)
        metrics = transport_metrics(reg)
        assert metrics["frames"].value_of(direction="out") >= len(real_log)
        assert metrics["bytes"].value_of(direction="in") > 0

    def test_unreachable_peer_raises_structured_error(self):
        # Bind-then-close guarantees nothing listens on the port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        cfg = TransportConfig(
            connect_timeout=0.5,
            connect_attempts=3,
            backoff_base=0.005,
            backoff_max=0.02,
            stall_timeout=5.0,
        )
        net = RealNetwork(
            Simulator(),
            seed=1,
            custodians=(("ghost", "127.0.0.1", dead_port),),
            config=cfg,
        )
        try:
            net.register("a", lambda *args: None)
            net.send("a", "a", "doomed")
            with pytest.raises(PeerUnreachableError) as excinfo:
                net.run_until(5.0)
        finally:
            net.close()
        assert excinfo.value.peer == "ghost"
        assert excinfo.value.attempts == 3

    def test_reconnect_after_peer_restart(self):
        server, stop = start_server_thread()
        port = server.port
        reg = MetricsRegistry()
        net = RealNetwork(
            Simulator(),
            seed=1,
            custodians=(("p0", "127.0.0.1", port),),
            config=FAST,
            obs=reg,
        )
        stop2 = None
        try:
            net.register("a", lambda *args: None)
            net.register("b", lambda *args: None)
            net.send("a", "b", "before")
            net.run_until(1.0)
            stop()  # kill the peer...
            time.sleep(0.05)
            server2, stop2 = start_server_thread(port=port)  # ...and revive it
            net.send("a", "b", "after")
            net.run_until(2.0)
            assert server2.frames_acked >= 1
        finally:
            net.close()
            if stop2 is not None:
                stop2()
        metrics = transport_metrics(reg)
        assert metrics["reconnects"].value_of(peer="p0") >= 1

    def test_mute_peer_exhausts_the_retransmit_budget(self):
        port, stop, thread = _blackhole()
        cfg = TransportConfig(send_deadline=0.05, max_retries=3, stall_timeout=5.0)
        net = RealNetwork(
            Simulator(),
            seed=1,
            custodians=(("mute", "127.0.0.1", port),),
            config=cfg,
        )
        began = time.monotonic()
        try:
            net.register("a", lambda *args: None)
            net.send("a", "a", "unheard")
            with pytest.raises(PeerUnreachableError) as excinfo:
                net.run_until(5.0)
        finally:
            net.close()
            stop.set()
            thread.join(timeout=2.0)
        assert excinfo.value.peer == "mute"
        assert excinfo.value.attempts == cfg.max_retries + 1
        # Four transmissions, 0.05 s apart: far inside the stall watchdog.
        assert time.monotonic() - began < 1.0

    def test_conveyed_run_starts_no_thread(self):
        handle = launch_custodians(1)
        before = threading.active_count()
        try:
            net = RealNetwork(
                Simulator(), seed=1, custodians=tuple(handle.addresses), config=FAST
            )
            try:
                log = _twin_sends(net)
                assert threading.active_count() == before
            finally:
                net.close()
        finally:
            handle.close()
        assert len(log) == 12
        assert threading.active_count() == before

    def test_lossy_proxy_forces_deadline_retransmits(self):
        server, stop = start_server_thread()
        plan = FaultPlan(seed=97).with_default_link(LinkFaultSpec(loss=0.3))
        proxy, pstop = start_proxy_thread("127.0.0.1", server.port, plan)
        reg = MetricsRegistry()
        net = RealNetwork(
            Simulator(),
            seed=1,
            custodians=(("p0", "127.0.0.1", proxy.port),),
            config=FAST,
            obs=reg,
        )
        try:
            log = _twin_sends(net)
        finally:
            net.close()
            pstop()
            stop()
        # Every message still arrives, through retransmission.
        assert len(log) == 12
        assert proxy.frames_dropped > 0
        metrics = transport_metrics(reg)
        assert metrics["deadline_expiries"].value > 0
        assert metrics["retransmits"].value > 0


# -- socket chaos: the same seeded scenario over both backends ----------------

SCENARIO = ClusterScenario(rounds=2, batch=8, seed=5)


# -- launching custodian processes ---------------------------------------------

CUSTODIAN_DRIVER_THAT_DIES = """
import os, signal
from repro.network.cluster import launch_custodians

handle = launch_custodians(3)
print(*[proc.pid for proc in handle.procs], flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _ack(host, port):
    """Convey one ``MSG`` frame to ``(host, port)``; return the frames read back."""
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.settimeout(5.0)
        sock.sendall(encode_frame(7, KIND_MSG, b"payload"))
        reader, frames = FrameReader(), []
        while not frames:
            frames = reader.feed(sock.recv(4096))
    return frames


@pytest.mark.realnet
class TestLaunch:
    def test_custodians_are_named_in_launch_order_and_each_acks(self):
        handle = launch_custodians(3)
        try:
            assert [name for name, _, _ in handle.addresses] == [
                "peer-0", "peer-1", "peer-2"
            ]
            assert [proc.name for proc in handle.procs] == [
                "custodian-0", "custodian-1", "custodian-2"
            ]
            for _, host, port in handle.addresses:
                assert _ack(host, port) == [(7, KIND_ACK, b"")]
        finally:
            handle.close()
        assert [proc.exitcode for proc in handle.procs] == [-signal.SIGTERM] * 3

    def test_a_dead_custodians_port_refuses_at_once(self):
        # Each child closes its siblings' listening sockets before it
        # serves, and the driver its own copies, so once every peer has
        # acked, only peer-0's process listens on peer-0's port.
        handle = launch_custodians(3)
        try:
            for _, host, port in handle.addresses:
                assert _ack(host, port) == [(7, KIND_ACK, b"")]
            (_, host, port), (_, host1, port1) = handle.addresses[:2]
            handle.procs[0].kill()
            handle.procs[0].join()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection((host, port), timeout=5.0).close()
            assert _ack(host1, port1) == [(7, KIND_ACK, b"")]
        finally:
            handle.close()

    def test_launch_refuses_to_fork_beside_a_live_thread(self):
        server, stop = start_server_thread()
        try:
            with pytest.raises(ConfigurationError, match="live threads") as err:
                launch_custodians(2)
            assert "node-server" in str(err.value)
            assert [
                proc.name for proc in multiprocessing.active_children()
                if proc.name.startswith("custodian-")
            ] == []
        finally:
            stop()
        handle = launch_custodians(2)
        try:
            assert [proc.is_alive() for proc in handle.procs] == [True, True]
        finally:
            handle.close()

    def test_driver_death_takes_every_custodian_with_it(self, tmp_path):
        with open(tmp_path / "stderr", "w+", encoding="utf-8") as stderr:
            driver = subprocess.Popen(
                [sys.executable, "-c", CUSTODIAN_DRIVER_THAT_DIES],
                env=dict(os.environ, PYTHONPATH=_SRC),
                stdout=subprocess.PIPE, stderr=stderr, text=True,
            )
            with driver:
                pids = [int(pid) for pid in driver.stdout.readline().split()]
                returncode = driver.wait(timeout=60)
            stderr.seek(0)
            assert (returncode, len(pids)) == (-signal.SIGKILL, 3), stderr.read()
        try:
            assert still_running(pids, within=5.0) == []
        finally:
            for pid in pids:  # orphans: nothing else will end them
                if not exited(pid):
                    os.kill(pid, signal.SIGKILL)


def _servers(count):
    pairs = [start_server_thread() for _ in range(count)]
    custodians = [
        (f"peer-{i}", server.host, server.port)
        for i, (server, _) in enumerate(pairs)
    ]
    def stop_all():
        for _, stop in pairs:
            stop()
    return custodians, stop_all


@pytest.mark.realnet
class TestBackendParity:
    def test_socket_chaos_commits_identical_tip(self):
        """Loss+dup+reorder+partition at the wire; history unchanged.

        The chaos plan lives at the *socket* boundary (proxies), so the
        simulator run sees no faults at all — yet the real run must
        commit the same tip: socket chaos may delay, never corrupt.
        """
        sim = run_scenario(SCENARIO, backend="sim")
        custodians, stop_all = _servers(2)
        chaos = (
            FaultPlan(seed=31)
            .with_default_link(
                LinkFaultSpec(loss=0.05, duplicate=0.05, reorder=0.03)
            )
            .with_partition(("any",), start=0.4, end=0.9)
        )
        proxies = [
            start_proxy_thread(host, port, chaos) for _, host, port in custodians
        ]
        proxied = [
            (name, "127.0.0.1", proxy.port)
            for (name, _, _), (proxy, _) in zip(custodians, proxies)
        ]
        reg = MetricsRegistry()
        try:
            real = run_scenario(
                SCENARIO, backend="real", custodians=proxied,
                config=FAST, obs=reg,
            )
        finally:
            for _, pstop in proxies:
                pstop()
            stop_all()
        assert real["tip"] == sim["tip"]
        assert real["height"] == sim["height"]
        assert real["audit_clean"]
        assert real["violations"] == 0
        # The robustness machinery actually fired: the partition window
        # killed connections and the drivers reconnected with backoff.
        dropped = sum(proxy.frames_dropped for proxy, _ in proxies)
        killed = sum(proxy.connections_killed for proxy, _ in proxies)
        metrics = transport_metrics(reg)
        reconnects = sum(
            metrics["reconnects"].value_of(peer=name) for name, _, _ in proxied
        )
        assert dropped > 0
        assert killed > 0 or reconnects > 0
        assert metrics["retransmits"].value > 0
