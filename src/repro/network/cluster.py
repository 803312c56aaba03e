"""Localhost cluster harness: one seeded scenario, both transports.

The parity gate of the transport backend: build the *identical* engine
twice — once on the discrete-event :class:`~repro.network.simnet.SyncNetwork`,
once on :class:`~repro.network.realnet.RealNetwork` wired to an n-peer
localhost cluster — drive the same seeded workload through the
phase-split round API, and compare committed chain tips byte for byte.

Custodian peers are real processes (``python -m
repro.network.custodian``, which boots on the standard library) by
default — :func:`launch_custodians` starts them all, then reads their
address announcements as they arrive against one deadline, and on the
first failure reaps them all, so a launch costs the slowest peer's boot,
not the sum; :func:`run_scenario` also accepts pre-started in-process
servers (tests) or :class:`~repro.faults.proxy.TransportFaultProxy`
addresses (socket chaos).  The distribution split is deliberate and
documented: the driver hosts the agents' logical state, the peers are
transport custodians that every admitted message must physically reach
— deterministic replay over a real wire; moving agent state into the
peers is the ROADMAP's next step, not this one's.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.exceptions import PeerUnreachableError
from repro.faults.plan import FaultPlan
from repro.network.custodian import LISTENING as _LISTENING
from repro.network.realnet import RealNetwork, TransportConfig
from repro.network.topology import Topology
from repro.obs.registry import MetricsRegistry
from repro.workloads.generator import BernoulliWorkload

__all__ = [
    "ClusterHandle",
    "ClusterScenario",
    "launch_custodians",
    "run_scenario",
]

@dataclass(frozen=True)
class ClusterScenario:
    """One seeded run, identical on either backend."""

    l: int = 8
    n: int = 4
    m: int = 4
    r: int = 2
    rounds: int = 4
    batch: int = 12
    seed: int = 5
    p_valid: float = 0.8
    min_delay: float = 0.005
    max_delay: float = 0.05
    resilience: bool = True
    #: Logical fault plan (installed via the engine's FaultInjector) —
    #: applied identically on both backends, part of the seeded schedule.
    plan: FaultPlan | None = None
    #: Optional collector-behaviour map (collector id -> behaviour),
    #: applied identically on both backends.
    behaviors: dict | None = None
    #: Optional workload hook: ``(scenario, topology) -> (round -> specs)``.
    #: Seeded inside the factory, so both backends replay the identical
    #: stream; ``None`` keeps the historical Bernoulli workload.
    workload_factory: Callable | None = None

    def params(self) -> ProtocolParams:
        return ProtocolParams(f=0.5, delta=max(0.2, 2 * self.max_delay), b_limit=64)


@dataclass
class ClusterHandle:
    """Live custodian subprocesses and their bound addresses."""

    procs: list = field(default_factory=list)
    addresses: list = field(default_factory=list)  # (name, host, port)

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
            proc.stdout.close()


def launch_custodians(count: int, startup_timeout: float = 30.0) -> ClusterHandle:
    """Spawn ``count`` custodian peer processes on localhost.

    Every peer is started before any is awaited; each binds an
    OS-assigned port and announces it on stdout.  ``startup_timeout`` is
    the deadline of the whole launch: a peer that has exited or is still
    silent by then aborts it — every started process terminated and
    waited for — with a structured
    :class:`~repro.exceptions.PeerUnreachableError` naming the first.
    """
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Peers are named by launch index, so the addresses keep launch order
    # whatever order the announcements arrive in.
    handle = ClusterHandle(addresses=[None] * count)
    heard = [b""] * count  # stdout so far, by launch index
    try:
        with selectors.DefaultSelector() as selector:
            for i in range(count):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro.network.custodian"],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    env=env,
                )
                handle.procs.append(proc)
                selector.register(proc.stdout, selectors.EVENT_READ, i)
            deadline = time.monotonic() + startup_timeout
            while selector.get_map():  # a peer stays registered until it announces
                events = selector.select(max(0.0, deadline - time.monotonic()))
                if not events:
                    silent = min(key.data for key in selector.get_map().values())
                    raise PeerUnreachableError(
                        f"peer-{silent}",
                        f"custodian announced nothing within {startup_timeout:.0f}s",
                    )
                for key, _ in events:
                    i = key.data
                    chunk = os.read(key.fd, 4096)  # readable, so never blocks
                    heard[i] += chunk
                    if chunk and b"\n" not in heard[i]:
                        continue  # a partial line: keep listening
                    selector.unregister(key.fileobj)
                    match = _LISTENING.search(heard[i].decode(errors="replace"))
                    if match is None:
                        raise PeerUnreachableError(
                            f"peer-{i}",
                            f"custodian announced {heard[i]!r} instead of an address",
                        )
                    handle.addresses[i] = (f"peer-{i}", match.group(1), int(match.group(2)))
    except BaseException:
        handle.close()
        raise
    return handle


def _drive(engine: NetworkedProtocolEngine, scenario: ClusterScenario) -> dict:
    """Run the scenario on either backend.

    The engine advances its clock only through ``network.run_until`` —
    the one method whose meaning differs between backends — so the
    same calls drive the simulated and the real transport.
    """
    if scenario.workload_factory is not None:
        next_batch = scenario.workload_factory(scenario, engine.topology)
    else:
        workload = BernoulliWorkload(
            engine.topology.providers, p_valid=scenario.p_valid,
            seed=scenario.seed + 1,
        )

        def next_batch(rnd: int) -> list:
            return workload.take(scenario.batch)

    committed = 0
    for rnd in range(1, scenario.rounds + 1):
        result = engine.run_round(next_batch(rnd))
        committed += len(result.block.tx_list)
    engine.finalize()
    height = engine.store.height
    return {
        "tip": engine.store.retrieve(height).hash().hex() if height else "",
        "height": height,
        "committed": committed,
        "clock": engine.sim.now,
        "audit_clean": engine.harness_auditor.report.clean,
        "violations": len(engine.harness_auditor.report.violations),
    }


def run_scenario(
    scenario: ClusterScenario,
    backend: str = "sim",
    custodians: Sequence[tuple[str, str, int]] = (),
    config: TransportConfig | None = None,
    obs: MetricsRegistry | None = None,
) -> dict:
    """Execute the scenario on one backend; returns the result summary.

    ``backend="real"`` needs ``custodians`` — ``(name, host, port)``
    triples of live peers (or chaos proxies fronting them).
    """
    factory: Callable | None = None
    if backend == "real":
        if not custodians:
            raise PeerUnreachableError("cluster", "no custodian addresses given")
        peer_addrs = tuple(custodians)
        transport_config = config

        def factory(sim, **kwargs):
            return RealNetwork(
                sim, custodians=peer_addrs, config=transport_config, **kwargs
            )

    topo = Topology.regular(l=scenario.l, n=scenario.n, m=scenario.m, r=scenario.r)
    engine = NetworkedProtocolEngine(
        topo,
        scenario.params(),
        seed=scenario.seed,
        behaviors=dict(scenario.behaviors) if scenario.behaviors else None,
        min_delay=scenario.min_delay,
        max_delay=scenario.max_delay,
        resilience=scenario.resilience,
        obs=obs,
        network_factory=factory,
    )
    if scenario.plan is not None:
        engine.install_faults(scenario.plan)
    try:
        result = _drive(engine, scenario)
    finally:
        engine.close()
    result["backend"] = backend
    return result

