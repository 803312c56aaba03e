"""Localhost cluster harness: one seeded scenario, both transports.

The parity gate of the transport backend: build the *identical* engine
twice — once on the discrete-event :class:`~repro.network.simnet.SyncNetwork`,
once on :class:`~repro.network.realnet.RealNetwork` wired to an n-peer
localhost cluster — drive the same seeded workload through the
phase-split round API, and compare committed chain tips byte for byte.

Custodian peers are real processes by default — :func:`launch_custodians`
binds every peer's port in the driver, forks one child per peer to serve
it and closes the driver's copies, so a launch costs a fork per peer, not
an interpreter start-up, and needs no announcement; a child serves until
it is terminated or its driver is gone.  :func:`run_scenario` also
accepts pre-started in-process servers (tests) or
:class:`~repro.faults.proxy.TransportFaultProxy` addresses (socket
chaos).  The distribution split is deliberate and documented: the
driver hosts the agents' logical state, the peers are transport
custodians that every admitted message must physically reach —
deterministic replay over a real wire; moving agent state into the
peers is the ROADMAP's next step, not this one's.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.exceptions import PeerUnreachableError
from repro.faults.plan import FaultPlan
from repro.network.custodian import NodeServer
from repro.network.realnet import RealNetwork, TransportConfig
from repro.network.topology import Topology
from repro.obs.registry import MetricsRegistry
from repro.parallel.fork import refuse_beside_threads
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
    """Live custodian processes and their bound addresses."""

    procs: list = field(default_factory=list)  # multiprocessing.Process, by index
    addresses: list = field(default_factory=list)  # (name, host, port)

    def close(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.join(10.0)
            if proc.is_alive():
                proc.kill()
                proc.join()


def _custodian_main(servers: list[NodeServer], index: int, driver: int) -> None:
    """A forked custodian: serve until terminated or the ``driver`` pid is gone."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for other in servers[:index] + servers[index + 1:]:
        other.server_close()  # or a dead peer's port would still connect

    def exit_if_orphaned() -> None:
        if os.getppid() != driver:
            raise SystemExit(0)

    with servers[index] as server:
        server.service_actions = exit_if_orphaned
        server.serve_forever(0.05)


def launch_custodians(count: int) -> ClusterHandle:
    """Fork ``count`` custodian peers (``custodian-<index>``) on localhost.

    Every port is bound here before any fork, so ``peer-0..`` are known
    at once (an early connection waits in the listen backlog); then the
    driver closes its copies of the listening sockets.
    """
    refuse_beside_threads("custodians")
    servers: list[NodeServer] = []
    handle = ClusterHandle()
    try:
        for i in range(count):
            servers.append(NodeServer())
            handle.addresses.append((f"peer-{i}", servers[i].host, servers[i].port))
        context, driver = mp.get_context("fork"), os.getpid()
        for i in range(count):
            proc = context.Process(
                target=_custodian_main, args=(servers, i, driver),
                name=f"custodian-{i}", daemon=True,
            )
            proc.start()
            handle.procs.append(proc)
    except BaseException:
        handle.close()
        raise
    finally:
        for server in servers:
            server.server_close()
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
    return {
        "tip": engine.store.tip_hash().hex(),
        "height": engine.store.height,
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

