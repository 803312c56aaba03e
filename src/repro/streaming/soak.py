"""Nightly chaos soak: a flash-sale load shape over a chaotic TCP cluster.

The transport parity gate
(``tests/test_transport.py::TestBackendParity``) proves one seeded
scenario commits the bit-identical tip through socket chaos.  This soak hardens that claim
against the streaming subsystem's nastiest traffic, a load it builds
itself: :class:`~repro.workloads.arrivals.BurstyArrivals` spikes,
uniform buyer selection over a virtual universe, ticket-order payloads
with a victim-buyer slice — plus a **scalper-cartel** adversary mix
(a colluding collector concealing the victim's transactions beside a
misreporter), replayed over and over through
:class:`~repro.faults.proxy.TransportFaultProxy` chaos (frame loss,
duplication, reordering) until a wall-clock budget runs out.

Every iteration uses a fresh seed and asserts the parity contract from
scratch: the chaotic real run must commit the same tip, height and sim
clock as the pure simulator run of the identical scenario, with a clean
safety audit on both sides.  The budget, not an iteration count, bounds
the run — a 10-second smoke and a 10-minute nightly soak exercise the
same code with the same assertions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.byzantine.strategies import CartelPlan, ColludingCollectorBehavior
from repro.agents.behaviors import MisreportBehavior
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.faults.proxy import start_proxy_thread
from repro.network.cluster import ClusterScenario, launch_custodians, run_scenario
from repro.network.realnet import TransportConfig
from repro.network.topology import Topology, collector_id
from repro.streaming.universe import VirtualUniverse
from repro.streaming.workload import StreamingWorkload
from repro.workloads.arrivals import BurstyArrivals
from repro.workloads.generator import TxSpec

__all__ = ["SoakReport", "chaos_soak", "flash_sale_cluster_scenario"]

#: Wall-clock-snappy transport knobs (same machinery as the defaults,
#: tightened so each chaotic iteration converges in seconds).
SOAK_CONFIG = TransportConfig(
    connect_timeout=1.0,
    connect_attempts=10,
    backoff_base=0.02,
    backoff_max=0.25,
    send_deadline=0.3,
    max_retries=24,
    stall_timeout=30.0,
)


def _flash_sale_workload(scenario: ClusterScenario, topology: Topology):
    """Per-round spec source: the flash-sale stream at cluster scale.

    The virtual universe is sized to the cluster topology, so every
    emitted provider id names a real enrolled provider; spikes beyond
    the packing budget are clipped (the cluster engine, unlike
    :class:`~repro.streaming.app.StreamingApp`, has no backlog).
    """
    virtual = VirtualUniverse(
        universe=len(topology.providers),
        n=scenario.n,
        m=scenario.m,
        r=scenario.r,
    )
    victim = "p0"

    def enrich(spec: TxSpec, index: int, rng) -> TxSpec:
        provider = victim if index % 7 == 3 else spec.provider
        payload = {
            "buyer": provider,
            "event": "soak-onsale",
            "quantity": 1 + rng.integers(4),
            "human": spec.is_valid,
        }
        return TxSpec(provider=provider, payload=payload, is_valid=spec.is_valid)

    workload = StreamingWorkload(
        virtual,
        arrivals=BurstyArrivals(
            rate=4.0, burst_rate=40.0, p_burst=0.3, p_end=0.3,
            seed=scenario.seed + 1,
        ),
        seed=scenario.seed + 1,
        p_valid=0.75,
        spec_hook=enrich,
    )
    budget = scenario.params().b_limit - 8  # headroom for re-evaluations

    def next_batch(round_number: int) -> list[TxSpec]:
        return workload.for_round(round_number)[:budget]

    return next_batch


def flash_sale_cluster_scenario(seed: int, rounds: int = 3) -> ClusterScenario:
    """One soak iteration's scenario: flash-sale load + scalper cartel."""
    plan = CartelPlan(target_provider="p0", mode="conceal")
    behaviors = {
        collector_id(2): ColludingCollectorBehavior(plan),
        collector_id(3): MisreportBehavior(0.5),
    }
    return ClusterScenario(
        l=8, n=4, m=4, r=2,
        rounds=rounds,
        seed=seed,
        behaviors=behaviors,
        workload_factory=_flash_sale_workload,
    )


@dataclass
class SoakReport:
    """Aggregate outcome of one soak run."""

    iterations: int = 0
    committed: int = 0
    tips_matched: int = 0
    audits_clean: int = 0
    proxy_frames_dropped: int = 0
    proxy_frames_duplicated: int = 0
    wall_s: float = 0.0

    @property
    def all_ok(self) -> bool:
        """Every iteration matched tips and audited clean."""
        return (
            self.iterations > 0
            and self.tips_matched == self.iterations
            and self.audits_clean == self.iterations
        )


def chaos_soak(
    budget_s: float,
    seed: int = 0,
    peers: int = 2,
    rounds_per_iteration: int = 3,
) -> SoakReport:
    """Replay fresh-seeded flash-sale scenarios through socket chaos.

    Runs at least one iteration, then keeps going until ``budget_s``
    wall-clock seconds have elapsed.  Each iteration commits the same
    scenario twice — simulator baseline, then the real transport behind
    chaos proxies — and scores tip equality and audit cleanliness.
    """
    report = SoakReport()
    t0 = time.monotonic()
    deadline = t0 + budget_s
    handle = launch_custodians(peers)
    plan = (
        FaultPlan(seed=seed + 99)
        .with_default_link(LinkFaultSpec(loss=0.05, duplicate=0.05, reorder=0.03))
    )
    proxies = [
        start_proxy_thread(host, port, plan)
        for _, host, port in handle.addresses
    ]
    try:
        proxied = [
            (name, "127.0.0.1", proxy.port)
            for (name, _, _), (proxy, _) in zip(handle.addresses, proxies)
        ]
        iteration = 0
        while iteration == 0 or time.monotonic() < deadline:
            scenario = flash_sale_cluster_scenario(
                seed + iteration, rounds=rounds_per_iteration
            )
            sim = run_scenario(scenario, backend="sim")
            chaos = run_scenario(
                scenario, backend="real",
                custodians=proxied, config=SOAK_CONFIG,
            )
            report.iterations += 1
            report.committed += chaos["committed"]
            if (
                sim["tip"] == chaos["tip"]
                and sim["height"] == chaos["height"]
                and sim["clock"] == chaos["clock"]
            ):
                report.tips_matched += 1
            if (
                sim["audit_clean"] and chaos["audit_clean"]
                and sim["violations"] == 0 and chaos["violations"] == 0
            ):
                report.audits_clean += 1
            iteration += 1
        report.proxy_frames_dropped = sum(p.frames_dropped for p, _ in proxies)
        report.proxy_frames_duplicated = sum(
            p.frames_duplicated for p, _ in proxies
        )
    finally:
        for _, stop in proxies:
            stop()
        handle.close()
    report.wall_s = time.monotonic() - t0
    return report
