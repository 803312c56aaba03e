"""Named end-to-end scenarios: one preset type, one registry, one builder.

The paper defines one deployment — ``l`` providers, ``n`` collectors,
``m`` governors, link degree ``r``, the tunables of
:class:`~repro.core.params.ProtocolParams` — and a :class:`Scenario`
names one instance of it plus the agent behaviours, an optional partial
view, the workload, the round count and the *host* that executes the round:

* ``inproc`` — :class:`~repro.core.protocol.ProtocolEngine`;
* ``net`` — :class:`~repro.core.netengine.NetworkedProtocolEngine`, on an
  fsynced segment log when built with a ``storage_dir``, otherwise the
  in-memory control a durable run must match bit for bit (tip hash);
* ``shard`` — :class:`~repro.sharding.ShardCoordinator`; the node counts
  are deployment-wide totals, split evenly across ``shards``;
* ``stream`` — a :class:`~repro.streaming.app.StreamingApp`; ``l`` is the
  registered (virtual) universe, the app has no adversaries and draws
  its own arrivals (``batch`` specs are offered on top).

:func:`build` materialises a preset, its fault plan installed, into ``(deployment,
workload, scenario)``; every :class:`Deployment` is driven the same way::

    for _ in range(scenario.rounds):
        deployment.run_round(workload.take(scenario.batch))
    deployment.finalize()
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Mapping, Protocol, Sequence, runtime_checkable

from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    ArgueAbuse,
    CollectorBehavior,
    ForgeBehavior,
    MisreportBehavior,
    SleeperBehavior,
    standard_adversary_mix,
)
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.exceptions import ConfigurationError
from repro.network.topology import ShardedTopology, Topology
from repro.workloads.generator import (
    BernoulliWorkload,
    BurstyWorkload,
    PerProviderWorkload,
    TxSpec,
    WorkloadGenerator,
)

if TYPE_CHECKING:  # names only: in-process runs never load these stacks
    from repro.audit.auditor import AuditReport
    from repro.faults.plan import FaultPlan

__all__ = [
    "Deployment", "Scenario", "SCENARIOS", "scenario_names", "build", "reject_unread",
]

#: The optional preset fields and build options each host reads (a ``stream``
#: app has no adversaries and draws its own workload).
HOST_READS = {
    "inproc": {"behavior_factory", "visibility"},
    "net": {
        "behavior_factory", "visibility", "faults", "resilience", "storage_dir", "custodians",
    },
    "shard": {"behavior_factory", "epoch_rounds", "faults", "resilience", "workers"},
    "stream": set(),
}


@runtime_checkable
class Deployment(Protocol):
    """What every deployment :func:`build` returns answers, on any host."""

    def run_round(self, specs: Sequence[TxSpec]) -> object: ...
    def finalize(self) -> object:
        """Close the books: after it no admitted record is left unpacked."""
    def close(self) -> None: ...
    @property
    def committed_total(self) -> int: ...  # origin records committed
    def tip_hashes(self) -> list[str]: ...  # one per shard, in hex
    @property
    def audit_report(self) -> AuditReport: ...  # the deployment's harness verdicts


def _no_adversaries(_topo: Topology) -> dict:
    return {}


def _mostly_valid(topo: Topology, seed: int) -> WorkloadGenerator:
    return BernoulliWorkload(topo.providers, p_valid=0.8, seed=seed)


@dataclass(frozen=True)
class Scenario:
    """One named experiment preset (the module docstring has the hosts)."""

    name: str
    description: str
    l: int
    n: int
    m: int
    r: int
    params: ProtocolParams
    rounds: int
    #: Specs offered per round (router-buffered beyond a shard's capacity).
    batch: int
    #: Agent id -> behaviour: a collector's ``CollectorBehavior``, a
    #: provider's ``ArgueAbuse``.
    behavior_factory: Callable[
        [Topology], Mapping[str, CollectorBehavior | ArgueAbuse]
    ] = _no_adversaries
    workload_factory: Callable[[Topology, int], WorkloadGenerator] = _mostly_valid
    host: str = "inproc"
    # ``shard`` hosts.
    shards: int = 1
    p_cross: float = 0.0
    epoch_rounds: int | None = None
    # ``net`` hosts built with a ``storage_dir``.
    checkpoint_interval: int = 8
    segment_bytes: int = 1 << 20
    # Engine arguments, read by the hosts HOST_READS names.  ``faults`` gets
    # ``(topology(), seed)``: one plan on ``net``, one per shard on ``shard``.
    faults: Callable[[Topology, int], FaultPlan | Sequence[FaultPlan]] | None = None
    #: ``(topology(), seed)`` -> that topology under a partial view
    #: (e.g. ``Topology.random_partial``).
    visibility: Callable[[Topology, int], Topology] | None = None
    resilience: bool = False

    def topology(self) -> Topology | ShardedTopology:
        """The scenario's link structure (partitioned on a ``shard`` host)."""
        if self.host == "shard":
            return Topology.sharded(
                l=self.l, n=self.n, m=self.m, r=self.r, shards=self.shards
            )
        return Topology.regular(l=self.l, n=self.n, m=self.m, r=self.r)


def _standard_mix(topo: Topology) -> dict:
    return dict(zip(topo.collectors, standard_adversary_mix()))


def _hostile_majority(topo: Topology) -> dict:
    return {c: AlwaysInvertBehavior() for c in topo.collectors[2:]}


def _sleepers(topo: Topology) -> dict:
    return {c: SleeperBehavior(honest_prefix=200) for c in topo.collectors[2:]}


def _forgers(topo: Topology) -> dict:
    return {c: ForgeBehavior(0.5) for c in topo.collectors[: topo.n // 2]}


def _whitewashers(topo: Topology) -> dict:
    # Directional misreporting like the insurance commission bias: model
    # with an aggressive misreporter population slice.
    return {c: MisreportBehavior(0.7) for c in topo.collectors[:2]}


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in [
        Scenario(
            name="smoke",
            description="tiny, fast sanity run",
            l=4, n=4, m=3, r=2,
            params=ProtocolParams(f=0.5),
            rounds=3, batch=8,
            behavior_factory=_no_adversaries,
            workload_factory=lambda topo, seed: BernoulliWorkload(
                topo.providers, p_valid=0.8, seed=seed
            ),
        ),
        Scenario(
            name="paper-default",
            description="Figure-1 shape with the standard adversary mix",
            l=16, n=8, m=4, r=4,
            params=ProtocolParams(f=0.5, beta=0.9),
            rounds=25, batch=32,
            behavior_factory=_standard_mix,
            workload_factory=lambda topo, seed: BernoulliWorkload(
                topo.providers, p_valid=0.7, seed=seed
            ),
        ),
        Scenario(
            name="hostile-majority",
            description="6 of 8 collectors always invert labels",
            l=16, n=8, m=4, r=4,
            params=ProtocolParams(f=0.7, beta=0.9),
            rounds=25, batch=32,
            behavior_factory=_hostile_majority,
            workload_factory=lambda topo, seed: BernoulliWorkload(
                topo.providers, p_valid=0.6, seed=seed
            ),
        ),
        Scenario(
            name="sleeper-attack",
            description="reputation farming then coordinated defection",
            l=16, n=8, m=4, r=4,
            params=ProtocolParams(f=0.6, beta=0.9),
            rounds=40, batch=24,
            behavior_factory=_sleepers,
            workload_factory=lambda topo, seed: BernoulliWorkload(
                topo.providers, p_valid=0.7, seed=seed
            ),
        ),
        Scenario(
            name="forgery-storm",
            description="half the collectors fabricate transactions",
            l=16, n=8, m=4, r=4,
            params=ProtocolParams(f=0.5, nu=8.0),
            rounds=20, batch=24,
            behavior_factory=_forgers,
            workload_factory=lambda topo, seed: BernoulliWorkload(
                topo.providers, p_valid=0.8, seed=seed
            ),
        ),
        Scenario(
            name="carsharing-rush",
            description="bursty demand with regime-switching validity",
            l=24, n=8, m=4, r=4,
            params=ProtocolParams(f=0.6),
            rounds=30, batch=24,
            behavior_factory=_standard_mix,
            workload_factory=lambda topo, seed: BurstyWorkload(
                topo.providers, p_good=0.95, p_bad=0.3, stay=0.97, seed=seed
            ),
        ),
        Scenario(
            name="insurance-fraud",
            description="heterogeneous applicants, whitewashing agents",
            l=20, n=10, m=4, r=5,
            params=ProtocolParams(f=0.5, mu=3.0),
            rounds=30, batch=20,
            behavior_factory=_whitewashers,
            workload_factory=lambda topo, seed: PerProviderWorkload(
                topo.providers, alpha=6.0, beta=2.0, seed=seed
            ),
        ),
        Scenario(
            name="sharded-smoke",
            description="two tiny shards with light cross-shard traffic",
            host="shard",
            l=8, n=4, m=4, r=2, shards=2,
            params=ProtocolParams(f=0.5, delta=0.2, b_limit=16),
            rounds=5, batch=16, p_cross=0.2,
        ),
        Scenario(
            name="sharded-quad",
            description="four shards, saturating load, epoch reshuffles",
            host="shard",
            l=24, n=8, m=8, r=2, shards=4,
            params=ProtocolParams(f=0.5, delta=0.2, b_limit=16),
            rounds=12, batch=80, p_cross=0.15, epoch_rounds=4,
        ),
        Scenario(
            name="durable-smoke",
            description="small networked run committing to a segment log",
            host="net",
            l=8, n=4, m=3, r=2,
            params=ProtocolParams(f=0.5, delta=0.2),
            rounds=6, batch=8,
            checkpoint_interval=2, segment_bytes=4096,
        ),
        Scenario(
            name="durable-soak",
            description="longer durable run with frequent checkpoints",
            host="net",
            l=12, n=6, m=3, r=3,
            params=ProtocolParams(f=0.5, delta=0.2),
            rounds=20, batch=12,
            checkpoint_interval=4, segment_bytes=8192,
        ),
        Scenario(
            name="stream-smoke",
            description="synthetic uniform arrivals over a 10^4 universe",
            host="stream",
            l=10_000, n=8, m=4, r=4,
            params=ProtocolParams(f=0.5, b_limit=48),
            rounds=8, batch=0,
        ),
    ]
}


def scenario_names() -> list[str]:
    """All registered scenario names."""
    return sorted(SCENARIOS)


def reject_unread(scenario: Scenario, **options) -> None:
    """``ConfigurationError`` for a set option ``scenario``'s host does not read."""
    unread = [
        name for name, value in options.items()
        if value is not None and name not in HOST_READS[scenario.host]
    ]
    if unread:
        raise ConfigurationError(
            f"scenario {scenario.name!r} runs on the {scenario.host!r} host, "
            f"which does not read {', '.join(unread)}"
        )


def build(
    preset: str | Scenario,
    seed: int = 0,
    *,
    storage_dir=None,
    workers: int | None = None,
    custodians: Sequence[tuple[str, str, int]] | None = None,
    obs=None,
) -> tuple[Deployment, WorkloadGenerator, Scenario]:
    """Materialise a preset (a registered name, or a :class:`Scenario`).

    Args:
        storage_dir: ``net`` hosts — open (and, on restart, recover) a
            :class:`~repro.storage.DurableBlockStore` in this directory.
        workers: ``shard`` hosts — ``None``/``1`` runs every shard engine
            in-process, ``>= 2`` spawns that many worker processes (same
            seed, bit-identical ledgers); ``close()`` the coordinator.
        custodians: ``net`` hosts — convey every message over real sockets
            to these ``(name, host, port)`` custodian peers.
        obs: Metrics registry handed to the deployment.

    Returns:
        ``(deployment, workload, scenario)``, the preset's plans installed.

    Raises:
        ConfigurationError: unknown preset name, a run size out of range
            (``rounds < 1``, ``batch < 0``, ``workers < 1``), or a preset
            field or option the preset's host does not read.
    """
    scenario = SCENARIOS.get(preset) if isinstance(preset, str) else preset
    if scenario is None:
        raise ConfigurationError(
            f"unknown scenario {preset!r}; available: {scenario_names()}"
        )
    for name, value, least in (
        ("rounds", scenario.rounds, 1), ("batch", scenario.batch, 0), ("workers", workers, 1)
    ):
        if value is not None and value < least:
            raise ConfigurationError(f"{name} must be >= {least}, got {value}")
    reject_unread(
        scenario, storage_dir=storage_dir, workers=workers, custodians=custodians,
        faults=scenario.faults, visibility=scenario.visibility,
        resilience=scenario.resilience or None, epoch_rounds=scenario.epoch_rounds,
    )
    # Each stack is imported where it is built: in-process users (and
    # perfbench's tracer, which preloads this module) never pay for the
    # networked, sharded or streaming packages.
    if scenario.host == "stream":
        from repro.streaming.app import StreamingApp

        deployment = StreamingApp(
            universe=scenario.l, n=scenario.n, m=scenario.m, r=scenario.r,
            params=scenario.params, seed=seed, obs=obs,
        )
        return deployment, deployment.workload, scenario
    topo = scenario.topology()
    if scenario.visibility is not None:
        topo = scenario.visibility(topo, seed)
    workload = scenario.workload_factory(topo, seed + 1)
    common = {"behaviors": scenario.behavior_factory(topo), "seed": seed, "obs": obs}
    if scenario.host == "inproc":
        return ProtocolEngine(topo, scenario.params, **common), workload, scenario
    # What build() can refuse is drawn before the deployment exists, so a bad
    # plan or ``p_cross`` leaves no worker pool or socket behind.
    plans = None if scenario.faults is None else scenario.faults(topo, seed)
    if scenario.host == "net":
        from repro.core.netengine import NetworkedProtocolEngine
        from repro.storage import StorageConfig

        storage = None
        if storage_dir is not None:
            storage = StorageConfig(
                directory=storage_dir,
                checkpoint_interval=scenario.checkpoint_interval,
                segment_bytes=scenario.segment_bytes,
            )
        if custodians is not None:
            from repro.network.realnet import RealNetwork

            common["network_factory"] = partial(RealNetwork, custodians=custodians)
        engine = NetworkedProtocolEngine(
            topo, scenario.params, resilience=scenario.resilience, storage=storage,
            **common,
        )
        if plans is not None:
            engine.install_faults(plans)
        return engine, workload, scenario
    from repro.sharding import ShardCoordinator
    from repro.workloads.xshard import CrossShardWorkload

    workload = CrossShardWorkload(
        workload, topo.provider_shard, p_cross=scenario.p_cross, seed=seed + 2
    )
    if plans is not None and len(plans) != scenario.shards:
        raise ConfigurationError(f"{len(plans)} fault plans for {scenario.shards} shards")
    coordinator = ShardCoordinator(
        topo, scenario.params,
        epoch_rounds=scenario.epoch_rounds, resilience=scenario.resilience,
        workers=workers, **common,
    )
    for shard, plan in enumerate(plans or ()):
        coordinator.install_faults(shard, plan)
    return coordinator, workload, scenario
