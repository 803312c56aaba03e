"""Named end-to-end scenarios: reproducible experiment presets.

A scenario bundles everything a full-protocol run needs — topology
shape, parameters, collector behaviours, workload, stake split, rounds —
under a name, so benches, the CLI, and downstream users launch identical
configurations.  :func:`build_engine` materialises a scenario into a
ready :class:`~repro.core.protocol.ProtocolEngine` plus its workload.

The registry covers the configurations the experiments use:

* ``smoke`` — tiny and fast, for CI sanity;
* ``paper-default`` — the Figure-1 shape (r = 8 collectors per provider
  slice) with the standard 2-honest/6-adversarial mix;
* ``hostile-majority`` — most collectors invert labels;
* ``sleeper-attack`` — reputation farming then defection;
* ``forgery-storm`` — aggressive fabrication attempts;
* ``carsharing-rush`` / ``insurance-fraud`` — the Section-5 domains'
  protocol-level equivalents (diurnal load / directional whitewashing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.agents.behaviors import (
    AlwaysInvertBehavior,
    CollectorBehavior,
    ForgeBehavior,
    MisreportBehavior,
    SleeperBehavior,
    standard_adversary_mix,
)
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.exceptions import ConfigurationError
from repro.network.topology import Topology
from repro.workloads.generator import (
    BernoulliWorkload,
    BurstyWorkload,
    PerProviderWorkload,
    WorkloadGenerator,
)

__all__ = [
    "Scenario",
    "SCENARIOS",
    "DurableScenario",
    "DURABLE_SCENARIOS",
    "ShardScenario",
    "SHARD_SCENARIOS",
    "scenario_names",
    "durable_scenario_names",
    "shard_scenario_names",
    "build_engine",
    "build_durable_engine",
    "build_shard_deployment",
]


@dataclass(frozen=True)
class Scenario:
    """One named experiment preset."""

    name: str
    description: str
    l: int
    n: int
    m: int
    r: int
    params: ProtocolParams
    rounds: int
    batch: int
    behavior_factory: Callable[[Topology], Mapping[str, CollectorBehavior]]
    workload_factory: Callable[[Topology, int], WorkloadGenerator]
    stake: Mapping[str, int] | None = None

    def topology(self) -> Topology:
        """The scenario's link structure."""
        return Topology.regular(l=self.l, n=self.n, m=self.m, r=self.r)


def _no_adversaries(_topo: Topology) -> dict:
    return {}


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
    ]
}


@dataclass(frozen=True)
class ShardScenario:
    """A named sharded-deployment preset.

    Materialised by :func:`build_shard_deployment` into a
    :class:`~repro.sharding.ShardCoordinator` plus a
    :class:`~repro.workloads.xshard.CrossShardWorkload`; the node
    counts are deployment-wide totals, split evenly across ``shards``.
    """

    name: str
    description: str
    l: int
    n: int
    m: int
    r: int
    shards: int
    params: ProtocolParams
    rounds: int
    #: Specs offered per super-round (router-buffered beyond capacity).
    batch: int
    p_cross: float
    epoch_rounds: int | None = None


SHARD_SCENARIOS: dict[str, ShardScenario] = {
    s.name: s
    for s in [
        ShardScenario(
            name="sharded-smoke",
            description="two tiny shards with light cross-shard traffic",
            l=8, n=4, m=4, r=2, shards=2,
            params=ProtocolParams(f=0.5, delta=0.2, b_limit=16),
            rounds=5, batch=16, p_cross=0.2,
        ),
        ShardScenario(
            name="sharded-quad",
            description="four shards, saturating load, epoch reshuffles",
            l=24, n=8, m=8, r=2, shards=4,
            params=ProtocolParams(f=0.5, delta=0.2, b_limit=16),
            rounds=12, batch=80, p_cross=0.15, epoch_rounds=4,
        ),
    ]
}


@dataclass(frozen=True)
class DurableScenario:
    """A named durable-ledger preset for the networked engine.

    Materialised by :func:`build_durable_engine`; the same preset run
    with ``storage_dir=None`` is the in-memory control that durable runs
    must match bit-for-bit (tip hash), which is what the kill-restart
    chaos harness asserts.
    """

    name: str
    description: str
    l: int
    n: int
    m: int
    r: int
    params: ProtocolParams
    rounds: int
    batch: int
    max_delay: float
    checkpoint_interval: int
    segment_bytes: int


DURABLE_SCENARIOS: dict[str, DurableScenario] = {
    s.name: s
    for s in [
        DurableScenario(
            name="durable-smoke",
            description="small networked run committing to a segment log",
            l=8, n=4, m=3, r=2,
            params=ProtocolParams(f=0.5, delta=0.2),
            rounds=6, batch=8, max_delay=0.05,
            checkpoint_interval=2, segment_bytes=4096,
        ),
        DurableScenario(
            name="durable-soak",
            description="longer durable run with frequent checkpoints",
            l=12, n=6, m=3, r=3,
            params=ProtocolParams(f=0.5, delta=0.2),
            rounds=20, batch=12, max_delay=0.05,
            checkpoint_interval=4, segment_bytes=8192,
        ),
    ]
}


def scenario_names() -> list[str]:
    """All registered scenario names."""
    return sorted(SCENARIOS)


def durable_scenario_names() -> list[str]:
    """All registered durable-scenario names."""
    return sorted(DURABLE_SCENARIOS)


def build_durable_engine(name: str, seed: int = 0, storage_dir=None):
    """Materialise a named durable scenario on the networked engine.

    With ``storage_dir`` set, the engine opens (and, on restart,
    recovers) a :class:`~repro.storage.DurableBlockStore` in that
    directory; with ``None`` it runs the identical configuration purely
    in memory — the bit-identical control for recovery tests.

    Returns:
        ``(engine, workload, scenario)``; run it with
        ``for _ in range(scenario.rounds):
        engine.run_round(workload.take(scenario.batch))``.

    Raises:
        ConfigurationError: unknown scenario name.
    """
    # Imported here: the networked engine stack (and with it the storage
    # package) is not needed by in-process scenario users.
    from repro.core.netengine import NetworkedProtocolEngine
    from repro.storage import StorageConfig

    scenario = DURABLE_SCENARIOS.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown durable scenario {name!r}; available: {durable_scenario_names()}"
        )
    topo = Topology.regular(l=scenario.l, n=scenario.n, m=scenario.m, r=scenario.r)
    storage = (
        StorageConfig(
            directory=storage_dir,
            checkpoint_interval=scenario.checkpoint_interval,
            segment_bytes=scenario.segment_bytes,
        )
        if storage_dir is not None
        else None
    )
    engine = NetworkedProtocolEngine(
        topo,
        scenario.params,
        seed=seed,
        max_delay=scenario.max_delay,
        storage=storage,
    )
    workload = BernoulliWorkload(topo.providers, p_valid=0.8, seed=seed + 1)
    return engine, workload, scenario


def shard_scenario_names() -> list[str]:
    """All registered sharded-scenario names."""
    return sorted(SHARD_SCENARIOS)


def build_shard_deployment(name: str, seed: int = 0, workers: int | None = None):
    """Materialise a named sharded scenario.

    Args:
        workers: forwarded to :class:`~repro.sharding.ShardCoordinator` —
            ``None``/``1`` runs every shard engine in-process, ``>= 2``
            spawns that many worker processes (same seed, bit-identical
            ledgers, multi-core wall-clock).

    Returns:
        ``(coordinator, workload, scenario)``; run it with
        ``coordinator.submit(workload.take(scenario.batch))`` +
        ``coordinator.run_super_round()`` per round, then
        ``coordinator.finalize()``.

    Raises:
        ConfigurationError: unknown scenario name.
    """
    # Imported here: repro.sharding pulls in the networked engine stack,
    # which the in-process scenario users never need.
    from repro.sharding import ShardCoordinator
    from repro.workloads.xshard import CrossShardWorkload

    scenario = SHARD_SCENARIOS.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown shard scenario {name!r}; available: {shard_scenario_names()}"
        )
    sharded = Topology.sharded(
        l=scenario.l, n=scenario.n, m=scenario.m, r=scenario.r,
        shards=scenario.shards,
    )
    coordinator = ShardCoordinator(
        sharded,
        scenario.params,
        seed=seed,
        epoch_rounds=scenario.epoch_rounds,
        workers=workers,
    )
    providers = [p for topo in sharded.shards for p in topo.providers]
    inner = BernoulliWorkload(providers, p_valid=0.8, seed=seed + 1)
    workload = CrossShardWorkload(
        inner, sharded.provider_shard, p_cross=scenario.p_cross, seed=seed + 2
    )
    return coordinator, workload, scenario


def build_engine(
    name: str, seed: int = 0
) -> tuple[ProtocolEngine, WorkloadGenerator, Scenario]:
    """Materialise a named scenario.

    Returns:
        (engine, workload, scenario); run it with
        ``for _ in range(scenario.rounds): engine.run_round(workload.take(scenario.batch))``.

    Raises:
        ConfigurationError: unknown scenario name.
    """
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {scenario_names()}"
        )
    topo = scenario.topology()
    engine = ProtocolEngine(
        topo,
        scenario.params,
        behaviors=scenario.behavior_factory(topo),
        seed=seed,
        stake=dict(scenario.stake) if scenario.stake else None,
    )
    workload = scenario.workload_factory(topo, seed + 1)
    return engine, workload, scenario
