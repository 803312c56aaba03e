"""The four execution-shape workloads, each a closed loop with one client.

A workload turns ``(seed, rounds)`` into one *run*: build the deployment
(timed as set-up), offer one pre-generated batch per round and wait for
that round's block before offering the next (timed per round and as a
whole, through ``finalize``), then read the outcome back for the
correctness checks.  Every topology, agent, workload and fault seed is
derived from the one benchmark seed, and only public APIs of ``repro`` are
driven.

Wall-clock here is processor, disk, pipe and socket time only: network
latency is *injected* in simulated time (channel delay 5–50 ms, screening
timer Δ = 0.2 s) and costs no wall time.

Why a fixed round count instead of a time box: a round gets slower as the
ledger grows, so two runs are comparable only over the same rounds.
``rounds_per_second`` is the nominal pace of today's code on the 2-core
reference host and only converts ``--seconds`` into that count.
"""

from __future__ import annotations

import hashlib
import resource
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from perfbench import OUT_DIR
from repro.agents.behaviors import ConcealBehavior, MisreportBehavior
from repro.audit.auditor import ViolationType
from repro.core.netengine import NetworkedProtocolEngine
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.ledger.properties import check_all_properties
from repro.network.cluster import ClusterScenario, launch_custodians, run_scenario
from repro.network.topology import Topology
from repro.sharding import ShardCoordinator
from repro.storage import StorageConfig
from repro.workloads.generator import BernoulliWorkload, TxSpec
from repro.workloads.scenarios import SCENARIOS
from repro.workloads.xshard import CrossShardWorkload

__all__ = [
    "REPEATS",
    "RunRecord",
    "Workload",
    "WORKLOADS",
    "derive_seed",
    "peak_rss_mib",
]

#: Timed repeats per measurement; ``--seconds`` is split evenly over them.
REPEATS = 5

#: Empty rounds a run appends, until one commits an empty block, so that
#: late-screened, re-evaluated and slot-starved records reach a block
#: before a transaction is called lost.  (The engines expose no count of
#: what is still waiting, so the blocks themselves are the signal.)
MAX_FLUSH_ROUNDS = 3


def derive_seed(seed: int, purpose: str) -> int:
    """An independent 31-bit seed for one purpose, from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mib() -> float:
    """High-water resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _host_ticks() -> tuple[int, int]:
    """``(demanded, stolen)`` CPU ticks of the whole host since boot.

    ``stolen`` is time a virtual CPU had work but the hypervisor ran
    someone else; ``demanded`` is busy plus stolen.  (0, 0) where the
    kernel does not say (no ``/proc/stat``, no steal column).
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    if len(fields) < 8:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq + steal, steal


class _Meter:
    """Wall window, CPU and host steal of one run's drive loop.

    **CPU** is user+sys of the driver through the drive loop — the
    benchmark's own read-back and checks are not billed to the system —
    plus that of its children.  A child's CPU only becomes visible once it
    is reaped, so :meth:`stamp` is called after teardown and covers a
    worker's or custodian's whole life, start-up included.

    **Steal** is read only to flag a disturbed run; no time is rescaled.
    """

    def __init__(self) -> None:
        self._own = process_time()
        self._children = _children_cpu_s()

    def drive_begins(self) -> None:
        self._ticks = _host_ticks()
        self.start = perf_counter()

    def drive_ends(self) -> None:
        self.end = perf_counter()
        self._driver_s = process_time() - self._own
        demanded, stolen = (b - a for a, b in zip(self._ticks, _host_ticks()))
        self.steal_share = stolen / demanded if demanded > 0 else 0.0

    def stamp(self, record: "RunRecord") -> None:
        """Copy the window, CPU and steal readings onto a finished record."""
        record.drive_window = (self.start, self.end)
        record.steal_share = self.steal_share
        record.cpu_s = self._driver_s + _children_cpu_s() - self._children


@dataclass
class RunRecord:
    """What one run of a workload committed, and what it measured.

    ``_read_back`` fills in the first five fields; the run that timed it
    adds the rest.
    """

    #: Distinct offered transactions present in a committed block, and the
    #: valid ones among the offered that are absent from every block.
    #: None where the chain lives in another process; the harness then
    #: takes both from the parity twin once the tips are proven equal.
    committed: int | None
    failed: int | None
    #: What an identical seed must reproduce exactly.
    fingerprint: tuple
    checks: dict[str, bool]
    #: Workload-specific facts the per-layer metrics are built from.
    extras: dict = field(default_factory=dict)
    setup_s: float = 0.0
    #: ``perf_counter`` stamps around the timed drive loop (first offer to
    #: the end of ``finalize``).
    drive_window: tuple[float, float] = (0.0, 0.0)
    round_ms: list[float] = field(default_factory=list)
    offered: int = 0
    #: Driver CPU through the drive loop plus the children's whole lives.
    cpu_s: float = 0.0
    #: Share of the CPU time the host's processes asked for during the
    #: drive loop that the hypervisor gave to another guest instead.
    steal_share: float = 0.0

    @property
    def wall_s(self) -> float:
        """Wall seconds of the drive loop."""
        return self.drive_window[1] - self.drive_window[0]


def _spec_key(payload) -> int:
    """The workload sequence number a committed payload carries."""
    return payload["body"]["seq"] if "xshard_to" in payload else payload["seq"]


def _account(stores, batches) -> tuple[int, int]:
    """``(committed, failed)`` for offered ``batches`` against the chains."""
    present = set()
    for store in stores:
        for serial in range(store.base_serial + 1, store.height + 1):
            for record in store.retrieve(serial).tx_list:
                payload = record.tx.body.payload
                if "xshard_receipt" not in payload:
                    present.add(_spec_key(payload))
    offered = [spec for batch in batches for spec in batch]
    committed = sum(_spec_key(spec.payload) in present for spec in offered)
    failed = sum(
        spec.is_valid and _spec_key(spec.payload) not in present for spec in offered
    )
    return committed, failed


def _replicas_agree(engine) -> bool:
    tip, height = engine.store.tip_hash(), engine.store.height
    return all(
        g.ledger.height == height and g.ledger.tip_hash() == tip
        for g in engine.governors.values()
    )


class Workload:
    """One execution shape.

    :meth:`run` is the closed loop shared by the shapes whose round loop the
    benchmark owns; a subclass supplies the deployment-specific steps
    (``_build``, ``_batches``, ``_offer``, ``_block_sizes``, ``_finalize``,
    ``_read_back``, ``_teardown``).
    """

    name: str
    tx_per_round: int
    rounds_per_second: float
    #: Fewest rounds a run makes however small ``--seconds`` is.
    min_rounds = 6
    #: Build-and-discard set-ups sampled before every timed repeat, beside
    #: the repeat's own: a millisecond-sized ``setup_s`` read five times
    #: moved by more than its bound between two sets of runs.  Few or none
    #: where set-up spawns processes and takes most of a second.
    extra_setups = 0
    #: True where the engines run in other processes, out of reach of the
    #: benchmark's spans: the engine-side layers are then traced on the twin.
    layers_from_twin = False

    def rounds_for(self, seconds: float) -> int:
        """Rounds per timed repeat that fill ``seconds`` over all repeats."""
        return max(self.min_rounds, round(self.rounds_per_second * seconds / REPEATS))

    def run(self, seed: int, rounds: int, obs=None, tracer=None, twin=False) -> RunRecord:
        """Build, drive ``rounds`` rounds as a closed loop, read back, tear down."""
        meter = _Meter()
        began = perf_counter()
        deployment = self._build(seed, obs, twin)
        setup_s = perf_counter() - began
        try:
            batches = self._batches(seed, deployment, rounds)
            round_ms = []
            meter.drive_begins()
            for number, batch in enumerate(batches, 1):
                if tracer is not None:
                    tracer.round = number
                offered_at = perf_counter()
                result = self._offer(deployment, batch)
                round_ms.append((perf_counter() - offered_at) * 1e3)
            flushes = 0
            while flushes < MAX_FLUSH_ROUNDS and self._block_sizes(result) > 0:
                result = self._offer(deployment, [])
                flushes += 1
            closing = self._finalize(deployment)
            meter.drive_ends()
            record = self._read_back(deployment, batches, closing, tracer is not None)
        finally:
            self._teardown(deployment)
        record.setup_s = setup_s
        record.round_ms = round_ms
        record.offered = rounds * self.tx_per_round
        record.extras["flush_rounds"] = flushes
        meter.stamp(record)
        return record

    def reference(self, seed: int, rounds: int, obs=None, tracer=None) -> RunRecord | None:
        """The parity twin on the other backend, where the shape has one."""
        return None

    def setup_sample(self, seed: int) -> float:
        """Seconds to build one more deployment, which is then discarded."""
        began = perf_counter()
        deployment = self._build(seed, None, False)
        elapsed = perf_counter() - began
        self._teardown(deployment)
        return elapsed

    def _teardown(self, deployment) -> None:
        """Release what ``_build`` opened (nothing, by default)."""


# -- inproc_mix -------------------------------------------------------------


class InprocMix(Workload):
    """``ProtocolEngine`` on the ``paper-default`` preset, 32 tx/round.

    l=16, n=8, m=4, r=4, two honest and six adversarial collectors, dense
    weight map.  No network and no disk: all wall time is crypto, ledger,
    core and agents.
    """

    name = "inproc_mix"
    tx_per_round = 32
    rounds_per_second = 75.0
    extra_setups = 4
    scenario = SCENARIOS["paper-default"]

    def _build(self, seed, obs, twin):
        topology = self.scenario.topology()
        return ProtocolEngine(
            topology,
            self.scenario.params,
            behaviors=self.scenario.behavior_factory(topology),
            seed=derive_seed(seed, "engine"),
            obs=obs,
        )

    def _batches(self, seed, engine, rounds):
        source = self.scenario.workload_factory(
            engine.topology, derive_seed(seed, "workload")
        )
        return [source.take(self.tx_per_round) for _ in range(rounds)]

    def _offer(self, engine, batch):
        return engine.run_round(batch)

    def _block_sizes(self, result):
        return len(result.block.tx_list)

    def _finalize(self, engine):
        engine.finalize()

    def _read_back(self, engine, batches, closing, traced):
        committed, failed = _account([engine.store], batches)
        # paper-default links some providers to adversarial collectors
        # only, so the Theorem-1 premise (one well-behaved collector,
        # s_min = 0) does not hold and the regret guardrail fires by
        # construction; every other finding is a failure.
        findings = [
            v
            for v in engine.audit_report.violations
            if v.type is not ViolationType.REGRET_BOUND
        ]
        properties = check_all_properties(engine.ledgers(), engine.transcript)
        return RunRecord(
            committed,
            failed,
            fingerprint=(engine.store.tip_hash().hex(), engine.store.height),
            checks={
                "replicas_agree": _replicas_agree(engine),
                "audit_clean": not findings,
                "properties_hold": properties.all_hold,
            },
            extras={"audit_violations": len(findings)},
        )


# -- net_durable ------------------------------------------------------------


class NetDurable(Workload):
    """``NetworkedProtocolEngine`` over the event-driven network, on disk.

    Same shape as ``inproc_mix`` with ``c0`` misreporting 0.4 and ``c1``
    concealing 0.4, ``resilience=False``, and an fsynced segment log with a
    checkpoint every 8 blocks.  After the timed loop the same directory is
    reopened several times; each restart must recover the pre-restart tip
    with a clean report.
    """

    name = "net_durable"
    tx_per_round = 32
    rounds_per_second = 27.0
    extra_setups = 4
    #: Timed reopenings of the store after each run's drive loop: a few
    #: for the correctness check, enough for a median in the traced run.
    restarts = 4
    traced_restarts = 20

    def _engine(self, seed, directory, obs):
        topology = Topology.regular(l=16, n=8, m=4, r=4)
        collectors = topology.collectors
        return NetworkedProtocolEngine(
            topology,
            ProtocolParams(f=0.5, beta=0.9, delta=0.2),
            behaviors={
                collectors[0]: MisreportBehavior(0.4),
                collectors[1]: ConcealBehavior(0.4),
            },
            seed=derive_seed(seed, "engine"),
            min_delay=0.005,
            max_delay=0.05,
            resilience=False,
            obs=obs,
            storage=StorageConfig(
                directory=directory,
                fsync=True,
                checkpoint_interval=8,
                segment_bytes=65536,
            ),
        )

    def _build(self, seed, obs, twin):
        OUT_DIR.mkdir(exist_ok=True)
        directory = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
        return seed, directory, self._engine(seed, directory, obs)

    def _teardown(self, deployment):
        shutil.rmtree(deployment[1], ignore_errors=True)

    def _batches(self, seed, deployment, rounds):
        source = BernoulliWorkload(
            deployment[2].topology.providers,
            p_valid=0.7,
            seed=derive_seed(seed, "workload"),
        )
        return [source.take(self.tx_per_round) for _ in range(rounds)]

    def _offer(self, deployment, batch):
        return deployment[2].run_round(batch)

    def _block_sizes(self, result):
        return len(result.block.tx_list)

    def _finalize(self, deployment):
        deployment[2].finalize()

    def _read_back(self, deployment, batches, closing, traced):
        seed, directory, engine = deployment
        committed, failed = _account([engine.store], batches)
        tip, height = engine.store.tip_hash(), engine.store.height
        disk_bytes = sum(p.stat().st_size for p in Path(directory).iterdir())
        reports = [engine.harness_auditor.report] + [
            auditor.report for auditor in engine.auditors.values()
        ]
        properties = check_all_properties(engine.ledgers(), engine.transcript)

        restart_ms, replayed, recovered = [], 0, True
        for _ in range(self.traced_restarts if traced else self.restarts):
            began = perf_counter()
            reopened = self._engine(seed, directory, None)
            restart_ms.append((perf_counter() - began) * 1e3)
            report = reopened.recovery_report
            replayed = len(report.blocks)
            recovered = (
                recovered
                and report.clean
                and reopened.store.height == height
                and reopened.store.tip_hash() == tip
                and _replicas_agree(reopened)
            )
        return RunRecord(
            committed,
            failed,
            fingerprint=(tip.hex(), height, round(engine.sim.now, 9)),
            checks={
                "replicas_agree": _replicas_agree(engine),
                "audit_clean": all(report.clean for report in reports),
                "properties_hold": properties.all_hold,
                "restart_recovers_tip": recovered,
            },
            extras={
                "audit_violations": sum(len(r.violations) for r in reports),
                "sim_s": engine.sim.now,
                "disk_bytes": disk_bytes,
                "restart_ms": restart_ms,
                "restart_replayed_blocks": replayed,
            },
        )


# -- shard_par --------------------------------------------------------------


class ShardPar(Workload):
    """``ShardCoordinator`` in the E16 shape on a two-process pool.

    l=24, n=8, m=8, r=2 split over S=2 shards, b_limit=16, 15 % cross-shard
    transactions, a reshuffle every 4 super-rounds, ``resilience=True``,
    link loss 2 % / duplication 5 % plus one governor crash and recovery on
    shard 0.  24 tx are offered per super-round, one per provider: each shard
    packs 12 fresh records plus about two receipts into its 16 slots, so no
    backlog grows.  (28 would fill 32.2 of the 32 slots once receipts are
    counted.)  The parity twin is the same seed on the serial backend.

    The data path — provider→collector feeds and collector→governor uploads
    — duplicates but does not lose; every other link (blocks between
    governors, receipt relays) keeps the 2 % loss, and the crashed governor
    still forces retransmissions.  Losing on the data path makes operations
    fail for some seeds, because of two things today's code does when a
    retransmission outlives an epoch reshuffle: a twice-lost feed reaching
    a collector that has moved to another shard raises ``KeyError`` in the
    feed handler (about one seed in 25), and a late upload from a collector
    that has moved is dropped at ingestion, which can strand a valid
    transaction for good (about one seed in 50).  A workload on which
    operations fail measures nothing.
    """

    name = "shard_par"
    tx_per_round = 24
    rounds_per_second = 28.0
    workers = 2
    #: Ten spawn-the-pool samples a run instead of five: under host steal
    #: two ten-seed medians of five-sample runs came out 19 % apart.
    extra_setups = 1
    layers_from_twin = True

    def _build(self, seed, obs, twin):
        sharded = Topology.sharded(
            l=24, n=8, m=8, r=2, shards=2, seed=derive_seed(seed, "topology")
        )
        coordinator = ShardCoordinator(
            sharded,
            ProtocolParams(f=0.5, delta=0.2, b_limit=16),
            seed=derive_seed(seed, "engine"),
            epoch_rounds=4,
            resilience=True,
            obs=obs,
            workers=None if twin else self.workers,
        )
        faulty = LinkFaultSpec(loss=0.02, duplicate=0.05)
        lossless = LinkFaultSpec(duplicate=0.05)  # the data path: see above
        for k, shard in enumerate(sharded.shards):
            plan = FaultPlan(seed=derive_seed(seed, f"faults-{k}")).with_default_link(faulty)
            for collector in sharded.collector_shard:  # any may migrate in
                for provider in shard.providers:
                    plan.with_link(provider, collector, lossless)
                for governor in shard.governors:
                    plan.with_link(collector, governor, lossless)
            if k == 0:
                plan.with_crash(shard.governors[-1], at=0.8, recover_at=1.6)
            coordinator.install_faults(k, plan)
        return coordinator

    def _teardown(self, coordinator):
        coordinator.close()  # reaps the workers: their CPU counts from here

    def _batches(self, seed, coordinator, rounds):
        sharded = coordinator.topology
        providers = [p for shard in sharded.shards for p in shard.providers]
        source = CrossShardWorkload(
            BernoulliWorkload(providers, p_valid=0.8, seed=derive_seed(seed, "workload")),
            sharded.provider_shard,
            p_cross=0.15,
            seed=derive_seed(seed, "cross"),
        )
        return [source.take(self.tx_per_round) for _ in range(rounds)]

    def _offer(self, coordinator, batch):
        coordinator.submit(batch)
        return coordinator.run_super_round()

    def _block_sizes(self, result):
        # NetworkedRoundResult on the serial backend, ShardRoundInfo on the pool
        return sum(
            r.block_size if hasattr(r, "block_size") else len(r.block.tx_list)
            for r in result.shard_results
        )

    def _finalize(self, coordinator):
        return coordinator.finalize()

    def reference(self, seed, rounds, obs=None, tracer=None):
        return self.run(seed, rounds, obs, tracer, twin=True)

    def _read_back(self, coordinator, batches, report, traced):
        stats = coordinator.chain_stats()
        if coordinator.backend.kind == "serial":
            committed, failed = _account(
                [engine.store for engine in coordinator.engines], batches
            )
            injected = [engine.injector.stats for engine in coordinator.engines]
        else:
            committed = failed = None
            injected = list(coordinator.backend.fault_stats().values())
        return RunRecord(
            committed,
            failed,
            fingerprint=(
                tuple(coordinator.tip_hashes()),
                tuple(s.height for s in stats),
                coordinator.committed_total,
                round(coordinator.now, 9),
            ),
            checks={
                "replicas_agree": all(s.properties_hold for s in stats),
                "audit_clean": report.clean,
                "no_atomicity_violations": not coordinator.auditor.atomicity_violations(),
                "no_pending_receipts": not coordinator.auditor.pending(),
            },
            extras={
                "audit_violations": len(report.violations),
                "sim_s": coordinator.now,
                "faults_dropped": sum(s.dropped for s in injected),
                "faults_duplicated": sum(s.duplicated for s in injected),
                "workers": getattr(coordinator.backend, "num_workers", 0),
            },
        )


# -- tcp_cluster ------------------------------------------------------------


class TcpCluster(Workload):
    """``run_scenario(backend="real")`` against two custodian processes.

    The default ``ClusterScenario`` shape (l=8, n=4, m=4, r=2,
    ``resilience=True``, b_limit=64), 12 tx/round, no chaos proxy.  The
    parity twin is the same scenario on ``backend="sim"``; a second
    in-process twin built from the same arguments exposes the chain, which
    ``run_scenario`` does not return, for the per-transaction accounting.

    ``run_scenario`` owns the round loop, so the client is the scenario's
    ``workload_factory`` hook: it is asked for round k+1's batch the moment
    round k's block is committed.  Two empty rounds close every run so the
    last real round has an end stamp and late records reach a block.
    """

    name = "tcp_cluster"
    tx_per_round = 12
    rounds_per_second = 14.0
    custodians = 2
    flush_rounds = 2

    def _execute(self, seed, rounds, obs, tracer, backend, meter, custodians=()):
        """One ``run_scenario`` call with the benchmark as its client."""
        offered: list[list[TxSpec]] = []
        asked: list[float] = []  # the client is asked for a batch: round ends
        offers: list[float] = []  # the client hands the batch over: round begins

        def client(scenario, topology):
            source = BernoulliWorkload(
                topology.providers,
                p_valid=scenario.p_valid,
                seed=derive_seed(seed, "workload"),
            )
            offered.extend(source.take(self.tx_per_round) for _ in range(rounds))
            meter.drive_begins()  # deployment built: the drive loop starts

            def next_batch(number: int):
                asked.append(perf_counter())
                if tracer is not None:
                    tracer.round = number
                offers.append(perf_counter())
                return offered[number - 1] if number <= rounds else []

            return next_batch

        scenario = ClusterScenario(
            rounds=rounds + self.flush_rounds,
            batch=self.tx_per_round,
            seed=derive_seed(seed, "engine"),
            workload_factory=client,
        )
        called = perf_counter()
        result = run_scenario(scenario, backend=backend, custodians=custodians, obs=obs)
        meter.drive_ends()
        record = RunRecord(
            committed=None,  # run_scenario returns a summary, not the chain
            failed=None,
            fingerprint=(result["tip"], result["height"], round(result["clock"], 9)),
            checks={"audit_clean": bool(result["audit_clean"])},
            extras={
                "audit_violations": result["violations"],
                "flush_rounds": self.flush_rounds,
                "sim_s": result["clock"],
            },
            setup_s=meter.start - called,
            round_ms=[(asked[k + 1] - offers[k]) * 1e3 for k in range(rounds)],
            offered=rounds * self.tx_per_round,
        )
        return scenario, offered, record

    def run(self, seed, rounds, obs=None, tracer=None, twin=False):
        meter = _Meter()
        began = perf_counter()
        handle = launch_custodians(self.custodians)
        launch_s = perf_counter() - began
        try:
            _, _, record = self._execute(
                seed, rounds, obs, tracer, "real", meter, handle.addresses
            )
        finally:
            handle.close()  # reaps the custodians: their CPU counts from here
        record.setup_s += launch_s
        meter.stamp(record)
        return record

    def reference(self, seed, rounds, obs=None, tracer=None):
        meter = _Meter()
        scenario, offered, record = self._execute(seed, rounds, obs, tracer, "sim", meter)
        meter.stamp(record)
        # run_scenario returns a summary, not the chain: replay the same
        # scenario on an engine this process owns and read its store.
        engine = NetworkedProtocolEngine(
            Topology.regular(l=scenario.l, n=scenario.n, m=scenario.m, r=scenario.r),
            scenario.params(),
            seed=scenario.seed,
            min_delay=scenario.min_delay,
            max_delay=scenario.max_delay,
            resilience=scenario.resilience,
        )
        for batch in offered + [[]] * self.flush_rounds:
            engine.run_round(batch)
        if engine.store.tip_hash().hex() == record.fingerprint[0]:
            record.committed, record.failed = _account([engine.store], offered)
            record.checks["replicas_agree"] = _replicas_agree(engine)
        return record


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (InprocMix(), NetDurable(), ShardPar(), TcpCluster())
}
