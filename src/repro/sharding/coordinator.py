"""The shard coordinator: the driver half of sharded execution.

:class:`ShardCoordinator` routes workload, mints/relays cross-shard
receipts, audits atomicity, and reshuffles collectors by reputation
mass — while the actual protocol engines run on shard hosts
(:class:`~repro.parallel.backend.ShardHost`):

* the **serial** backend (default, ``workers=None`` or ``1``) is one
  host over all ``S`` engines, in-process, called directly;
* the **parallel** backend (``workers >= 2``) is a
  :class:`~repro.parallel.pool.ParallelBackend` that runs worker
  processes, each a host over its share of the shards, one command per
  worker per super-round (:mod:`repro.parallel`), turning sim-time
  shard scaling into *wall-clock* scaling on multi-core hosts.

Both backends produce **bit-identical ledgers** for the same seed: every
host reaches the same clock targets, and the driver preserves
per-remote-shard receipt-relay order and makes reshuffle release/adopt
calls in the same per-engine order regardless of where the engines live.

**Super-rounds.**  A super-round is one
:meth:`~repro.parallel.backend.ShardHost.run_round` call per host: it
relays the receipt retries, starts round ``t`` on *every* shard, drains
the host's simulator to the shared drain target so the shards' rounds
overlap in simulated time, runs every argue phase, drains again, closes
all rounds and scans the new commits; the driver then relays the
receipts they minted.  S shards commit up to ``S * b_limit`` records
in the same sim-seconds one shard commits ``b_limit`` — the aggregate
throughput scaling ``benchmarks/bench_shards.py`` (E14) measures, and
the parallel backend realises in wall-clock (E16).

**Cross-shard transactions.**  The workload marks a transaction whose
counterparty provider lives on another shard (payload key
``"xshard_to"``).  It commits on its home shard like any transaction;
the backend scan then mints a :class:`~repro.sharding.receipts.
CrossShardReceipt` signed by the home proposer and verified against the
home identity manager, and the driver relays it to every governor of
the remote shard (surviving any single governor crash).  The remote
leader packs the receipt as a relay-signed record.  Exactly-once is
layered: content-derived receipt ids, per-governor buffer dedup, the
engine-wide applied-id set, and the pack-time filter on each slot's
packed bit.  Receipts are *not* fault-exempt — lost relays are re-sent
every super-round until the remote commit lands, and the
:class:`~repro.audit.xshard.CrossShardAuditor` certifies no receipt was ever
half-applied or replayed.

**Epoch reshuffling.**  Every ``epoch_rounds`` super-rounds (or on an
explicit :meth:`reshuffle` call) the coordinator reads live reputation
masses from every engine, recomputes the balanced assignment
(:mod:`repro.sharding.assignment`), and migrates collectors: the source
engine retires them through the churn rules, the destination admits
them into the vacated provider slots via the **median-bootstrap**
readmission path — reputation never travels across shards, a
quarantine always does (:mod:`repro.core.lifecycle`).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.agents.behaviors import ArgueAbuse, CollectorBehavior
from repro.audit.auditor import AuditReport
from repro.audit.xshard import CrossShardAuditor
from repro.core.netengine import MAX_DELAY
from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.network.broadcast import walk_recovery_drain
from repro.network.topology import ShardedTopology
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.parallel.backend import (
    HostSpec,
    ShardChainStats,
    ShardHost,
    ShardRoundInfo,
    ShardScan,
)
from repro.parallel.pool import ParallelBackend, parallel_metrics
from repro.sharding.assignment import (
    Migration,
    migration_moves,
    reshuffle_assignment,
)
from repro.sharding.receipts import CrossShardReceipt
from repro.workloads.generator import TxSpec

__all__ = ["ShardCoordinator", "SuperRoundResult"]

#: Empty super-rounds :meth:`ShardCoordinator.flush` runs at most.
FLUSH_MAX_ROUNDS = 6


@dataclass
class SuperRoundResult:
    """Outcome of one super-round across all shards."""

    round_number: int
    #: Per-shard round outcomes, in shard order.
    shard_results: list[ShardRoundInfo]
    #: Origin (non-receipt) records committed this super-round.
    committed_tx: int
    #: Receipts minted from fresh home-shard commits this super-round.
    receipts_minted: int
    #: Receipt records that landed on their remote shard this super-round.
    receipts_committed: int
    #: Migrations applied by an epoch reshuffle at the end of the round.
    migrations: list[Migration] = field(default_factory=list)


class ShardCoordinator:
    """Drive ``S`` shard engines through overlapping rounds.

    Args:
        topology: The sharded deployment (:meth:`Topology.sharded`).
        params: Shared protocol parameters (one ``b_limit`` per shard
            block, so aggregate capacity scales with the shard count).
        behaviors: Global agent id -> behaviour map; a collector's
            behaviour follows it through epoch migrations, a provider's
            ``ArgueAbuse`` stays on its shard.
        seed: Master seed.  Shard ``k``'s engine derives its own seed
            from it, and reshuffle permutations mix in the epoch.
        epoch_rounds: Reshuffle every this many super-rounds (None:
            only on explicit :meth:`reshuffle` calls).
        resilience / obs: Forwarded to every shard engine (see
            :class:`~repro.core.netengine.NetworkedProtocolEngine`),
            which runs the engine's default channel delays.
        workers: ``None`` or ``1`` selects the serial in-process
            backend; ``>= 2`` spawns that many worker processes and
            distributes shards round-robin (capped at the shard count).
        storage: Optional per-shard
            :class:`~repro.storage.StorageConfig` list — required for
            post-crash worker restarts under the parallel backend.
    """

    def __init__(
        self,
        topology: ShardedTopology,
        params: ProtocolParams,
        behaviors: Mapping[str, CollectorBehavior | ArgueAbuse] | None = None,
        seed: int = 0,
        epoch_rounds: int | None = None,
        resilience: bool = False,
        obs: MetricsRegistry | None = None,
        workers: int | None = None,
        storage: Sequence[object | None] | None = None,
    ):
        if epoch_rounds is not None and epoch_rounds < 1:
            raise ConfigurationError(f"epoch_rounds must be >= 1, got {epoch_rounds}")
        # Shard engines keep only their own agents' entries: one on no shard is refused here.
        unknown = set(behaviors or ()).difference(topology.collectors, topology.providers)
        if unknown:
            raise ConfigurationError(
                f"behaviours for unknown collectors or providers: {sorted(unknown)}"
            )
        self.topology = topology
        self.params = params
        self.seed = seed
        self.epoch_rounds = epoch_rounds
        self.obs = obs if obs is not None else NULL_REGISTRY
        spec = HostSpec(
            topology=topology,
            params=params,
            behaviors=dict(behaviors or {}),
            seed=seed,
            resilience=resilience,
            storage=tuple(storage or [None] * topology.num_shards),
            shards=tuple(range(topology.num_shards)),
        )
        if workers is not None and workers >= 2:
            self.backend = ParallelBackend(spec, obs=self.obs, workers=workers)
        else:
            self.backend = ShardHost(spec, obs=self.obs)
        self.auditor = CrossShardAuditor(obs=self.obs)
        self.provider_shard = dict(topology.provider_shard)
        self.collector_shard = dict(topology.collector_shard)
        self._round = 0
        self._epoch = 0
        # Per-shard scan cursor into the published store (receipt minting).
        self._cursors = dict.fromkeys(range(topology.num_shards), 0)
        # Per-shard re-evaluated-record queue depth after the last round.
        self._carryover = dict.fromkeys(range(topology.num_shards), 0)
        # Per-shard offered-but-not-yet-started workload.
        self._backlog: list[deque[TxSpec]] = [deque() for _ in topology.shards]
        # receipt_id -> (receipt, home-commit sim time) awaiting remote leg.
        self._pending: dict[str, tuple[CrossShardReceipt, float]] = {}
        # (super-round, epoch, migrations applied)
        self.reshuffle_log: list[tuple[int, int, list[Migration]]] = []
        # Plain per-shard / per-attempt counts; the registry reads them.
        self.committed: dict[int, int] = defaultdict(int)
        self.cross_out: dict[int, int] = defaultdict(int)
        self.cross_in: dict[int, int] = defaultdict(int)
        self.relays: dict[str, int] = defaultdict(int)
        # Per-shard reputation mass as of the last barrier (live registry only).
        self._mass_totals: list[float] = []
        shards = range(topology.num_shards)
        self.obs.counter(
            "shard_rounds_total", "Per-shard rounds executed", labels=("shard",),
            read=lambda: dict.fromkeys(shards, self._round) if self._round else {},
        )
        for family, record, label, help in (
            ("shard_committed_tx_total", self.committed, "shard",
             "Origin (non-receipt) records committed, by shard"),
            ("shard_cross_tx_out_total", self.cross_out, "shard",
             "Cross-shard transactions home-committed (receipts minted), by home shard"),
            ("shard_cross_tx_in_total", self.cross_in, "shard",
             "Cross-shard receipts committed on their remote shard, by that shard"),
            ("shard_receipt_relays_total", self.relays, "attempt",
             "Receipt relay fan-outs, first sends vs retries"),
        ):
            self.obs.counter(family, help, labels=(label,), read=lambda r=record: r)
        self._m_cross_latency = self.obs.histogram(
            "shard_cross_latency_seconds",
            "Sim-time from home-shard commit to remote-shard commit",
            buckets=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
        )
        self.obs.counter(
            "shard_reshuffles_total", "Epoch reshuffles executed",
            read=lambda: len(self.reshuffle_log),
        )
        self.obs.counter(
            "shard_migrations_total", "Collector migrations applied by reshuffles",
            read=lambda: sum(len(moves) for _, _, moves in self.reshuffle_log),
        )
        self.obs.gauge(
            "shard_reputation_mass",
            "Total live collector reputation mass hosted, by shard",
            labels=("shard",),
            read=lambda: dict(enumerate(self._mass_totals)),
        )
        # Register the par_* family on every backend so serial runs
        # export them (at zero) too — OBSERVABILITY.md coverage is
        # backend-independent.
        parallel_metrics(self.obs)
        self._read_masses()

    # -- backend access ----------------------------------------------------

    @property
    def now(self) -> float:
        """The shared barrier clock (simulated seconds)."""
        return self.backend.now()

    @property
    def engines(self):
        """The live shard engines, in shard order — serial backend only.

        Under the parallel backend the engines live in worker
        processes; use :meth:`chain_stats` or :meth:`tip_hashes` for
        cross-backend reporting.
        """
        if self.backend.kind != "serial":
            raise ConfigurationError(
                "shard engines live in worker processes under the parallel "
                "backend; use chain_stats()/tip_hashes() instead"
            )
        return list(self.backend.engines.values())

    # -- workload routing -------------------------------------------------

    def submit(self, specs: Sequence[TxSpec]) -> None:
        """Queue workload; each spec lands on its provider's home shard.

        Shards consume their backlog at up to ``b_limit`` per round, so
        offered load beyond capacity is buffered, not dropped — the
        saturation regime the throughput benchmark runs in.
        """
        for spec in specs:
            shard = self.provider_shard.get(spec.provider)
            if shard is None:
                raise ConfigurationError(f"unknown provider {spec.provider!r}")
            self._backlog[shard].append(spec)

    # -- super-round execution --------------------------------------------

    def run_round(self, specs: Sequence[TxSpec]) -> SuperRoundResult:
        """:meth:`submit` then :meth:`run_super_round`: the engines' drive call."""
        self.submit(specs)
        return self.run_super_round()

    def run_super_round(self) -> SuperRoundResult:
        """Run one protocol round on every shard, overlapped in sim time."""
        self._round += 1
        # Re-relay receipts whose remote commit is still outstanding
        # (first relay lost to faults, or the remote leader crashed
        # before packing).  Receiver-side dedup makes retries harmless.
        retry: dict[int, list[CrossShardReceipt]] = {}
        for rid in sorted(self._pending):
            receipt = self._pending[rid][0]
            retry.setdefault(receipt.remote_shard, []).append(receipt)
            self.relays["retry"] += 1
        specs: dict[int, list[TxSpec]] = {}
        for k, queue in enumerate(self._backlog):
            capacity = self.params.b_limit - self._carryover[k]
            specs[k] = [
                queue.popleft() for _ in range(min(max(capacity, 0), len(queue)))
            ]
        _, infos, scans = self.backend.run_round(retry, specs, self._cursors)
        self._carryover = {k: info.carryover for k, info in infos.items()}
        minted, receipts_in, origin = self._ingest_scans(scans)
        migrations: list[Migration] = []
        if self.epoch_rounds is not None and self._round % self.epoch_rounds == 0:
            migrations = self.reshuffle()
        self._read_masses()
        return SuperRoundResult(
            round_number=self._round,
            shard_results=[infos[k] for k in range(self.topology.num_shards)],
            committed_tx=origin,
            receipts_minted=minted,
            receipts_committed=receipts_in,
            migrations=migrations,
        )

    def _ingest_scans(self, scans: Mapping[int, ShardScan]) -> tuple[int, int, int]:
        """Advance block cursors: mint+relay receipts, settle remote legs.

        The backend scanned each shard's chain past the driver's cursor
        and reported, in exact commit order, receipt landings and freshly
        minted (home-verified) receipts.  The driver audits both legs
        and batches first relays per remote shard — batch order is each
        remote shard's arrival order under the old per-receipt relay
        loop, so remote network latency draws are unchanged.
        """
        minted = receipts_in = origin = 0
        first: dict[int, list[CrossShardReceipt]] = {}
        for k in range(self.topology.num_shards):
            scan = scans[k]
            self._cursors[k] = scan.cursor
            origin += scan.origin
            if scan.origin:
                self.committed[k] += scan.origin
            for event in scan.events:
                if event[0] == "r":
                    _, rid, serial = event
                    receipts_in += 1
                    self.cross_in[k] += 1
                    pending = self._pending.pop(rid, None)
                    if pending is not None:
                        self._m_cross_latency.observe(self.now - pending[1])
                    self.auditor.record_remote_commit(
                        rid, shard=k, serial=serial, round_number=self._round
                    )
                    continue
                _, receipt, verified = event
                self.auditor.record_home_commit(receipt, verified, self._round)
                if not verified:
                    raise ConfigurationError(
                        f"refusing to relay unverifiable receipt {receipt.receipt_id}"
                    )
                minted += 1
                self.cross_out[k] += 1
                self._pending[receipt.receipt_id] = (receipt, self.now)
                first.setdefault(receipt.remote_shard, []).append(receipt)
                self.relays["first"] += 1
        if first:
            self.backend.relay(first)
        return minted, receipts_in, origin

    # -- epoch reshuffling -------------------------------------------------

    def reshuffle(self) -> list[Migration]:
        """Rebalance collectors across shards by live reputation mass.

        Reads every engine's collector masses, recomputes the seeded
        balanced assignment for the new epoch, and migrates the
        collectors that change shard: released from the source engine
        (churn retirement) and adopted by the destination into the
        vacated provider slots via median-bootstrap readmission.
        Returns the migrations applied (possibly none).
        """
        self._epoch += 1
        masses = self.backend.collector_masses()
        target = reshuffle_assignment(
            self.collector_shard,
            masses,
            self.topology.num_shards,
            seed=self.seed,
            epoch=self._epoch,
        )
        moves = migration_moves(self.collector_shard, target)
        # Release every migrant first (capturing its provider slots,
        # live behaviour and standing), then fill each shard's vacancies
        # in sorted arrival order — deterministic slot inheritance.
        # Per-engine call order follows the sorted move order on both
        # backends.
        release_order: dict[int, list[str]] = {}
        for move in moves:
            release_order.setdefault(move.source, []).append(move.collector)
        released = self.backend.release_collectors(release_order)
        vacancies: dict[int, deque[tuple[str, ...]]] = {}
        for move in moves:
            vacancies.setdefault(move.source, deque()).append(
                released[move.collector].providers
            )
        adoptions: dict[int, list[tuple]] = {}
        for move in moves:
            slots = vacancies[move.target].popleft()
            adoptions.setdefault(move.target, []).append(
                (move.collector, released[move.collector]._replace(providers=slots))
            )
        self.backend.adopt_collectors(adoptions)
        self.collector_shard = dict(target)
        self.reshuffle_log.append((self._round, self._epoch, moves))
        self._read_masses()
        return moves

    @property
    def committed_total(self) -> int:
        """Origin (non-receipt) records committed so far, over every shard."""
        return sum(self.committed.values())

    @property
    def audit_report(self) -> AuditReport:
        """The cross-shard auditor's verdicts so far."""
        return self.auditor.report

    def _read_masses(self) -> None:
        """Store what ``shard_reputation_mass`` reads — at a barrier, because
        a reader must not touch a worker's pipe."""
        if not self.obs.enabled:
            return  # skip the (possibly cross-process) mass read
        totals = [0.0] * self.topology.num_shards
        for cid, mass in self.backend.collector_masses().items():
            totals[self.collector_shard[cid]] += mass
        self._mass_totals = totals

    # -- faults, finalisation, reporting -----------------------------------

    def install_faults(self, shard: int, plan: FaultPlan, tamperer=None) -> None:
        """Install a seeded fault plan on one shard's engine.

        The injector lives with the engine; read what fired through
        ``backend.fault_stats()``.  Tamperers (live callbacks) are rejected by
        the parallel backend.
        """
        self.backend.install_faults(shard, plan, tamperer=tamperer)

    def quarantine_logs(self) -> list[list[tuple]]:
        """Each shard's ``quarantine_log``, in shard order: the verdicts
        reached on it and those that arrived with a migrating collector."""
        logs = self.backend.quarantine_logs()
        return [logs[k] for k in range(self.topology.num_shards)]

    def flush(self) -> int:
        """Close the books at the barrier: run empty super-rounds while a
        receipt awaits its remote leg or an argue-admitted record waits on
        any shard (RoundCore's closing rule, one super-round per round).

        Returns the number of flush rounds executed.  Bounded: a receipt
        that cannot land within ``FLUSH_MAX_ROUNDS`` (e.g. its remote shard
        has no live governor) is left pending for :meth:`finalize`'s
        auditor to flag as half-applied.
        """
        executed = 0
        # Stash the backlog so flush rounds are genuinely empty — under
        # saturating offered load the drain could otherwise mint new
        # receipts every round and never converge.
        stashed = self._backlog
        self._backlog = [deque() for _ in range(self.topology.num_shards)]
        try:
            while (
                self._pending or any(self._carryover.values())
            ) and executed < FLUSH_MAX_ROUNDS:
                self.run_super_round()
                executed += 1
        finally:
            self._backlog = stashed
        return executed

    def finalize(self):
        """Close the run: flush, drain recovery, reveal, audit atomicity.

        Returns the :class:`~repro.audit.auditor.AuditReport` of the
        cross-shard auditor; ``report.clean`` means every cross-shard
        transaction committed exactly once on both legs.  Workers (if
        any) stay up for post-run reporting — call :meth:`close` when
        done with the coordinator.
        """
        self.flush()
        self._drain_recovery()
        self.backend.finalize_engines()
        return self.auditor.finalize(self._round)

    def _drain_recovery(self) -> None:
        """Walk each shard's end-of-run recovery drain at shared targets.

        The same policy as :meth:`~repro.core.netengine.
        NetworkedProtocolEngine.drain_recovery`, shard by shard, with the
        clock advances issued through the backend so *every* engine
        reaches the same barrier times — the final simulated clock (and
        sim-time throughput) is then identical between the serial and
        parallel backends.  Cheap when resilience is off: one probe per
        shard, no advances.
        """
        for k in range(self.topology.num_shards):
            walk_recovery_drain(
                lambda: self.backend.repair_scan(k),
                lambda dt: self.backend.run_until(self.now + dt),
                MAX_DELAY,
            )

    def close(self) -> None:
        """Tear down the execution backend (shuts worker processes down)."""
        self.backend.close()

    def throughput(self) -> float:
        """Aggregate committed origin records per simulated second."""
        if self.now <= 0:
            return 0.0
        return self.committed_total / self.now

    def tip_hashes(self) -> list[str]:
        """Each shard's chain tip hash (the determinism fingerprint)."""
        tips = self.backend.tip_hashes()
        return [tips[k] for k in range(self.topology.num_shards)]

    def chain_stats(self) -> list[ShardChainStats]:
        """Per-shard chain summaries (works on every backend)."""
        stats = self.backend.chain_stats()
        return [stats[k] for k in range(self.topology.num_shards)]
