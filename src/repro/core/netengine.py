"""Packet-level protocol engine over the simulated synchronous network.

:class:`NetworkedProtocolEngine` takes the round's steps from
:class:`~repro.core.roundcore.RoundCore` and puts real messages
(:class:`~repro.network.simnet.SyncNetwork` +
:class:`~repro.network.broadcast.AtomicBroadcast`) between them.  What
differs from the in-process :class:`~repro.core.protocol.ProtocolEngine`:

* **transport** — providers broadcast into per-collector *feed* groups
  at round start; collectors label on delivery and atomically broadcast
  to the *uploads* group (all governors); the block travels on the
  *blocks* group and every governor appends on delivery; providers send
  ``argue`` messages point-to-point to every governor;
* **timers** — each governor starts a Δ timer on the **first** report
  of a transaction (``starttime(tx, Δ)``) and screens it when the timer
  fires (``endtime(tx)``) — per-transaction, not per-batch;
* **cutoff** — the leader packs at a fixed simulated time after round
  start, against the published tip.  Every governor keeps what it
  screened until it next leads, so two kinds of record carry to a later
  block: one screened after the cutoff, and a non-leader's unchecked
  record of an invalid transaction that the round's leader checked and
  discarded (the in-process engine packs neither; the pack-time dedup
  keeps each transaction once).

Message counts come from the network's real counters
(``engine.network.stats``); the in-process engine counts none.

The engine is slower than the in-process one (every payload is a
scheduled event), so the big statistical experiments use
``ProtocolEngine``; this engine is the fidelity reference for
integration tests and the Δ-timing experiments.

What surrounds the round lives beside it, each in an object that owns
its own state: who is crashed, quarantined or migrating
(:mod:`repro.core.lifecycle`), commit votes and the end-of-round sweep
(:mod:`repro.audit.votes`), the restart-from-disk hand-off
(:mod:`repro.storage.handoff`) and, on shard engines only, cross-shard
receipts (:mod:`repro.sharding.inbox`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from repro.agents.behaviors import CollectorBehavior
from repro.audit.auditor import SafetyAuditor, ViolationType
from repro.audit.votes import CommitVoteAudit
from repro.consensus.messages import CommitVote
from repro.core.lifecycle import NodeLifecycle
from repro.core.params import ProtocolParams
from repro.core.roundcore import RoundCore, RoundResult
from repro.exceptions import ConfigurationError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.ledger.block import Block
from repro.ledger.properties import UPLOADED
from repro.ledger.store import BlockStore
from repro.ledger.transaction import LabeledTransaction, SignedTransaction, TxRecord
from repro.network.broadcast import AtomicBroadcast, walk_recovery_drain
from repro.network.reliable import ReliableChannel
from repro.network.simnet import Message, Simulator, SyncNetwork
from repro.network.topology import Topology
from repro.obs.registry import MetricsRegistry
from repro.storage.checkpoints import reputation_digest
from repro.storage.durable import StorageConfig, open_durable_store
from repro.storage.handoff import RestartHandoff
from repro.storage.recovery import RecoveryReport
from repro.workloads.generator import TxSpec

__all__ = [
    "ArgueRequest",
    "NetworkedProtocolEngine",
    "ReceiptInboxProtocol",
    "RoundContext",
    "MAX_DELAY",
    "SEQUENCER_PRIMARY",
    "SEQUENCER_BACKUP",
]

#: The synchrony bound Delta-net (simulated seconds) of an engine built
#: without one, so of every shard engine.
MAX_DELAY = 0.05

#: Dedicated network identities of the broadcast sequencer's repair
#: endpoints (the Identity Manager's ordering service and its replica).
#: Distinct from every p*/c*/g* topology id.
SEQUENCER_PRIMARY = "seq-primary"
SEQUENCER_BACKUP = "seq-backup"


@dataclass(frozen=True)
class ArgueRequest:
    """A provider's ``argue(tx, s)`` message to a governor."""

    provider: str
    tx_id: str
    serial: int
    kind: str = "argue"


@dataclass
class RoundContext:
    """In-flight state of a phase-split round (see :meth:`begin_round`).

    :meth:`NetworkedProtocolEngine.run_round` is split into
    ``begin_round`` / ``begin_argue`` / ``complete_round`` so a shard
    host (:meth:`~repro.parallel.backend.ShardHost.run_round`) can start
    one round on *every* engine it hosts and drain them all with a
    single ``sim.run`` on its one simulator — the shards' rounds overlap
    in simulated time instead of running back to back.  The context
    carries everything the later phases need; the caller advances the
    simulator to ``drain_until`` between ``begin_round`` and
    ``begin_argue``, and to ``begin_argue``'s returned time before
    ``complete_round``.
    """

    round_number: int
    t0: float
    cutoff: float
    drain_until: float
    specs_count: int
    elected: str
    forged: int
    argue_start: float = 0.0
    argues: int = 0
    #: Set by the pack at ``cutoff``; its proposer is who packed it (the
    #: elected leader, or its failover).
    block: Block | None = None


class ReceiptInboxProtocol(Protocol):
    """What the round asks of a shard engine's cross-shard receipt inbox.

    The implementation is :class:`repro.sharding.inbox.ReceiptInbox`;
    ``core`` names only the calls it makes, so it need not import
    ``sharding``.
    """

    #: Network endpoint the receipts are relayed from.
    relay_id: str

    def ingest(self, gid: str, receipt: object) -> None: ...

    def take(self, gid: str, budget: int) -> list[TxRecord]: ...

    def committed(self, gid: str, block: Block) -> None: ...

    def forget(self, gid: str) -> None: ...


class NetworkedProtocolEngine(RoundCore):
    """The protocol over real (simulated) packets.

    Args:
        topology: Node link structure.
        params: Protocol parameters; ``params.delta`` is the screening
            timer and must cover the upload-arrival spread, i.e. be at
            least ``2 * max_delay`` (checked at construction).
        behaviors: collector id -> behaviour (honest default).
        seed: Master seed for agents, network latencies, and draws.
        min_delay / max_delay: Channel latency bounds (the synchrony
            assumption's Δ-net).
        stake: governor id -> stake units (default 1 each).
        resilience: Enable the fault-tolerance machinery — reliable
            feed/upload delivery, broadcast gap repair with sequencer
            failover, and crash-recovery wiring.  Off by default: no
            ack, retransmit or repair message is sent.
        obs: Optional :class:`~repro.obs.MetricsRegistry` threaded
            through every layer — network, broadcast, reliable channel,
            governors, reputation books — plus engine-level counters
            and sim-time spans (``round`` / ``pack`` / ``drain_recovery``).
            Same no-op convention as ``resilience``: absent or disabled,
            runs are bit-identical (see OBSERVABILITY.md).
        sim: Optional externally owned :class:`~repro.network.simnet.Simulator`.
            When given, the engine schedules on that shared clock instead
            of creating its own — this is how a
            :class:`~repro.sharding.ShardCoordinator` runs ``S`` engines
            side by side in one simulated timeline.  The engine still
            owns its network, broadcast layer, and identity manager.
        network_factory: Optional transport backend constructor, called
            as ``factory(sim, min_delay=..., max_delay=..., seed=...,
            obs=...)``.  Defaults to :class:`SyncNetwork`; a cluster
            harness passes :class:`~repro.network.realnet.RealNetwork`
            (pre-bound to its custodian peers) so the identical engine
            runs over real sockets — see DESIGN.md §"Transport backend".
    """

    def __init__(
        self,
        topology: Topology,
        params: ProtocolParams,
        behaviors: Mapping[str, CollectorBehavior] | None = None,
        seed: int = 0,
        min_delay: float = 0.005,
        max_delay: float = MAX_DELAY,
        stake: Mapping[str, int] | None = None,
        resilience: bool = False,
        obs: MetricsRegistry | None = None,
        sim: Simulator | None = None,
        storage: StorageConfig | None = None,
        network_factory: Callable[..., SyncNetwork] | None = None,
    ):
        if params.delta < 2 * max_delay:
            raise ConfigurationError(
                f"screening timer delta={params.delta} must be >= 2*max_delay="
                f"{2 * max_delay} to cover the report spread"
            )
        super().__init__(params, seed, obs)
        self.topology = topology
        self.recovery_report: RecoveryReport | None = None
        if storage is not None:
            # Opening the store IS crash recovery: segments are
            # replayed and verified, corrupt tails truncated.  The
            # hand-off re-anchors the governors' replicas, once built.
            self.store, self.recovery_report = open_durable_store(
                storage,
                obs=self.obs,
                book_digest_fn=lambda: reputation_digest(
                    {gid: gov.book for gid, gov in self.governors.items()}
                ),
                book_state_fn=lambda: {
                    gid: gov.book.export_state()
                    for gid, gov in self.governors.items()
                },
            )
        else:
            self.store = BlockStore()
        self.sim = sim if sim is not None else Simulator()
        # The transport backend is pluggable: the default is the
        # discrete-event SyncNetwork; a harness passes a factory that
        # builds its subclass repro.network.realnet.RealNetwork with the
        # same delay bounds and seed, so the engine (and every layer
        # above the network) runs unmodified over real sockets.
        factory = network_factory if network_factory is not None else SyncNetwork
        self.network = factory(
            self.sim, min_delay=min_delay, max_delay=max_delay, seed=seed + 1,
            obs=self.obs,
        )
        self.broadcast = AtomicBroadcast(self.network, obs=self.obs)
        self.resilience = resilience
        self.channel: ReliableChannel | None = (
            ReliableChannel(self.network, obs=self.obs)
            if resilience
            else None
        )
        # The run record counts the rounds *this* engine closed
        # (``_round`` also counts the rounds a restart resumed past).
        self._register_engine_metrics()
        self.injector: FaultInjector | None = None
        self.lifecycle = NodeLifecycle(self)
        # Live views of the lifecycle's state, where harnesses look for it.
        self.crashed_nodes = self.lifecycle.crashed_nodes
        self.quarantined_nodes = self.lifecycle.quarantined_nodes
        self.fault_log = self.lifecycle.fault_log
        self.quarantine_log = self.lifecycle.quarantine_log
        self.harness_auditor = SafetyAuditor("harness", im=None, obs=self.obs)
        self.votes = CommitVoteAudit(self)
        self.handoff = RestartHandoff(self)
        #: Cross-shard receipt inbox; only ``build_shard_engine`` sets one.
        self.receipts: ReceiptInboxProtocol | None = None
        # gid -> records screened but not yet packed.
        self._round_records: dict[str, list[TxRecord]] = {
            gid: [] for gid in topology.governors
        }
        # tx ids already packed into some block: the pack-time dedup
        # filter that lets late-screened records carry across rounds
        # without a later leader re-packing an on-chain transaction.
        self._packed_tx_ids: set[str] = set()
        self._enroll(topology, behaviors, stake)
        self.auditors: dict[str, SafetyAuditor] = {
            gid: SafetyAuditor(gid, im=self.im, obs=self.obs)
            for gid in topology.governors
        }
        # Per-governor Δ timers: the tx_ids scheduled (once), and the ones
        # that have not fired yet.
        self._timers_started: dict[str, set[str]] = {
            gid: set() for gid in topology.governors
        }
        self._timers_pending: dict[str, set[str]] = {
            gid: set() for gid in topology.governors
        }

        self.handoff.reanchor()

        # -- network wiring ----------------------------------------------
        # With resilience on, nodes register behind the reliable channel
        # (plain traffic passes through it untouched) and the lossless
        # groups ride the ack/retransmit transport.
        self.register = (
            self.channel.register if self.channel is not None else self.network.register
        )
        if self.resilience:
            self.broadcast.set_transport(self.channel, {"uploads"})
        for cid in topology.collectors:
            self.wire_collector(cid)
        self.broadcast.create_group("uploads", list(topology.governors))
        self.broadcast.create_group("blocks", list(topology.governors))
        for gid in topology.governors:
            self.register(gid, self._governor_on_message(gid))
            self.broadcast.register_handler("uploads", gid, self._governor_on_upload(gid))
            self.broadcast.register_handler("blocks", gid, self._governor_on_block(gid))
        for pid in topology.providers:
            self.register(pid, lambda message: None)
        if self.resilience:
            self.broadcast.enable_gap_repair(SEQUENCER_PRIMARY, SEQUENCER_BACKUP)

    def wire_collector(self, cid: str) -> None:
        """Give ``cid`` its feed group and its endpoint on the fabric
        (at construction, and again when a migrant arrives)."""
        group = f"feed:{cid}"
        if not self.broadcast.has_group(group):
            self.broadcast.create_group(group, [cid])
            if self.resilience:
                self.broadcast.add_reliable_group(group)
        self.register(cid, lambda message: self.broadcast.on_message(cid, message))
        self.broadcast.register_handler(group, cid, self._collector_on_feed(cid))

    def resume_past(self, blocks: Iterable[Block], round_number: int = 0) -> None:
        """Blocks that reached the store without this engine packing them
        (replayed from disk, pulled from a peer): their records never
        pack again and the round counter never falls behind them."""
        for block in blocks:
            self._packed_tx_ids.update(record.tx.tx_id for record in block.tx_list)
            round_number = max(round_number, block.round_number)
        self._round = max(self._round, round_number)

    # -- handlers ---------------------------------------------------------

    def _collector_on_feed(self, cid: str):
        def handle(sender: str, tx: SignedTransaction) -> None:
            collector = self.collectors.get(cid)
            if collector is None:
                # Released to another shard while this feed (or a
                # retransmission of it) was in flight: the delivery is
                # lost, as one to a crashed collector is.
                return
            flags = self.transcript.flags
            for labeled in collector.process_all(tx, self.oracle):
                flags[tx.tx_id] |= UPLOADED  # a feed carries only what _originate flagged
                self.broadcast.broadcast("uploads", cid, labeled)
        return handle

    def _governor_on_message(self, gid: str):
        def handle(message: Message) -> None:
            payload = message.payload
            if isinstance(payload, CommitVote):
                self.votes.receive(gid, payload)
                return
            if getattr(payload, "kind", None) == "xshard-receipt":
                if self.receipts is not None and not self.lifecycle.is_down(gid):
                    self.receipts.ingest(gid, payload)
                return
            if self.broadcast.on_message(gid, message):
                return
            if isinstance(payload, ArgueRequest):
                if message.sender in self.quarantined_nodes:
                    return
                record = self.governors[gid].handle_argue(payload.tx_id)
                if record is not None:
                    self._reevaluated_queue[payload.tx_id] = record
        return handle

    def _governor_on_upload(self, gid: str):
        started, pending = self._timers_started[gid], self._timers_pending[gid]

        def handle(sender: str, upload: LabeledTransaction) -> None:
            # Quarantine containment: a provably-Byzantine collector's
            # uploads are suppressed at every honest receiver.  (The
            # broadcast seqno was still consumed upstream, so honest
            # traffic behind it keeps flowing.)
            if sender in self.quarantined_nodes:
                return
            violation = self.auditors[gid].observe_upload(upload, self._round)
            if violation is not None and violation.provable:
                self.lifecycle.quarantine(violation.culprit, violation)
                return
            governor = self.governors[gid]
            tx_id = upload.tx.tx_id
            fresh = not governor.has_buffered(tx_id)
            if governor.ingest_upload(upload) and fresh:
                # Algorithm 2's starttime(tx, Δ) — first report arms it.
                if tx_id not in started:
                    started.add(tx_id)
                    pending.add(tx_id)
                    self.sim.schedule_after(
                        self.params.delta,
                        lambda: self._governor_endtime(gid, tx_id),
                    )
        return handle

    def _governor_endtime(self, gid: str, tx_id: str) -> None:
        """Algorithm 2's endtime(tx): screen when the Δ timer fires."""
        self._timers_pending[gid].discard(tx_id)
        governor = self.governors[gid]
        if not governor.has_buffered(tx_id):
            return  # already screened (defensive; timers arm only once)
        record = governor.screen_single(tx_id)
        if record is not None:
            self._round_records[gid].append(record)

    def drop_volatile(self, gid: str) -> None:
        """Crash-stop ``gid``'s memory: the report buffer, its armed Δ
        timers, screened-but-unpacked records and buffered receipts go;
        the durable ledger replica survives."""
        self.governors[gid].crash_reset()
        self._round_records[gid].clear()
        if self.receipts is not None:
            self.receipts.forget(gid)
        self._timers_started[gid].clear()

    def screen_before_release(self, cid: str) -> None:
        """Screen now what dropping ``cid`` would make every governor forget.

        A migration, unlike a crash, must not lose a delivered
        transaction.  When a reshuffle releases every collector that
        reported a transaction whose Δ timers are still pending, each
        governor's drop scrubs the last label, the timers no-op, nobody
        re-offers it and audits stay clean.  So governors about to lose
        their last report screen first — but only where no governor
        keeps the transaction, so a run that strands nothing keeps its
        ledgers.  (An entry re-buffered by an upload that arrived after
        its screening has no pending timer.)
        """
        doomed = [
            (gid, tx_id)
            for gid, governor in self.governors.items()
            for tx_id in governor.last_reports(cid)
            if tx_id in self._timers_pending[gid]
        ]

        def keeps(gid: str, tx_id: str) -> bool:
            if tx_id in self._timers_pending[gid]:  # holds a report the drop leaves?
                return (
                    (gid, tx_id) not in doomed
                    and self.governors[gid].has_buffered(tx_id)
                )
            return tx_id in self._timers_started[gid]  # screened already

        stranded = [
            key for key in doomed
            if not any(keeps(gid, key[1]) for gid in self.governors)
        ]
        for gid, tx_id in stranded:
            self._governor_endtime(gid, tx_id)

    def _governor_on_block(self, gid: str):
        def handle(sender: str, block: Block) -> None:
            governor = self.governors[gid]
            deliver = block
            store_hash = (
                self.store.retrieve(block.serial).hash()
                if self.store.base_serial < block.serial <= self.store.height
                else None
            )
            violations = self.auditors[gid].audit_block(
                block,
                expected_serial=governor.ledger.height + 1,
                expected_prev=governor.ledger.tip_hash(),
                round_number=self._round,
                store_hash=store_hash,
            )
            # Containment for in-flight block tampering: fall back to
            # the authentic published copy so the local chain stays
            # intact (the tampered copy's own hash would poison the
            # next append).
            if (
                any(v.type is ViolationType.BLOCK_TAMPER for v in violations)
                and store_hash is not None
            ):
                deliver = self.store.retrieve(block.serial)
            governor.ledger.append(deliver)
            if self.receipts is not None:
                self.receipts.committed(gid, deliver)
            if not self.lifecycle.is_down(gid):
                self.votes.send(gid, deliver)
        return handle

    # -- the phase-command surface shard hosts drive -------------------------

    def inject_receipts(self, receipts: Sequence) -> None:
        """Fan relayed cross-shard receipts out to every governor.

        The barrier-time injection point of a
        :class:`~repro.parallel.backend.ShardHost` (in-process, or in a pool
        worker when a pickled relay batch arrives over its command
        pipe).  Receipts are
        sent from the relay endpoint to the **full** governor set (so a
        relay survives any single governor crash) in batch order —
        latency draws consume this engine's network RNG in exactly the
        order the serial coordinator's per-receipt relays would, which
        is what keeps parallel ledgers bit-identical to serial ones.
        """
        if self.receipts is None:
            raise ConfigurationError("no cross-shard receipt inbox on this engine")
        for receipt in receipts:
            for gid in self.topology.governors:
                self.network.send(self.receipts.relay_id, gid, receipt)

    def carryover_depth(self) -> int:
        """Records queued for re-evaluation (argue outcomes) next round.

        Part of the phase-command surface: shard drivers budget each
        round's fresh specs as ``b_limit - carryover_depth()`` so the
        re-packed records never push a block past the universal bound.
        """
        return len(self._reevaluated_queue)

    def recovery_lagging(self) -> bool:
        """True while unrepaired broadcast gaps remain (resilience only).

        One probe of the :meth:`drain_recovery` exit condition, with the
        same repair-triggering side effect (a scan NACKs every lagging
        member).  Shard drivers call it between barrier-synchronized
        drain slices so every backend walks the end-of-run recovery
        drain through identical clock targets — keeping the final
        simulated clock, and hence reported sim-time throughput,
        identical between serial and multi-process execution.
        """
        if not self.resilience:
            return False
        return (
            self.broadcast.force_repair_scan() != 0
            or self.broadcast.pending_gap_total() != 0
        )

    # -- fault injection -----------------------------------------------------

    def install_faults(
        self, plan: FaultPlan, tamperer: object | None = None
    ) -> FaultInjector:
        """Run this engine under a seeded fault plan.

        Message faults intercept every send on the engine's network;
        node faults route through the engine's crash/recovery wiring so
        a "crash" is a real crash-stop (volatile state lost, churn
        applied), not just a link cut.  An optional ``tamperer``
        (:class:`repro.byzantine.tampering.MessageTamperer`) adds
        in-flight Byzantine corruption on top of the omission plan.
        Returns the installed injector (its ``stats`` record what
        actually fired).
        """
        injector = FaultInjector(
            plan=plan,
            on_crash=self.lifecycle.crash,
            on_recover=self.lifecycle.recover,
            tamperer=tamperer,
        )
        injector.install(self.network)
        self.injector = injector
        return injector

    # -- round execution ----------------------------------------------------

    def run_round(self, specs: Sequence[TxSpec]) -> RoundResult:
        """Execute one full round in simulated time.

        Composed from the phase-split API (:meth:`begin_round` /
        :meth:`begin_argue` / :meth:`complete_round`), draining through
        ``network.run_until`` — the one call whose meaning differs
        between transport backends (pure event stepping vs physically
        mediated stepping), so this method is the same over either.
        """
        ctx = self.begin_round(specs)
        self.network.run_until(ctx.drain_until)
        self.network.run_until(self.begin_argue(ctx))
        return self.complete_round(ctx)

    def begin_round(self, specs: Sequence[TxSpec]) -> RoundContext:
        """Phases 1–3 of a round: broadcasts, forgeries, pack trigger.

        Schedules but does not drain — the caller advances the simulator
        to ``ctx.drain_until`` before :meth:`begin_argue`, which is what
        lets a shard host overlap its shards' rounds on one clock.
        """
        round_number = self._begin_round(specs)
        t0 = self.sim.now
        cutoff = t0 + 2 * self.network.max_delay + self.params.delta + 0.001

        # Phase 1: providers broadcast at t0.
        originated = self._originate(specs, self.providers.__getitem__, t0)
        for provider, tx in originated:
            for cid in provider.linked_collectors:
                self.broadcast.broadcast(f"feed:{cid}", provider.provider_id, tx)
        # Forgery opportunities: once per live collector per round.
        forged = 0
        for collector in self.collectors.values():
            if collector.collector_id in self.crashed_nodes:
                continue
            upload = collector.maybe_forge(timestamp=t0)
            if upload is not None:
                forged += 1
                self.broadcast.broadcast("uploads", collector.collector_id, upload)

        # Phase 3 trigger: leader packs at the cutoff.  Drain target:
        # block dissemination takes one more hop past the pack.
        ctx = RoundContext(
            round_number=round_number,
            t0=t0,
            cutoff=cutoff,
            drain_until=cutoff + self.network.max_delay + 0.001,
            specs_count=len(specs),
            elected=self.election.run(self.stake, round_number),
            forged=forged,
        )
        self.sim.schedule_at(cutoff, lambda: self._pack_block(ctx))
        return ctx

    def _pack_block(self, ctx: RoundContext) -> None:
        """Phase 3, at ``ctx.cutoff``: the live leader packs and broadcasts."""
        # Failover is resolved at pack time: the elected leader may
        # have crashed mid-round, in which case the next live
        # governor in the (deterministic, globally known) order
        # packs instead.
        live = self.lifecycle.live_leader(ctx.elected)
        budget = self.params.b_limit - len(self._reevaluated_queue)
        # Buffered cross-shard receipts (shard engines only) go ahead of
        # the leader's screened records, so a home-committed transaction's
        # remote leg never starves behind new traffic.  Screened records
        # include ones carried over from rounds whose Δ timer fired past
        # the cutoff (late uploads must not drop a transaction).  One
        # pack-time filter keeps every record, receipt or not, off the
        # chain twice.
        receipts = (
            self.receipts.take(live, budget) if self.receipts is not None else []
        )
        records: list[TxRecord] = []
        seen: set[str] = set()
        for record in receipts + self._round_records[live]:
            tx_id = record.tx.tx_id
            if tx_id in self._packed_tx_ids or tx_id in seen:
                continue
            seen.add(tx_id)
            records.append(record)
        # Pack against the canonical published tip.  A leader that
        # somehow lags (e.g. healed from a partition) must extend the
        # agreed chain, not its stale local copy; in a synchronous
        # deployment the two coincide.  ``tip_hash`` also covers a
        # store anchored at a compacted checkpoint base.
        ctx.block = self._pack(
            live, self.store.tip_hash(), records[: max(budget, 0)], ctx.round_number
        )
        for record in ctx.block.tx_list:
            self._packed_tx_ids.add(record.tx.tx_id)
        self.broadcast.broadcast("blocks", live, ctx.block)

    def begin_argue(self, ctx: RoundContext) -> float:
        """Phase 4: providers read the packed block and raise argues.

        Call after draining the simulator to ``ctx.drain_until``.
        Returns the sim time the caller must drain to before
        :meth:`complete_round` (one hop for the argue messages).
        """
        # Prune every governor's screened records down to the not-yet-
        # packed ones.  Fault-free this empties the lists exactly like
        # the old unconditional clear (everything screened this round
        # was packed this round); under faults it is what carries a
        # late-screened record to the next leader's pack.
        for gid in self.topology.governors:
            self._round_records[gid] = [
                r
                for r in self._round_records[gid]
                if r.tx.tx_id not in self._packed_tx_ids
            ]
        if ctx.block is None:
            raise SimulationError("leader failed to pack a block")

        ctx.argue_start = self.sim.now
        argues = 0
        for pid, tx_id, serial in self._argue_scan():
            argues += 1
            request = ArgueRequest(provider=pid, tx_id=tx_id, serial=serial)
            for gid in self.topology.governors:
                self.network.send(pid, gid, request)
        ctx.argues = argues
        return self.sim.now + self.network.max_delay + 0.001

    def complete_round(self, ctx: RoundContext) -> RoundResult:
        """Close a round: rewards and the run record, end-of-round audit,
        telemetry."""
        result = self._close_round(RoundResult(
            ctx.block, ctx.specs_count, ctx.argues, len(self._reevaluated_queue), ctx.forged
        ))
        self.votes.end_of_round(ctx.round_number)
        self.obs.record_span(
            "argue_phase", ctx.argue_start, self.sim.now, round=ctx.round_number
        )
        self.obs.record_span(
            "round", ctx.t0, self.sim.now, round=ctx.round_number,
            leader=ctx.block.proposer,
        )
        return result

    def drain_recovery(self) -> None:
        """Let in-flight retransmits and gap repairs complete.

        Runs the simulator on for up to several repair round trips.
        With resilience on, call before asserting the zero-stuck-gap
        invariant; a no-op otherwise.
        """
        if not self.resilience:
            return
        drain_start = self.sim.now
        walk_recovery_drain(
            self.recovery_lagging,
            lambda dt: self.network.run_until(self.sim.now + dt),
            self.network.max_delay,
        )
        self.obs.record_span("drain_recovery", drain_start, self.sim.now)

    def finalize(self) -> None:
        """Drain recovery, then close the books by RoundCore's rule: a
        closing round (drained in turn) packs any argue-admitted record,
        and every pending truth is revealed.  The audit stays per round
        (``harness_auditor``)."""
        self.drain_recovery()
        self._close_books(lambda: (self.run_round(()), self.drain_recovery()))

    def close(self) -> None:
        """Close the network (a real-socket one releases its connections)."""
        self.network.close()
