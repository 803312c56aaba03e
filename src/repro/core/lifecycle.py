"""Who is in a networked engine's deployment, who is out, and how a node crosses.

:class:`NodeLifecycle` owns that state for one
:class:`~repro.core.netengine.NetworkedProtocolEngine` — the crashed
set, the quarantine verdicts, ``fault_log`` and ``quarantine_log`` — and
every transition between them.  The round reads the two sets and asks
two questions (:meth:`~NodeLifecycle.is_down`,
:meth:`~NodeLifecycle.live_leader`); fault plans, auditors, operators
and shard hosts call the transitions.

Each transition is a composition of four primitives, written once:

* **link** — cut or heal the node's network link;
* **volatile state** — drop what a governor holds only in memory;
* **books** — retire a collector from, or admit it to, every
  governor's reputation book (the churn rules: admission is at the
  incumbents' **median**, never at an earlier or imported standing);
* **replica + cursors** — resync a governor's ledger replica from the
  published store (:func:`repro.ledger.sync.sync_replica`; the hash
  chain authenticates the catch-up) and move the node's broadcast
  cursors past what it missed.

Which transition composes which is DESIGN.md's lifecycle table (§
"Fault model & resilience"); each method below says its own row.
*volatile state* and *replica* apply to governors, *books* to
collectors; a column that does not apply to the node's role is a no-op.
A collector is admitted only once it is neither crashed nor
quarantined, so a verdict outlives a crash and a migration alike.

**Crash** is crash-stop: the durable ledger replica survives, the
in-memory report buffer, armed Δ timers, screened-but-unpacked records
and buffered receipts do not.  Uploads a recovered governor missed
entirely are covered by its peers, as the paper's redundancy (``m``
governors screen every transaction) intends.  A crashed elected leader
fails over deterministically to the next live governor at pack time.

**Quarantine** is an application-layer verdict on a provable violation,
not a crash: the link stays up and blocks still reach a quarantined
governor (ledgers never stall), but its payloads are suppressed at
every honest receiver, it never packs, and a collector leaves every
book.  Readmission (:meth:`~NodeLifecycle.release_quarantine`, on the
engine that hosts the node) is the only way back.

**Migration** moves a collector between shard engines.  What it
carries is a :class:`Departure`: the provider slots it vacated, its
live behaviour and its *standing*.  Reputation never travels — the
destination bootstraps at the median — but a quarantine does: were it
to stay behind, a reputation-balanced reshuffle would launder exactly
the verdict that is meant to decide who is trusted.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import TYPE_CHECKING, NamedTuple, Sequence

from repro.agents.behaviors import CollectorBehavior, HonestBehavior
from repro.agents.collector import Collector
from repro.audit.auditor import AuditViolation, ViolationType
from repro.crypto.identity import Role
from repro.exceptions import ConfigurationError, SimulationError
from repro.ledger.sync import sync_replica

if TYPE_CHECKING:  # pragma: no cover - the engine builds its lifecycle
    from repro.core.netengine import NetworkedProtocolEngine

__all__ = ["Departure", "NodeLifecycle"]


class Departure(NamedTuple):
    """What a migrating collector carries to its next shard."""

    #: The provider slots it vacated (inherited by whoever fills them).
    providers: tuple[str, ...]
    behavior: CollectorBehavior
    #: What it is quarantined for; None in good standing.
    violation: ViolationType | None


class NodeLifecycle:
    """Crash, quarantine and migration state of one engine's nodes."""

    def __init__(self, engine: NetworkedProtocolEngine):
        self.engine = engine
        #: Nodes currently crash-stopped.
        self.crashed_nodes: set[str] = set()
        # node id -> what it is quarantined for.
        self._quarantined: dict[str, ViolationType] = {}
        #: Nodes currently quarantined on a provable violation (live view).
        self.quarantined_nodes = self._quarantined.keys()
        #: (sim time, "crash"/"recover", node id, blocks synced on recovery)
        self.fault_log: list[tuple[float, str, str, int]] = []
        #: (sim time, round, node id, violation type)
        self.quarantine_log: list[tuple[float, int, str, str]] = []
        #: ``governor`` / ``collector`` / ``other`` -> nodes contained.
        self.quarantines_by_role: dict[str, int] = defaultdict(int)
        engine.obs.counter(
            "engine_crash_events_total",
            "Node crash/recover transitions applied by the engine",
            labels=("event",),
            read=lambda: Counter(event for _t, event, _n, _s in self.fault_log),
        )
        engine.obs.counter(
            "audit_quarantines_total",
            "Nodes quarantined on a provable violation, by role",
            labels=("role",),
            read=lambda: self.quarantines_by_role,
        )

    # -- what the round asks -------------------------------------------------

    def is_down(self, node_id: str) -> bool:
        """Crashed or quarantined: takes no part in the round."""
        return node_id in self.crashed_nodes or node_id in self._quarantined

    def live_leader(self, elected: str) -> str:
        """Deterministic leader failover: next eligible governor in order.

        Walks the election's order, so an expelled governor is never a
        failover; skips crashed *and* quarantined governors — a
        provably-Byzantine governor must never pack a block while contained.
        """
        order = self.engine.election.governor_order
        start = order.index(elected)
        for offset in range(len(order)):
            candidate = order[(start + offset) % len(order)]
            if not self.is_down(candidate):
                return candidate
        raise SimulationError(
            "all governors are crashed or quarantined; cannot pack a block"
        )

    # -- the primitives (link is network.partition / network.heal) ------------

    def _retire(self, node_id: str) -> None:
        """Books, out: every governor retires a collector's reputation
        vector and scrubs its buffered labels (late in-flight uploads
        from it are then dropped at ingestion), and the store forgets its
        read cursor, which would otherwise leak forever under churn soaks."""
        engine = self.engine
        if node_id not in engine.collectors:
            return
        for governor in engine.governors.values():
            if governor.book.is_registered(node_id):
                governor.drop_collector(node_id)
        engine.store.forget_reader(node_id)

    def _rejoin(self, node_id: str) -> int:
        """Replica + cursors, then books, in: a governor pulls every missed
        block and skips the broadcasts it missed so buffered later ones
        flow again; a collector skips the feed broadcast while it was
        away (its peers labelled that) and, unless still down, registers
        with every governor that retired it.  Returns blocks synced."""
        engine = self.engine
        synced, groups = 0, ()
        if node_id in engine.governors:
            synced = sync_replica(engine.governors[node_id].ledger, engine.store)
            groups = ("uploads", "blocks")
        elif node_id in engine.collectors:
            groups = (f"feed:{node_id}",)
        for group in groups:
            engine.broadcast.skip_to(
                group, node_id, engine.broadcast.current_seqno(group)
            )
        if node_id in engine.collectors and not self.is_down(node_id):
            providers = engine.collectors[node_id].linked_providers
            for governor in engine.governors.values():
                if not governor.book.is_registered(node_id):
                    governor.admit_collector(node_id, providers)
        return synced

    # -- crash / recover -------------------------------------------------------

    def crash(self, node_id: str) -> None:
        """Crash-stop any node, with role-appropriate semantics.  Idempotent."""
        if node_id in self.crashed_nodes:
            return
        self.crashed_nodes.add(node_id)
        self.engine.network.partition(node_id)
        if node_id in self.engine.governors:
            self.engine.drop_volatile(node_id)
        self._retire(node_id)
        self.fault_log.append((self.engine.sim.now, "crash", node_id, 0))

    def recover(self, node_id: str) -> None:
        """Rejoin a crashed node; a no-op for one that is not crashed."""
        if node_id not in self.crashed_nodes:
            return
        self.crashed_nodes.discard(node_id)
        self.engine.network.heal(node_id)
        synced = self._rejoin(node_id)
        self.fault_log.append((self.engine.sim.now, "recover", node_id, synced))

    # -- quarantine / release ----------------------------------------------------

    def quarantine(self, node_id: str, violation: AuditViolation) -> None:
        """Contain a provably-Byzantine node.  Idempotent."""
        if node_id not in self._quarantined:
            self._contain(node_id, violation.type)

    def _contain(self, node_id: str, violation: ViolationType) -> None:
        engine = self.engine
        self._quarantined[node_id] = violation
        self._retire(node_id)
        self.quarantine_log.append(
            (engine.sim.now, engine.round_number, node_id, violation.value)
        )
        role = (
            "governor" if node_id in engine.governors
            else "collector" if node_id in engine.collectors
            else "other"
        )
        self.quarantines_by_role[role] += 1

    def release_quarantine(self, node_id: str) -> None:
        """Readmit a quarantined node through the churn path.

        Mirrors crash recovery; a collector re-enters every book at the
        median — readmission never restores pre-quarantine standing.
        """
        if self._quarantined.pop(node_id, None) is not None:
            self._rejoin(node_id)

    # -- epoch migration (sharded deployments) ------------------------------------

    def release(self, cid: str) -> Departure:
        """Expel a collector for migration to another shard.

        The departure side of an epoch reshuffle: every governor retires
        the collector's reputation vector, its providers unlink it, the
        agent leaves the engine and takes its standing along.  Nothing of
        it stays behind, a cut link included.
        """
        engine = self.engine
        if cid not in engine.collectors:
            raise ConfigurationError(f"unknown collector {cid!r}")
        engine.screen_before_release(cid)
        self._retire(cid)
        collector = engine.collectors.pop(cid)
        for pid in collector.linked_providers:
            provider = engine.providers[pid]
            provider.linked_collectors = tuple(
                c for c in provider.linked_collectors if c != cid
            )
        if cid in self.crashed_nodes:
            self.crashed_nodes.discard(cid)
            engine.network.heal(cid)
        return Departure(
            collector.linked_providers,
            collector.behavior,
            self._quarantined.pop(cid, None),
        )

    def adopt(
        self,
        cid: str,
        providers: Sequence[str],
        behavior: CollectorBehavior | None = None,
        violation: ViolationType | None = None,
    ) -> None:
        """Admit a migrating collector into this shard.

        The arrival side of an epoch reshuffle: the collector inherits
        the given provider slots (typically vacated by an outbound
        migrant, keeping the feed degree regular) and is wired into the
        network/broadcast fabric.  In good standing it enters every book
        at the median; carrying a ``violation`` it arrives quarantined —
        logged here, in no book, its uploads suppressed — until
        :meth:`release_quarantine` on this engine.
        """
        engine = self.engine
        if cid in engine.collectors:
            raise ConfigurationError(f"collector {cid!r} already on this shard")
        providers = tuple(providers)
        if engine.im.is_enrolled(cid):
            key = engine.im.record(cid).key
        else:
            key = engine.im.enroll(cid, Role.COLLECTOR)
        engine.collectors[cid] = Collector(
            collector_id=cid,
            key=key,
            linked_providers=providers,
            behavior=behavior if behavior is not None else HonestBehavior(),
            seed=engine.seed,
        )
        for pid in providers:
            engine.im.register_link(cid, pid)
            provider = engine.providers[pid]
            if cid not in provider.linked_collectors:
                provider.linked_collectors = tuple(provider.linked_collectors) + (cid,)
        engine.wire_collector(cid)
        if violation is not None:
            self._contain(cid, violation)
        self._rejoin(cid)
