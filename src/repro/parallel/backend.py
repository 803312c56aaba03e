"""Shard ops, written once: :class:`ShardHost` runs shard engines a super-round at a time.

:class:`~repro.sharding.ShardCoordinator` is split into a *driver*
(workload routing, receipt bookkeeping, auditing, epoch reshuffles) and
the *hosts* that run the ``S`` protocol engines, each super-round in
one :meth:`ShardHost.run_round` call over the phase-split round API.
A :class:`ShardHost` is a subset of the deployment's shard engines on
**one** :class:`~repro.network.simnet.Simulator`, built from one
:class:`HostSpec`; every op takes and returns plain picklable
``{shard: value}`` data, so the same class serves as

* the **in-process backend** — one host over all shards, called
  directly by the driver (``kind == "serial"``), and
* a **pool worker** — one host over the worker's shards, built in the
  driver and served from the fork behind the pipe loop of
  :mod:`repro.parallel.worker`, with
  :class:`~repro.parallel.pool.ParallelBackend` routing each op by shard
  and merging the replies.

**Why the partition of shards over hosts cannot change a ledger.**
Shard engines are sovereign: each owns its network, broadcast fabric,
identity manager, RNG streams and ledger family.  Engines on one host
share only the simulator — its clock and its event heap.  The
simulator's own RNG is never consumed; no event of one engine reads or
writes another engine's state; and the heap breaks ties at equal times
by insertion order, which any interleaving with another engine's events
preserves *within* each engine.  Every phase ends with the clock parked
at the latest of its shards' targets (``Simulator.run(until=...)``
always parks), and every shard engine computes a target by one formula
from the clock the phase starts at, so the latest over a host's shards
is the latest over all of them.  So a shard's event history depends
only on (a) its own seeded state and (b) the clock targets — the same
on a host that runs every shard, a host that runs two of four, and a
host that runs one.  The one cross-shard interaction — receipt relays —
happens only while the clock is parked between super-rounds, and the
driver preserves the per-remote-shard relay order, so each remote
network's latency-RNG draw sequence is unchanged.  The in-process backend is the reference every
parallel parity test compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from repro.ledger.properties import check_all_properties
from repro.network.simnet import Simulator
from repro.network.topology import ShardedTopology
from repro.workloads.generator import TxSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports)
    from repro.core.lifecycle import Departure
    from repro.core.netengine import NetworkedProtocolEngine

__all__ = [
    "HostSpec",
    "ShardHost",
    "ShardRoundInfo",
    "ShardScan",
    "ShardChainStats",
    "scan_shard_commits",
    "build_shard_engine",
]


@dataclass(frozen=True)
class HostSpec:
    """Everything a host needs to build its shard engines from scratch.

    The one place the engines' construction arguments are named.  The
    driver builds a pool worker's host from its spec before the fork,
    and keeps the spec to build a replacement after a crash (engines then
    re-anchor from their durable checkpoints, when storage is
    configured).  Its behaviours must pickle: an epoch reshuffle pipes a
    migrating collector's live behaviour from one worker to another.
    """

    topology: ShardedTopology
    params: object
    #: Global behaviour map; each engine filters to its own collectors.
    behaviors: Mapping[str, object]
    seed: int
    resilience: bool
    #: Per-shard :class:`~repro.storage.StorageConfig` (or None).
    storage: tuple
    #: Global shard indices this host runs, in driver order.
    shards: tuple[int, ...]


class ShardRoundInfo(NamedTuple):
    """Picklable outcome of one shard's round, as the driver sees it.

    The driver needs the summary (and ``carryover`` for next round's
    spec budget), not the block body, which stays with the host.  A
    tuple on the wire: one crosses a worker's pipe every round, and a
    dataclass would pickle its field names along each time.
    """

    shard: int
    round_number: int
    leader: str
    block_serial: int
    block_size: int
    argues_sent: int
    #: Re-evaluated-record queue depth after the round — next round's
    #: fresh-spec budget is ``b_limit - carryover``.
    carryover: int


@dataclass(frozen=True)
class ShardScan:
    """One shard's committed-block scan since the driver's last cursor.

    ``events`` preserves exact (block, record) order with two shapes:

    * ``("r", receipt_id, serial)`` — a cross-shard receipt record
      landed on this (remote) shard's chain at ``serial``;
    * ``("m", receipt, verified)`` — a fresh cross-shard origin commit
      minted ``receipt`` for relay; ``verified`` is the home identity
      manager's verdict on the proposer signature (checked where the
      keys live, so the driver never needs a remote shard's IM).
    """

    shard: int
    #: Store height after the scan — the driver's next cursor.
    cursor: int
    #: Origin (non-receipt) records committed in the scanned range.
    origin: int
    events: tuple


@dataclass(frozen=True)
class ShardChainStats:
    """Per-shard chain/reporting summary (CLI + benchmarks)."""

    shard: int
    height: int
    origin: int
    cross_out: int
    receipts_in: int
    reputation_mass: float
    properties_hold: bool


def build_shard_engine(
    spec: HostSpec, shard: int, sim: Simulator, obs=None
) -> "NetworkedProtocolEngine":
    """Construct shard ``k``'s engine exactly as every host must.

    Single source of truth for the per-shard derived seed
    (``seed + 7919 * (k + 1)``), the behaviour filtering, and the relay
    enrolment order — any divergence here would break bit-identity
    between hosts.  The receipt inbox is what makes the engine a *shard*
    engine; no other deployment builds one.
    """
    from repro.core.netengine import NetworkedProtocolEngine
    from repro.sharding.inbox import ReceiptInbox  # lazily: see scan_shard_commits

    topology = spec.topology.shards[shard]
    engine = NetworkedProtocolEngine(
        topology,
        spec.params,
        behaviors={
            cid: b for cid, b in spec.behaviors.items() if cid in topology.collectors
        },
        seed=spec.seed + 7919 * (shard + 1),
        resilience=spec.resilience,
        obs=obs,
        sim=sim,
        storage=spec.storage[shard],
    )
    engine.receipts = ReceiptInbox(engine, relay_id=f"relay-s{shard}")
    return engine


def scan_shard_commits(
    engine: "NetworkedProtocolEngine",
    shard: int,
    from_serial: int,
    provider_shard: Mapping[str, int],
) -> ShardScan:
    """Scan one shard's chain past ``from_serial`` for the driver.

    Receipts for fresh cross-shard origin commits are minted *here* —
    where the proposer's signing key and the home identity manager
    live — and shipped to the driver pre-verified.  Event order is the
    exact (block, record) commit order, which the driver relies on to
    replay the serial coordinator's audit/relay sequence.
    """
    # Imported here, not at module level: ``repro.sharding``'s package
    # init pulls in the coordinator, which imports this module — a
    # process that imports ``repro.parallel`` first would hit the cycle.
    from repro.sharding.receipts import make_receipt, verify_receipt

    events: list[tuple] = []
    origin = 0
    serial = from_serial
    while serial < engine.store.height:
        serial += 1
        block = engine.store.retrieve(serial)
        for record in block.tx_list:
            payload = record.tx.body.payload
            if isinstance(payload, dict) and "xshard_receipt" in payload:
                events.append(("r", payload["xshard_receipt"], serial))
                continue
            origin += 1
            if not (isinstance(payload, dict) and "xshard_to" in payload):
                continue
            target = provider_shard.get(payload["xshard_to"])
            if target is None or target == shard:
                continue  # same-shard counterparty needs no relay
            receipt = make_receipt(
                engine.governors[block.proposer].key,
                home_shard=shard,
                remote_shard=target,
                tx_id=record.tx.tx_id,
                home_serial=serial,
            )
            events.append(("m", receipt, verify_receipt(receipt, engine.im)))
    return ShardScan(shard=shard, cursor=serial, origin=origin, events=tuple(events))


def shard_chain_stats(
    engine: "NetworkedProtocolEngine", shard: int
) -> ShardChainStats:
    """Reporting summary of one shard engine."""
    origin = cross_out = receipts_in = 0
    for serial in range(1, engine.store.height + 1):
        for record in engine.store.retrieve(serial).tx_list:
            payload = record.tx.body.payload
            if isinstance(payload, dict) and "xshard_receipt" in payload:
                receipts_in += 1
                continue
            origin += 1
            if isinstance(payload, dict) and "xshard_to" in payload:
                cross_out += 1
    props = check_all_properties(engine.ledgers(), engine.transcript)
    return ShardChainStats(
        shard=shard,
        height=engine.store.height,
        origin=origin,
        cross_out=cross_out,
        receipts_in=receipts_in,
        reputation_mass=float(sum(engine.collector_masses().values())),
        properties_hold=props.all_hold,
    )


class ShardHost:
    """Some of a deployment's shard engines on one simulator clock.

    A super-round is :meth:`run_round` then :meth:`relay` (first sends),
    and on epoch boundaries :meth:`collector_masses` /
    :meth:`release_collectors` / :meth:`adopt_collectors`; the host keeps
    no state between ops.  Engines run with ``obs`` when the host is
    the in-process backend and without in a pool worker (registries are
    process-local; the no-op registry is behaviour-neutral).
    """

    #: As a coordinator's backend: every shard, called directly.
    kind = "serial"

    def __init__(self, spec: HostSpec, obs=None):
        self.provider_shard = spec.topology.provider_shard
        self.sim = Simulator()
        self.engines: dict[int, "NetworkedProtocolEngine"] = {
            k: build_shard_engine(spec, k, self.sim, obs) for k in spec.shards
        }

    def run_round(
        self, relays: Mapping[int, Sequence], specs: Mapping[int, Sequence[TxSpec]],
        cursors: Mapping[int, int],
    ) -> tuple[float, dict[int, ShardRoundInfo], dict[int, ShardScan]]:
        """One super-round on every hosted shard: relay the retries, begin
        the rounds and run to the latest drain target, begin the argues and
        run to the latest argue target, close the rounds, then scan the
        commits past the driver's ``cursors``."""
        self.relay(relays)
        ctxs = {k: self.engines[k].begin_round(batch) for k, batch in specs.items()}
        self.sim.run(until=max(ctx.drain_until for ctx in ctxs.values()))
        argue_until = max(self.engines[k].begin_argue(ctx) for k, ctx in ctxs.items())
        self.sim.run(until=argue_until)
        infos = {}
        for k, ctx in ctxs.items():
            engine = self.engines[k]
            result = engine.complete_round(ctx)
            block = result.block
            infos[k] = ShardRoundInfo(
                shard=k, round_number=block.round_number, leader=block.proposer,
                block_serial=block.serial, block_size=len(block.tx_list),
                argues_sent=result.argues, carryover=engine.carryover_depth(),
            )
        scans = {
            k: scan_shard_commits(self.engines[k], k, cursor, self.provider_shard)
            for k, cursor in cursors.items()
        }
        return self.sim.now, infos, scans

    def run_until(self, until: float) -> None:
        self.sim.run(until=until)

    def relay(self, batches: Mapping[int, Sequence]) -> None:
        for k, receipts in batches.items():
            self.engines[k].inject_receipts(receipts)

    def repair_scan(self, shard: int) -> bool:
        return self.engines[shard].recovery_lagging()

    def collector_masses(self) -> dict[str, float]:
        masses: dict[str, float] = {}
        for engine in self.engines.values():
            masses.update(engine.collector_masses())
        return masses

    def release_collectors(
        self, by_shard: Mapping[int, Sequence[str]]
    ) -> dict[str, Departure]:
        return {
            cid: self.engines[k].lifecycle.release(cid)
            for k, cids in by_shard.items()
            for cid in cids
        }

    def adopt_collectors(
        self, by_shard: Mapping[int, Sequence[tuple[str, Departure]]]
    ) -> None:
        """Each arrival is ``(collector, what it carries)``, its provider
        slots already replaced by the ones it fills on this shard."""
        for k, arrivals in by_shard.items():
            for cid, departure in arrivals:
                self.engines[k].lifecycle.adopt(cid, *departure)

    def quarantine_logs(self) -> dict[int, list[tuple]]:
        """Per-shard ``quarantine_log``: verdicts reached on, or carried
        onto, each shard."""
        return {k: list(engine.quarantine_log) for k, engine in self.engines.items()}

    def install_faults(self, shard: int, plan, tamperer=None) -> None:
        self.engines[shard].install_faults(plan, tamperer=tamperer)

    def fault_stats(self) -> dict[int, object]:
        """Per-shard injector stats (None where no plan is installed)."""
        return {
            k: None if engine.injector is None else engine.injector.stats
            for k, engine in self.engines.items()
        }

    def tip_hashes(self) -> dict[int, str]:
        return {k: engine.store.tip_hash().hex() for k, engine in self.engines.items()}

    def chain_stats(self) -> dict[int, ShardChainStats]:
        return {k: shard_chain_stats(engine, k) for k, engine in self.engines.items()}

    def finalize_engines(self) -> None:
        # The coordinator closed the books at its barrier (flush, then the
        # recovery drain): no engine may run a round or a drain off it.
        for engine in self.engines.values():
            engine.reveal_pending()

    def now(self) -> float:
        return self.sim.now

    def close(self) -> None:  # in-process: nothing to tear down
        pass
