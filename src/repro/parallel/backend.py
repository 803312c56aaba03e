"""The pluggable shard execution surface and its in-process backend.

:class:`~repro.sharding.ShardCoordinator` is split into a *driver*
(workload routing, receipt bookkeeping, auditing, epoch reshuffles) and
an *execution backend* that actually runs the ``S`` protocol engines
through the phase-split round API.  :class:`ShardExecutionBackend` is
the narrow protocol between the two — the thin-Protocol-over-richer-
engine idiom: the driver only ever speaks in phase commands and plain
picklable results, so the same driver logic runs against

* :class:`SerialBackend` — all engines in this process on one shared
  :class:`~repro.network.simnet.Simulator` (the original coordinator
  behaviour, bit-for-bit), and
* :class:`~repro.parallel.pool.ParallelBackend` — one engine per shard
  in spawned worker processes, synchronized at the phase barriers over
  command pipes.

Every value that crosses the interface (specs in, drain targets,
round summaries, scan events, receipts) is picklable by construction;
nothing in the driver ever holds a live engine reference through this
interface, which is exactly what makes the process-pool backend a
drop-in.

**Why parallel == serial, bit for bit.**  Shard engines are sovereign:
each owns its network, broadcast fabric, identity manager, RNG streams,
and ledger family.  In the serial coordinator they share only the
simulator *clock*, and every phase ends with the clock parked at the
barrier maximum (``Simulator.run(until=...)`` always parks).  Since the
shared simulator's own RNG is never consumed, a shard's event stream
depends only on (a) its own seeded state and (b) the barrier times —
so a worker that runs the same engine on a private clock, advanced to
the same barrier targets, reproduces the exact event history.  The one
cross-shard interaction — receipt relays — happens only while the
clock is parked between super-rounds, and the driver preserves the
per-remote-shard relay order, so each remote network's latency-RNG
draw sequence is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence

from repro.exceptions import ConfigurationError
from repro.ledger.properties import check_all_properties
from repro.network.simnet import Simulator
from repro.network.topology import ShardedTopology
from repro.workloads.generator import TxSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports)
    from repro.core.netengine import NetworkedProtocolEngine

__all__ = [
    "ShardExecutionBackend",
    "SerialBackend",
    "ShardRoundInfo",
    "ShardScan",
    "ShardChainStats",
    "scan_shard_commits",
    "build_shard_engine",
]


@dataclass(frozen=True)
class ShardRoundInfo:
    """Picklable outcome of one shard's round, as the driver sees it.

    The parallel backend returns these instead of full
    :class:`~repro.core.netengine.NetworkedRoundResult` objects — the
    driver needs the summary (and ``carryover`` for next round's spec
    budget), not the block body, which stays worker-side.
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


class ShardExecutionBackend(Protocol):
    """What a shard driver needs from an execution substrate — no more.

    One round trip per phase; all arguments and results picklable.  The
    driver calls, in super-round order: :meth:`relay` (retries),
    :meth:`carryover`, :meth:`begin_round`, :meth:`run_until`,
    :meth:`begin_argue`, :meth:`run_until`, :meth:`complete_round`,
    :meth:`scan_commits`, :meth:`relay` (first sends) — then, on epoch
    boundaries, :meth:`collector_masses` / :meth:`release_collectors` /
    :meth:`adopt_collectors`.
    """

    @property
    def num_shards(self) -> int: ...

    @property
    def kind(self) -> str: ...

    def carryover(self) -> list[int]: ...

    def begin_round(self, specs: Sequence[Sequence[TxSpec]]) -> list[float]: ...

    def run_until(self, until: float) -> None: ...

    def begin_argue(self) -> list[float]: ...

    def complete_round(self) -> list: ...

    def scan_commits(self, cursors: Sequence[int]) -> list[ShardScan]: ...

    def relay(self, batches: Mapping[int, Sequence]) -> None: ...

    def repair_scan(self, shard: int) -> bool: ...

    def collector_masses(self) -> dict[str, float]: ...

    def release_collectors(
        self, by_shard: Mapping[int, Sequence[str]]
    ) -> dict[str, tuple[tuple[str, ...], object]]: ...

    def adopt_collectors(
        self, assignments: Sequence[tuple[int, str, tuple[str, ...], object]]
    ) -> None: ...

    def install_faults(self, shard: int, plan, tamperer=None): ...

    def tip_hashes(self) -> list[str]: ...

    def chain_stats(self) -> list[ShardChainStats]: ...

    def finalize_engines(self) -> None: ...

    def now(self) -> float: ...

    def close(self) -> None: ...


def build_shard_engine(
    shard: int,
    topology,
    params,
    behaviors: Mapping[str, object],
    seed: int,
    min_delay: float,
    max_delay: float,
    resilience: bool,
    obs=None,
    sim: Simulator | None = None,
    storage=None,
) -> "NetworkedProtocolEngine":
    """Construct shard ``k``'s engine exactly as every backend must.

    Single source of truth for the per-shard derived seed
    (``seed + 7919 * (k + 1)``), the behaviour filtering, and the relay
    enrolment order — any divergence here would break serial/parallel
    bit-identity, so both backends call this one function.
    """
    from repro.core.netengine import NetworkedProtocolEngine

    shard_behaviors = {
        cid: b for cid, b in dict(behaviors or {}).items()
        if cid in topology.collectors
    }
    engine = NetworkedProtocolEngine(
        topology,
        params,
        behaviors=shard_behaviors,
        seed=seed + 7919 * (shard + 1),
        min_delay=min_delay,
        max_delay=max_delay,
        resilience=resilience,
        obs=obs,
        sim=sim,
        storage=storage,
    )
    engine.enable_xshard(relay_id=f"relay-s{shard}")
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
    # init pulls in the coordinator, which imports this module — spawned
    # workers import ``repro.parallel`` first and would hit the cycle.
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
    """Reporting summary of one shard engine (shared by both backends)."""
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


class SerialBackend:
    """All shard engines in-process on one shared simulator clock.

    The original :class:`~repro.sharding.ShardCoordinator` execution
    model, factored behind :class:`ShardExecutionBackend`.  Seeded runs
    are bit-identical to pre-split builds: engine construction order,
    per-shard seeds, relay enrolment, and the per-remote receipt-relay
    order are all unchanged.
    """

    kind = "serial"

    def __init__(
        self,
        topology: ShardedTopology,
        params,
        behaviors: Mapping[str, object] | None = None,
        seed: int = 0,
        min_delay: float = 0.005,
        max_delay: float = 0.05,
        resilience: bool = False,
        obs=None,
        storage: Sequence[object | None] | None = None,
    ):
        self.topology = topology
        self.provider_shard = dict(topology.provider_shard)
        self.sim = Simulator(seed=seed)
        if obs is not None:
            obs.bind_clock(lambda: self.sim.now)
        storage = list(storage) if storage is not None else [None] * topology.num_shards
        self.engines: list = [
            build_shard_engine(
                k,
                shard_topo,
                params,
                behaviors or {},
                seed,
                min_delay,
                max_delay,
                resilience,
                obs=obs,
                sim=self.sim,
                storage=storage[k],
            )
            for k, shard_topo in enumerate(topology.shards)
        ]
        self._ctxs: list | None = None

    @property
    def num_shards(self) -> int:
        return len(self.engines)

    def carryover(self) -> list[int]:
        return [engine.carryover_depth() for engine in self.engines]

    def begin_round(self, specs: Sequence[Sequence[TxSpec]]) -> list[float]:
        self._ctxs = [
            engine.begin_round(batch) for engine, batch in zip(self.engines, specs)
        ]
        return [ctx.drain_until for ctx in self._ctxs]

    def run_until(self, until: float) -> None:
        self.sim.run(until=until)

    def begin_argue(self) -> list[float]:
        if self._ctxs is None:
            raise ConfigurationError("begin_argue before begin_round")
        return [
            engine.begin_argue(ctx) for engine, ctx in zip(self.engines, self._ctxs)
        ]

    def complete_round(self) -> list:
        if self._ctxs is None:
            raise ConfigurationError("complete_round before begin_round")
        results = [
            engine.complete_round(ctx)
            for engine, ctx in zip(self.engines, self._ctxs)
        ]
        self._ctxs = None
        return results

    def scan_commits(self, cursors: Sequence[int]) -> list[ShardScan]:
        return [
            scan_shard_commits(engine, k, cursors[k], self.provider_shard)
            for k, engine in enumerate(self.engines)
        ]

    def relay(self, batches: Mapping[int, Sequence]) -> None:
        for shard, receipts in batches.items():
            self.engines[shard].inject_receipts(receipts)

    def repair_scan(self, shard: int) -> bool:
        return self.engines[shard].recovery_lagging()

    def collector_masses(self) -> dict[str, float]:
        masses: dict[str, float] = {}
        for engine in self.engines:
            masses.update(engine.collector_masses())
        return masses

    def release_collectors(
        self, by_shard: Mapping[int, Sequence[str]]
    ) -> dict[str, tuple[tuple[str, ...], object]]:
        released: dict[str, tuple[tuple[str, ...], object]] = {}
        for shard, cids in by_shard.items():
            for cid in cids:
                released[cid] = self.engines[shard].release_collector(cid)
        return released

    def adopt_collectors(
        self, assignments: Sequence[tuple[int, str, tuple[str, ...], object]]
    ) -> None:
        for shard, cid, slots, behavior in assignments:
            self.engines[shard].adopt_collector(cid, slots, behavior=behavior)

    def install_faults(self, shard: int, plan, tamperer=None):
        return self.engines[shard].install_faults(plan, tamperer=tamperer)

    def tip_hashes(self) -> list[str]:
        tips = []
        for engine in self.engines:
            height = engine.store.height
            tips.append(engine.store.retrieve(height).hash().hex() if height else "")
        return tips

    def chain_stats(self) -> list[ShardChainStats]:
        return [shard_chain_stats(engine, k) for k, engine in enumerate(self.engines)]

    def finalize_engines(self) -> None:
        # The driver already ran the barrier-synchronized recovery drain
        # (see ShardCoordinator.finalize), so engines skip their own.
        for engine in self.engines:
            engine.finalize(drain=False)

    def now(self) -> float:
        return self.sim.now

    def close(self) -> None:  # in-process: nothing to tear down
        pass
