"""Shard worker process: engines on a private clock, driven over a pipe.

``worker_main`` is the spawn entry point of the parallel backend.  Each
worker hosts one or more shard engines, every engine on its **own**
:class:`~repro.network.simnet.Simulator` — shard event streams are
independent (they share only barrier *times*, never events), so private
clocks advanced to the same targets reproduce the serial coordinator's
history bit for bit (see :mod:`repro.parallel.backend`).

The command loop speaks length-prefixed pickles over a
``multiprocessing.Pipe``: the driver sends ``(seq, op, payload)``, the
worker replies ``(seq, "ok", result, wall_seconds)`` or ``(seq, "err",
type, message, traceback)``.  The echoed sequence number lets the
driver discard stale replies after a sibling worker's crash aborted a
phase mid-collect — survivors' unread replies are skipped, not misread
as answers to later commands.  ``wall_seconds`` is the worker-side
compute time for the op, which the driver accumulates into the
``par_worker_round_seconds`` histogram — barrier skew (fast workers
idling at the barrier) is then the difference between the slowest and
fastest worker, exported as ``par_barrier_wait_seconds``.

Engines run with observability **disabled** in workers (metrics
registries are process-local and the no-op registry is guaranteed
behaviour-neutral); all shard/parallel metrics live driver-side.
"""

from __future__ import annotations

import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Mapping

from repro.network.simnet import Simulator
from repro.parallel.backend import (
    build_shard_engine,
    scan_shard_commits,
    shard_chain_stats,
)

__all__ = ["WorkerInit", "worker_main"]


@dataclass(frozen=True)
class WorkerInit:
    """Everything a worker needs to rebuild its shard engines from scratch.

    Pure picklable data — topologies, params, behaviours, seeds, storage
    configs — so the same ``WorkerInit`` that spawned a worker can
    respawn its replacement after a crash (engines then re-anchor from
    their durable checkpoints, when storage is configured).
    """

    worker: int
    #: Global shard indices hosted by this worker, in driver order.
    shards: tuple[int, ...]
    #: Per-hosted-shard :class:`~repro.network.topology.Topology`.
    topologies: tuple
    params: object
    #: Global behaviour map; each engine filters to its own collectors.
    behaviors: Mapping[str, object]
    seed: int
    min_delay: float
    max_delay: float
    resilience: bool
    #: provider id -> home shard (receipt-minting target lookup).
    provider_shard: Mapping[str, int]
    #: Per-hosted-shard :class:`~repro.storage.StorageConfig` (or None).
    storage: tuple


def _send(conn, obj) -> None:
    conn.send_bytes(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class _WorkerHost:
    """The live state behind one worker process's command loop."""

    def __init__(self, init: WorkerInit):
        self.init = init
        self.sims: dict[int, Simulator] = {}
        self.engines: dict[int, object] = {}
        self._ctxs: dict[int, object] = {}
        for shard, topo, storage in zip(init.shards, init.topologies, init.storage):
            sim = Simulator(seed=init.seed)
            self.sims[shard] = sim
            self.engines[shard] = build_shard_engine(
                shard,
                topo,
                init.params,
                init.behaviors,
                init.seed,
                init.min_delay,
                init.max_delay,
                init.resilience,
                obs=None,
                sim=sim,
                storage=storage,
            )

    # Each handler takes the op payload and returns a picklable result.

    def op_carryover(self, _payload) -> dict[int, int]:
        return {k: e.carryover_depth() for k, e in self.engines.items()}

    def op_begin_round(self, payload: Mapping[int, list]) -> dict[int, float]:
        targets = {}
        for shard, specs in payload.items():
            ctx = self.engines[shard].begin_round(specs)
            self._ctxs[shard] = ctx
            targets[shard] = ctx.drain_until
        return targets

    def op_run_until(self, payload: float) -> None:
        for sim in self.sims.values():
            sim.run(until=payload)

    def op_begin_argue(self, _payload) -> dict[int, float]:
        return {
            shard: self.engines[shard].begin_argue(ctx)
            for shard, ctx in self._ctxs.items()
        }

    def op_complete_round(self, _payload) -> dict[int, tuple]:
        out = {}
        for shard, ctx in self._ctxs.items():
            result = self.engines[shard].complete_round(ctx)
            out[shard] = (
                result.round_number,
                result.leader,
                result.block.serial,
                len(result.block.tx_list),
                result.argues_sent,
                self.engines[shard].carryover_depth(),
            )
        self._ctxs.clear()
        return out

    def op_scan(self, payload: Mapping[int, int]) -> dict[int, object]:
        return {
            shard: scan_shard_commits(
                self.engines[shard], shard, cursor, self.init.provider_shard
            )
            for shard, cursor in payload.items()
        }

    def op_relay(self, payload: Mapping[int, list]) -> None:
        for shard, receipts in payload.items():
            self.engines[shard].inject_receipts(receipts)

    def op_repair_scan(self, payload: int) -> bool:
        return self.engines[payload].recovery_lagging()

    def op_masses(self, _payload) -> dict[str, float]:
        masses: dict[str, float] = {}
        for engine in self.engines.values():
            masses.update(engine.collector_masses())
        return masses

    def op_release(self, payload: Mapping[int, list]) -> dict[str, tuple]:
        released = {}
        for shard, cids in payload.items():
            for cid in cids:
                released[cid] = self.engines[shard].release_collector(cid)
        return released

    def op_adopt(self, payload) -> None:
        for shard, cid, slots, behavior in payload:
            self.engines[shard].adopt_collector(cid, slots, behavior=behavior)

    def op_install_faults(self, payload) -> None:
        shard, plan = payload
        self.engines[shard].install_faults(plan)

    def op_fault_stats(self, _payload) -> dict[int, object]:
        out: dict[int, object] = {}
        for shard, engine in self.engines.items():
            injector = getattr(engine, "injector", None)
            out[shard] = None if injector is None else injector.stats
        return out

    def op_tips(self, _payload) -> dict[int, str]:
        tips = {}
        for shard, engine in self.engines.items():
            height = engine.store.height
            tips[shard] = (
                engine.store.retrieve(height).hash().hex() if height else ""
            )
        return tips

    def op_chain_stats(self, _payload) -> dict[int, object]:
        return {
            shard: shard_chain_stats(engine, shard)
            for shard, engine in self.engines.items()
        }

    def op_finalize(self, _payload) -> None:
        # Recovery was drained driver-side at shared barrier targets.
        for engine in self.engines.values():
            engine.finalize(drain=False)


def worker_main(conn, init: WorkerInit) -> None:
    """Spawn entry point: build engines, acknowledge, serve commands.

    Never raises out: construction and per-op failures are shipped back
    as ``("err", ...)`` replies so the driver can re-raise them with the
    worker context attached.  The loop exits on ``"shutdown"`` or when
    the driver end of the pipe closes.
    """
    try:
        host = _WorkerHost(init)
    except BaseException as exc:  # construction failed: report, don't hang
        _send(
            conn, (0, "err", type(exc).__name__, str(exc), traceback.format_exc())
        )
        conn.close()
        return
    _send(conn, (0, "ok", "ready", 0.0))
    while True:
        try:
            raw = conn.recv_bytes()
        except EOFError:
            break
        seq, op, payload = pickle.loads(raw)
        if op == "shutdown":
            _send(conn, (seq, "ok", None, 0.0))
            break
        handler = getattr(host, f"op_{op}", None)
        if handler is None:
            _send(conn, (seq, "err", "ValueError", f"unknown op {op!r}", ""))
            continue
        start = time.perf_counter()
        try:
            result = handler(payload)
        except BaseException as exc:
            _send(
                conn,
                (seq, "err", type(exc).__name__, str(exc), traceback.format_exc()),
            )
            continue
        _send(conn, (seq, "ok", result, time.perf_counter() - start))
    conn.close()
