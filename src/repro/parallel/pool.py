"""Process-pool shard execution: forked workers, one barrier per command.

:class:`ParallelBackend` spreads the ``S`` shard engines over ``N``
worker processes (shards assigned round-robin, so ``N`` may be
smaller than ``S``), each a :class:`~repro.parallel.backend.ShardHost`
over its share.  It offers the driver the host's own ops and owns only
what a process boundary adds: boot / crash / restart, the barrier call
(:meth:`ParallelBackend._call`), and routing a ``{shard: arg}`` payload
to the hosting workers and merging their ``{shard: value}`` replies.
Every command is one broadcast of pickled ``(op, args)`` — one message
per worker, receipts and specs batched inside it — followed by a
barrier collect of the replies.  A super-round is at most two: its
``run_round`` and the first relays of the receipts that minted.

**Boot.**  :meth:`ParallelBackend._boot` builds every worker's
:class:`~repro.parallel.backend.ShardHost` in the driver, then forks one
worker per host (the ``fork`` start method, named ``shard-worker-<index>``);
the child serves the host it inherited.  The driver is every worker's
parent: it reads their pids and exit codes and does every kill, so no
kill can hit a recycled pid, and their CPU and ``ru_maxrss`` reach its
``RUSAGE_CHILDREN``.  ``_boot`` refuses to fork while any other Python
thread is alive (``RealNetwork`` starts none).

**Crash handling.**  A worker that dies (SIGKILL, OOM, bug) or hangs
past the per-command barrier timeout surfaces as a structured
:class:`~repro.exceptions.WorkerCrashError` carrying the worker index,
its hosted shards, and the in-flight command — a *detected* fault, the
same contract the in-process :class:`~repro.faults.injector.FaultInjector` gives
for simulated crashes, never a hung barrier.  With durable storage
configured, :meth:`restart_worker` rebuilds the host from its
:class:`~repro.parallel.backend.HostSpec` and forks a replacement; its
engines re-anchor from their on-disk checkpoints and any fault plans
installed on its shards are re-applied to the replacement (crash
semantics: the continuation is correct but not bit-identical — the
fresh injector replays its plan's RNG from the start).

**Determinism.**  Each worker's host advances its one simulator to the
exact clock targets the in-process host would use (:meth:`run_round`
checks that every worker parked at the same clock), and the driver
preserves per-remote-shard receipt-relay order inside each batch, so a
parallel run's ledgers are bit-identical to a serial run with the same
seed however the shards are spread over workers (the full argument
lives in :mod:`repro.parallel.backend`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
from collections import defaultdict
from contextlib import suppress
from dataclasses import replace
from typing import Mapping, Sequence

from repro.exceptions import (
    ConfigurationError,
    ParallelExecutionError,
    WorkerCrashError,
    WorkerOpError,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.parallel.backend import HostSpec, ShardHost
from repro.parallel.fork import refuse_beside_threads
from repro.parallel.worker import worker_main

__all__ = ["ParallelBackend", "parallel_metrics"]

#: Seconds a worker may stay silent on one command before the barrier
#: declares it crashed.
PHASE_TIMEOUT = 60.0
#: Seconds a worker has to exit once told to (a ``shutdown``, a kill, or
#: its driver's death, which its pipe reads as EOF).
EXIT_TIMEOUT = 5.0


def parallel_metrics(
    obs: MetricsRegistry, backend: "ParallelBackend | None" = None
) -> dict[str, object]:
    """Declare the ``par_*`` family on ``obs``; returns its histograms.

    Called by the coordinator for every backend (so the family appears —
    at zero — in serial runs too, keeping OBSERVABILITY.md coverage
    honest) and by :class:`ParallelBackend` with itself as ``backend``,
    whose plain counts the counters then read.
    """

    for family, attribute, labels, help in (
        ("par_ipc_msgs_total", "ipc_msgs", ("direction",),
         "Pipe messages between driver and workers, by direction"),
        ("par_ipc_bytes_total", "ipc_bytes", ("direction",),
         "Pickled payload bytes between driver and workers, by direction"),
        ("par_worker_crashes_total", "crashes", ("phase",),
         "Worker processes detected dead or hung at a command's barrier, "
         "by the in-flight host op"),
        ("par_worker_restarts_total", "restarts", (),
         "Worker processes respawned from durable checkpoints after a crash"),
    ):
        read = None if backend is None else lambda a=attribute: getattr(backend, a)
        obs.counter(family, help, labels=labels, read=read)
    return {
        "barrier_wait": obs.histogram(
            "par_barrier_wait_seconds",
            "Wall-clock barrier skew per command: slowest minus fastest worker reply",
            buckets=(0.0005, 0.002, 0.01, 0.05, 0.2, 1.0, 5.0),
        ),
        "worker_round": obs.histogram(
            "par_worker_round_seconds",
            "Worker-side wall-clock compute per super-round, by worker",
            labels=("worker",),
            buckets=(0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0),
        ),
        "boot": obs.histogram(
            "par_worker_boot_seconds",
            "Wall-clock worker boot per start and restart, by part: host = the "
            "driver's engine build plus durable replay, process = the fork",
            labels=("part",),
            buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0),
        ),
    }


class _WorkerHandle:
    """Driver-side state of one worker."""

    __slots__ = ("index", "spec", "proc", "conn", "alive", "seq")

    def __init__(self, index: int, spec: HostSpec):
        self.index = index
        #: The deployment's spec narrowed to this worker's shards.
        self.spec = spec
        self.proc: mp.Process | None = None
        self.conn = None
        self.alive = False
        #: Last command sequence number sent; replies echo it, so stale
        #: replies left over from a crash-aborted command are discardable.
        self.seq = 0


class ParallelBackend:
    """Run shard engines in forked worker processes with barrier sync."""

    kind = "parallel"

    def __init__(
        self,
        spec: HostSpec,
        obs: MetricsRegistry | None = None,
        workers: int = 2,
    ):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.obs = obs if obs is not None else NULL_REGISTRY
        #: ``send`` / ``recv`` -> pipe messages and pickled bytes moved.
        self.ipc_msgs: dict[str, int] = defaultdict(int)
        self.ipc_bytes: dict[str, int] = defaultdict(int)
        #: In-flight phase name -> workers found dead or hung there.
        self.crashes: dict[str, int] = defaultdict(int)
        self.restarts = 0
        self._metrics = parallel_metrics(self.obs, self)
        self._now = 0.0
        try:
            pickle.dumps(spec.behaviors, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise ConfigurationError(
                "collector behaviours must be picklable: an epoch reshuffle "
                "pipes a migrating collector's behaviour between worker "
                f"processes (workers={workers}): {exc}"
            ) from exc
        num_workers = min(workers, len(spec.shards))
        #: shard index -> hosting worker index (round-robin).
        self.worker_for_shard = {k: k % num_workers for k in spec.shards}
        self._ctx = mp.get_context("fork")
        self._workers = [
            _WorkerHandle(
                w,
                replace(
                    spec,
                    shards=tuple(
                        k for k in spec.shards if self.worker_for_shard[k] == w
                    ),
                ),
            )
            for w in range(num_workers)
        ]
        # Per-worker accumulated compute seconds this super-round.
        self._round_wall = [0.0] * num_workers
        #: shard index -> installed FaultPlan, so a respawned worker can
        #: have its shards' plans re-applied (tamperers never cross the
        #: process boundary, so a plan is the whole fault state).
        self._fault_plans: dict[int, object] = {}
        self._boot(self._workers)

    # -- process lifecycle -------------------------------------------------

    def _boot(self, handles: Sequence[_WorkerHandle]) -> None:
        """Build every handle's host here, then fork one worker per host.

        Every host is built before the first fork, so a host that cannot
        be built raises its own exception with no worker started.  Each
        host's reference goes as its worker starts: the child serves the
        copy it inherited.  A failed fork reaps the workers started here.
        """
        refuse_beside_threads("shard workers")
        boot_seconds = self._metrics["boot"]
        hosts = []
        for handle in handles:
            started = time.perf_counter()
            hosts.append(ShardHost(handle.spec))
            boot_seconds.labels(part="host").observe(time.perf_counter() - started)
        try:
            for handle in handles:
                started = time.perf_counter()
                handle.conn, end = self._ctx.Pipe(duplex=True)
                # The child closes every driver end it inherits, its own
                # included, so a dead driver's EOF reaches every worker.
                driver_ends = [h.conn for h in self._workers if h.conn is not None]
                proc = self._ctx.Process(
                    target=worker_main,
                    args=(end, hosts.pop(0), driver_ends, os.getpid()),
                    name=f"shard-worker-{handle.index}", daemon=True,
                )
                proc.start()  # drops the Process's own hold on its args
                end.close()
                handle.proc, handle.alive = proc, True
                boot_seconds.labels(part="process").observe(
                    time.perf_counter() - started
                )
        except BaseException:
            self._reap(handles)
            raise

    def _reap(self, handles: Sequence[_WorkerHandle]) -> None:
        """Shut down the workers that serve, kill the rest, join all.

        Every ``shutdown`` goes out before any reply is read, so the
        workers exit together.
        """
        serving = [handle for handle in handles if handle.alive]
        for handle in serving:
            with suppress(ParallelExecutionError):
                self._send(handle, "shutdown", ())
        for handle in serving:
            with suppress(ParallelExecutionError):
                if handle.alive:  # the send reached it
                    self._recv(handle, "shutdown", timeout=EXIT_TIMEOUT)
        for handle in handles:
            handle.alive = False
            if handle.proc is not None:
                if handle not in serving:  # hung or already dead
                    handle.proc.kill()
                handle.proc.join(timeout=EXIT_TIMEOUT)
                if handle.proc.is_alive():
                    handle.proc.kill()
                    handle.proc.join(timeout=EXIT_TIMEOUT)
            if handle.conn is not None:
                handle.conn.close()

    def restart_worker(self, worker: int) -> None:
        """Kill (if needed) and replace one worker from durable storage.

        The driver rebuilds the worker's host from the same
        :class:`HostSpec` and forks a replacement to serve it; with a
        :class:`~repro.storage.StorageConfig` per hosted shard the
        engines re-anchor to their checkpointed chains and resume
        committing.  Without storage there is nothing to hand off, so
        the restart is refused.  Fault plans previously installed on the
        worker's shards are re-applied to the replacement (fresh
        injectors, so each plan's RNG restarts from its seed — the
        schedule stays seeded, not bit-continuous).  Every host then parks at
        the latest clock (a survivor may have run the round the crash aborted).
        """
        handle = self._workers[worker]
        missing = [k for k in handle.spec.shards if handle.spec.storage[k] is None]
        if missing:
            raise ConfigurationError(
                f"cannot restart worker {worker}: shards {missing} have no "
                "durable storage to hand off from"
            )
        self._reap([handle])
        self._boot([handle])
        for shard in handle.spec.shards:
            plan = self._fault_plans.get(shard)
            if plan is not None:
                self._call("install_faults", {handle.index: (shard, plan)})
        clocks = self._call("now", {h.index: () for h in self._workers})
        self.run_until(max(clocks.values()))
        self.restarts += 1

    def close(self) -> None:
        """Shut every worker down; terminate stragglers."""
        self._reap(self._workers)

    # -- pipe plumbing -----------------------------------------------------

    def _send(self, handle: _WorkerHandle, op: str, args: tuple) -> None:
        handle.seq += 1
        blob = pickle.dumps(
            (handle.seq, op, args), protocol=pickle.HIGHEST_PROTOCOL
        )
        try:
            handle.conn.send_bytes(blob)
        except (BrokenPipeError, OSError) as exc:
            self._crash(handle, op, str(exc))
        self.ipc_msgs["send"] += 1
        self.ipc_bytes["send"] += len(blob)

    def _recv(self, handle: _WorkerHandle, phase: str, timeout: float | None = None):
        timeout = PHASE_TIMEOUT if timeout is None else timeout
        while True:
            try:
                if not handle.conn.poll(timeout):
                    self._crash(
                        handle, phase,
                        f"no reply within {timeout:.0f}s barrier timeout",
                    )
                blob = handle.conn.recv_bytes()
            except (EOFError, BrokenPipeError, OSError) as exc:
                self._crash(handle, phase, str(exc) or type(exc).__name__)
            self.ipc_msgs["recv"] += 1
            self.ipc_bytes["recv"] += len(blob)
            reply = pickle.loads(blob)
            if reply[0] == handle.seq:
                break
            # A reply to an older command, whose collect was
            # aborted by a sibling worker's crash before this worker's
            # reply was collected.  Skip it and keep waiting for ours.
        if reply[1] == "err":
            _, _, exc_type, message, tb = reply
            raise WorkerOpError(handle.index, phase, exc_type, message, tb)
        return reply[1:]

    def _crash(self, handle: _WorkerHandle, phase: str, detail: str):
        """Mark a worker dead and raise the structured crash fault."""
        handle.alive = False
        exitcode = handle.proc.exitcode if handle.proc is not None else None
        if handle.proc is not None and handle.proc.is_alive():
            # Hung past the barrier, or dead but not yet reaped: SIGKILL
            # ends even a wedged or stopped process, so the driver never
            # blocks.
            handle.proc.kill()
            handle.proc.join(timeout=EXIT_TIMEOUT)
            exitcode = handle.proc.exitcode
        self.crashes[phase] += 1
        raise WorkerCrashError(
            handle.index, handle.spec.shards, phase, detail=detail, exitcode=exitcode
        )

    def _call(self, op: str, calls: Mapping[int, tuple]) -> dict[int, object]:
        """Run host op ``op`` on the given workers, collect at the barrier.

        ``calls`` maps worker index to the op's argument tuple.  Sends
        every command before reading any reply — workers compute
        concurrently — then drains replies in worker order, recording
        arrival skew (barrier wait) and per-worker compute seconds.
        Returns ``{worker_index: result}``.
        """
        handles = [self._workers[w] for w in calls]
        for handle in handles:
            if not handle.alive:
                raise WorkerCrashError(
                    handle.index, handle.spec.shards, op, detail="worker already dead"
                )
            self._send(handle, op, calls[handle.index])
        results: dict[int, object] = {}
        arrivals: list[float] = []
        for handle in handles:
            _, result, wall = self._recv(handle, op)
            arrivals.append(time.perf_counter())
            self._round_wall[handle.index] += wall
            results[handle.index] = result
        if len(arrivals) > 1:
            self._metrics["barrier_wait"].observe(max(arrivals) - min(arrivals))
        return results

    def _on_all(self, op: str, *args) -> dict:
        """The same call on every worker; their dict replies merged."""
        return self._merged(self._call(op, {h.index: args for h in self._workers}))

    def _by_shard(self, op: str, *payloads: Mapping[int, object]) -> dict[int, object]:
        """A call whose ``{shard: arg}`` payloads are split over the hosting
        workers: one message per worker, in worker order, its shards' share
        of each payload as one argument.  Returns ``{worker: reply}``."""
        parts: dict[int, tuple] = {}
        for i, by_shard in enumerate(payloads):
            for shard, arg in by_shard.items():
                worker = self.worker_for_shard[shard]
                parts.setdefault(worker, tuple({} for _ in payloads))[i][shard] = arg
        return self._call(op, dict(sorted(parts.items())))

    @staticmethod
    def _merged(replies: Mapping[int, dict | None]) -> dict:
        merged: dict = {}
        for part in replies.values():
            merged.update(part or {})
        return merged

    # -- the ShardHost ops, routed ---------------------------------------------

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def run_round(self, relays, specs, cursors) -> tuple[float, dict, dict]:
        """One command per worker; refused unless every worker parks at
        the same clock."""
        replies = self._by_shard("run_round", relays, specs, cursors)
        clocks = {w: clock for w, (clock, _, _) in replies.items()}
        if len(set(clocks.values())) > 1:
            raise ParallelExecutionError(f"workers parked at different clocks: {clocks}")
        for w, wall in enumerate(self._round_wall):
            self._metrics["worker_round"].labels(worker=str(w)).observe(wall)
        self._round_wall = [0.0] * self.num_workers
        infos, scans = {}, {}
        for _, part_infos, part_scans in replies.values():
            infos.update(part_infos)
            scans.update(part_scans)
        self._now = clocks[0]
        return self._now, infos, scans

    def run_until(self, until: float) -> None:
        self._on_all("run_until", until)
        self._now = until

    def relay(self, batches: Mapping[int, Sequence]) -> None:
        # Per-shard relay order is the order the remote network draws
        # latencies in, hence part of the determinism contract.
        self._by_shard("relay", batches)

    def repair_scan(self, shard: int) -> int:
        worker = self.worker_for_shard[shard]
        return self._call("repair_scan", {worker: (shard,)})[worker]

    def collector_masses(self) -> dict[str, float]:
        return self._on_all("collector_masses")

    def release_collectors(self, by_shard: Mapping[int, Sequence[str]]) -> dict:
        return self._merged(self._by_shard("release_collectors", by_shard))

    def adopt_collectors(self, by_shard: Mapping[int, Sequence[tuple]]) -> None:
        self._by_shard("adopt_collectors", by_shard)

    def quarantine_logs(self) -> dict[int, list[tuple]]:
        return self._on_all("quarantine_logs")

    def install_faults(self, shard: int, plan, tamperer=None) -> None:
        if tamperer is not None:
            raise ConfigurationError(
                "message tamperers hold live callbacks and cannot cross the "
                "worker process boundary; run Byzantine tampering on the "
                "serial backend"
            )
        self._call("install_faults", {self.worker_for_shard[shard]: (shard, plan)})
        self._fault_plans[shard] = plan

    def fault_stats(self) -> dict[int, object]:
        """Per-shard worker-side injector stats (None where no plan)."""
        return self._on_all("fault_stats")

    def tip_hashes(self) -> dict[int, str]:
        return self._on_all("tip_hashes")

    def chain_stats(self) -> dict:
        return self._on_all("chain_stats")

    def finalize_engines(self) -> None:
        self._on_all("finalize_engines")

    def now(self) -> float:
        return self._now
