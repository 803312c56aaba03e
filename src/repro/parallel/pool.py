"""Process-pool shard execution: forked workers behind phase barriers.

:class:`ParallelBackend` spreads the ``S`` shard engines over ``N``
worker processes (shards assigned round-robin, so ``N`` may be
smaller than ``S``), each a :class:`~repro.parallel.backend.ShardHost`
over its share.  It offers the driver the host's own ops and owns only
what a process boundary adds: boot / crash / restart, the barrier call
(:meth:`ParallelBackend._call`), and routing a ``{shard: arg}`` payload
to the hosting workers and merging their ``{shard: value}`` replies.
Every phase of the super-round is one broadcast of pickled ``(op,
args)`` commands — one message per worker, receipts and specs batched
inside it — followed by a barrier collect of the replies.

**Boot.**  :meth:`ParallelBackend._boot` forks every worker straight
from the driver (the ``fork`` start method, one
:class:`multiprocessing.Process` per worker, named
``shard-worker-<index>``), then collects the ``ready`` replies as they
arrive against one deadline, and on the first failure reaps every worker
it started (:meth:`ParallelBackend._reap`, which is also :meth:`close`:
every ``shutdown`` sent before any reply is read).  The driver imports
the engine modules once before the first fork, so the workers share that
import instead of each paying for it.  It is every worker's parent: it
reads their pids and exit codes and does every kill, so no kill can hit
a recycled pid, and their CPU and ``ru_maxrss`` reach its
``RUSAGE_CHILDREN``.  No process ever forks beside a thread: ``_boot``
refuses to while any other Python thread is alive (``RealNetwork``
starts none), and there is no other start method to fall back on.

**Crash handling.**  A worker that dies (SIGKILL, OOM, bug) or hangs
past the per-phase barrier timeout surfaces as a structured
:class:`~repro.exceptions.WorkerCrashError` carrying the worker index,
its hosted shards, and the in-flight phase — a *detected* fault, the
same contract the in-process :class:`~repro.faults.injector.FaultInjector` gives
for simulated crashes, never a hung barrier.  With durable storage
configured, :meth:`restart_worker` respawns the replacement from the
same :class:`~repro.parallel.backend.HostSpec` (a fresh fork of the
driver); its engines re-anchor
from their on-disk checkpoints and any fault plans installed on its
shards are re-applied to the replacement (crash semantics: the
continuation is correct but not bit-identical — the fresh injector
replays its plan's RNG from the start).

**Determinism.**  Each worker's host advances its one simulator to the
exact barrier targets the in-process host would use, and the driver
preserves per-remote-shard receipt-relay order inside each batch, so a
parallel run's ledgers are bit-identical to a serial run with the same
seed however the shards are spread over workers (the full argument
lives in :mod:`repro.parallel.backend`).
"""

from __future__ import annotations

import multiprocessing as mp
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
from repro.parallel.backend import HostSpec, ShardRoundInfo
from repro.parallel.fork import refuse_beside_threads
from repro.parallel.worker import worker_main

__all__ = ["ParallelBackend", "parallel_metrics"]

#: Seconds a worker may stay silent in one phase before the barrier
#: declares it crashed.
PHASE_TIMEOUT = 60.0
#: The one deadline a whole boot gets — building the engines and
#: replaying a durable store takes longer than a phase.
BOOT_TIMEOUT = 120.0


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
         "Worker processes detected dead or hung at a phase barrier, by phase"),
        ("par_worker_restarts_total", "restarts", (),
         "Worker processes respawned from durable checkpoints after a crash"),
    ):
        read = None if backend is None else lambda a=attribute: getattr(backend, a)
        obs.counter(family, help, labels=labels, read=read)
    return {
        "barrier_wait": obs.histogram(
            "par_barrier_wait_seconds",
            "Wall-clock barrier skew per phase: slowest minus fastest worker reply",
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
            "Wall-clock worker boot per spawn and respawn, by part: host = "
            "engine build plus durable replay, process = fork to ready, less host",
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
        #: replies left over from a crash-aborted phase are discardable.
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
        """Fork one worker per handle, then collect every ``ready`` as it
        arrives.

        One deadline covers the whole boot.  The first failure — a
        construction error, a death, the missed deadline — reaps every
        worker started here before its structured error is re-raised.
        """
        # Not a module-level import: custodians and single-process drivers
        # import this module too, and must not pay for a pipe layer they
        # never use (the first Pipe() below imports it anyway).
        from multiprocessing.connection import wait

        refuse_beside_threads("shard workers")
        # What ShardHost imports lazily (the package inits would cycle at
        # module level), imported once here so no worker imports it again.
        import repro.core.netengine  # noqa: F401
        import repro.sharding.inbox  # noqa: F401
        import repro.sharding.receipts  # noqa: F401

        try:
            started = time.perf_counter()
            for handle in handles:
                handle.conn, end = self._ctx.Pipe(duplex=True)
                # The child closes every driver end it inherits, its own
                # included, so a dead driver's EOF reaches every worker.
                driver_ends = [h.conn for h in self._workers if h.conn is not None]
                proc = self._ctx.Process(
                    target=worker_main, args=(end, handle.spec, driver_ends),
                    name=f"shard-worker-{handle.index}", daemon=True,
                )
                proc.start()
                end.close()
                handle.proc = proc
                handle.seq = 0  # fresh process, fresh sequence space
            pending = {handle.conn: handle for handle in handles}
            deadline = time.monotonic() + BOOT_TIMEOUT
            boot_seconds = self._metrics["boot"]
            while pending:
                arrived = wait(list(pending), max(0.0, deadline - time.monotonic()))
                if not arrived:
                    self._crash(
                        next(iter(pending.values())), "spawn",
                        f"not ready within the {BOOT_TIMEOUT:.0f}s boot deadline",
                    )
                for conn in arrived:
                    handle = pending.pop(conn)
                    _, result, host_s = self._recv(handle, "spawn", timeout=0.0)
                    if result != "ready":  # pragma: no cover - defensive
                        self._crash(handle, "spawn", f"unexpected ready reply {result!r}")
                    handle.alive = True
                    boot_seconds.labels(part="host").observe(host_s)
                    boot_seconds.labels(part="process").observe(
                        time.perf_counter() - started - host_s
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
                    self._recv(handle, "shutdown", timeout=5.0)
        for handle in handles:
            handle.alive = False
            if handle.proc is not None:
                if handle not in serving:  # booting, hung or already dead
                    handle.proc.kill()
                handle.proc.join(timeout=5.0)
                if handle.proc.is_alive():
                    handle.proc.kill()
                    handle.proc.join(timeout=5.0)
            if handle.conn is not None:
                handle.conn.close()

    def restart_worker(self, worker: int) -> None:
        """Kill (if needed) and respawn one worker from durable storage.

        The replacement rebuilds its engines from the same
        :class:`HostSpec`; with a :class:`~repro.storage.StorageConfig`
        per hosted shard the engines re-anchor to their checkpointed
        chains and resume committing.  Without storage there is nothing
        to hand off, so the restart is refused.  Fault plans previously
        installed on the worker's shards are re-applied to the
        replacement (fresh injectors, so each plan's RNG restarts from
        its seed — the schedule stays seeded, not bit-continuous).
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
            # A reply to an older command: the phase it answered was
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
            handle.proc.join(timeout=5.0)
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

    def _by_shard(self, op: str, by_shard: Mapping[int, object]) -> dict:
        """A ``{shard: arg}`` call split over the hosting workers — one
        message per worker, its shards' arguments batched in payload
        order — and their dict replies merged."""
        parts: dict[int, dict] = {}
        for shard, arg in by_shard.items():
            parts.setdefault(self.worker_for_shard[shard], {})[shard] = arg
        return self._merged(self._call(op, {w: (part,) for w, part in parts.items()}))

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

    def begin_round(self, specs: Mapping[int, Sequence]) -> dict[int, float]:
        return self._by_shard("begin_round", specs)

    def run_until(self, until: float) -> None:
        self._on_all("run_until", until)
        self._now = until

    def begin_argue(self) -> dict[int, float]:
        return self._on_all("begin_argue")

    def complete_round(self) -> dict[int, ShardRoundInfo]:
        infos = self._on_all("complete_round")
        for w in range(self.num_workers):
            self._metrics["worker_round"].labels(worker=str(w)).observe(
                self._round_wall[w]
            )
            self._round_wall[w] = 0.0
        return infos

    def scan_commits(self, cursors: Mapping[int, int]) -> dict:
        return self._by_shard("scan_commits", cursors)

    def relay(self, batches: Mapping[int, Sequence]) -> None:
        # Per-shard relay order is the order the remote network draws
        # latencies in, hence part of the determinism contract.
        self._by_shard("relay", batches)

    def repair_scan(self, shard: int) -> bool:
        worker = self.worker_for_shard[shard]
        return self._call("repair_scan", {worker: (shard,)})[worker]

    def collector_masses(self) -> dict[str, float]:
        return self._on_all("collector_masses")

    def release_collectors(self, by_shard: Mapping[int, Sequence[str]]) -> dict:
        return self._by_shard("release_collectors", by_shard)

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
