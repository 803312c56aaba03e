"""Multi-core shard execution: the process-pool backend contract.

That a parallel run (one shard per worker, and two co-hosted per
worker) produces exactly the ledgers, clock, and audit verdicts of the
serial coordinator for the same seed, under faults, cross-shard traffic,
and epoch reshuffles, is the ``pool`` column of ``tests/test_parity.py``.
The other guarantees under test:

* **crash handling** — a SIGKILLed or hung worker surfaces as a
  structured :class:`~repro.exceptions.WorkerCrashError` at the phase
  barrier, never a hang, and (with durable storage) the worker can be
  respawned from its checkpoints and the deployment keeps committing;
* **boot** — the driver forks every worker before any ``ready`` is
  collected, refuses to fork beside a live thread, and no worker
  outlives ``close()``, a failed boot or the driver's own death;
* **accounting** — workers are the driver's children, so their CPU time
  reaches the driver's ``RUSAGE_CHILDREN``;
* **IPC discipline** — commands and receipt batches travel as one
  message per worker per phase, accounted by the ``par_ipc_*``
  counters.

Everything here spawns real processes, so the module is marked
``parallel`` (CI runs it in its own job).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import resource
import signal
import subprocess
import sys
import time
from dataclasses import replace
from multiprocessing.context import ForkProcess

import pytest

from repro.agents.behaviors import MisreportBehavior
from repro.exceptions import (
    ConfigurationError,
    WorkerCrashError,
    WorkerOpError,
)
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.network.custodian import start_server_thread
from repro.obs import MetricsRegistry
from repro.parallel.backend import ShardHost
from repro.parallel.pool import ParallelBackend
from repro.sharding import ShardCoordinator
from repro.storage import StorageConfig
from repro.workloads.scenarios import SCENARIOS, build
from repro.workloads.xshard import CrossShardWorkload

pytestmark = pytest.mark.parallel

SMOKE = SCENARIOS["sharded-smoke"]
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: A driver that boots three shards on three workers, prints their pids,
#: stops the last one forked and SIGKILLs itself, so nothing of it can
#: shut them down.  The stopped worker cannot exit, so only closing the
#: copies of its siblings' driver ends lets their EOF through.
DRIVER_THAT_DIES = """
import os, signal, time
from dataclasses import replace
from repro.workloads.scenarios import SCENARIOS, build

three = replace(SCENARIOS["sharded-smoke"], l=12, n=6, m=6, shards=3)
coordinator, _, _ = build(three, seed=3, workers=3)
pids = [handle.proc.pid for handle in coordinator.backend._workers]
print(*pids, flush=True)
os.kill(pids[-1], signal.SIGSTOP)
while open(f"/proc/{pids[-1]}/stat").read().rsplit(")", 1)[1].split()[0] != "T":
    time.sleep(0.01)
os.kill(os.getpid(), signal.SIGKILL)
"""


def pool(workers=2, obs=None, **changes):
    """``sharded-smoke`` with ``changes``, built on a pool of ``workers``."""
    coordinator, workload, _ = build(
        replace(SMOKE, **changes), seed=3, workers=workers, obs=obs
    )
    return coordinator, workload


def hand_built(faults=False, **options):
    """``sharded-smoke`` on two workers, given the coordinator arguments no
    preset carries (per-shard ``storage``)."""
    sharded, link = SMOKE.topology(), LinkFaultSpec(loss=0.02, duplicate=0.05)
    coordinator = ShardCoordinator(
        sharded, SMOKE.params, seed=3, resilience=faults, workers=2, **options
    )
    for k in range(SMOKE.shards if faults else 0):
        coordinator.install_faults(k, FaultPlan(seed=53 + k).with_default_link(link))
    inner = SMOKE.workload_factory(sharded, 4)
    return coordinator, CrossShardWorkload(inner, sharded.provider_shard, SMOKE.p_cross, 5)


def drive(coordinator, workload, rounds=4, batch=32):
    for _ in range(rounds):
        coordinator.submit(workload.take(batch))
        coordinator.run_super_round()
    return coordinator.finalize()


def gone(pid):
    """True once no process has ``pid`` (reaped, not merely dead)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def stat_fields(pid):
    """``/proc/<pid>/stat`` after the command name: state, ppid, ..."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        return stat.read().rsplit(")", 1)[1].split()


def exited(pid):
    """True once ``pid`` has exited, reaped or not (an orphan's reaper is
    whatever adopted it)."""
    try:
        return stat_fields(pid)[0] == "Z"
    except FileNotFoundError:
        return True


def still_running(pids, within):
    """The ``pids`` that have not exited ``within`` seconds from now."""
    deadline = time.monotonic() + within
    while not all(map(exited, pids)) and time.monotonic() < deadline:
        time.sleep(0.02)
    return [pid for pid in pids if not exited(pid)]


def parent_of(pid):
    return int(stat_fields(pid)[1])


def worker_pids(coordinator):
    return [handle.proc.pid for handle in coordinator.backend._workers]


@pytest.fixture
def reaped_pids(monkeypatch):
    """Every worker pid a backend's ``_reap`` saw, read after the reap."""
    pids = []
    reap = ParallelBackend._reap

    def recording_reap(backend, handles):
        reap(backend, handles)
        pids.extend(handle.proc.pid for handle in handles)

    monkeypatch.setattr(ParallelBackend, "_reap", recording_reap)
    return pids


class TestBitIdentity:
    def test_worker_count_capped_at_shard_count(self):
        coordinator, workload = pool(workers=8)
        assert coordinator.backend.num_workers == 2
        report = drive(coordinator, workload, rounds=2)
        assert report.clean
        coordinator.close()


class TestBoot:
    @pytest.mark.parametrize(
        "shape",
        [dict(shards=2), dict(shards=4, l=16, n=8, m=8)],
        ids=["2-shards", "4-shards-on-2-workers"],
    )
    def test_every_worker_starts_before_any_ready_is_collected(
        self, shape, monkeypatch
    ):
        # The driver forks both workers before it collects either's ready.
        events = []
        start, recv = ForkProcess.start, ParallelBackend._recv

        def recording_start(proc):
            events.append(("start", proc.name))
            start(proc)

        def recording_recv(backend, handle, phase, timeout=None):
            if phase == "spawn":
                events.append(("ready", f"shard-worker-{handle.index}"))
            return recv(backend, handle, phase, timeout)

        monkeypatch.setattr(ForkProcess, "start", recording_start)
        monkeypatch.setattr(ParallelBackend, "_recv", recording_recv)
        registry = MetricsRegistry()
        parallel, _ = pool(obs=registry, **shape)
        try:
            assert [kind for kind, _ in events] == ["start"] * 2 + ["ready"] * 2
            names = {"shard-worker-0", "shard-worker-1"}
            assert {name for kind, name in events if kind == "start"} == names
            assert {name for kind, name in events if kind == "ready"} == names
            assert [parent_of(pid) for pid in worker_pids(parallel)] == [
                os.getpid()
            ] * 2
            assert parallel.backend.worker_for_shard == {
                k: k % 2 for k in range(shape["shards"])
            }
            boot = registry._metrics["par_worker_boot_seconds"]
            for part in ("host", "process"):
                state = boot._states[(part,)]
                assert state.count == 2 and state.sum > 0
        finally:
            parallel.close()

    def test_failed_boot_reaps_its_siblings(self, tmp_path, reaped_pids):
        blocker = tmp_path / "a-regular-file"
        blocker.write_text("")
        storage = [
            StorageConfig(directory=tmp_path / "shard-0", fsync=False),
            StorageConfig(directory=blocker, fsync=False),
        ]
        with pytest.raises(WorkerOpError) as err:
            hand_built(storage=storage)
        # ``err`` still holds the exception, and through its traceback the
        # half-built backend: nothing may depend on that being collected.
        assert [proc.name for proc in multiprocessing.active_children()] == []
        assert len(reaped_pids) == 2 and all(gone(pid) for pid in reaped_pids)
        assert err.value.worker == 1
        assert err.value.phase == "spawn"
        assert err.value.exc_type == "FileExistsError"


    def test_missed_boot_deadline_names_a_worker_and_reaps_them_all(
        self, monkeypatch, reaped_pids
    ):
        # One deadline for the whole boot, set shorter than a host takes
        # to build: nobody is ready when it passes.  The workers are forks
        # of the driver, so they inherit the slowed constructor.
        init = ShardHost.__init__

        def slow_init(host, spec):
            time.sleep(5.0)
            init(host, spec)

        monkeypatch.setattr(ShardHost, "__init__", slow_init)
        monkeypatch.setattr("repro.parallel.pool.BOOT_TIMEOUT", 0.05)
        with pytest.raises(WorkerCrashError, match="boot deadline") as err:
            hand_built()
        assert [proc.name for proc in multiprocessing.active_children()] == []
        assert len(reaped_pids) == 2 and all(gone(pid) for pid in reaped_pids)
        assert err.value.worker == 0
        assert err.value.phase == "spawn"

    def test_close_leaves_no_worker_process(self):
        coordinator, workload = pool()
        drive(coordinator, workload, rounds=1)
        pids = worker_pids(coordinator)
        coordinator.close()
        assert [proc.name for proc in multiprocessing.active_children()] == []
        assert len(pids) == 2 and all(gone(pid) for pid in pids)

    def test_pool_refuses_to_fork_beside_a_live_thread(self):
        server, stop = start_server_thread()
        try:
            with pytest.raises(ConfigurationError, match="live threads") as err:
                pool()
            assert "node-server" in str(err.value)
            assert [proc.name for proc in multiprocessing.active_children()] == []
        finally:
            stop()
        coordinator, _ = pool()
        try:
            workers = coordinator.backend._workers
            assert [handle.proc.is_alive() for handle in workers] == [True, True]
        finally:
            coordinator.close()

    def test_driver_death_takes_every_worker_with_it(self, tmp_path):
        # A worker's pipe reads EOF only once no process holds the driver's
        # end, so each must have closed the copies the fork handed it.
        with open(tmp_path / "stderr", "w+", encoding="utf-8") as stderr:
            driver = subprocess.Popen(
                [sys.executable, "-c", DRIVER_THAT_DIES],
                env=dict(os.environ, PYTHONPATH=_SRC),
                stdout=subprocess.PIPE, stderr=stderr, text=True,
            )
            with driver:
                pids = [int(pid) for pid in driver.stdout.readline().split()]
                returncode = driver.wait(timeout=60)
            stderr.seek(0)
            assert (returncode, len(pids)) == (-signal.SIGKILL, 3), stderr.read()
        *siblings, stopped = pids
        try:
            assert still_running(siblings, within=5.0) == []
            os.kill(stopped, signal.SIGCONT)
            assert still_running([stopped], within=5.0) == []
        finally:
            for pid in pids:  # orphans: nothing else will end them
                if not exited(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_worker_cpu_reaches_the_drivers_rusage_children(self):
        # What rules out ``forkserver``: its workers are the server's
        # children, so their CPU (and ru_maxrss) never reach the driver's
        # RUSAGE_CHILDREN, which perfbench's peak_rss_mib and
        # driver.cpu_ms_per_tx read.
        def children_cpu():
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            return usage.ru_utime + usage.ru_stime

        registry = MetricsRegistry()
        before = children_cpu()
        coordinator, workload = pool(obs=registry)
        try:
            drive(coordinator, workload, rounds=4)
        finally:
            coordinator.close()
        rounds = registry._metrics["par_worker_round_seconds"]
        worked = sum(rounds._states[(str(w),)].sum for w in range(2))
        assert worked > 0
        assert children_cpu() - before >= worked / 2


class TestBackendSurface:
    def test_engines_and_sim_are_serial_only(self):
        coordinator, _ = pool()
        try:
            with pytest.raises(ConfigurationError):
                _ = coordinator.engines
            # The backend-neutral surface still works.
            assert len(coordinator.tip_hashes()) == 2
            assert len(coordinator.chain_stats()) == 2
        finally:
            coordinator.close()

    def test_unpicklable_behaviors_rejected(self):
        # An epoch reshuffle pipes a migrating collector's live behaviour
        # from one worker to another, so the pool refuses what cannot
        # pickle before it forks anything.
        class LocalLiar(MisreportBehavior):
            pass

        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(LocalLiar(0.5))
        def liars(topo):
            return {cid: LocalLiar(0.5) for cid in topo.collectors}

        coordinator, workload = pool(
            workers=None, epoch_rounds=1, behavior_factory=liars
        )
        drive(coordinator, workload, rounds=2)
        assert any(moves for _, _, moves in coordinator.reshuffle_log)
        with pytest.raises(ConfigurationError, match="picklable"):
            pool(epoch_rounds=1, behavior_factory=liars)

    def test_tamperer_rejected_on_parallel_backend(self):
        coordinator, _ = pool()
        try:
            plan = FaultPlan(seed=1)
            with pytest.raises(ConfigurationError, match="tamperer"):
                coordinator.install_faults(0, plan, tamperer=object())
        finally:
            coordinator.close()

    def test_ipc_is_batched_and_counted(self):
        registry = MetricsRegistry()
        coordinator, workload = pool(obs=registry)
        try:
            drive(coordinator, workload, rounds=2)
            msgs = registry._metrics["par_ipc_msgs_total"]
            sent = msgs.value_of(direction="send")
            received = msgs.value_of(direction="recv")
            assert sent > 0 and received > 0
            bytes_total = registry._metrics["par_ipc_bytes_total"]
            assert bytes_total.value_of(direction="send") > sent  # > 1 B/msg
            # Batching bound: per super-round the driver issues a fixed
            # command set (carryover, begin_round, run x2, begin_argue,
            # complete, scan, <=2 relay/mass ops) per worker — far fewer
            # than one message per receipt/spec would produce.
            rounds_total = 2 + 6  # driven + finalize-flush bound
            assert sent <= rounds_total * 12 * coordinator.backend.num_workers
        finally:
            coordinator.close()


class TestCrashHandling:
    def test_sigkilled_worker_surfaces_as_structured_fault(self):
        registry = MetricsRegistry()
        coordinator, workload = pool(obs=registry)
        try:
            coordinator.submit(workload.take(32))
            coordinator.run_super_round()
            pids = worker_pids(coordinator)
            victim = coordinator.backend._workers[0]
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.join(timeout=10.0)
            assert not victim.proc.is_alive()
            coordinator.submit(workload.take(32))
            with pytest.raises(WorkerCrashError) as err:
                coordinator.run_super_round()
            assert err.value.worker == 0
            assert err.value.shards == (0,)
            assert err.value.phase  # the in-flight phase is named
            crashes = registry._metrics["par_worker_crashes_total"]
            assert sum(v for _, v in crashes.samples()) == 1
        finally:
            coordinator.close()
        assert err.value.exitcode == -signal.SIGKILL
        assert all(gone(pid) for pid in pids)

    def test_hung_worker_trips_barrier_timeout(self, monkeypatch):
        monkeypatch.setattr("repro.parallel.pool.PHASE_TIMEOUT", 3.0)
        coordinator, workload = pool()
        try:
            coordinator.submit(workload.take(32))
            coordinator.run_super_round()
            victim = coordinator.backend._workers[1]
            os.kill(victim.proc.pid, signal.SIGSTOP)
            try:
                coordinator.submit(workload.take(32))
                with pytest.raises(WorkerCrashError, match="barrier timeout"):
                    coordinator.run_super_round()
            finally:
                if victim.proc.is_alive():  # reaped by the crash path
                    os.kill(victim.proc.pid, signal.SIGKILL)
        finally:
            coordinator.close()

    def test_restart_without_storage_refused(self):
        coordinator, _ = pool()
        try:
            with pytest.raises(ConfigurationError, match="durable storage"):
                coordinator.backend.restart_worker(0)
        finally:
            coordinator.close()

    def test_restart_resumes_from_durable_storage(self, tmp_path):
        storage = [
            StorageConfig(
                directory=tmp_path / f"shard-{k}",
                checkpoint_interval=2,
                fsync=False,
            )
            for k in range(2)
        ]
        coordinator, workload = hand_built(storage=storage)
        try:
            for _ in range(3):
                coordinator.submit(workload.take(32))
                coordinator.run_super_round()
            heights_before = [s.height for s in coordinator.chain_stats()]
            victim = coordinator.backend._workers[0]
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.join(timeout=10.0)
            coordinator.submit(workload.take(32))
            with pytest.raises(WorkerCrashError):
                coordinator.run_super_round()
            coordinator.backend.restart_worker(0)
            # The respawned worker re-anchored shard 0 from its durable
            # segments; the deployment keeps committing on every shard.
            for _ in range(3):
                coordinator.submit(workload.take(32))
                coordinator.run_super_round()
            report = coordinator.finalize()
            heights_after = [s.height for s in coordinator.chain_stats()]
            assert all(
                after > before
                for before, after in zip(heights_before, heights_after)
            )
            assert not report.violations or all(
                v.type.value != "receipt-replay" for v in report.violations
            )
        finally:
            coordinator.close()

    def test_restart_reapplies_installed_fault_plans(self, tmp_path):
        storage = [
            StorageConfig(
                directory=tmp_path / f"shard-{k}",
                checkpoint_interval=2,
                fsync=False,
            )
            for k in range(2)
        ]
        coordinator, workload = hand_built(faults=True, storage=storage)
        try:
            for _ in range(2):
                coordinator.submit(workload.take(32))
                coordinator.run_super_round()
            before = coordinator.backend.fault_stats()
            assert all(s is not None for s in before.values())
            victim = coordinator.backend._workers[0]
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.join(timeout=10.0)
            coordinator.submit(workload.take(32))
            with pytest.raises(WorkerCrashError):
                coordinator.run_super_round()
            coordinator.backend.restart_worker(0)
            # The replacement got shard 0's plan back: a live injector is
            # installed immediately after the respawn...
            stats = coordinator.backend.fault_stats()
            assert all(s is not None for s in stats.values())
            restarted_seen = stats[0].messages_seen
            for _ in range(3):
                coordinator.submit(workload.take(32))
                coordinator.run_super_round()
            # ...and it keeps filtering traffic (the old behaviour ran the
            # replacement fault-free, so seen/dropped stayed frozen).
            after = coordinator.backend.fault_stats()
            assert after[0].messages_seen > restarted_seen
            assert after[0].dropped + after[0].duplicated > 0
            report = coordinator.finalize()
            assert not report.violations or all(
                v.type.value != "receipt-replay" for v in report.violations
            )
        finally:
            coordinator.close()
