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
* **boot** — the driver builds every worker's host before its first
  fork and no worker builds one, a host that cannot be built forks
  nothing, a worker that dies before serving is named at its first
  command, the driver refuses to fork beside a live thread, and no
  worker outlives ``close()`` or the driver's own death;
* **accounting** — workers are the driver's children, so their CPU time
  reaches the driver's ``RUSAGE_CHILDREN``;
* **IPC discipline** — commands and receipt batches travel as one
  message per worker per command, accounted by the ``par_ipc_*``
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
from contextlib import suppress
from dataclasses import replace
from multiprocessing.context import ForkProcess

import pytest

from repro.agents.behaviors import MisreportBehavior
from repro.exceptions import (
    ConfigurationError,
    ParallelExecutionError,
    WorkerCrashError,
    WorkerOpError,
)
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.network.custodian import start_server_thread
from repro.obs import MetricsRegistry
from repro.parallel.backend import ShardHost
from repro.parallel.pool import EXIT_TIMEOUT, ParallelBackend
from repro.sharding import ShardCoordinator
from repro.storage import StorageConfig
from repro.workloads.scenarios import SCENARIOS, build
from repro.workloads.xshard import CrossShardWorkload

pytestmark = pytest.mark.parallel

SMOKE = SCENARIOS["sharded-smoke"]
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: A driver that boots three shards on three workers, holds the last one
#: forked asleep before it serves, stops it there and SIGKILLs itself, so
#: nothing of it can shut them down.  Asleep, that worker has not yet closed
#: the copies of its siblings' driver ends the fork gave it, and stopped,
#: it never will: their pipes cannot read EOF, so only their check that
#: the driver lives can end them.  It prints the worker pids, then the
#: siblings' driver sockets; a SIGCONT wakes the sleeper to serve.
DRIVER_THAT_DIES = """
import os, select, signal, time
from dataclasses import replace
import repro.parallel.pool as pool
from repro.workloads.scenarios import SCENARIOS, build

class Woken(Exception):
    pass

def woken(*_):
    raise Woken

asleep_r, asleep_w = os.pipe()
serve = pool.worker_main

def late_worker_main(conn, host, *rest):
    if 2 in host.engines:  # the last worker forked
        signal.signal(signal.SIGCONT, woken)
        os.write(asleep_w, b"z")
        try:
            time.sleep(pool.PHASE_TIMEOUT)
        except Woken:
            pass
    serve(conn, host, *rest)

pool.worker_main = late_worker_main
three = replace(SCENARIOS["sharded-smoke"], l=12, n=6, m=6, shards=3)
coordinator, _, _ = build(three, seed=3, workers=3)
workers = coordinator.backend._workers
pids = [handle.proc.pid for handle in workers]
if not select.select([asleep_r], [], [], pool.PHASE_TIMEOUT)[0]:
    raise SystemExit("the last worker never fell asleep")
os.kill(pids[-1], signal.SIGSTOP)
while open(f"/proc/{pids[-1]}/stat").read().rsplit(")", 1)[1].split()[0] != "T":
    time.sleep(0.01)
print(*pids, flush=True)
print(*(f"socket:[{os.fstat(h.conn.fileno()).st_ino}]" for h in workers[:-1]), flush=True)
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


def fd_links(pid):
    """What ``pid``'s open descriptors point at (``socket:[inode]``, ...)."""
    links = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        with suppress(FileNotFoundError):
            links.add(os.readlink(f"/proc/{pid}/fd/{fd}"))
    return links


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
    def test_every_host_is_built_before_any_fork(
        self, shape, monkeypatch, tmp_path
    ):
        # Every build appends its pid to a file, so a build in a worker
        # would show up here although the worker's memory does not.
        events, build_pids = [], tmp_path / "build_pids"
        init, start = ShardHost.__init__, ForkProcess.start

        def recording_init(host, spec, obs=None):
            events.append(("build", spec.shards))
            with open(build_pids, "a", encoding="ascii") as out:
                out.write(f"{os.getpid()}\n")
            init(host, spec, obs)

        def recording_start(proc):
            events.append(("start", proc.name))
            start(proc)

        monkeypatch.setattr(ShardHost, "__init__", recording_init)
        monkeypatch.setattr(ForkProcess, "start", recording_start)
        registry = MetricsRegistry()
        parallel, workload = pool(obs=registry, **shape)
        try:
            drive(parallel, workload, rounds=1)
            shards = tuple(range(shape["shards"]))
            assert events == [
                ("build", shards[0::2]),
                ("build", shards[1::2]),
                ("start", "shard-worker-0"),
                ("start", "shard-worker-1"),
            ]
            assert build_pids.read_text().split() == [str(os.getpid())] * 2
            assert [parent_of(pid) for pid in worker_pids(parallel)] == [
                os.getpid()
            ] * 2
            assert parallel.backend.worker_for_shard == {k: k % 2 for k in shards}
            boot = registry._metrics["par_worker_boot_seconds"]
            for part in ("host", "process"):
                state = boot._states[(part,)]
                assert state.count == 2 and state.sum > 0
        finally:
            parallel.close()

    def test_unbuildable_host_raises_its_own_error_before_any_fork(
        self, tmp_path, monkeypatch
    ):
        blocker = tmp_path / "a-regular-file"
        blocker.write_text("")
        storage = [
            StorageConfig(directory=tmp_path / "shard-0", fsync=False),
            StorageConfig(directory=blocker, fsync=False),
        ]
        started = []
        monkeypatch.setattr(ForkProcess, "start", started.append)
        with pytest.raises(FileExistsError):
            hand_built(storage=storage)
        assert started == []
        assert multiprocessing.active_children() == []

    def test_worker_killed_before_its_first_command_is_named_there(
        self, reaped_pids
    ):
        registry = MetricsRegistry()
        coordinator, _ = pool(obs=registry)
        try:
            victim = coordinator.backend._workers[1]
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.join(timeout=10.0)
            with pytest.raises(WorkerCrashError) as err:
                coordinator.tip_hashes()
            assert (err.value.worker, err.value.shards) == (1, (1,))
            assert err.value.phase == "tip_hashes"
            assert err.value.exitcode == -signal.SIGKILL
            crashes = registry._metrics["par_worker_crashes_total"]
            assert crashes.value_of(phase="tip_hashes") == 1
        finally:
            coordinator.close()
        assert multiprocessing.active_children() == []
        assert len(reaped_pids) == 2 and all(gone(pid) for pid in reaped_pids)

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
        # end; a sibling stopped before it closed its copies holds them, so
        # each worker also exits once its parent is no longer the driver.
        with open(tmp_path / "stderr", "w+", encoding="utf-8") as stderr:
            driver = subprocess.Popen(
                [sys.executable, "-c", DRIVER_THAT_DIES],
                env=dict(os.environ, PYTHONPATH=_SRC),
                stdout=subprocess.PIPE, stderr=stderr, text=True,
            )
            with driver:
                pids = [int(pid) for pid in driver.stdout.readline().split()]
                sibling_ends = set(driver.stdout.readline().split())
                returncode = driver.wait(timeout=60)
            stderr.seek(0)
            assert (returncode, len(pids)) == (-signal.SIGKILL, 3), stderr.read()
        *siblings, stopped = pids
        try:
            assert len(sibling_ends) == 2
            assert sibling_ends <= fd_links(stopped)
            assert still_running(siblings, within=EXIT_TIMEOUT) == []
            os.kill(stopped, signal.SIGCONT)
            assert still_running([stopped], within=EXIT_TIMEOUT) == []
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
            assert msgs.value_of(direction="recv") == sent
            bytes_total = registry._metrics["par_ipc_bytes_total"]
            assert bytes_total.value_of(direction="send") > sent  # > 1 B/msg
            # Four super-rounds (two driven, two flushed) send one
            # run_round, at most one first relay and one mass read per
            # worker each; the boot's mass read and finalize's recovery
            # probes and reveal add the rest.  The phase-barrier driver,
            # eight commands per super-round, sent 72.
            assert coordinator._round == 4
            assert sent == 27
        finally:
            coordinator.close()

    def test_workers_parked_at_different_clocks_are_refused(self):
        coordinator, workload = pool()
        try:
            coordinator.submit(workload.take(32))
            coordinator.run_super_round()
            backend = coordinator.backend
            backend._call("run_until", {1: (coordinator.now + 1.0,)})
            coordinator.submit(workload.take(32))
            with pytest.raises(ParallelExecutionError) as err:
                coordinator.run_super_round()
            assert type(err.value) is ParallelExecutionError
            clocks = backend._call("now", {0: (), 1: ()})
            assert clocks[0] != clocks[1]
            for clock in clocks.values():
                assert repr(clock) in str(err.value)
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

    def test_an_op_that_raises_in_a_worker_surfaces_with_its_worker(self):
        coordinator, workload = pool()
        try:
            nobody = {0: ["no-such-collector"], 1: ["no-such-collector"]}
            with pytest.raises(WorkerOpError, match="unknown collector") as err:
                coordinator.backend.release_collectors(nobody)
            assert (err.value.worker, err.value.phase, err.value.exc_type) == (
                0, "release_collectors", "ConfigurationError"
            )
            # Both workers serve on; worker 1's unread error reply is
            # skipped as stale by the next command.
            assert drive(coordinator, workload, rounds=1).clean
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

    def test_restart_parks_every_host_at_the_round_a_survivor_finished(
        self, tmp_path
    ):
        storage = [
            StorageConfig(directory=tmp_path / f"shard-{k}", fsync=False)
            for k in range(2)
        ]
        coordinator, workload = hand_built(storage=storage)
        try:
            for _ in range(3):
                coordinator.submit(workload.take(32))
                coordinator.run_super_round()
            heights_before = [s.height for s in coordinator.chain_stats()]
            # Worker 1 is last in send order: worker 0 gets the round and
            # runs it through before the send to worker 1 fails.
            victim = coordinator.backend._workers[1]
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.join(timeout=10.0)
            coordinator.submit(workload.take(32))
            with pytest.raises(WorkerCrashError) as err:
                coordinator.run_super_round()
            assert (err.value.worker, err.value.phase) == (1, "run_round")
            coordinator.backend.restart_worker(1)
            clocks = coordinator.backend._call("now", {0: (), 1: ()})
            assert list(clocks.values()) == [coordinator.now] * 2
            for _ in range(3):
                coordinator.submit(workload.take(32))
                coordinator.run_super_round()
            heights_after = [s.height for s in coordinator.chain_stats()]
            assert all(
                after > before
                for before, after in zip(heights_before, heights_after)
            ), (heights_before, heights_after)
            assert coordinator.finalize().clean
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
