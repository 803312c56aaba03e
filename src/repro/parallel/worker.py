"""Shard worker processes: one boot process forks them, each a :class:`ShardHost` on a pipe.

:func:`boot_main` is the entry point of the parallel backend's one
``spawn`` child per boot.  That **boot process** imports this module and
the engine modules a host is built from once, then ``os.fork()``\\ s one
worker per pipe end it was handed — a clean, thread-free interpreter
forking copies of itself, so the workers share the imports instead of
each paying for them.  Each forked child closes every pipe end but its
own and runs :func:`worker_main`; the boot process reaps them all and
exits once they have exited, and the driver joins it.  Every worker is
thus reaped by a process the driver reaps, so its CPU time and
``ru_maxrss`` roll up into the driver's ``RUSAGE_CHILDREN``.

The boot process speaks to the driver over a control pipe of plain
tuples: it reports ``("pids", {index: pid})`` once every worker is
forked and ``("exit", index, exitcode)`` as it reaps each (the exit code
in :attr:`multiprocessing.Process.exitcode`'s convention, ``-N`` for
signal ``N``); the driver sends ``("kill", index)`` to SIGKILL a worker,
which only the boot process can do safely — a pid it has not reaped
cannot have been recycled.  A closed control pipe (the driver is gone)
or a SIGTERM kills every worker left.

A worker is a :class:`~repro.parallel.backend.ShardHost` over its share
of the shards — the same class the in-process backend is, so every shard
op is written once (why the partition over hosts cannot change a ledger
is argued in :mod:`repro.parallel.backend`).  Its command loop speaks
length-prefixed pickles over a ``multiprocessing.Pipe``: the driver sends
``(seq, op, args)`` — ``op`` names a host method — and the worker replies
``(seq, "ok", result, wall_seconds)`` or ``(seq, "err", type, message,
traceback)``.  The echoed sequence number lets the driver discard stale
replies after a sibling worker's crash aborted a phase mid-collect —
survivors' unread replies are skipped, not misread as answers to later
commands.  ``wall_seconds`` is the worker-side compute time for the op,
which the driver accumulates into the ``par_worker_round_seconds``
histogram — barrier skew (fast workers idling at the barrier) is then
the difference between the slowest and fastest worker, exported as
``par_barrier_wait_seconds``.  The first message, ``(0, "ok", "ready",
wall_seconds)``, is unprompted: the driver starts the boot process
before it reads any, and this one's ``wall_seconds`` is the host build
(engines plus, after a restart, durable replay).

Engines run with observability **disabled** in workers (metrics
registries are process-local and the no-op registry is guaranteed
behaviour-neutral); all shard/parallel metrics live driver-side.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time
import traceback
from contextlib import suppress
from typing import NoReturn, Sequence

from repro.parallel.backend import HostSpec, ShardHost

__all__ = ["boot_main", "worker_main"]


def boot_main(control, workers: Sequence[tuple[int, object, HostSpec]]) -> None:
    """Boot process entry point: import the engines, fork, reap.

    ``workers`` lists ``(index, conn, spec)``, one per worker to fork;
    ``control`` carries the reports and kills described in the module
    docstring.  Returns once every forked worker has been reaped.
    """
    from multiprocessing.connection import wait  # the driver imports this module too

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # run the finally
    # What ShardHost imports lazily (the package inits would cycle at
    # module level), imported once here so no worker imports it again.
    import repro.core.netengine  # noqa: F401
    import repro.sharding.inbox  # noqa: F401
    import repro.sharding.receipts  # noqa: F401

    running: dict[int, int] = {}  # index -> pid, until reaped
    try:
        for index, conn, spec in workers:
            pid = os.fork()
            if pid == 0:
                others = [control] + [end for _, end, _ in workers if end is not conn]
                _run_forked(conn, spec, others)
            conn.close()
            running[index] = pid
        with suppress(OSError):  # a gone driver is seen as EOF below
            control.send(("pids", dict(running)))
        exited = {os.pidfd_open(pid): index for index, pid in running.items()}
        while exited:
            watched = list(exited) if control.closed else [control, *exited]
            for ready in wait(watched):
                if ready is control:
                    try:
                        _, index = control.recv()
                        doomed = [running[index]] if index in running else []
                    except (EOFError, OSError):  # the driver is gone: so are its workers
                        control.close()
                        doomed = list(running.values())
                    for pid in doomed:
                        os.kill(pid, signal.SIGKILL)
                    continue
                index = exited.pop(ready)
                os.close(ready)
                _, status = os.waitpid(running.pop(index), 0)
                if not control.closed:
                    with suppress(OSError):
                        control.send(("exit", index, os.waitstatus_to_exitcode(status)))
    finally:
        for pid in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_forked(conn, spec: HostSpec, others: Sequence) -> NoReturn:
    """A forked child's whole life: drop the siblings' pipes, serve, exit."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    code = 1
    try:
        for end in others:
            end.close()
        worker_main(conn, spec)
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(code)  # not the copied boot process's finally and exit handlers


def _send(conn, obj) -> None:
    conn.send_bytes(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def worker_main(conn, spec: HostSpec) -> None:
    """Worker entry point: build engines, acknowledge, serve commands.

    Never raises out: construction and per-op failures are shipped back
    as ``("err", ...)`` replies so the driver can re-raise them with the
    worker context attached.  The loop exits on ``"shutdown"`` or when
    the driver end of the pipe closes.
    """
    start = time.perf_counter()
    try:
        host = ShardHost(spec)
    except BaseException as exc:  # construction failed: report, don't hang
        _send(
            conn, (0, "err", type(exc).__name__, str(exc), traceback.format_exc())
        )
        conn.close()
        return
    _send(conn, (0, "ok", "ready", time.perf_counter() - start))
    while True:
        try:
            raw = conn.recv_bytes()
        except EOFError:
            break
        seq, op, args = pickle.loads(raw)
        if op == "shutdown":
            _send(conn, (seq, "ok", None, 0.0))
            break
        start = time.perf_counter()
        try:
            result = getattr(host, op)(*args)
        except BaseException as exc:
            _send(
                conn,
                (seq, "err", type(exc).__name__, str(exc), traceback.format_exc()),
            )
            continue
        _send(conn, (seq, "ok", result, time.perf_counter() - start))
    conn.close()
