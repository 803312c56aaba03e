"""Shard worker processes: each a :class:`ShardHost` on a pipe, forked by the driver.

:class:`~repro.parallel.pool.ParallelBackend` builds each worker's host
in the driver, forks one worker per host and runs :func:`worker_main` in
it, on the host the fork copied.  The child first closes every
driver-side pipe end it inherited, its own and its siblings' (so the
driver's death reaches every worker as EOF), and resets SIGTERM to its
default action (a handler the driver installed is not the worker's).

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
``par_barrier_wait_seconds``.  Every message answers a command: the
host exists before the fork, so there is nothing to announce.

Engines run with observability **disabled** in workers (metrics
registries are process-local and the no-op registry is guaranteed
behaviour-neutral); all shard/parallel metrics live driver-side.
"""

from __future__ import annotations

import pickle
import signal
import time
import traceback
from typing import Sequence

from repro.parallel.backend import ShardHost

__all__ = ["worker_main"]


def _send(conn, obj) -> None:
    conn.send_bytes(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def worker_main(conn, host: ShardHost, driver_ends: Sequence) -> None:
    """Worker entry point: serve commands on the host the driver built.

    ``driver_ends`` are the driver-side pipe ends the fork copied, closed
    first.  Never raises out: per-op failures are shipped back as
    ``("err", ...)`` replies so the driver can re-raise them with the
    worker context attached.  The loop exits on ``"shutdown"`` or when
    the driver end of the pipe closes.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for end in driver_ends:
        end.close()
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
