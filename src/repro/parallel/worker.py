"""Shard worker processes: each a :class:`ShardHost` on a pipe, forked by the driver.

:class:`~repro.parallel.pool.ParallelBackend` builds each worker's host
in the driver, forks one worker per host and runs :func:`worker_main` in
it, on the host the fork copied.  The child first closes every
driver-side pipe end it inherited, its own and its siblings' (so the
driver's death reaches every worker as EOF), and resets SIGTERM to its
default action (a handler the driver installed is not the worker's).
A sibling forked later holds this worker's driver end until it runs
that close, so a waiting worker also checks every ``ORPHAN_CHECK``
seconds that its parent is still the driver.

A worker is a :class:`~repro.parallel.backend.ShardHost` over its share
of the shards — the same class the in-process backend is, so every shard
op is written once.  Its command loop speaks length-prefixed pickles
over a ``multiprocessing.Pipe``: the driver sends ``(seq, op, args)`` —
``op`` names a host method — and the worker replies ``(seq, "ok",
result, wall_seconds)`` or ``(seq, "err", type, message, traceback)``.
The echoed sequence number lets the driver skip a survivor's unread
reply to a command a sibling's crash aborted; ``wall_seconds``, the
op's worker-side compute, feeds ``par_worker_round_seconds``.  Every
message answers a command: the host exists before the fork, so there
is nothing to announce.

Engines run with observability **disabled** in workers (metrics
registries are process-local and the no-op registry is guaranteed
behaviour-neutral); all shard/parallel metrics live driver-side.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
import traceback
from typing import Sequence

from repro.parallel.backend import ShardHost

__all__ = ["worker_main"]

#: Seconds a waiting worker goes between checks that its driver lives
#: (below the pool's ``EXIT_TIMEOUT``, within which an orphan must exit).
ORPHAN_CHECK = 0.1


def _send(conn, obj) -> None:
    conn.send_bytes(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def worker_main(conn, host: ShardHost, driver_ends: Sequence, driver: int) -> None:
    """Serve commands on the host the driver (pid ``driver``) built.

    Never raises out: an op's failure goes back as an ``("err", ...)``
    reply.  Exits on ``"shutdown"``, on EOF, or once orphaned.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    for end in driver_ends:
        end.close()
    while True:
        try:
            if not conn.poll(ORPHAN_CHECK):
                if os.getppid() != driver:
                    break
                continue
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
