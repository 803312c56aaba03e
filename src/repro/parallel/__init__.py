"""Multi-core shard execution: shard hosts behind the shard driver.

The :class:`~repro.sharding.ShardCoordinator` drives its shard engines
through the ops of one class, :class:`ShardHost` — a subset of the shard
engines on one simulator, built from one picklable :class:`HostSpec`:

* in-process, the coordinator's backend *is* a :class:`ShardHost` over
  every shard, called directly (``kind == "serial"``);
* :class:`ParallelBackend` spreads the shards over spawned worker
  processes, each a :class:`ShardHost` over its share, synchronized at
  the ``begin_round`` / ``begin_argue`` / ``complete_round`` phase
  barriers, receipts batched over pipes.

Both produce bit-identical ledgers for the same seed; the parallel
backend turns E14's sim-time shard scaling into *wall-clock* scaling
on multi-core hosts (benchmark E16).
"""

from repro.parallel.backend import (
    HostSpec,
    ShardChainStats,
    ShardHost,
    ShardRoundInfo,
    ShardScan,
    build_shard_engine,
    scan_shard_commits,
)
from repro.parallel.pool import ParallelBackend, parallel_metrics
from repro.parallel.worker import worker_main

__all__ = [
    "HostSpec",
    "ShardHost",
    "ParallelBackend",
    "ShardRoundInfo",
    "ShardScan",
    "ShardChainStats",
    "worker_main",
    "build_shard_engine",
    "scan_shard_commits",
    "parallel_metrics",
]
