"""Multi-core shard execution: shard hosts behind the shard driver.

The :class:`~repro.sharding.ShardCoordinator` drives its shard engines
through the ops of one class, :class:`~repro.parallel.backend.ShardHost`
— a subset of the shard engines on one simulator, built from one
:class:`~repro.parallel.backend.HostSpec`:

* in-process, the coordinator's backend *is* a ``ShardHost`` over
  every shard, called directly (``kind == "serial"``);
* :class:`~repro.parallel.pool.ParallelBackend` spreads the shards over
  forked worker processes, each serving a ``ShardHost`` over its share
  that the driver built before the fork: one ``run_round`` command per
  worker runs a whole super-round, and receipts are batched over pipes
  (:mod:`~repro.parallel.worker` is the worker side).

Both produce bit-identical ledgers for the same seed; the parallel
backend turns E14's sim-time shard scaling into *wall-clock* scaling
on multi-core hosts (benchmark E16).  This init imports nothing.
"""
