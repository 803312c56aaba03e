"""Durable ledger storage: segment log, Merkle checkpoints, recovery.

The paper's model keeps every ledger structure in memory; a deployable
node must survive a process crash without replaying the whole chain
from a live peer.  This package provides that property as three layers:

* :class:`SegmentLog` — an append-only log of length-prefixed,
  CRC-protected records in rolling segment files with a manifest;
* :class:`Checkpoint` / :func:`write_checkpoint` — periodic durable
  pins of ``(serial, chain tip hash, reputation-book digest)`` plus a
  rolling Merkle root over the block hashes since the previous
  checkpoint, enabling compaction of segments the checkpoint covers;
* :func:`recover` — the restart path: replay segments, verify CRCs,
  block hashes, hash-chain links and the checkpoint commitments, and
  degrade *detectably* (never silently) to the last good checkpoint —
  or to nothing, leaving peer sync to fill the chain.

:class:`DurableBlockStore` glues the layers behind the ordinary
:class:`~repro.ledger.store.BlockStore` interface; pure in-memory
remains the default everywhere, so seeded runs without a
:class:`StorageConfig` are bit-identical to pre-durability builds.
Disk faults are injected by :class:`repro.faults.disk.DiskFaultPlan` and
exercised in ``tests/test_disk_faults.py`` / ``tests/test_kill_restart.py``.
"""

from repro.storage.checkpoints import (
    Checkpoint,
    load_checkpoints,
    reputation_digest,
    write_checkpoint,
)
from repro.storage.durable import DurableBlockStore, StorageConfig, open_durable_store
from repro.storage.recovery import RecoveryReport, recover
from repro.storage.segments import (
    ScannedRecord,
    SegmentLog,
    StorageCorruption,
    scan_segments,
)

__all__ = [
    "Checkpoint",
    "DurableBlockStore",
    "RecoveryReport",
    "ScannedRecord",
    "SegmentLog",
    "StorageConfig",
    "StorageCorruption",
    "load_checkpoints",
    "open_durable_store",
    "recover",
    "reputation_digest",
    "scan_segments",
    "write_checkpoint",
]
