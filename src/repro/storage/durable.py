"""A BlockStore that persists every published block to a segment log.

``DurableBlockStore`` is a drop-in :class:`~repro.ledger.store.BlockStore`:
the engine publishes and readers cursor through it exactly as before,
but each append is also framed, CRC'd and fsynced into the segment log,
and every ``checkpoint_interval`` blocks a Merkle checkpoint is written
and the segments it covers are compacted away.

Construction goes through :func:`open_durable_store`, which first runs
the :mod:`repro.storage.recovery` state machine against the directory,
truncates whatever it rejected, re-anchors the in-memory store at the
recovered base, and replays the verified blocks — so "open the store"
and "recover from crash" are the same operation.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.crypto.merkle import EMPTY_ROOT
from repro.exceptions import LedgerError
from repro.ledger.codec import encode_block
from repro.ledger.store import BlockStore
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.storage.checkpoints import Checkpoint, write_checkpoint
from repro.storage.recovery import RecoveryReport, apply_truncation, recover
from repro.storage.segments import SegmentLog

__all__ = [
    "DurableBlockStore",
    "StorageConfig",
    "open_durable_store",
    "storage_metrics",
]


@dataclass(frozen=True)
class StorageConfig:
    """Knobs for a durable ledger directory.

    ``checkpoint_interval=0`` disables checkpoints (and hence
    compaction): recovery then always replays from genesis.
    """

    directory: str | Path
    checkpoint_interval: int = 8
    segment_bytes: int = 1 << 20
    fsync: bool = True


#: (short name, type, family, label names, help) of the ``storage_*`` family.
_FAMILIES = (
    ("records", "counter", "storage_records_appended_total", (),
     "Block records appended to the segment log"),
    ("segments", "counter", "storage_segments_total", (),
     "Segment files created (rolls) beyond the initial one"),
    ("bytes", "counter", "storage_bytes_written_total", (),
     "Bytes of framed records written to segments"),
    ("checkpoints", "counter", "storage_checkpoints_total", (),
     "Merkle checkpoints written"),
    ("compacted", "counter", "storage_compacted_segments_total", (),
     "Sealed segment files deleted by checkpoint compaction"),
    ("corruptions", "counter", "storage_corruptions_detected_total", ("kind",),
     "On-disk defects detected during recovery, by kind"),
    ("recovered", "counter", "storage_recovered_blocks_total", ("source",),
     "Blocks restored after a restart, by source"),
    ("ckpt_age", "gauge", "storage_checkpoint_age_blocks", (),
     "Blocks committed since the last checkpoint"),
    ("replay_s", "gauge", "storage_recovery_replay_seconds", (),
     "Wall-clock duration of the last recovery replay"),
)


def storage_metrics(registry: MetricsRegistry, **readers) -> dict[str, object]:
    """Declare the ``storage_*`` family; returns it by short name.

    ``readers`` maps a short name to the reader a component attaches for
    it.  The engine's hand-off declares the family unconditionally (the
    telemetry inventory is the same with durability off) and a durable
    store declares it again with the readers of its own record; both
    count corruptions and recovered blocks, and counter readers add.
    """
    return {
        short: getattr(registry, kind)(
            family, help, labels=labels, read=readers.get(short)
        )
        for short, kind, family, labels, help in _FAMILIES
    }


class DurableBlockStore(BlockStore):
    """BlockStore whose publishes survive SIGKILL."""

    def __init__(
        self,
        config: StorageConfig,
        *,
        obs: MetricsRegistry | None = None,
        book_digest_fn: Callable[[], bytes] | None = None,
        book_state_fn: Callable[[], dict] | None = None,
    ) -> None:
        super().__init__()
        self.config = config
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.book_digest_fn = book_digest_fn
        self.book_state_fn = book_state_fn
        # Plain counts of what this open of the directory did; the
        # ``storage_*`` family reads them.
        self.records_appended = self.bytes_written = 0
        self.checkpoints_written = self.segments_compacted = 0
        #: ``StorageCorruption.kind`` -> defects the recovery at open found.
        self.corruptions: Counter[str] = Counter()
        #: Blocks restored at open (``disk``) and since from a peer's copy
        #: (``peer`` — whoever publishes them here counts them here; an
        #: engine's hand-off counts its own pulls).
        self.recovered: dict[str, int] = defaultdict(int)
        storage_metrics(
            self.obs,
            records=lambda: self.records_appended,
            segments=lambda: self._log.segments_created,
            bytes=lambda: self.bytes_written,
            checkpoints=lambda: self.checkpoints_written,
            compacted=lambda: self.segments_compacted,
            corruptions=lambda: self.corruptions,
            recovered=lambda: self.recovered,
            ckpt_age=lambda: self.height - self.last_checkpoint_serial,
            replay_s=lambda: self.recovery.replay_seconds if self.recovery else 0.0,
        )
        self._log = SegmentLog(
            config.directory,
            segment_bytes=config.segment_bytes,
            fsync=config.fsync,
        )
        self._prev_root = EMPTY_ROOT
        self._window_start = 0
        self._window: list[bytes] = []
        self.last_checkpoint_serial = 0
        self.recovery: RecoveryReport | None = None

    # -- publishing ----------------------------------------------------

    def publish(self, block) -> None:
        """Publish and durably append ``block``.

        The durable log is strictly sequential: out-of-order publishes
        that the in-memory store would tolerate are rejected here, so
        the on-disk chain always equals the in-memory one.
        """
        before = self.height
        if block.serial <= before:
            super().publish(block)  # idempotence / conflict detection
            return
        if block.serial != before + 1:
            raise LedgerError(
                f"durable store appends sequentially: got serial "
                f"{block.serial}, expected {before + 1}"
            )
        super().publish(block)
        payload = json.dumps(
            encode_block(block), sort_keys=True, separators=(",", ":")
        ).encode()
        self.bytes_written += self._log.append(block.serial, payload)
        self.records_appended += 1
        self._window.append(block.hash())
        interval = self.config.checkpoint_interval
        if interval > 0 and block.serial - self._window_start >= interval:
            self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        digest = self.book_digest_fn() if self.book_digest_fn is not None else b""
        state = self.book_state_fn() if self.book_state_fn is not None else None
        ckpt = Checkpoint(
            serial=self.height,
            tip_hash=self.tip_hash(),
            book_digest=digest,
            window_start=self._window_start,
            window_hashes=tuple(self._window),
            prev_root=self._prev_root,
            root=Checkpoint.compute_root(self._prev_root, self._window),
            book_state=state,
        )
        write_checkpoint(self.config.directory, ckpt, fsync=self.config.fsync)
        self.checkpoints_written += 1
        self.last_checkpoint_serial = ckpt.serial
        self._prev_root = ckpt.root
        self._window_start = ckpt.serial
        self._window = []
        self.segments_compacted += self._log.truncate_before(ckpt.serial)

    # -- recovery hand-off ---------------------------------------------

    def _adopt_recovery(self, report: RecoveryReport) -> None:
        """Load the verified chain a recovery pass produced."""
        self.recovery = report
        if report.base_serial > 0:
            self.anchor(report.base_serial, report.base_hash)
        for block in report.blocks:
            BlockStore.publish(self, block)  # already on disk; memory only
        self._prev_root = report.resume_prev_root
        self._window_start = report.resume_window_start
        self._window = list(report.resume_window)
        self.last_checkpoint_serial = report.resume_window_start
        self.corruptions.update(bad.kind for bad in report.corruptions)
        if report.blocks:
            self.recovered["disk"] += len(report.blocks)


def open_durable_store(
    config: StorageConfig,
    *,
    obs: MetricsRegistry | None = None,
    book_digest_fn: Callable[[], bytes] | None = None,
    book_state_fn: Callable[[], dict] | None = None,
) -> tuple[DurableBlockStore, RecoveryReport]:
    """Recover ``config.directory`` and open a durable store on it.

    Any bytes the recovery state machine rejected are physically
    truncated before the store starts appending, so a restart never
    extends a corrupt tail.
    """
    report = recover(config.directory)
    apply_truncation(config.directory, report)
    store = DurableBlockStore(
        config,
        obs=obs,
        book_digest_fn=book_digest_fn,
        book_state_fn=book_state_fn,
    )
    store._adopt_recovery(report)
    return store, report
