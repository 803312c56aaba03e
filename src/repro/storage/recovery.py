"""Crash-restart recovery: replay segments, verify, anchor, truncate.

The recovery state machine (documented in DESIGN.md §Durability):

1. **Scan** — load checkpoints (CRC + Merkle root verified; corrupt
   files are reported and skipped) and replay segment frames (CRC per
   record; first bad frame ends the scan).
2. **Decode** — each payload goes through ``decode_block``, which
   recomputes the embedded block hash; a tampered-but-CRC-valid record
   is still caught here.
3. **Anchor** — if the first replayed block has serial 1 the chain
   anchors at genesis; otherwise a verified checkpoint with
   ``serial == first - 1`` must vouch for the compacted prefix.
   Unanchored segments are dropped (reported), degrading to the newest
   verified checkpoint alone, or to nothing (full peer sync).
4. **Link** — replayed blocks are appended to a
   :class:`~repro.ledger.chain.Ledger` anchored there, so they must be
   serial-consecutive and hash-chained by the ledger's own append rule;
   the first block it refuses truncates the usable chain there.
5. **Cross-check** — any verified checkpoint covering the recovered
   range must agree with the replayed tip hash at its serial.

Everything the state machine rejects surfaces in
``RecoveryReport.corruptions``; nothing corrupt is ever loaded
silently.  The report also carries the physical truncation point so
the caller can chop invalid bytes off disk before appending again.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.crypto.merkle import EMPTY_ROOT
from repro.exceptions import LedgerError
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.chain import Ledger
from repro.ledger.codec import decode_block
from repro.storage.checkpoints import Checkpoint, load_checkpoints
from repro.storage.segments import (
    SEGMENT_GLOB,
    ScannedRecord,
    StorageCorruption,
    read_manifest,
    scan_segments,
)

__all__ = ["RecoveryReport", "recover", "apply_truncation"]


@dataclass
class RecoveryReport:
    """Outcome of one restart-from-disk attempt."""

    base_serial: int  #: serial the recovered chain anchors at (0 = genesis)
    base_hash: bytes  #: tip hash at ``base_serial``
    blocks: list[Block]  #: verified chain suffix, serials base+1..height
    checkpoint: Checkpoint | None  #: newest verified checkpoint, if any
    corruptions: list[StorageCorruption]
    replay_seconds: float
    records_scanned: int
    #: rolling-root state the durable store resumes from
    resume_prev_root: bytes = EMPTY_ROOT
    resume_window_start: int = 0
    resume_window: list[bytes] = field(default_factory=list)
    #: physical cleanup: (keep_segment_name, keep_until_byte) or None
    truncate_at: tuple[str, int] | None = None

    @property
    def height(self) -> int:
        return self.base_serial + len(self.blocks)

    @property
    def clean(self) -> bool:
        return not self.corruptions

    def summary(self) -> str:
        state = "clean" if self.clean else f"{len(self.corruptions)} corruption(s)"
        return (
            f"recovered height {self.height} (base {self.base_serial}, "
            f"{len(self.blocks)} block(s) replayed, "
            f"checkpoint {'#%d' % self.checkpoint.serial if self.checkpoint else 'none'}, "
            f"{state}, {self.replay_seconds * 1e3:.1f} ms)"
        )


def recover(directory: str | Path) -> RecoveryReport:
    """Run the recovery state machine against ``directory``."""
    directory = Path(directory)
    t0 = time.perf_counter()
    corruptions: list[StorageCorruption] = []

    _, manifest_bad = read_manifest(directory)
    if manifest_bad is not None:
        corruptions.append(manifest_bad)

    checkpoints, ckpt_bad = load_checkpoints(directory)
    corruptions.extend(ckpt_bad)

    records, seg_bad = scan_segments(directory)
    corruptions.extend(seg_bad)

    # Decode payloads; decode_block re-verifies the embedded block hash,
    # so a bit flip that happens to keep the CRC intact is still caught.
    decoded: list[tuple[ScannedRecord, Block]] = []
    for rec in records:
        try:
            block = decode_block(json.loads(rec.payload.decode()))
        except (LedgerError, ValueError, KeyError, TypeError) as exc:
            corruptions.append(
                StorageCorruption(
                    kind="record-decode",
                    target=rec.segment,
                    offset=rec.offset,
                    detail=f"serial {rec.serial}: {exc}",
                )
            )
            break
        if block.serial != rec.serial:
            corruptions.append(
                StorageCorruption(
                    kind="record-decode",
                    target=rec.segment,
                    offset=rec.offset,
                    detail=f"frame serial {rec.serial} != block serial {block.serial}",
                )
            )
            break
        decoded.append((rec, block))

    # Anchor selection.
    latest = checkpoints[0] if checkpoints else None
    base_serial, base_hash = 0, GENESIS_PREV_HASH
    anchor_ckpt: Checkpoint | None = None
    if decoded:
        first_serial = decoded[0][1].serial
        if first_serial == 1:
            anchor_ckpt = None  # genesis-anchored; checkpoints only cross-check
        else:
            # Compaction keeps whole segments, so the disk may still
            # hold a few records at or below the checkpoint serial; any
            # verified checkpoint covering the compacted prefix
            # (serial >= first - 1) anchors the chain, and records the
            # checkpoint already pins are dropped rather than replayed.
            anchor_ckpt = (
                latest
                if latest is not None and latest.serial >= first_serial - 1
                else None
            )
            if anchor_ckpt is None:
                corruptions.append(
                    StorageCorruption(
                        kind="unanchored-segments",
                        target=decoded[0][0].segment,
                        offset=decoded[0][0].offset,
                        detail=(
                            f"segments start at serial {first_serial} but no "
                            "verified checkpoint pins the compacted prefix"
                        ),
                    )
                )
                decoded = []
            else:
                base_serial, base_hash = anchor_ckpt.serial, anchor_ckpt.tip_hash
                decoded = [
                    (rec, block) for rec, block in decoded if block.serial > base_serial
                ]
    if not decoded and anchor_ckpt is None and latest is not None:
        # No usable blocks: restart from the newest checkpoint alone and
        # let peer sync provide everything after it.
        anchor_ckpt = latest
        base_serial, base_hash = latest.serial, latest.tip_hash

    # Verify by appending: the replayed blocks must extend the anchored
    # chain under the same rule every replica enforces.
    chain = Ledger(owner="recovery")
    if base_serial:
        chain.anchor(base_serial, base_hash)
    good_records: list[ScannedRecord] = []
    for rec, block in decoded:
        try:
            chain.append(block)
        except LedgerError as exc:
            corruptions.append(
                StorageCorruption(
                    kind="chain-break",
                    target=rec.segment,
                    offset=rec.offset,
                    detail=f"block does not extend verified tip: {exc}",
                )
            )
            break
        good_records.append(rec)
    blocks = list(chain.blocks())
    height = chain.height

    # Cross-check every verified checkpoint that the recovered range covers.
    for ckpt in checkpoints:
        if (
            base_serial < ckpt.serial <= height
            and chain.retrieve(ckpt.serial).hash() != ckpt.tip_hash
        ):
            corruptions.append(
                StorageCorruption(
                    kind="checkpoint-divergence",
                    target=f"checkpoint-{ckpt.serial:08d}.json",
                    offset=-1,
                    detail=(
                        f"checkpoint #{ckpt.serial} pins a different tip "
                        "than the replayed (genesis-anchored) chain"
                    ),
                )
            )

    # Rolling-root resume state: the newest verified checkpoint at or
    # below the recovered height starts the next window.
    resume_ckpt = next(
        (c for c in checkpoints if c.serial <= height), None
    )
    if resume_ckpt is not None:
        resume_prev_root = resume_ckpt.root
        resume_window_start = resume_ckpt.serial
    else:
        resume_prev_root = EMPTY_ROOT
        resume_window_start = 0
    resume_window = [
        b.hash() for b in blocks if b.serial > resume_window_start
    ]

    # Physical truncation point: keep bytes up to the last verified
    # record; everything after (including later segments) is invalid.
    truncate_at: tuple[str, int] | None = None
    if corruptions:
        if good_records:
            truncate_at = (good_records[-1].segment, good_records[-1].end)
        elif sorted(directory.glob(SEGMENT_GLOB)):
            truncate_at = ("", 0)  # nothing on disk is usable

    return RecoveryReport(
        base_serial=base_serial,
        base_hash=base_hash,
        blocks=blocks,
        checkpoint=anchor_ckpt or resume_ckpt,
        corruptions=corruptions,
        replay_seconds=time.perf_counter() - t0,
        records_scanned=len(records),
        resume_prev_root=resume_prev_root,
        resume_window_start=resume_window_start,
        resume_window=resume_window,
        truncate_at=truncate_at,
    )


def apply_truncation(directory: str | Path, report: RecoveryReport) -> int:
    """Chop unverified bytes off disk so appending can resume cleanly.

    Returns the number of bytes removed.  A no-op for clean reports.
    """
    directory = Path(directory)
    removed = 0
    # A checkpoint file that failed its CRC/Merkle check is garbage: if
    # it stayed, every later restart would re-detect (and re-count) the
    # same corruption.  Delete it — the retained older checkpoint or
    # peer sync already took over.
    for bad in report.corruptions:
        if bad.kind == "checkpoint-corrupt":
            path = directory / bad.target
            if path.exists():
                removed += path.stat().st_size
                path.unlink()
    if report.truncate_at is None:
        return removed
    keep_segment, keep_until = report.truncate_at
    for path in sorted(directory.glob(SEGMENT_GLOB)):
        if keep_segment and path.name < keep_segment:
            continue
        if path.name == keep_segment:
            size = path.stat().st_size
            if size > keep_until:
                with open(path, "r+b") as fh:
                    fh.truncate(keep_until)
                removed += size - keep_until
        else:
            removed += path.stat().st_size
            path.unlink()
    return removed
