"""Seeded disk-fault injection against a durable ledger directory.

The network :class:`~repro.faults.plan.FaultPlan` corrupts messages in
flight; :class:`DiskFaultPlan` corrupts bytes at rest.  Each fault kind
models a real storage failure mode:

``torn_record``
    A crash mid-append leaves a partial frame at the tail of the final
    segment (the classic torn write).
``lost_fsync``
    The process crashed after ``write`` but before the data hit the
    platter: the last whole record(s) vanish, frame-aligned — the log
    is *shorter*, not corrupt.
``truncated_segment``
    A sealed (non-final) segment loses its tail — e.g. a filesystem
    that recovered to an old inode size.
``bit_flip``
    One bit flips somewhere in a segment (bad sector, bit rot).
``corrupt_checkpoint``
    The newest checkpoint file is damaged in place.
``missing_checkpoint``
    The newest checkpoint file disappears entirely.

All randomness flows from ``repro.rng.default_rng(seed)``, so a
given plan corrupts the same bytes on every run.  The contract tested
by ``tests/test_disk_faults.py``: every fault is *detected* by
:func:`repro.storage.recover` (surfaced in ``RecoveryReport``) — or, for
the frame-aligned ``lost_fsync``/``missing_checkpoint`` kinds, visibly
shortens the recovered state — and recovery degrades to the last good
checkpoint and/or peer sync, never to silently loading bad blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.rng import Generator, default_rng
from repro.storage.segments import _HEADER, SEGMENT_GLOB, frame_spans

__all__ = ["DISK_FAULT_KINDS", "AppliedDiskFault", "DiskFaultPlan"]

DISK_FAULT_KINDS = (
    "torn_record",
    "lost_fsync",
    "truncated_segment",
    "bit_flip",
    "corrupt_checkpoint",
    "missing_checkpoint",
)


@dataclass(frozen=True)
class AppliedDiskFault:
    """One corruption actually written to disk."""

    kind: str
    target: str
    detail: str


@dataclass(frozen=True)
class DiskFaultPlan:
    """An ordered, seeded list of at-rest corruptions.

    Built fluently::

        plan = DiskFaultPlan(seed=7).with_fault("torn_record")
        applied = plan.apply(ledger_dir)
    """

    seed: int = 0
    faults: tuple[str, ...] = field(default_factory=tuple)

    def with_fault(self, kind: str) -> "DiskFaultPlan":
        if kind not in DISK_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown disk fault {kind!r}; choose from {DISK_FAULT_KINDS}"
            )
        return replace(self, faults=self.faults + (kind,))

    def apply(self, directory: str | Path) -> list[AppliedDiskFault]:
        """Corrupt ``directory`` in place; returns what was done.

        A fault with no viable target (e.g. ``missing_checkpoint`` on a
        checkpoint-free directory) is skipped and simply absent from
        the returned list.
        """
        directory = Path(directory)
        rng = default_rng(self.seed)
        applied = []
        for kind in self.faults:
            result = _DISPATCH[kind](directory, rng)
            if result is not None:
                applied.append(result)
        return applied


def _segments(directory: Path) -> list[Path]:
    return [p for p in sorted(directory.glob(SEGMENT_GLOB)) if p.stat().st_size > 0]


def _torn_record(directory: Path, rng: Generator) -> AppliedDiskFault | None:
    segs = _segments(directory)
    if not segs:
        return None
    path = segs[-1]
    spans = frame_spans(path)
    if not spans:
        return None
    offset, end, serial = spans[-1]
    # Cut strictly inside the final frame: past its header start, short
    # of its last byte.
    lo, hi = offset + 1, end - 1
    cut = rng.integers(lo, hi + 1) if hi > lo else hi
    with open(path, "r+b") as fh:
        fh.truncate(cut)
    return AppliedDiskFault(
        kind="torn_record",
        target=path.name,
        detail=f"frame for serial {serial} cut at byte {cut} (frame {offset}..{end})",
    )


def _lost_fsync(directory: Path, rng: Generator) -> AppliedDiskFault | None:
    segs = _segments(directory)
    if not segs:
        return None
    path = segs[-1]
    spans = frame_spans(path)
    if not spans:
        return None
    drop = min(rng.integers(1, 3), len(spans))
    keep_until = spans[-drop][0]
    with open(path, "r+b") as fh:
        fh.truncate(keep_until)
    serials = [s for _, _, s in spans[-drop:]]
    return AppliedDiskFault(
        kind="lost_fsync",
        target=path.name,
        detail=f"unsynced record(s) for serial(s) {serials} lost on crash",
    )


def _truncated_segment(
    directory: Path, rng: Generator
) -> AppliedDiskFault | None:
    segs = _segments(directory)
    if not segs:
        return None
    # Prefer a sealed segment so the damage is mid-log, not a torn tail.
    pool = segs[:-1] if len(segs) > 1 else segs
    path = pool[rng.integers(len(pool))]
    size = path.stat().st_size
    cut = max(1, int(size * rng.uniform(0.2, 0.8)))
    if cut >= size:
        cut = size - 1
    with open(path, "r+b") as fh:
        fh.truncate(cut)
    return AppliedDiskFault(
        kind="truncated_segment",
        target=path.name,
        detail=f"segment truncated from {size} to {cut} bytes",
    )


def _bit_flip(directory: Path, rng: Generator) -> AppliedDiskFault | None:
    segs = _segments(directory)
    if not segs:
        return None
    path = segs[rng.integers(len(segs))]
    data = bytearray(path.read_bytes())
    if len(data) <= _HEADER.size:
        return None
    # Land inside a payload region so the CRC (not just framing) is hit.
    offset = rng.integers(_HEADER.size, len(data))
    bit = rng.integers(8)
    data[offset] ^= 1 << bit
    path.write_bytes(bytes(data))
    return AppliedDiskFault(
        kind="bit_flip",
        target=path.name,
        detail=f"bit {bit} of byte {offset} flipped",
    )


def _corrupt_checkpoint(
    directory: Path, rng: Generator
) -> AppliedDiskFault | None:
    ckpts = sorted(directory.glob("checkpoint-*.json"))
    if not ckpts:
        return None
    path = ckpts[-1]
    data = bytearray(path.read_bytes())
    if not data:
        return None
    offset = rng.integers(len(data))
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    return AppliedDiskFault(
        kind="corrupt_checkpoint",
        target=path.name,
        detail=f"byte {offset} xor'd",
    )


def _missing_checkpoint(
    directory: Path, rng: Generator
) -> AppliedDiskFault | None:
    ckpts = sorted(directory.glob("checkpoint-*.json"))
    if not ckpts:
        return None
    path = ckpts[-1]
    path.unlink()
    return AppliedDiskFault(
        kind="missing_checkpoint", target=path.name, detail="checkpoint file deleted"
    )


_DISPATCH = {
    "torn_record": _torn_record,
    "lost_fsync": _lost_fsync,
    "truncated_segment": _truncated_segment,
    "bit_flip": _bit_flip,
    "corrupt_checkpoint": _corrupt_checkpoint,
    "missing_checkpoint": _missing_checkpoint,
}
