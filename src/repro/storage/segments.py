"""Append-only segment log with CRC-framed records.

On-disk layout inside a storage directory::

    segment-000001.log     length-prefixed records (framing below)
    segment-000002.log     ...
    manifest.json          CRC-wrapped metadata (segment list, ranges)
    checkpoint-*.json      handled by :mod:`repro.storage.checkpoints`

Record framing (little-endian)::

    +---------+---------+----------+------------------+
    | u32 len | u32 crc | u64 ser  | payload (len B)  |
    +---------+---------+----------+------------------+

``crc`` is ``zlib.crc32`` over the payload; ``ser`` is the block
serial, duplicated in the frame so torn tails and truncations can be
reported precisely without decoding payloads.

Scanning is strictly conservative: the first bad frame — short header,
implausible length, CRC mismatch — ends the scan, and everything at or
after it is reported as a :class:`StorageCorruption` instead of being
loaded.  A frame boundary cannot be re-synchronised safely once framing
is broken, and a silently-loaded corrupt block would defeat the whole
point of the checkpoint/recovery machinery.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "MANIFEST_NAME",
    "ScannedRecord",
    "SegmentLog",
    "StorageCorruption",
    "frame_spans",
    "read_manifest",
    "scan_segments",
]

_HEADER = struct.Struct("<IIQ")
#: Upper bound on a single record payload; anything larger is a
#: corrupt header, not a real block.
MAX_PAYLOAD = 1 << 26
MANIFEST_NAME = "manifest.json"
SEGMENT_GLOB = "segment-*.log"
MANIFEST_FORMAT = 1


@dataclass(frozen=True)
class StorageCorruption:
    """One detected on-disk defect (never silently loaded past)."""

    kind: str  #: torn-tail | truncated-segment | crc-mismatch | bad-header | ...
    target: str  #: file name the defect was found in
    offset: int  #: byte offset of the offending frame (-1 if n/a)
    detail: str


@dataclass(frozen=True)
class ScannedRecord:
    """A CRC-verified frame read back from a segment."""

    serial: int
    payload: bytes
    segment: str
    offset: int  #: start of the frame within its segment
    end: int  #: one past the frame's last byte


class SegmentLog:
    """Rolling append-only log of framed records.

    ``append`` flushes (and by default fsyncs) every record before
    returning, so a committed block survives SIGKILL; ``fsync=False``
    models a lazy node whose tail can be lost on crash (the
    ``lost_fsync`` disk fault emulates exactly that).
    """

    def __init__(
        self,
        directory: str | Path,
        segment_bytes: int = 1 << 20,
        fsync: bool = True,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.fsync = bool(fsync)
        self._paths: list[Path] = sorted(self.directory.glob(SEGMENT_GLOB))
        if not self._paths:
            first = self._segment_path(1)
            first.touch()
            self._paths = [first]
        #: segment name -> (first, last) serial appended this process;
        #: sealed pre-existing segments are scanned lazily on compaction.
        self._ranges: dict[str, tuple[int, int]] = {}
        self._active_size = self._paths[-1].stat().st_size
        self.segments_created = 0
        self.write_manifest()

    # -- paths ---------------------------------------------------------

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"segment-{index:06d}.log"

    @property
    def active_path(self) -> Path:
        return self._paths[-1]

    # -- writing -------------------------------------------------------

    def append(self, serial: int, payload: bytes) -> int:
        """Durably append one record; returns bytes written."""
        frame = _HEADER.pack(len(payload), zlib.crc32(payload), serial) + payload
        if self._active_size > 0 and self._active_size + len(frame) > self.segment_bytes:
            self._roll()
        with open(self.active_path, "ab") as fh:
            fh.write(frame)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        self._active_size += len(frame)
        name = self.active_path.name
        first, _ = self._ranges.get(name, (serial, serial))
        self._ranges[name] = (first, serial)
        return len(frame)

    def _roll(self) -> None:
        index = int(self.active_path.stem.split("-")[1]) + 1
        path = self._segment_path(index)
        path.touch()
        self._paths.append(path)
        self._active_size = 0
        self.segments_created += 1
        self.write_manifest()

    def truncate_before(self, serial: int) -> int:
        """Delete sealed segments whose records all precede ``serial``.

        The active segment is never deleted.  Returns the number of
        segment files removed (compaction metric).
        """
        removed = 0
        while len(self._paths) > 1:
            path = self._paths[0]
            rng = self._ranges.get(path.name) or _scan_range(path)
            if rng is None or rng[1] >= serial:
                break
            self._paths.pop(0)
            path.unlink()
            self._ranges.pop(path.name, None)
            removed += 1
        if removed:
            self.write_manifest()
        return removed

    # -- manifest ------------------------------------------------------

    def write_manifest(self) -> None:
        body = {
            "format": MANIFEST_FORMAT,
            "segments": [p.name for p in self._paths],
            "segment_bytes": self.segment_bytes,
            "ranges": {name: list(rng) for name, rng in sorted(self._ranges.items())},
        }
        encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
        doc = {"manifest": body, "crc": zlib.crc32(encoded.encode())}
        tmp = self.directory / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, self.directory / MANIFEST_NAME)


def _scan_range(path: Path) -> tuple[int, int] | None:
    """(first, last) serial of the valid frames in one segment."""
    serials = [rec.serial for rec in _scan_one(path)[0]]
    if not serials:
        return None
    return serials[0], serials[-1]


def frame_spans(path: Path) -> list[tuple[int, int, int]]:
    """Valid ``(offset, end, serial)`` frame spans — fault-injection helper."""
    return [(rec.offset, rec.end, rec.serial) for rec in _scan_one(path)[0]]


def _scan_one(
    path: Path, *, final_segment: bool = True
) -> tuple[list[ScannedRecord], StorageCorruption | None]:
    data = path.read_bytes()
    records: list[ScannedRecord] = []
    offset = 0
    tail_kind = "torn-tail" if final_segment else "truncated-segment"
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            return records, StorageCorruption(
                kind=tail_kind,
                target=path.name,
                offset=offset,
                detail=f"partial header: {len(data) - offset} of {_HEADER.size} bytes",
            )
        length, crc, serial = _HEADER.unpack_from(data, offset)
        if length > MAX_PAYLOAD:
            return records, StorageCorruption(
                kind="bad-header",
                target=path.name,
                offset=offset,
                detail=f"implausible payload length {length} for serial {serial}",
            )
        end = offset + _HEADER.size + length
        if end > len(data):
            return records, StorageCorruption(
                kind=tail_kind,
                target=path.name,
                offset=offset,
                detail=(
                    f"partial payload for serial {serial}: "
                    f"{len(data) - offset - _HEADER.size} of {length} bytes"
                ),
            )
        payload = data[offset + _HEADER.size : end]
        if zlib.crc32(payload) != crc:
            return records, StorageCorruption(
                kind="crc-mismatch",
                target=path.name,
                offset=offset,
                detail=f"CRC mismatch for serial {serial}",
            )
        records.append(
            ScannedRecord(
                serial=serial, payload=payload, segment=path.name,
                offset=offset, end=end,
            )
        )
        offset = end
    return records, None


def scan_segments(
    directory: str | Path,
) -> tuple[list[ScannedRecord], list[StorageCorruption]]:
    """Replay every segment in order, stopping at the first bad frame.

    Records *after* a corruption — including whole later segments — are
    not returned: once framing or a CRC fails, nothing downstream can
    be trusted to sit on a frame boundary.  The caller degrades to the
    last good checkpoint and/or peer sync for the remainder.
    """
    directory = Path(directory)
    paths = sorted(directory.glob(SEGMENT_GLOB))
    records: list[ScannedRecord] = []
    corruptions: list[StorageCorruption] = []
    for i, path in enumerate(paths):
        final = i == len(paths) - 1
        recs, bad = _scan_one(path, final_segment=final)
        records.extend(recs)
        if bad is not None:
            corruptions.append(bad)
            if not final:
                corruptions.append(
                    StorageCorruption(
                        kind="dropped-suffix",
                        target=path.name,
                        offset=-1,
                        detail=f"{len(paths) - 1 - i} later segment(s) ignored "
                        "after corruption",
                    )
                )
            break
    return records, corruptions


def read_manifest(
    directory: str | Path,
) -> tuple[dict | None, StorageCorruption | None]:
    """Load the manifest if present; a corrupt one is reported, not fatal.

    The manifest is advisory (segment discovery falls back to the
    zero-padded file names), so recovery only uses it as an extra
    tamper tripwire.
    """
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None, None
    try:
        doc = json.loads(path.read_text())
        body = doc["manifest"]
        encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
        if zlib.crc32(encoded.encode()) != doc["crc"]:
            raise ValueError("manifest CRC mismatch")
        if body.get("format") != MANIFEST_FORMAT:
            raise ValueError(f"unknown manifest format {body.get('format')!r}")
    except (ValueError, KeyError, TypeError) as exc:
        return None, StorageCorruption(
            kind="manifest-corrupt", target=path.name, offset=-1, detail=str(exc)
        )
    return body, None
