"""Durable Merkle checkpoints over the committed chain.

A checkpoint pins three things at a block serial ``s``:

* the chain tip hash at ``s`` (so a compacted replica can re-anchor
  its hash chain without the genesis prefix);
* a digest of the reputation books at ``s`` (the paper's provable
  reputation state rides on the same commit stream, so a restarted
  node can detect a book/chain mismatch);
* a rolling Merkle root: ``root = merkle(prev_root, h_{w+1}, ..., h_s)``
  where ``w`` is the previous checkpoint's serial and ``h_i`` the hash
  of block ``i``.  Each root therefore commits (transitively) to every
  block hash since genesis, while only the last window's hashes need
  to be stored to verify it.

Checkpoint files are JSON wrapped with a CRC32, written atomically
(tmp + rename) and fsynced, and the newest ``CHECKPOINT_RETAIN`` files
are kept so a corrupt latest checkpoint degrades to the previous one
rather than to a full peer replay.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.crypto.hashing import hash_value
from repro.crypto.merkle import EMPTY_ROOT, merkle_root
from repro.storage.segments import StorageCorruption

__all__ = [
    "CHECKPOINT_RETAIN",
    "Checkpoint",
    "checkpoint_path",
    "load_checkpoints",
    "reputation_digest",
    "write_checkpoint",
]

CHECKPOINT_FORMAT = 1
#: How many checkpoint files survive pruning.
CHECKPOINT_RETAIN = 2
_CKPT_RE = re.compile(r"checkpoint-(\d{8})\.json$")


@dataclass(frozen=True)
class Checkpoint:
    """A durable pin of the chain and reputation state at ``serial``."""

    serial: int
    tip_hash: bytes
    book_digest: bytes
    window_start: int  #: serial of the previous checkpoint (0 for the first)
    window_hashes: tuple[bytes, ...]  #: block hashes window_start+1 .. serial
    prev_root: bytes  #: previous checkpoint's rolling root (EMPTY_ROOT for the first)
    root: bytes  #: merkle(prev_root, *window_hashes)
    #: Optional sparse reputation payload (gid -> ReputationBook.export_state()).
    #: When present, a restarted node restores the books directly instead of
    #: recomputing them; the digest above still guards integrity.
    book_state: Mapping[str, object] | None = None

    @staticmethod
    def compute_root(prev_root: bytes, window_hashes: Iterable[bytes]) -> bytes:
        return merkle_root([prev_root, *window_hashes])

    def verify(self) -> bool:
        """Internal consistency: window shape and recomputed Merkle root."""
        if self.serial - self.window_start != len(self.window_hashes):
            return False
        if self.window_hashes and self.window_hashes[-1] != self.tip_hash:
            return False
        return self.root == self.compute_root(self.prev_root, self.window_hashes)


def reputation_digest(books: Mapping[str, object]) -> bytes:
    """Canonical digest of every governor's reputation book.

    ``books`` maps governor id -> ReputationBook; the digest covers the
    sorted ``(governor, collector, provider, weight)`` tuples so any
    divergence in any replica's book changes the value.
    """
    rows = []
    for gid in sorted(books):
        book = books[gid]
        for cid in sorted(book.collectors()):
            weights = book.vector(cid).provider_weights
            rows.append((gid, cid, tuple(sorted(weights.items()))))
    return hash_value(tuple(rows))


def checkpoint_path(directory: str | Path, serial: int) -> Path:
    return Path(directory) / f"checkpoint-{serial:08d}.json"


def write_checkpoint(
    directory: str | Path,
    ckpt: Checkpoint,
    *,
    fsync: bool = True,
) -> Path:
    """Atomically persist ``ckpt`` and prune all but the newest
    ``CHECKPOINT_RETAIN``."""
    directory = Path(directory)
    body = {
        "format": CHECKPOINT_FORMAT,
        "serial": ckpt.serial,
        "tip_hash": ckpt.tip_hash.hex(),
        "book_digest": ckpt.book_digest.hex(),
        "window_start": ckpt.window_start,
        "window_hashes": [h.hex() for h in ckpt.window_hashes],
        "prev_root": ckpt.prev_root.hex(),
        "root": ckpt.root.hex(),
    }
    if ckpt.book_state is not None:
        # Sparse payload: only touched rows are exported, so size tracks
        # them, not the registered universe.
        body["book_state"] = ckpt.book_state
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
    doc = {"checkpoint": body, "crc": zlib.crc32(encoded.encode())}
    path = checkpoint_path(directory, ckpt.serial)
    tmp = path.with_suffix(".json.tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    existing = sorted(directory.glob("checkpoint-*.json"))
    for stale in existing[:-CHECKPOINT_RETAIN]:
        stale.unlink()
    return path


def _load_one(path: Path) -> Checkpoint:
    doc = json.loads(path.read_text())
    body = doc["checkpoint"]
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(encoded.encode()) != doc["crc"]:
        raise ValueError("checkpoint CRC mismatch")
    if body.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unknown checkpoint format {body.get('format')!r}")
    ckpt = Checkpoint(
        serial=int(body["serial"]),
        tip_hash=bytes.fromhex(body["tip_hash"]),
        book_digest=bytes.fromhex(body["book_digest"]),
        window_start=int(body["window_start"]),
        window_hashes=tuple(bytes.fromhex(h) for h in body["window_hashes"]),
        prev_root=bytes.fromhex(body["prev_root"]),
        root=bytes.fromhex(body["root"]),
        book_state=body.get("book_state"),
    )
    if not ckpt.verify():
        raise ValueError("checkpoint Merkle root does not match its window")
    return ckpt


def load_checkpoints(
    directory: str | Path,
) -> tuple[list[Checkpoint], list[StorageCorruption]]:
    """All parseable checkpoints, newest first; bad files become corruptions."""
    directory = Path(directory)
    good: list[Checkpoint] = []
    bad: list[StorageCorruption] = []
    for path in sorted(directory.glob("checkpoint-*.json"), reverse=True):
        if not _CKPT_RE.search(path.name):
            continue
        try:
            good.append(_load_one(path))
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            bad.append(
                StorageCorruption(
                    kind="checkpoint-corrupt",
                    target=path.name,
                    offset=-1,
                    detail=str(exc),
                )
            )
    return good, bad
