"""The hash-chained ledger and its safety invariants.

:class:`Ledger` is a single replica's copy of the chain.  ``append``
enforces, at write time, the properties the paper states in Section 3.1:

* **Chain Integrity** — the new block's ``prev_hash`` must equal the
  hash of the current tip;
* **No Skipping** — serials are consecutive starting at 1;
* the universal block size bound ``b_limit`` (checked by ``Block``).

**Agreement** is a cross-replica property; :func:`check_agreement`
compares any number of replicas.  The remaining two properties (Almost
No Creation, Validity) depend on protocol history, so they live in
:mod:`repro.ledger.properties` where the full run transcript is
available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.exceptions import (
    AgreementError,
    BlockNotFoundError,
    ChainIntegrityError,
    LedgerError,
    SkippedBlockError,
)
from repro.ledger.block import GENESIS_PREV_HASH, Block
from repro.ledger.transaction import TxRecord

__all__ = ["Ledger", "check_agreement"]


@dataclass
class Ledger:
    """One replica's append-only chain with ``retrieve(s)`` access."""

    owner: str = "replica"
    _blocks: list[Block] = field(default_factory=list)
    #: Serial of the tip (0 when empty).  Stored rather than derived:
    #: every reader cursor of the published store reads it each round.
    height: int = field(default=0, init=False)
    #: Checkpoint base: serials ``<= _base_serial`` are compacted away
    #: and vouched for by a durable Merkle checkpoint (repro.storage).
    _base_serial: int = field(default=0, init=False)
    _base_hash: bytes = field(default=GENESIS_PREV_HASH, init=False)

    @classmethod
    def from_checkpoint(cls, owner: str, serial: int, tip_hash: bytes) -> "Ledger":
        """A replica anchored at a checkpoint instead of genesis (see :meth:`anchor`)."""
        ledger = cls(owner=owner)
        ledger.anchor(serial, tip_hash)
        return ledger

    def anchor(self, serial: int, tip_hash: bytes) -> None:
        """Anchor an *empty* replica at a checkpoint base.

        Used after restart-from-disk when segments below the checkpoint
        were compacted: the replica resumes appending at ``serial + 1``
        against ``tip_hash`` without holding the prefix.

        Raises:
            LedgerError: the replica is not empty, or the anchor is
                malformed.
        """
        if self.height:
            raise LedgerError(f"{self.owner}: cannot anchor a non-empty chain")
        if serial < 1 or len(tip_hash) != 32:
            raise LedgerError(f"{self.owner}: malformed checkpoint anchor (serial {serial})")
        self._base_serial = self.height = serial
        self._base_hash = tip_hash

    # -- writes --------------------------------------------------------

    def append(self, block: Block) -> None:
        """Append ``block``, enforcing No-Skipping and Chain Integrity.

        The one home of the append rule: every replica, the published
        store and crash recovery extend a chain through here.

        Raises:
            SkippedBlockError: serial is not ``height + 1``.
            ChainIntegrityError: prev_hash does not match the tip.
        """
        expected_serial = self.height + 1
        if block.serial != expected_serial:
            raise SkippedBlockError(
                f"{self.owner}: expected serial {expected_serial}, got {block.serial}"
            )
        expected_prev = self.tip_hash()
        if block.prev_hash != expected_prev:
            raise ChainIntegrityError(
                f"{self.owner}: block {block.serial} prev_hash mismatch"
            )
        self._blocks.append(block)
        self.height = expected_serial

    # -- reads ---------------------------------------------------------

    @property
    def base_serial(self) -> int:
        """Serial this replica is anchored at (0 = genesis)."""
        return self._base_serial

    @property
    def base_hash(self) -> bytes:
        """Tip hash at ``base_serial`` (the genesis hash when unanchored)."""
        return self._base_hash

    def tip_hash(self) -> bytes:
        """Hash the next block must reference."""
        return self._base_hash if not self._blocks else self._blocks[-1].hash()

    def retrieve(self, serial: int) -> Block:
        """The paper's ``retrieve(s)``.

        Raises:
            BlockNotFoundError: serial not on this replica (unpublished,
                or compacted below the checkpoint base).
        """
        if 1 <= serial <= self._base_serial:
            raise BlockNotFoundError(
                f"{self.owner}: serial {serial} compacted below checkpoint "
                f"base {self._base_serial}"
            )
        if not self._base_serial < serial <= self.height:
            raise BlockNotFoundError(
                f"{self.owner}: no block with serial {serial} (height {self.height})"
            )
        return self._blocks[serial - self._base_serial - 1]

    def blocks(self) -> Iterator[Block]:
        """Iterate blocks in serial order."""
        return iter(self._blocks)

    def all_records(self) -> Iterator[tuple[int, TxRecord]]:
        """Iterate (serial, record) pairs over the whole chain."""
        for block in self._blocks:
            for rec in block.tx_list:
                yield block.serial, rec

    def verify_integrity(self) -> None:
        """Re-validate the held chain by replaying it onto a fresh copy.

        The copy is anchored where this replica is (genesis, or the
        checkpoint base), so an anchored replica verifies from the
        checkpoint hash.

        Raises:
            SkippedBlockError / ChainIntegrityError: on corruption.
        """
        replay = Ledger(owner=self.owner)
        if self._base_serial:
            replay.anchor(self._base_serial, self._base_hash)
        for block in self._blocks:
            replay.append(block)


def check_agreement(replicas: Iterable[Ledger]) -> None:
    """Agreement: same-serial blocks are identical across replicas.

    Compares block hashes up to the shortest height among the replicas
    (a replica that is merely *behind* does not violate agreement in a
    synchronous run still in progress).  Serials compacted below any
    replica's checkpoint base cannot be compared block-by-block; their
    equality is vouched for by the checkpoint Merkle root instead.

    Raises:
        AgreementError: two replicas retrieved different blocks for one s.
    """
    ledgers = list(replicas)
    if len(ledgers) < 2:
        return
    common = min(ledger.height for ledger in ledgers)
    start = max(ledger.base_serial for ledger in ledgers) + 1
    reference = ledgers[0]
    for serial in range(start, common + 1):
        want = reference.retrieve(serial).hash()
        for other in ledgers[1:]:
            got = other.retrieve(serial).hash()
            if got != want:
                raise AgreementError(
                    f"replicas {reference.owner!r} and {other.owner!r} "
                    f"disagree at serial {serial}"
                )
