"""Shared block store: the read path for every node.

Providers and collectors are not consensus participants, but the paper
gives *every* node ``retrieve(s)`` (Section 3.1) — providers must read
blocks to notice a mislabeled transaction and ``argue``.  The
:class:`BlockStore` is the distribution point: governors publish
committed blocks, any node reads them, and per-reader cursors let active
providers consume the chain in order without missing a block (the
definition of an *active* node).

The store *is* a :class:`~repro.ledger.chain.Ledger`: its height, tip,
``retrieve`` and checkpoint anchor are the ledger's, and a block enters
it only through ``Ledger.append`` — so the published chain keeps Chain
Integrity and No Skipping exactly as every replica does.  What the store
adds is the reader cursors and an idempotent ``publish``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import AgreementError
from repro.ledger.block import Block
from repro.ledger.chain import Ledger

__all__ = ["BlockStore"]


@dataclass
class BlockStore(Ledger):
    """Append-once, read-many block distribution."""

    owner: str = "store"
    _cursors: dict[str, int] = field(default_factory=dict)

    def publish(self, block: Block) -> None:
        """Make ``block`` available to all readers.

        Every governor publishes each round, so publishing is idempotent:
        a serial at or below the anchored base is a no-op (the checkpoint
        the base came from already pins it), and so is a block identical
        to the one held at its serial.  Anything else must extend the
        tip.

        Raises:
            AgreementError: a different block is held at this serial.
            SkippedBlockError / ChainIntegrityError: the block does not
                extend the tip.
        """
        offset = block.serial - self._base_serial
        if offset <= 0:
            return
        if offset <= len(self._blocks):
            if self._blocks[offset - 1].hash() != block.hash():
                raise AgreementError(
                    f"conflicting blocks published for serial {block.serial}"
                )
            return
        self.append(block)

    def next_for(self, reader: str) -> Block | None:
        """Next unread block for ``reader`` in serial order, or None.

        Advances the reader's cursor; an *active* provider polls this
        every round so that no block escapes its argue check.  New
        readers start at the anchored base (compacted history cannot be
        replayed from this store).
        """
        cursor = self._cursors.get(reader, self._base_serial)
        if cursor >= self.height:
            return None
        self._cursors[reader] = cursor + 1
        return self._blocks[cursor - self._base_serial]

    def unread_count(self, reader: str) -> int:
        """How many published blocks ``reader`` has not consumed yet."""
        return self.height - self._cursors.get(reader, self._base_serial)

    def forget_reader(self, reader: str) -> None:
        """Drop ``reader``'s cursor (no-op if absent).

        Engines call this when a node is retired, quarantined or
        migrated away so ``_cursors`` does not grow without bound under
        churn soaks.
        """
        self._cursors.pop(reader, None)
