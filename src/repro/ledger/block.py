"""Blocks: ``B = (s, TXList, h)`` plus commitments and proposer metadata.

The paper defines a block as a serial number, a list of signed labeled
transactions, and the hash of the previous block (Section 3.1), with a
universal bound ``b_limit`` on the transaction count.  We additionally
commit to the TXList with a Merkle root, which the block hash covers and
every auditor recomputes from the delivered records — a standard
production refinement that changes no protocol behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import hash_value
from repro.crypto.merkle import MerkleTree
from repro.exceptions import BlockLimitExceededError, LedgerError
from repro.ledger.transaction import TxRecord

__all__ = ["Block", "GENESIS_PREV_HASH"]

#: The previous-hash value carried by the genesis block.
GENESIS_PREV_HASH = b"\x00" * 32


@dataclass(frozen=True)
class Block:
    """An immutable block.

    Attributes:
        serial: One-based serial number ``s``; consecutive in the chain.
        tx_list: The TXList of :class:`TxRecord` entries.
        prev_hash: ``h`` — hash of the previous block (Chain Integrity).
        proposer: Governor id of the round leader that packed the block.
        round_number: Protocol round that produced the block.
        b_limit: The universal transaction-count bound in force.

    The Merkle root over the records' digests and ``H(B)`` are derived
    once, at construction.
    """

    serial: int
    tx_list: tuple[TxRecord, ...]
    prev_hash: bytes
    proposer: str
    round_number: int
    b_limit: int = 1024
    _root: bytes = field(init=False, repr=False, compare=False, hash=False)
    _hash: bytes = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if self.serial < 1:
            raise LedgerError(f"block serial numbers start at 1, got {self.serial}")
        if len(self.prev_hash) != 32:
            raise LedgerError("prev_hash must be a 32-byte digest")
        if self.b_limit < 1:
            raise LedgerError(f"b_limit must be >= 1, got {self.b_limit}")
        if len(self.tx_list) > self.b_limit:
            raise BlockLimitExceededError(
                f"block holds {len(self.tx_list)} transactions, over b_limit={self.b_limit}"
            )
        leaves = [rec.hash() for rec in self.tx_list]
        root = MerkleTree(leaves).root
        header = (
            "block", self.serial, self.prev_hash, root,
            self.proposer, self.round_number, len(leaves),
        )
        body = hash_value((header, tuple(leaves)))
        object.__setattr__(self, "_root", root)
        object.__setattr__(self, "_hash", hash_value(("block-hash", body)))

    @property
    def tx_root(self) -> bytes:
        """Merkle root committing to the TXList."""
        return self._root

    def hash(self) -> bytes:
        """``H(B)`` — the CRHF over the header and every record."""
        return self._hash

    def __len__(self) -> int:
        return len(self.tx_list)

