"""Merkle roots over block transaction lists and checkpoint windows.

The paper stores the full ``TXList`` in each block; a block here also
commits to its list with a Merkle root over the records' digests, which
every auditor recomputes from the delivered TXList (the ``merkle-root``
check), and each durable checkpoint commits to its window of block
hashes the same way.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.crypto.hashing import hash_value, sha256

__all__ = ["MerkleTree", "merkle_root"]

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"
#: Root of the empty tree, a domain-separated constant.
EMPTY_ROOT = sha256(b"empty-merkle-tree")


def _leaf_hash(item: Any) -> bytes:
    """Hash a leaf with a domain-separation prefix (blocks 2nd-preimage tricks)."""
    return sha256(_LEAF_PREFIX + hash_value(item))


def _node_hash(left: bytes, right: bytes) -> bytes:
    """Hash an interior node."""
    return sha256(_NODE_PREFIX + left + right)


class MerkleTree:
    """The Merkle root over an ordered sequence of items (only the root is kept).

    Odd nodes at any level are promoted unchanged (Bitcoin-style
    duplication is avoided because it admits mutation attacks).
    """

    def __init__(self, items: Sequence[Any]):
        level = [_leaf_hash(item) for item in items]
        self._size = len(level)
        while len(level) > 1:
            nxt: list[bytes] = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(_node_hash(level[i], level[i + 1]))
            if len(level) % 2 == 1:
                nxt.append(level[-1])
            level = nxt
        self._root = level[0] if level else EMPTY_ROOT

    @property
    def root(self) -> bytes:
        """The tree's root commitment."""
        return self._root


def merkle_root(items: Sequence[Any]) -> bytes:
    """Root of the Merkle tree over ``items`` (EMPTY_ROOT for [])."""
    return MerkleTree(items).root
