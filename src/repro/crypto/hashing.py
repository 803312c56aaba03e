"""Collision-resistant hashing used throughout the ledger.

The paper assumes a public collision-resistant hash function ``H`` used to
chain blocks (Chain Integrity property, Section 3.1).  We wrap SHA-256
behind a small canonical-serialisation layer so that every structured
object in the system hashes to a stable, platform-independent digest.

Canonical serialisation rules
-----------------------------
* ``bytes`` are hashed as-is with a length prefix.
* ``str`` is encoded UTF-8.
* ``int`` is encoded as its decimal string (arbitrary precision).
* ``float`` is encoded via ``repr`` (shortest round-trip form).
* ``None``, ``bool`` get fixed tags.
* tuples/lists hash the concatenation of member digests with a length
  prefix, so ``("a", "b")`` and ``("ab",)`` differ.
* dicts hash sorted ``(key, value)`` pairs.

Every encoding is prefixed with a one-byte type tag to rule out
cross-type collisions (``hash_value(1)`` never equals ``hash_value("1")``).
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

__all__ = ["DIGEST_SIZE", "sha256", "canonical_encode", "hash_value", "hash_many"]

#: Size in bytes of every digest produced by this module.
DIGEST_SIZE = 32

_TAG_BYTES = b"B"
_TAG_STR = b"S"
_TAG_INT = b"I"
_TAG_FLOAT = b"F"
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"f"
_TAG_SEQ = b"L"
_TAG_MAP = b"M"


def sha256(data: bytes) -> bytes:
    """Return the raw SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def _encode(value: Any, out: list[bytes]) -> None:
    """Append the canonical encoding of ``value`` to ``out``."""
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES)
        out.append(len(value).to_bytes(8, "big"))
        out.append(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        out.append(len(raw).to_bytes(8, "big"))
        out.append(raw)
    elif isinstance(value, int):
        raw = str(value).encode("ascii")
        out.append(_TAG_INT)
        out.append(len(raw).to_bytes(8, "big"))
        out.append(raw)
    elif isinstance(value, float):
        raw = repr(value).encode("ascii")
        out.append(_TAG_FLOAT)
        out.append(len(raw).to_bytes(8, "big"))
        out.append(raw)
    elif isinstance(value, (tuple, list)):
        out.append(_TAG_SEQ)
        out.append(len(value).to_bytes(8, "big"))
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        out.append(_TAG_MAP)
        out.append(len(items).to_bytes(8, "big"))
        for key, val in items:
            _encode(key, out)
            _encode(val, out)
    else:
        raise TypeError(f"cannot canonically hash value of type {type(value)!r}")


def canonical_encode(value: Any) -> bytes:
    """Return the canonical byte encoding of ``value``.

    The encoding is injective over the supported type universe, which is
    what makes ``hash_value`` collision-resistant whenever SHA-256 is.
    """
    parts: list[bytes] = []
    _encode(value, parts)
    return b"".join(parts)


def hash_value(value: Any) -> bytes:
    """Hash any supported value through the canonical encoding."""
    return sha256(canonical_encode(value))


def hash_many(items: Iterable[Any]) -> bytes:
    """Hash an iterable of values as an ordered sequence.

    Streams each member's canonical encoding into one incremental
    SHA-256 instead of materialising an intermediate tuple and one big
    concatenated buffer; the digest is identical to
    ``hash_value(tuple(items))``.
    """
    if not hasattr(items, "__len__"):
        items = list(items)
    hasher = hashlib.sha256()
    hasher.update(_TAG_SEQ)
    hasher.update(len(items).to_bytes(8, "big"))
    parts: list[bytes] = []
    for item in items:
        _encode(item, parts)
        for part in parts:
            hasher.update(part)
        parts.clear()
    return hasher.digest()
