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
* tuples/lists encode as the concatenation of member encodings with a length
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


def _heads(tag: bytes) -> tuple[bytes, ...]:
    """``tag`` plus the 8-byte length prefix, for every length below 256."""
    return tuple(tag + size.to_bytes(8, "big") for size in range(256))


_BYTES_HEADS = _heads(_TAG_BYTES)
_STR_HEADS = _heads(_TAG_STR)
_INT_HEADS = _heads(_TAG_INT)
_FLOAT_HEADS = _heads(_TAG_FLOAT)
_SEQ_HEADS = _heads(_TAG_SEQ)
_MAP_HEADS = _heads(_TAG_MAP)


def sha256(data: bytes) -> bytes:
    """Return the raw SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def _head(heads: tuple[bytes, ...], tag: bytes, size: int) -> bytes:
    return heads[size] if size < 256 else tag + size.to_bytes(8, "big")


def _encode(value: Any, out: bytearray) -> None:
    """Append the canonical encoding of ``value`` to ``out``.

    Dispatches on the exact type, commonest first, with each header read
    from its tag's table; ``None``, booleans, dicts and subclasses take
    the ``isinstance`` chain in :func:`_encode_other`.
    """
    kind = type(value)
    if kind is str:
        raw = value.encode()
        size = len(raw)
        out += _STR_HEADS[size] if size < 256 else _TAG_STR + size.to_bytes(8, "big")
        out += raw
    elif kind is tuple or kind is list:
        size = len(value)
        out += _SEQ_HEADS[size] if size < 256 else _TAG_SEQ + size.to_bytes(8, "big")
        for item in value:
            _encode(item, out)
    elif kind is bytes:
        size = len(value)
        out += _BYTES_HEADS[size] if size < 256 else _TAG_BYTES + size.to_bytes(8, "big")
        out += value
    elif kind is int:
        raw = str(value).encode()
        size = len(raw)
        out += _INT_HEADS[size] if size < 256 else _TAG_INT + size.to_bytes(8, "big")
        out += raw
    elif kind is float:
        raw = repr(value).encode()
        out += _FLOAT_HEADS[len(raw)]  # a float's repr is never 256 long
        out += raw
    else:
        _encode_other(value, out)


def _encode_other(value: Any, out: bytearray) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, bytes):
        out += _head(_BYTES_HEADS, _TAG_BYTES, len(value))
        out += value
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _head(_STR_HEADS, _TAG_STR, len(raw))
        out += raw
    elif isinstance(value, int):
        raw = str(value).encode("ascii")
        out += _head(_INT_HEADS, _TAG_INT, len(raw))
        out += raw
    elif isinstance(value, float):
        raw = repr(value).encode("ascii")
        out += _head(_FLOAT_HEADS, _TAG_FLOAT, len(raw))
        out += raw
    elif isinstance(value, (tuple, list)):
        out += _head(_SEQ_HEADS, _TAG_SEQ, len(value))
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: repr(kv[0]))
        out += _head(_MAP_HEADS, _TAG_MAP, len(items))
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
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def hash_value(value: Any) -> bytes:
    """Hash any supported value through the canonical encoding."""
    return hashlib.sha256(canonical_encode(value)).digest()


def hash_many(items: Iterable[Any]) -> bytes:
    """Hash an iterable of values as an ordered sequence.

    Encodes the members into one buffer after the sequence header and
    feeds it to SHA-256 once, with no intermediate tuple; the digest is
    identical to ``hash_value(tuple(items))``.
    """
    if not hasattr(items, "__len__"):
        items = list(items)
    out = bytearray(_head(_SEQ_HEADS, _TAG_SEQ, len(items)))
    for item in items:
        _encode(item, out)
    return hashlib.sha256(out).digest()
