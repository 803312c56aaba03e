"""Digital-signature substrate.

The paper's Identity Manager hands every node a signing credential; all
interactions are authenticated via digital signatures (Section 3.1).  A
real deployment would use PKI (e.g. ECDSA certificates).  For the
simulation we model signatures with HMAC-SHA256 over a per-node secret
key that only the key holder and the (trusted) Identity Manager know:

* a node signs with its secret,
* anyone can ask the Identity Manager to *verify* a signature against the
  claimed signer's registered key.

This preserves exactly the properties the protocol relies on:

* **unforgeability** — without ``secret``, producing a valid tag requires
  breaking HMAC-SHA256, mirroring the paper's "except with negligible
  probability of the security parameter lambda";
* **non-repudiation inside the alliance** — the IM can attribute every
  message, which is what permissioned settings assume.

The module is deliberately free of any networking or simulation concerns.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any

from repro.crypto.hashing import canonical_encode
from repro.exceptions import SignatureError

__all__ = ["SigningKey", "FrozenSlots", "Signature", "sign", "verify_with_key"]


@dataclass(frozen=True)
class SigningKey:
    """A node's signing credential.

    Attributes:
        owner: Node id the Identity Manager issued this key to.
        secret: Random secret bytes; keep private.
    """

    owner: str
    secret: bytes

    def __post_init__(self) -> None:
        if not self.owner:
            raise SignatureError("signing key must name its owner")
        if len(self.secret) < 16:
            raise SignatureError("signing key secret must be >= 16 bytes")

    def fingerprint(self) -> str:
        """Public, non-secret identifier for this key (for logging)."""
        digest = hashlib.sha256(b"fp|" + self.secret).hexdigest()
        return f"{self.owner}:{digest[:16]}"


class FrozenSlots:
    """``pickle`` / ``copy`` state for a frozen dataclass that declares ``__slots__``.

    Signatures and the ledger records are alive by the handful per
    transaction per replica, so they carry no ``__dict__``.  The default
    restore of slot state goes through ``setattr``, which a frozen class
    refuses; the state here is the dict a ``__dict__`` instance would have
    had — the fields, plus whichever other slots are filled.
    """

    __slots__ = ()

    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name) for name in self.__slots__ if hasattr(self, name)
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Signature(FrozenSlots):
    """A signature tag over a message, attributable to ``signer``."""

    __slots__ = ("signer", "tag")

    signer: str
    tag: bytes

    def __post_init__(self) -> None:
        if len(self.tag) != 32:
            raise SignatureError("signature tag must be a 32-byte HMAC-SHA256 tag")

    def hex(self) -> str:
        """Hex form of the tag for display."""
        return self.tag.hex()


def _message_bytes(message: Any) -> bytes:
    """Canonical bytes of an arbitrary (hashable-structure) message."""
    if isinstance(message, bytes):
        return message
    return canonical_encode(message)


def sign(key: SigningKey, message: Any) -> Signature:
    """Sign ``message`` with ``key``.

    ``message`` may be raw bytes or any structure supported by the
    canonical encoder (str/int/float/tuple/dict/...).
    """
    tag = hmac.new(key.secret, _message_bytes(message), hashlib.sha256).digest()
    return Signature(signer=key.owner, tag=tag)


def verify_with_key(key: SigningKey, message: Any, signature: Signature) -> bool:
    """Verify ``signature`` over ``message`` against ``key``.

    Returns False (never raises) on any mismatch, including a signature
    claiming a different signer than the key owner.  Constant-time tag
    comparison avoids timing side channels, matching real deployments.
    """
    if signature.signer != key.owner:
        return False
    expected = hmac.new(key.secret, _message_bytes(message), hashlib.sha256).digest()
    return hmac.compare_digest(expected, signature.tag)
