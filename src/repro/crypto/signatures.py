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
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, ClassVar

from repro.exceptions import SignatureError

__all__ = ["SigningKey", "FrozenSlots", "SignedRecord", "sign", "verify_with_key"]


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


class FrozenSlots:
    """``pickle`` / ``copy`` for a frozen dataclass that declares ``__slots__``.

    The ledger and signed records are alive by the handful per
    transaction per replica, so they carry no ``__dict__``.  A copy is a
    constructor call on the fields: it re-runs the class's checks and
    re-derives every value computed from the fields, so state that
    arrives by pickle is never trusted over what the fields say.
    """

    __slots__ = ()

    def __reduce__(self):
        cls = type(self)
        get = _FIELD_GETTERS.get(cls)
        if get is None:
            # Resolved once per class, not per pickle: a pool or TCP run
            # pickles every record that crosses a pipe or a socket.
            get = _FIELD_GETTERS[cls] = attrgetter(*(f.name for f in fields(cls)))
        return cls, get(self)


#: ``FrozenSlots`` subclass -> getter of its fields' values as a tuple, in
#: declaration order (every subclass has at least two fields, so
#: ``attrgetter`` returns a tuple).
_FIELD_GETTERS: dict[type, attrgetter] = {}


class SignedRecord(FrozenSlots):
    """A frozen record one member signed, and an Identity Manager's verdict on it.

    A subclass names its claimed signer and the field holding its signature
    (the 32-byte tag :func:`sign` returned) in ``signed_by``, an
    ``attrgetter`` of those two fields, so a record names its signer once.
    The bytes the tag covers come from the type's one ``*_message``
    function, ``message_of``, over the fields it takes, ``message_fields``.
    The bytes are built to sign and on a check, and never kept.

    Beside its fields a record holds the last verdict an Identity Manager
    computed for it: ``checked_by`` (that manager) and ``verdict``.  They are
    slots, not fields, so ``==``, ``hash``, ``repr`` and pickle see the fields
    only, and a copied, unpickled or delivered record arrives with neither
    slot set.  The fields are immutable, so the verdict stays true of the
    bytes they spell; a record whose field holds a mutable value (a
    proposal's NEW_STATE dict) must not have it changed after a check.
    Only :meth:`repro.crypto.identity.IdentityManager.verify` reads or
    writes them.
    """

    __slots__ = ("checked_by", "verdict")

    #: Getter of ``(claimed signer id, signature tag)`` from a record.
    signed_by: ClassVar[attrgetter]
    #: The type's ``*_message`` function (a ``staticmethod``) ...
    message_of: ClassVar[Callable[..., bytes]]
    #: ... and a getter of the values it takes, in its argument order.
    message_fields: ClassVar[attrgetter]

    def signed_message(self) -> bytes:
        """The bytes the record's signature covers."""
        return self.message_of(*self.message_fields(self))


def sign(key: SigningKey, message: bytes) -> bytes:
    """The 32-byte HMAC-SHA256 tag of the bytes ``message`` under ``key``."""
    return hmac.new(key.secret, message, hashlib.sha256).digest()


def verify_with_key(key: SigningKey, message: bytes, tag: bytes) -> bool:
    """Whether ``tag`` is ``key``'s signature over the bytes ``message``.

    Returns False (never raises) on any mismatch, a tag of another length
    included.  Constant-time tag comparison avoids timing side channels,
    matching real deployments.
    """
    expected = hmac.new(key.secret, message, hashlib.sha256).digest()
    return hmac.compare_digest(expected, tag)
