"""Identity Manager (IM) — the permissioning substrate.

Section 3.1 of the paper: *"an Identity Manager (IM) is responsible for
recording the members of the chain as well as their roles. Meanwhile, it
is in charge of providing nodes credentials that are used for
authenticating and authorizing. As a default, an IM should contain all
standard PKI methods and play the role of a Certificate Authority."*

The :class:`IdentityManager` here is that component: it enrolls nodes
with a role, issues signing credentials, and offers a global
``verify(d, m)`` matching the paper's function over a signed record:
its claimed signer ``d`` and the bytes ``m`` it spells.
The extra collector rule — a collector-uploaded message must carry a
signature by a provider that collector is actually linked with — is
checked by :meth:`repro.agents.governor.Governor.ingest_upload` against
the IM's link table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from repro.crypto.signatures import SignedRecord, SigningKey, verify_with_key
from repro.exceptions import UnknownIdentityError
from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.rng import Generator, default_rng

__all__ = ["Role", "NodeRecord", "IdentityManager"]


class Role(enum.Enum):
    """The three node roles of the hierarchical model (plus the IM itself)."""

    PROVIDER = "provider"
    COLLECTOR = "collector"
    GOVERNOR = "governor"


@dataclass(frozen=True)
class NodeRecord:
    """The IM's record for one enrolled member."""

    node_id: str
    role: Role
    key: SigningKey


@dataclass
class IdentityManager:
    """Trusted membership service: enrolment, credentials, verification.

    The IM is a *trusted* component in the permissioned setting, so the
    simulation keeps all secrets in one registry; nodes only ever receive
    their own :class:`SigningKey`.

    Each verdict is kept on the signed record it is about
    (:class:`~repro.crypto.signatures.SignedRecord`): the r-fold collector
    fan-out and the per-governor re-verification of the same upload hand
    this IM the same record object, so they read the held verdict instead
    of re-encoding the signed bytes and redoing identical HMACs.  A held
    verdict is read only by the IM that computed it; a record it has not
    checked — a copy, a delivery off a pipe or a socket, a new record
    around a checked record's signature — goes through
    ``verify_with_key``.  That is sound because a record's fields are
    immutable and credentials are immutable once enrolled (re-enrolment
    of an id raises).

    Args:
        seed: Seed for credential generation, for reproducible runs.
        obs: Metrics registry receiving the ``crypto_sig_cache_*``
            hit/miss counters and entries gauge (defaults to the no-op
            registry).
    """

    seed: int = 0
    _records: dict[str, NodeRecord] = field(default_factory=dict)
    _links: dict[str, set[str]] = field(default_factory=dict)
    obs: MetricsRegistry = field(default=NULL_REGISTRY, repr=False, compare=False)
    _rng: Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = default_rng(self.seed)
        self.sig_cache_hits = self.sig_cache_misses = 0
        self.obs.counter(
            "crypto_sig_cache_hits",
            "Identity Manager verification-cache hits (HMAC skipped)",
            read=lambda: self.sig_cache_hits,
        )
        self.obs.counter(
            "crypto_sig_cache_misses",
            "Identity Manager verification-cache misses (full HMAC recomputed)",
            read=lambda: self.sig_cache_misses,
        )
        self.obs.gauge(
            "crypto_sig_cache_entries",
            "Verdicts the verification cache holds, as of the last closed round",
            # Every miss leaves one verdict on a record.
            read=lambda: self.sig_cache_misses,
        )

    # -- enrolment ----------------------------------------------------

    def enroll(self, node_id: str, role: Role) -> SigningKey:
        """Register a member and return its signing credential.

        Raises:
            UnknownIdentityError: if ``node_id`` is already enrolled
                (identities are unique within the alliance).
        """
        if node_id in self._records:
            raise UnknownIdentityError(f"node {node_id!r} already enrolled")
        secret = self._rng.bytes(32)
        key = SigningKey(owner=node_id, secret=secret)
        self._records[node_id] = NodeRecord(node_id=node_id, role=role, key=key)
        return key

    def register_link(self, collector_id: str, provider_id: str) -> None:
        """Record that ``collector_id`` is linked with ``provider_id``.

        The paper's ``verify`` rejects a collector message whose embedded
        provider signature names a provider the collector is *not* linked
        with; the IM is the natural owner of that link table.
        """
        self.record(collector_id)  # raises if unknown
        self.record(provider_id)
        self._links.setdefault(collector_id, set()).add(provider_id)

    # -- queries ------------------------------------------------------

    def record(self, node_id: str) -> NodeRecord:
        """The enrolment record for ``node_id``.

        Raises:
            UnknownIdentityError: if the node was never enrolled.
        """
        try:
            return self._records[node_id]
        except KeyError:
            raise UnknownIdentityError(f"node {node_id!r} is not enrolled") from None

    def is_enrolled(self, node_id: str) -> bool:
        """Whether ``node_id`` is a member of the chain."""
        return node_id in self._records

    def is_linked(self, collector_id: str, provider_id: str) -> bool:
        """Whether the IM knows a collector-provider link."""
        return provider_id in self._links.get(collector_id, ())

    # -- authentication -----------------------------------------------

    def verify(self, record: SignedRecord) -> bool:
        """The paper's ``verify(d, m)``: authenticate a signed record as its signer's.

        ``d`` is the signer the record claims and ``m`` the bytes it spells
        (``record.signed_message()``).  Returns False when the signature
        tag does not check out against the registered credential of that
        signer — a tag another member made in its name included — or the
        signer is unknown, which is refused before the record's held
        verdict is read.
        """
        sender_id, tag = record.signed_by(record)
        enrolled = self._records.get(sender_id)
        if enrolled is None:
            return False
        try:
            checked_by = record.checked_by
        except AttributeError:
            checked_by = None  # never checked: the slots are set together
        if checked_by is self:
            self.sig_cache_hits += 1
            return record.verdict
        # ``record.signed_message()``, one frame fewer.  Credentials are
        # immutable, so both verdicts are kept.
        message = record.message_of(*record.message_fields(record))
        result = verify_with_key(enrolled.key, message, tag)
        self.sig_cache_misses += 1
        object.__setattr__(record, "checked_by", self)
        object.__setattr__(record, "verdict", result)
        return result

    def verify_batch(self, records: Iterable[SignedRecord]) -> list[bool]:
        """Verify many signed records at once.

        Each record keeps its verdict, so a record delivered many times —
        the r-fold collector fan-out handing the same provider-signed tx
        to every linked collector, or every governor re-checking the same
        upload — costs one HMAC total.
        Returns one verdict per record, in input order.
        """
        return [self.verify(record) for record in records]
