"""Wire messages exchanged among governors.

Each message dataclass carries a ``kind`` tag used by the network layer's
per-kind counters, which is how the complexity experiments (E7) separate
ordinary-block traffic from stake-transform traffic.  Each signed message
is spelled once, by a ``*_message`` function that both its maker and its
verifier call; the signed records keep an Identity Manager's verdict
beside their fields (:class:`~repro.crypto.signatures.SignedRecord`), so
they are slotted and pickle as their field tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.crypto.hashing import canonical_encode
from repro.crypto.signatures import SignedRecord, SigningKey, sign
from repro.crypto.vrf import VRFOutput

__all__ = [
    "VRFAnnouncement",
    "CommitVote",
    "NewStateProposal",
    "StateAck",
    "StateCommit",
    "ExpelEvidence",
    "vote_message",
    "proposal_message",
    "ack_message",
    "make_vote",
]


def vote_message(
    governor: str, serial: int, block_hash: bytes, round_number: int
) -> bytes:
    """The bytes a governor signs to commit to ``block_hash`` at ``serial``."""
    return canonical_encode(
        ("audit-commit", governor, serial, block_hash, round_number)
    )


def proposal_message(
    round_number: int, new_state: dict[str, int], transfers_digest: bytes
) -> bytes:
    """The bytes a leader signs to propose NEW_STATE."""
    return canonical_encode(("new-state", round_number, new_state, transfers_digest))


def ack_message(round_number: int, proposal_digest: bytes) -> bytes:
    """The bytes a non-leader signs to acknowledge a proposal."""
    return canonical_encode(("state-ack", round_number, proposal_digest))


@dataclass(frozen=True)
class VRFAnnouncement:
    """A governor's per-round VRF outputs, one per stake unit."""

    round_number: int
    governor: str
    outputs: tuple[VRFOutput, ...]
    kind: str = field(default="vrf-announce", repr=False)


@dataclass(frozen=True, slots=True)
class CommitVote(SignedRecord):
    """A governor's signed commitment to one block hash at one serial.

    The safety auditor's equivocation surface: honest governors send an
    identical vote to every peer after appending a block; a Byzantine
    governor that signs two different hashes for one serial hands any
    observer holding both votes a *provable* violation (quarantine bar).

    Votes ride a fixed-delay, fault-exempt network path (kind
    ``audit-commit`` is in :attr:`repro.faults.injector.FaultInjector.EXEMPT_KINDS`
    and their sends draw no latency RNG), so enabling the auditor leaves
    every seeded simulation stream — and therefore the ledgers —
    bit-identical.
    """

    governor: str
    serial: int
    block_hash: bytes
    round_number: int
    signature: bytes
    kind: str = field(default="audit-commit", repr=False)

    signed_by = attrgetter("governor", "signature")
    message_of = staticmethod(vote_message)
    message_fields = attrgetter("governor", "serial", "block_hash", "round_number")


def make_vote(
    key: SigningKey, serial: int, block_hash: bytes, round_number: int
) -> CommitVote:
    """``key.owner``'s signed commit vote for ``block_hash`` at ``serial``."""
    signature = sign(key, vote_message(key.owner, serial, block_hash, round_number))
    return CommitVote(key.owner, serial, block_hash, round_number, signature)


@dataclass(frozen=True, slots=True)
class NewStateProposal(SignedRecord):
    """Step 1 of the stake-transform consensus: NEW_STATE + leader signature."""

    round_number: int
    leader: str
    new_state: dict[str, int]
    transfers_digest: bytes
    signature: bytes
    kind: str = field(default="new-state", repr=False)

    signed_by = attrgetter("leader", "signature")
    message_of = staticmethod(proposal_message)
    message_fields = attrgetter("round_number", "new_state", "transfers_digest")


@dataclass(frozen=True, slots=True)
class StateAck(SignedRecord):
    """Step 2: a non-leader's signature over the leader's proposal."""

    round_number: int
    governor: str
    proposal_digest: bytes
    signature: bytes
    kind: str = field(default="state-ack", repr=False)

    signed_by = attrgetter("governor", "signature")
    message_of = staticmethod(ack_message)
    message_fields = attrgetter("round_number", "proposal_digest")


@dataclass(frozen=True)
class StateCommit:
    """Step 3: the stake-transform block — NEW_STATE plus all signatures."""

    round_number: int
    leader: str
    new_state: dict[str, int]
    acks: tuple[StateAck, ...]
    kind: str = field(default="state-commit", repr=False)


@dataclass(frozen=True)
class ExpelEvidence:
    """Broadcast by a governor that caught the leader misbehaving."""

    round_number: int
    accuser: str
    reason: str
    proposal: NewStateProposal
    kind: str = field(default="expel-evidence", repr=False)
