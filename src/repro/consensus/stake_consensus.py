"""The 3-step stake-transform consensus (Section 3.4.3).

At the end of a round whose transactions moved stake, the leader commits
a ``NEW_STATE`` snapshot:

1. The leader combines the previous stake state with the transfers he
   received this round and broadcasts ``(NEW_STATE, sig_leader)``.
2. Each non-leader verifies the signature and checks NEW_STATE for
   consistency with the transfers *he* received; on success he returns
   his signature on the proposal, otherwise he broadcasts
   :class:`ExpelEvidence` to depose the leader.
3. Once the leader holds signatures from **all** governors he packs
   NEW_STATE plus the signatures into the stake-transform block and
   broadcasts it.

Requiring all ``m`` signatures is sound here because the paper's threat
model says governors may *conceal transactions* but will not subvert the
chain; the protocol therefore needs ``O(m^2)`` messages (transfer
rebroadcast among governors) as the paper's complexity analysis states,
which experiment E7 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consensus.messages import (
    ExpelEvidence,
    NewStateProposal,
    StateAck,
    StateCommit,
    ack_message,
    proposal_message,
)
from repro.consensus.stake import StakeLedger, StakeTransfer
from repro.crypto.hashing import hash_value
from repro.crypto.identity import IdentityManager
from repro.crypto.signatures import SigningKey, sign
from repro.exceptions import LeaderMisbehaviourError, ProtocolViolationError

__all__ = [
    "transfers_digest",
    "make_proposal",
    "evaluate_proposal",
    "make_commit",
    "verify_commit",
    "StakeConsensusRound",
]


def transfers_digest(transfers: list[StakeTransfer]) -> bytes:
    """Order-independent commitment to a transfer set.

    Governors may receive the round's transfers in different orders from
    different peers; sorting by canonical bytes makes the digest depend
    only on the *set*.
    """
    encoded = sorted(t.canonical_bytes() for t in transfers)
    return hash_value(("transfers", encoded))


def make_proposal(
    key: SigningKey,
    round_number: int,
    prev_state: StakeLedger,
    transfers: list[StakeTransfer],
) -> NewStateProposal:
    """Step 1: the leader derives and signs NEW_STATE."""
    ordered = sorted(transfers, key=lambda t: t.canonical_bytes())
    new_state = prev_state.applied(ordered).snapshot()
    digest = transfers_digest(transfers)
    return NewStateProposal(
        round_number=round_number,
        leader=key.owner,
        new_state=new_state,
        transfers_digest=digest,
        signature=sign(key, proposal_message(round_number, new_state, digest)),
    )


def evaluate_proposal(
    im: IdentityManager,
    key: SigningKey,
    proposal: NewStateProposal,
    prev_state: StakeLedger,
    local_transfers: list[StakeTransfer],
) -> StateAck | ExpelEvidence:
    """Step 2: a non-leader checks the proposal and signs or accuses.

    Consistency means: applying the transfers *this* governor received
    (every transfer is broadcast to all governors) to the previous state
    reproduces the leader's NEW_STATE.
    """
    if not im.verify(proposal):
        return ExpelEvidence(
            round_number=proposal.round_number,
            accuser=key.owner,
            reason="bad leader signature on NEW_STATE",
            proposal=proposal,
        )
    local_digest = transfers_digest(local_transfers)
    ordered = sorted(local_transfers, key=lambda t: t.canonical_bytes())
    expected = prev_state.applied(ordered).snapshot()
    if proposal.transfers_digest != local_digest or proposal.new_state != expected:
        return ExpelEvidence(
            round_number=proposal.round_number,
            accuser=key.owner,
            reason="NEW_STATE inconsistent with locally received transfers",
            proposal=proposal,
        )
    digest = hash_value(("proposal", proposal.new_state, proposal.transfers_digest))
    return StateAck(
        round_number=proposal.round_number,
        governor=key.owner,
        proposal_digest=digest,
        signature=sign(key, ack_message(proposal.round_number, digest)),
    )


def make_commit(proposal: NewStateProposal, acks: list[StateAck]) -> StateCommit:
    """Step 3: pack NEW_STATE and all collected signatures."""
    return StateCommit(
        round_number=proposal.round_number,
        leader=proposal.leader,
        new_state=proposal.new_state,
        acks=tuple(sorted(acks, key=lambda a: a.governor)),
    )


def verify_commit(
    im: IdentityManager, commit: StateCommit, governors: list[str]
) -> None:
    """Validate a stake-transform block on receipt.

    Every non-leader governor must have signed the same proposal digest.

    Raises:
        ProtocolViolationError: missing or invalid signatures.
    """
    expected_signers = {g for g in governors if g != commit.leader}
    signers = {ack.governor for ack in commit.acks}
    if signers != expected_signers:
        missing = expected_signers - signers
        extra = signers - expected_signers
        raise ProtocolViolationError(
            f"commit signer set mismatch: missing={sorted(missing)} extra={sorted(extra)}"
        )
    digests = {ack.proposal_digest for ack in commit.acks}
    if len(digests) > 1:
        raise ProtocolViolationError("acks cover different proposal digests")
    for ack in commit.acks:
        if not im.verify(ack):
            raise ProtocolViolationError(f"invalid ack signature from {ack.governor!r}")


@dataclass
class StakeConsensusRound:
    """Drive one full stake-transform round among in-process governors.

    Counts messages per the paper's accounting: the transfer rebroadcast
    (every governor tells every other governor about transfers he is a
    party to) is the O(m^2) term; the 3-step exchange itself adds
    O(m).  Benches read :attr:`messages_exchanged`.

    Raises:
        LeaderMisbehaviourError: when any governor emits expel evidence
            (the caller then removes the leader and re-runs the round,
            mirroring the CycLedger expulsion the paper cites).
    """

    im: IdentityManager
    governors: list[str]
    messages_exchanged: int = 0
    evidence: list[ExpelEvidence] = field(default_factory=list)

    def run(
        self,
        leader: str,
        prev_state: StakeLedger,
        transfers: list[StakeTransfer],
        tampered_proposal: NewStateProposal | None = None,
    ) -> StateCommit:
        """Execute steps 1-3 and return the committed stake block.

        Args:
            leader: The round leader (from PoS election).
            prev_state: Stake state before this round.
            transfers: The round's (verified) transfer set; in a real run
                each governor holds the same set thanks to the O(m^2)
                rebroadcast, which we account for in message counts.
            tampered_proposal: Test hook — substitute the leader's step-1
                message to exercise the expulsion path.

        Returns:
            The verified :class:`StateCommit`.
        """
        if leader not in self.governors:
            raise ProtocolViolationError(f"leader {leader!r} is not a governor")
        m = len(self.governors)
        # O(m^2) transfer dissemination: each party to a transfer
        # broadcasts it to all m governors.
        self.messages_exchanged += len(transfers) * m

        leader_key = self.im.record(leader).key
        proposal = tampered_proposal or make_proposal(
            leader_key, round_number=0, prev_state=prev_state, transfers=transfers
        )
        # Step 1 broadcast: leader -> all others.
        self.messages_exchanged += m - 1

        acks: list[StateAck] = []
        for gov in self.governors:
            if gov == leader:
                continue
            verdict = evaluate_proposal(
                self.im, self.im.record(gov).key, proposal, prev_state, transfers
            )
            if isinstance(verdict, ExpelEvidence):
                self.evidence.append(verdict)
                # Evidence broadcast: accuser -> all others.
                self.messages_exchanged += m - 1
            else:
                acks.append(verdict)
                self.messages_exchanged += 1  # ack back to the leader
        if self.evidence:
            raise LeaderMisbehaviourError(
                f"leader {leader!r} accused: {self.evidence[0].reason}"
            )
        commit = make_commit(proposal, acks)
        # Step 3 broadcast: leader -> all others.
        self.messages_exchanged += m - 1
        verify_commit(self.im, commit, self.governors)
        return commit
