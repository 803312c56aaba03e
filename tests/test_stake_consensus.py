"""Unit tests for the 3-step stake-transform consensus."""

from __future__ import annotations

import pytest

from repro.consensus.stake import StakeLedger
from repro.consensus.stake import make_transfer as signed_transfer
from repro.consensus.stake_consensus import (
    StakeConsensusRound,
    evaluate_proposal,
    make_commit,
    make_proposal,
    transfers_digest,
    verify_commit,
)
from repro.consensus.messages import ExpelEvidence, NewStateProposal, StateAck
from repro.crypto.identity import IdentityManager, Role
from repro.exceptions import LeaderMisbehaviourError, ProtocolViolationError

GOVS = ["g0", "g1", "g2", "g3"]


@pytest.fixture
def gov_im():
    im = IdentityManager(seed=4)
    for g in GOVS:
        im.enroll(g, Role.GOVERNOR)
    return im


def make_transfer(im, sender="g0", receiver="g1", amount=1, nonce=0):
    return signed_transfer(im.record(sender).key, receiver, amount, nonce)


@pytest.fixture
def stake():
    return StakeLedger.from_balances({g: 5 for g in GOVS})


class TestDigest:
    def test_order_independent(self, gov_im):
        t1 = make_transfer(gov_im, nonce=0)
        t2 = make_transfer(gov_im, "g2", "g3", 2, nonce=1)
        assert transfers_digest([t1, t2]) == transfers_digest([t2, t1])

    def test_set_sensitive(self, gov_im):
        t1 = make_transfer(gov_im, nonce=0)
        t2 = make_transfer(gov_im, nonce=1)
        assert transfers_digest([t1]) != transfers_digest([t1, t2])


class TestProposalEvaluation:
    def test_honest_proposal_acked(self, gov_im, stake):
        transfers = [make_transfer(gov_im)]
        proposal = make_proposal(gov_im.record("g0").key, 0, stake, transfers)
        verdict = evaluate_proposal(
            gov_im, gov_im.record("g1").key, proposal, stake, transfers
        )
        assert isinstance(verdict, StateAck)

    def test_new_state_reflects_transfers(self, gov_im, stake):
        transfers = [make_transfer(gov_im, amount=3)]
        proposal = make_proposal(gov_im.record("g0").key, 0, stake, transfers)
        assert proposal.new_state["g0"] == 2
        assert proposal.new_state["g1"] == 8

    def test_inconsistent_state_accused(self, gov_im, stake):
        transfers = [make_transfer(gov_im)]
        proposal = make_proposal(gov_im.record("g0").key, 0, stake, transfers)
        # g1 received a different transfer set.
        other = [make_transfer(gov_im, "g2", "g3", 2, nonce=5)]
        verdict = evaluate_proposal(
            gov_im, gov_im.record("g1").key, proposal, stake, other
        )
        assert isinstance(verdict, ExpelEvidence)

    def test_bad_signature_accused(self, gov_im, stake):
        transfers = [make_transfer(gov_im)]
        honest = make_proposal(gov_im.record("g0").key, 0, stake, transfers)
        # Tamper the state after signing.
        tampered_state = dict(honest.new_state)
        tampered_state["g0"] += 100
        tampered = NewStateProposal(
            round_number=honest.round_number,
            leader=honest.leader,
            new_state=tampered_state,
            transfers_digest=honest.transfers_digest,
            signature=honest.signature,
        )
        verdict = evaluate_proposal(
            gov_im, gov_im.record("g1").key, tampered, stake, transfers
        )
        assert isinstance(verdict, ExpelEvidence)
        assert "signature" in verdict.reason


class TestCommit:
    def _run_steps(self, gov_im, stake, transfers):
        proposal = make_proposal(gov_im.record("g0").key, 0, stake, transfers)
        acks = [
            evaluate_proposal(gov_im, gov_im.record(g).key, proposal, stake, transfers)
            for g in GOVS
            if g != "g0"
        ]
        return proposal, acks

    def test_full_commit_verifies(self, gov_im, stake):
        proposal, acks = self._run_steps(gov_im, stake, [make_transfer(gov_im)])
        commit = make_commit(proposal, acks)
        verify_commit(gov_im, commit, GOVS)

    def test_missing_ack_rejected(self, gov_im, stake):
        proposal, acks = self._run_steps(gov_im, stake, [make_transfer(gov_im)])
        commit = make_commit(proposal, acks[:-1])
        with pytest.raises(ProtocolViolationError):
            verify_commit(gov_im, commit, GOVS)

    def test_forged_ack_rejected(self, gov_im, stake):
        proposal, acks = self._run_steps(gov_im, stake, [make_transfer(gov_im)])
        forged = StateAck(
            round_number=acks[0].round_number,
            governor=acks[0].governor,
            proposal_digest=acks[0].proposal_digest,
            signature=acks[1].signature,  # someone else's signature
        )
        commit = make_commit(proposal, [forged] + acks[1:])
        with pytest.raises(ProtocolViolationError):
            verify_commit(gov_im, commit, GOVS)


class TestRoundDriver:
    def test_successful_round(self, gov_im, stake):
        driver = StakeConsensusRound(im=gov_im, governors=GOVS)
        commit = driver.run("g0", stake, [make_transfer(gov_im)])
        assert commit.leader == "g0"
        assert len(commit.acks) == 3
        assert driver.messages_exchanged > 0

    def test_message_count_scales_with_transfers(self, gov_im, stake):
        few = StakeConsensusRound(im=gov_im, governors=GOVS)
        few.run("g0", stake, [make_transfer(gov_im)])
        many = StakeConsensusRound(im=gov_im, governors=GOVS)
        many.run(
            "g0",
            stake,
            [make_transfer(gov_im, nonce=i, amount=1) for i in range(4)],
        )
        assert many.messages_exchanged > few.messages_exchanged

    def test_non_governor_leader_rejected(self, gov_im, stake):
        driver = StakeConsensusRound(im=gov_im, governors=GOVS)
        with pytest.raises(ProtocolViolationError):
            driver.run("intruder", stake, [])

    def test_tampered_leader_expelled(self, gov_im, stake):
        transfers = [make_transfer(gov_im)]
        honest = make_proposal(gov_im.record("g0").key, 0, stake, transfers)
        bad_state = dict(honest.new_state)
        bad_state["g0"] += 7
        tampered = NewStateProposal(
            round_number=0,
            leader="g0",
            new_state=bad_state,
            transfers_digest=honest.transfers_digest,
            signature=honest.signature,
        )
        driver = StakeConsensusRound(im=gov_im, governors=GOVS)
        with pytest.raises(LeaderMisbehaviourError):
            driver.run("g0", stake, transfers, tampered_proposal=tampered)
        assert driver.evidence  # accusations were broadcast
