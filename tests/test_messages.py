"""Tests for the governor wire-message dataclasses."""

from __future__ import annotations

import pytest

from repro.consensus.messages import (
    ExpelEvidence,
    NewStateProposal,
    StateAck,
    StateCommit,
    VRFAnnouncement,
)
from repro.crypto.signatures import SigningKey, sign
from repro.crypto.vrf import vrf_evaluate

KEY = SigningKey(owner="g0", secret=b"\x19" * 32)


class TestKindTags:
    """Every wire message carries the kind tag the network stats bucket on."""

    def test_vrf_announcement(self):
        out = vrf_evaluate(KEY, 1, 0, 1)
        msg = VRFAnnouncement(round_number=1, governor="g0", outputs=(out,))
        assert msg.kind == "vrf-announce"

    def test_state_messages(self):
        sig = sign(KEY, b"x")
        proposal = NewStateProposal(
            round_number=1, leader="g0", new_state={"g0": 1},
            transfers_digest=bytes(32), signature=sig,
        )
        ack = StateAck(
            round_number=1, governor="g1", proposal_digest=bytes(32), signature=sig
        )
        commit = StateCommit(
            round_number=1, leader="g0", new_state={"g0": 1}, acks=(ack,)
        )
        evidence = ExpelEvidence(
            round_number=1, accuser="g1", reason="r", proposal=proposal
        )
        assert proposal.kind == "new-state"
        assert ack.kind == "state-ack"
        assert commit.kind == "state-commit"
        assert evidence.kind == "expel-evidence"


class TestSignedShapes:
    def test_proposal_signed_message_covers_state(self):
        sig = sign(KEY, b"x")
        a = NewStateProposal(
            round_number=1, leader="g0", new_state={"g0": 1},
            transfers_digest=bytes(32), signature=sig,
        )
        b = NewStateProposal(
            round_number=1, leader="g0", new_state={"g0": 2},
            transfers_digest=bytes(32), signature=sig,
        )
        assert a.signed_message() != b.signed_message()

    def test_proposal_signed_message_covers_round(self):
        sig = sign(KEY, b"x")
        a = NewStateProposal(
            round_number=1, leader="g0", new_state={"g0": 1},
            transfers_digest=bytes(32), signature=sig,
        )
        b = NewStateProposal(
            round_number=2, leader="g0", new_state={"g0": 1},
            transfers_digest=bytes(32), signature=sig,
        )
        assert a.signed_message() != b.signed_message()

    def test_ack_signed_message_covers_digest(self):
        sig = sign(KEY, b"x")
        a = StateAck(round_number=1, governor="g1",
                     proposal_digest=bytes(32), signature=sig)
        b = StateAck(round_number=1, governor="g1",
                     proposal_digest=b"\x01" * 32, signature=sig)
        assert a.signed_message() != b.signed_message()

    def test_messages_are_immutable(self):
        msg = VRFAnnouncement(round_number=1, governor="g0", outputs=())
        with pytest.raises(AttributeError):
            msg.governor = "g1"
