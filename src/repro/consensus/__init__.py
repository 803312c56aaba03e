"""Consensus substrate: stake, PoS/VRF leader election and stake-transform
consensus."""

from repro.consensus.messages import (
    BlockProposal,
    ExpelEvidence,
    NewStateProposal,
    StateAck,
    StateCommit,
    VRFAnnouncement,
)
from repro.consensus.pos import LeaderElection, announce_stakes, elect_leader
from repro.consensus.stake import StakeLedger, StakeTransfer
from repro.consensus.stake_consensus import (
    StakeConsensusRound,
    evaluate_proposal,
    make_commit,
    make_proposal,
    transfers_digest,
    verify_commit,
)

__all__ = [
    "BlockProposal",
    "ExpelEvidence",
    "LeaderElection",
    "NewStateProposal",
    "StakeConsensusRound",
    "StakeLedger",
    "StakeTransfer",
    "StateAck",
    "StateCommit",
    "VRFAnnouncement",
    "announce_stakes",
    "elect_leader",
    "evaluate_proposal",
    "make_commit",
    "make_proposal",
    "transfers_digest",
    "verify_commit",
]
