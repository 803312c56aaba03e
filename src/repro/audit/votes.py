"""Commit votes: how governors catch one of their own equivocating.

Every governor of a :class:`~repro.core.netengine.NetworkedProtocolEngine`
runs a :class:`~repro.audit.auditor.SafetyAuditor`.  After appending a
block each governor sends a signed
:class:`~repro.consensus.messages.CommitVote` to every peer; a governor
that signs two different hashes for one serial (equivocation) hands any
observer holding both votes a *provable* violation.  A vote that
contradicts the receiver's own committed hash is forwarded to all peers
as evidence, so the peer subset that received the conflicting vote
completes the proof.  A provable violation goes to the engine's
:class:`~repro.core.lifecycle.NodeLifecycle`, which **quarantines** the
culprit.

Audit traffic rides a fixed-delay, fault-exempt path that consumes no
RNG from any simulation stream, which is what keeps it ledger-neutral.

:class:`CommitVoteAudit` owns the vote flow's state — the Byzantine
strategy overrides and the evidence-forward dedup set.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from repro.consensus.messages import CommitVote, make_vote
from repro.ledger.block import Block

if TYPE_CHECKING:  # pragma: no cover - the engine builds its vote audit
    from repro.core.netengine import NetworkedProtocolEngine

__all__ = ["CommitVoteAudit"]


class CommitVoteAudit:
    """Mint, send, receive and forward one engine's commit votes."""

    def __init__(self, engine: NetworkedProtocolEngine):
        self.engine = engine
        # gid -> vote strategy override (Byzantine equivocation hook);
        # called as strategy(gid, block, peers) -> {peer: CommitVote}.
        self._strategies: dict = {}
        # evidence-forward dedup: (forwarder, vote governor, serial, hash)
        self._forwarded: set[tuple] = set()
        #: ``own`` / ``forward`` -> votes sent.
        self.sent: dict[str, int] = defaultdict(int)
        engine.obs.counter(
            "audit_commit_votes_total",
            "Commit votes sent, by origin (own vote vs forwarded evidence)",
            labels=("origin",),
            read=lambda: self.sent,
        )

    def mint(self, gid: str, serial: int, block_hash: bytes) -> CommitVote:
        """Build ``gid``'s signed commit vote for (serial, block_hash).

        Public so Byzantine vote strategies (equivocation scenarios) can
        mint *validly signed* conflicting votes — the provable-violation
        definition requires real signatures on both sides.
        """
        key = self.engine.governors[gid].key
        return make_vote(key, serial, block_hash, self.engine.round_number)

    def set_strategy(self, gid: str, strategy) -> None:
        """Override ``gid``'s commit-vote behaviour (Byzantine hook).

        ``strategy(gid, block, peers) -> {peer: CommitVote}`` replaces
        the honest send-same-vote-to-everyone flow.
        """
        self._strategies[gid] = strategy

    def _send(self, gid: str, peer: str, vote: CommitVote, origin: str) -> None:
        network = self.engine.network
        network.send(gid, peer, vote, fixed_delay=network.max_delay)
        self.sent[origin] += 1

    def send(self, gid: str, block: Block) -> None:
        """Send ``gid``'s post-append commit vote to every peer governor.

        Votes travel at exactly ``max_delay`` (no latency RNG draw) and
        are fault-exempt by kind, so the auditor layer consumes nothing
        from any seeded simulation stream.
        """
        peers = [g for g in self.engine.topology.governors if g != gid]
        strategy = self._strategies.get(gid)
        if strategy is not None:
            votes = strategy(gid, block, peers)
        else:
            vote = self.mint(gid, block.serial, block.hash())
            votes = {peer: vote for peer in peers}
        for peer, vote in votes.items():
            self._send(gid, peer, vote, "own")

    def receive(self, gid: str, vote: CommitVote) -> None:
        """Receiver side of the vote flow: audit, forward evidence, contain."""
        engine = self.engine
        if engine.lifecycle.is_down(gid):
            return
        if vote.governor in engine.quarantined_nodes:
            return  # already contained; further evidence is redundant
        ledger = engine.governors[gid].ledger
        own_hash = (
            ledger.retrieve(vote.serial).hash()
            if 1 <= vote.serial <= ledger.height
            else None
        )
        violation, mismatch = engine.auditors[gid].ingest_vote(
            vote, own_hash, engine.round_number
        )
        if mismatch:
            # The vote contradicts this governor's committed hash: forward
            # it verbatim so peers holding the *other* signed vote can
            # complete the two-signatures proof.
            self._forward(gid, vote)
        if violation is not None and violation.provable:
            engine.lifecycle.quarantine(violation.culprit, violation)

    def _forward(self, gid: str, vote: CommitVote) -> None:
        key = (gid, vote.governor, vote.serial, vote.block_hash)
        if key in self._forwarded:
            return
        self._forwarded.add(key)
        for peer in self.engine.topology.governors:
            if peer not in (gid, vote.governor):
                self._send(gid, peer, vote, "forward")
