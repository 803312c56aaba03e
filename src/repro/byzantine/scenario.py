"""Scripted Byzantine scenarios against the networked engine.

Helpers that install concrete attacks on a
:class:`~repro.core.netengine.NetworkedProtocolEngine` without the
engine knowing anything about them — the attack surface is exactly the
public hooks an operator of a single Byzantine node would control
(its own vote behaviour, its own reputation read-out).
"""

from __future__ import annotations

import hashlib

__all__ = ["install_equivocation", "reputation_probe"]


def install_equivocation(engine, gid: str, serial: int) -> None:
    """Make governor ``gid`` equivocate its commit vote at ``serial``.

    At the target serial the governor sends its *real* block hash to the
    first half of its peers and a fabricated hash — **validly signed**,
    which is what makes the resulting evidence pair provable — to the
    rest; every other serial it votes honestly.  The split guarantees
    both vote flavours exist in the network, so the auditor's
    evidence-forwarding path must fire for anyone to hold the pair.
    """

    def strategy(_gid: str, block, peers):
        real = block.hash()
        if block.serial != serial or len(peers) < 2:
            vote = engine.votes.mint(gid, block.serial, real)
            return {peer: vote for peer in peers}
        fake = hashlib.sha256(b"equivocate|" + real).digest()
        honest_vote = engine.votes.mint(gid, block.serial, real)
        fake_vote = engine.votes.mint(gid, block.serial, fake)
        half = len(peers) // 2
        return {
            peer: (honest_vote if i < half else fake_vote)
            for i, peer in enumerate(peers)
        }

    engine.votes.set_strategy(gid, strategy)


def reputation_probe(engine, gid: str, cid: str):
    """A live weight read-out for the adaptive attacker.

    Returns a zero-argument callable yielding collector ``cid``'s mean
    per-provider weight in governor ``gid``'s book right now (0.0 when
    retired) — the signal
    :class:`~repro.byzantine.strategies.AdaptiveAttackerBehavior`
    conditions its defections on.
    """

    def probe() -> float:
        book = engine.governors[gid].book
        if not book.is_registered(cid):
            return 0.0
        weights = list(book.vector(cid).provider_weights.values())
        if not weights:
            return 0.0
        return float(sum(weights) / len(weights))

    return probe
