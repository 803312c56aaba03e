"""Reputation gossip among governors — an extension beyond the paper.

In the paper every governor maintains a purely *local* reputation table
(Section 3.4); different governors can therefore hold divergent views of
the same collector (they sample different source collectors and check
different transactions).  A natural extension — flagged by the paper's
own observation that "a governor may only perceive partial
information" — is periodic gossip: governors exchange signed reputation
summaries and fold peers' views into their own.

The fold rule is a **weighted geometric mean** per entry:

    w_own' = w_own^(1 - alpha) * w_peers_geomean^alpha

chosen because the reputation dynamics are multiplicative — the
geometric mean is the aggregation that commutes with the β/γ updates
(folding then updating equals updating then folding), so gossip cannot
manufacture weight that no local history justifies.  Additive entries
(misreport / forge counters) are *not* gossiped: they are evidence
counters attributable to locally verified events, and importing them
would let a malicious governor slander collectors.

:class:`ReputationGossip` verifies peer signatures before folding, so a
non-governor cannot inject summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.reputation import WEIGHT_FLOOR, ReputationBook
from repro.crypto.hashing import canonical_encode
from repro.crypto.identity import IdentityManager
from repro.crypto.signatures import Signature, SigningKey, sign
from repro.exceptions import ConfigurationError, ProtocolViolationError

__all__ = ["ReputationSummary", "ReputationGossip", "summary_message"]


def summary_message(governor: str, entries: dict[tuple[str, str], float]) -> bytes:
    """The bytes a governor signs over its entries (sorted for stability)."""
    flat = tuple(sorted((c, p, w) for (c, p), w in entries.items()))
    return canonical_encode(("reputation-summary", governor, flat))


@dataclass(frozen=True)
class ReputationSummary:
    """One governor's signed snapshot of his first-s reputation entries."""

    governor: str
    entries: dict[tuple[str, str], float]  # (collector, provider) -> weight
    signature: Signature

    def signed_message(self) -> bytes:
        """The bytes the signature covers."""
        return summary_message(self.governor, self.entries)


def make_summary(key: SigningKey, book: ReputationBook) -> ReputationSummary:
    """Snapshot and sign a governor's provider-entry table."""
    entries: dict[tuple[str, str], float] = {}
    for collector in book.collectors():
        for provider, weight in book.vector(collector).provider_weights.items():
            entries[(collector, provider)] = weight
    signature = sign(key, summary_message(key.owner, entries))
    return ReputationSummary(governor=key.owner, entries=entries, signature=signature)


@dataclass
class ReputationGossip:
    """Fold verified peer summaries into a governor's book.

    Args:
        im: Identity Manager for signature verification.
        alpha: Peer influence in (0, 1); 0 would ignore peers, 1 would
            surrender the local view entirely — both excluded.
    """

    im: IdentityManager
    alpha: float = 0.3
    folded: int = field(default=0, repr=False)
    rejected: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("gossip alpha must be in (0, 1)")

    def fold(self, book: ReputationBook, summaries: list[ReputationSummary]) -> int:
        """Fold peer summaries into ``book``; returns summaries accepted.

        Unverifiable summaries are counted in :attr:`rejected` and
        skipped; a summary from the book's own governor is ignored
        (self-gossip is a no-op by construction and would double-count).
        """
        accepted: list[ReputationSummary] = []
        for summary in summaries:
            if summary.governor == book.governor:
                continue
            if not self.im.verify(
                summary.governor, summary.signed_message(), summary.signature
            ):
                self.rejected += 1
                continue
            accepted.append(summary)
        if not accepted:
            return 0
        for collector in book.collectors():
            vector = book.vector(collector)
            for provider in list(vector.provider_weights):
                peer_logs = [
                    math.log(s.entries[(collector, provider)])
                    for s in accepted
                    if (collector, provider) in s.entries
                    and s.entries[(collector, provider)] > 0
                ]
                if not peer_logs:
                    continue
                peer_geomean_log = sum(peer_logs) / len(peer_logs)
                own = vector.provider_weights[provider]
                if own <= 0:
                    raise ProtocolViolationError(
                        f"non-positive local weight for {collector}/{provider}"
                    )
                fused_log = (1.0 - self.alpha) * math.log(own) + (
                    self.alpha * peer_geomean_log
                )
                vector.provider_weights[provider] = max(
                    math.exp(fused_log), WEIGHT_FLOOR
                )
        self.folded += len(accepted)
        return len(accepted)
