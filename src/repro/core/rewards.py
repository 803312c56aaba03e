"""Collector revenue — the reputation-linked incentive (Section 3.4.3).

When ``g_j`` leads a round, collector ``c_i``'s share of the block's
profit pool is proportional to

    score(c_i) = prod_u w_{j,i,k_u} * mu ** w_misreport * nu ** w_forge

over the providers ``k_u`` the collector oversees, with ``mu, nu > 1``.
Every component is decreasing in misbehaviour: mislabeling/concealing
shrinks the provider entries, wrong labels on checked transactions drive
``w_misreport`` negative, forging drives ``w_forge`` negative — so the
product collapses for unreliable collectors, which is the incentive
claim experiment E6 measures.

Scores are computed in log-space: the product of hundreds of weights in
(0, 1] underflows double precision long before the *ratios* between
collectors become meaningless, and only ratios matter for a
proportional split.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.params import ProtocolParams
from repro.core.reputation import ReputationBook
from repro.exceptions import ConfigurationError

__all__ = [
    "log_score",
    "distribute_rewards",
]


def log_score(params: ProtocolParams, book: ReputationBook, collector: str) -> float:
    """``log score(c_i)`` under governor ``book.governor``'s view.

    Returns ``-inf`` only if a provider weight hit the representational
    floor, which in practice means "no share".
    """
    vector = book.vector(collector)
    total = 0.0
    for weight in vector.provider_weights.values():
        total += math.log(weight)
    total += vector.misreport * math.log(params.mu)
    total += vector.forge * math.log(params.nu)
    return total


def distribute_rewards(
    params: ProtocolParams,
    book: ReputationBook,
    pool: float | None = None,
) -> Mapping[str, float]:
    """Split a profit pool among all collectors proportionally to score.

    Args:
        params: Supplies ``mu``, ``nu`` and the default pool size.
        book: The *leading* governor's reputation table.
        pool: Profit to distribute; defaults to
            ``params.reward_pool_per_block``.

    Returns:
        collector id -> payout; payouts sum to ``pool`` (up to float
        rounding).  An empty book yields an empty mapping.

    Raises:
        ConfigurationError: on a negative pool.
    """
    amount = params.reward_pool_per_block if pool is None else pool
    if amount < 0:
        raise ConfigurationError(f"reward pool cannot be negative, got {amount}")
    collectors = sorted(book.collectors())
    if not collectors:
        return {}
    logs = [log_score(params, book, c) for c in collectors]
    # Softmax-style normalisation in log space: subtract the max so the
    # best collector's score is exp(0) = 1 and ratios are preserved.
    finite = [x for x in logs if math.isfinite(x)]
    if not finite:
        # Everyone is at the floor; split equally (degenerate but total-preserving).
        share = amount / len(collectors)
        return {c: share for c in collectors}
    top = max(finite)
    shifted = [math.exp(x - top) for x in logs]
    total = sum(shifted)
    return {c: amount * w / total for c, w in zip(collectors, shifted, strict=True)}
