"""Reputation vectors — the paper's ``r_{j,i}``.

Each governor ``g_j`` keeps, for each collector ``c_i``, an
``(s + 2)``-length vector

    r_{j,i} = (w_{j,i,k_1}, ..., w_{j,i,k_s}, w_misreport, w_forge)

* the first ``s`` entries are **multiplicative weights**, one per
  provider the collector oversees, updated with the β/γ discounts when
  the truth of an *unchecked* transaction is revealed (Algorithm 3,
  case 3) — these drive the source-selection probabilities and the
  Theorem-1 regret bound;
* ``w_misreport`` is an **additive counter**: +1 for each *checked*
  transaction the collector labeled correctly, -1 otherwise (case 2);
* ``w_forge`` is an additive counter decremented for every forged
  upload (case 1).

:class:`ReputationBook` is one governor's full table ``R_j``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.exceptions import ConfigurationError, ProtocolViolationError
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

__all__ = ["ReputationVector", "ReputationBook", "SparseWeightMap", "WeightRow"]

#: Reputations are clamped above this floor so that a collector that was
#: wrong many times keeps a representable (if negligible) weight; the
#: paper's analysis never divides by a single weight, only by sums, and
#: the floor keeps those sums strictly positive for numerical safety.
WEIGHT_FLOOR = 1e-300

#: Distinct (provider, collector-subset) weight rows a book memoizes
#: before the cache is wholesale dropped (bounded by 2^r subsets per
#: provider in practice, so eviction is rare).
_ROW_CACHE_SIZE = 4096


class SparseWeightMap(MutableMapping):
    """Default-row + touched-overrides provider→weight map.

    The one representation of a vector's first ``s`` entries.  It stores
    only the entries Algorithm 3 has actually *touched* (``overrides``)
    on top of a shared ``default`` weight, against a ``members``
    container that answers containment/iteration/length: the keys of a
    dict for a materialised provider list (same order, O(1) ``in``), or
    a lazy view that never materializes the population (see
    :class:`repro.streaming.universe.CollectorMembers`), so a collector
    overseeing 10^6 providers costs O(touched) memory.

    Semantics are exactly those of a plain dict over the members:

    * lookup of an untouched member returns ``default``; a non-member
      raises ``KeyError`` (:meth:`ReputationVector.weight` converts that
      to the protocol violation);
    * iteration yields the members in their canonical registration
      order, so every order-sensitive float reduction
      (``sum(values())``, digests) is the same whether or not an entry
      was ever touched;
    * every mutation bumps the owning vector's ``_version`` — weights
      are mutated through :meth:`ReputationVector.scale` *and* directly
      (:meth:`ReputationBook.readmit_collector`'s bootstrap, tests), so
      cache invalidation cannot rely on a choke-point method; the
      book-level row cache checks the version before reusing a snapshot.
    """

    __slots__ = ("members", "default", "overrides", "owner")

    def __init__(self, members, default: float):
        if default <= 0:
            raise ConfigurationError(
                f"default reputation must be positive, got {default}"
            )
        self.members = (
            dict.fromkeys(members) if isinstance(members, (list, tuple)) else members
        )
        self.default = float(default)
        self.overrides: dict[str, float] = {}
        self.owner = None

    def _bump(self) -> None:
        if self.owner is not None:
            self.owner._version += 1

    def __getitem__(self, key):
        value = self.overrides.get(key)
        if value is not None:
            return value
        if key in self.members:
            return self.default
        raise KeyError(key)

    def __setitem__(self, key, value):
        if key not in self.members:
            raise KeyError(key)
        self.overrides[key] = value
        self._bump()

    def __delitem__(self, key):
        # Deleting resets the entry to the default row (the member itself
        # cannot be removed from a membership view).
        del self.overrides[key]
        self._bump()

    def __contains__(self, key):
        return key in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    @property
    def touched(self) -> int:
        """How many entries deviate from the default row (memory cost)."""
        return len(self.overrides)


def _median(values: list[float]) -> float:
    """The middle value, or the mean of the two middle values."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return sum(ordered[mid - 1 : mid + 1]) / 2


@dataclass(slots=True)
class WeightRow:
    """A snapshot of collector weights w.r.t. one provider.

    ``weights[i]`` is the weight of the i-th collector of the row's key
    (a tuple), ``total`` is their left-to-right ``sum``, and
    :meth:`probabilities` is computed lazily once and reused — this is
    what makes screening's source-selection normalization O(1) amortized.
    """

    weights: tuple[float, ...]
    total: float
    _vectors: tuple = ()
    _versions: tuple[int, ...] = ()
    _probs: tuple[float, ...] | None = None

    def probabilities(self) -> tuple[float, ...]:
        """``weights[i] / total``, normalized once per snapshot."""
        if self._probs is None:
            # A plain loop: a comprehension is one more call per row rebuilt.
            total = self.total
            probs = []
            for w in self.weights:
                probs += (w / total,)
            self._probs = tuple(probs)
        return self._probs


@dataclass
class ReputationVector:
    """One collector's reputation as seen by one governor."""

    provider_weights: SparseWeightMap
    misreport: int = 0
    forge: int = 0

    def __post_init__(self) -> None:
        # Version counter consulted by ReputationBook's row cache; bumped
        # by every provider_weights mutation.
        self._version = 0
        self.provider_weights.owner = self

    @staticmethod
    def fresh(providers, initial: float = 1.0) -> "ReputationVector":
        """A new collector's vector: every provider entry at ``initial``."""
        return ReputationVector(SparseWeightMap(providers, initial))

    def weight(self, provider: str) -> float:
        """``w_{j,i,k}`` for provider ``k``.

        Raises:
            ProtocolViolationError: the collector does not oversee ``provider``
                (reputation entries exist only for linked providers).
        """
        try:
            return self.provider_weights[provider]
        except KeyError:
            raise ProtocolViolationError(
                f"no reputation entry for provider {provider!r}"
            ) from None

    def scale(self, provider: str, factor: float) -> None:
        """Multiply a provider entry by ``factor`` (β or γ), with floor."""
        if factor <= 0:
            raise ConfigurationError(f"reputation factor must be positive, got {factor}")
        current = self.weight(provider)
        self.provider_weights[provider] = max(current * factor, WEIGHT_FLOOR)


@dataclass
class ReputationBook:
    """One governor's reputation table ``R_j`` over all collectors.

    ``obs`` is the optional metrics registry; updates feed the
    ``rep_updates_total`` counter and the ``rep_update_magnitude``
    histogram (the ``-ln(factor)`` size of each multiplicative
    discount — see OBSERVABILITY.md).
    """

    governor: str
    initial: float = 1.0
    _vectors: dict[str, ReputationVector] = field(default_factory=dict)
    obs: MetricsRegistry = field(default_factory=lambda: NULL_REGISTRY)

    def __post_init__(self) -> None:
        self._row_cache: dict[tuple[str, tuple[str, ...]], WeightRow] = {}
        # Plain counts the registry reads: Algorithm-3 updates applied
        # (``forge`` / ``checked`` / ``reveal`` -> count), and selection-row
        # cache hits / misses.
        self.updates: dict[str, int] = defaultdict(int)
        self.row_hits = self.row_misses = 0
        self.obs.counter(
            "rep_updates_total",
            "Reputation updates applied, by Algorithm-3 case",
            labels=("case",),
            read=lambda: self.updates,
        )
        self._m_magnitude = self.obs.histogram(
            "rep_update_magnitude",
            "Multiplicative discount size -ln(factor) per scaled entry",
            buckets=(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0),
        )
        self.obs.counter(
            "rep_norm_cache_hits",
            "Reputation weight-row/normalization cache hits during screening",
            read=lambda: self.row_hits,
        )
        self.obs.counter(
            "rep_norm_cache_misses",
            "Reputation weight-row cache misses (row rebuilt from vectors)",
            read=lambda: self.row_misses,
        )

    def register_collector(self, collector: str, providers) -> None:
        """Create the fresh (s+2)-vector for a newly known collector:
        a pure default row over ``providers``, an id list or a lazy
        membership view (see :class:`SparseWeightMap`)."""
        if collector in self._vectors:
            raise ProtocolViolationError(
                f"collector {collector!r} already registered with {self.governor!r}"
            )
        self._vectors[collector] = ReputationVector.fresh(providers, self.initial)

    def vector(self, collector: str) -> ReputationVector:
        """The full vector for ``collector``.

        Raises:
            ProtocolViolationError: unknown collector.
        """
        try:
            return self._vectors[collector]
        except KeyError:
            raise ProtocolViolationError(
                f"collector {collector!r} not registered with {self.governor!r}"
            ) from None

    def collectors(self) -> Iterable[str]:
        """All registered collector ids."""
        return self._vectors.keys()

    def is_registered(self, collector: str) -> bool:
        """Whether ``collector`` currently holds a vector (churn-aware)."""
        return collector in self._vectors

    def weight(self, collector: str, provider: str) -> float:
        """``w_{j,i,k}`` shortcut."""
        return self.vector(collector).weight(provider)

    def weights_for(
        self, provider: str, collectors: Iterable[str]
    ) -> Mapping[str, float]:
        """The weights w.r.t. ``provider`` of the given collectors."""
        return {c: self.weight(c, provider) for c in collectors}

    # -- contiguous weight rows (screening hot path) ----------------------

    def _build_row(self, provider: str, collectors: tuple[str, ...]) -> WeightRow:
        vectors = tuple(self.vector(c) for c in collectors)
        weights = tuple([v.weight(provider) for v in vectors])
        return WeightRow(
            weights=weights,
            total=sum(weights),
            _vectors=vectors,
            _versions=tuple(v._version for v in vectors),
        )

    def selection_row(
        self, provider: str, collectors: Sequence[str]
    ) -> WeightRow:
        """The contiguous weight row for ``collectors`` w.r.t. ``provider``.

        Memoized per ``(provider, collectors)`` key and invalidated when
        any underlying vector changes (identity *or* version — churn
        swaps vector objects, updates bump versions), so repeated
        screenings of the same reporter set skip both the per-collector
        dict walk and the re-normalization.  A cached row holds the
        numbers a fresh :meth:`_build_row` would compute.

        Raises:
            ProtocolViolationError: unknown collector, or no entry for
                ``provider`` in some collector's vector.
        """
        collectors = tuple(collectors)
        key = (provider, collectors)
        row = self._row_cache.get(key)
        if row is not None:
            vectors = self._vectors
            for i, c in enumerate(collectors):
                vec = vectors.get(c)
                if vec is not row._vectors[i] or vec._version != row._versions[i]:
                    row = None
                    break
        if row is not None:
            self.row_hits += 1
            return row
        self.row_misses += 1
        row = self._build_row(provider, collectors)
        if len(self._row_cache) >= _ROW_CACHE_SIZE:
            self._row_cache.clear()
        self._row_cache[key] = row
        return row

    # -- Algorithm 3 entry points ---------------------------------------

    def record_forge(self, collector: str) -> None:
        """Case 1: decrement ``w_forge`` for a forged upload."""
        self.vector(collector).forge -= 1
        self.updates["forge"] += 1

    def record_checked(self, collector: str, labeled_correctly: bool) -> None:
        """Case 2: ±1 on ``w_misreport`` for a checked transaction."""
        self.vector(collector).misreport += 1 if labeled_correctly else -1
        self.updates["checked"] += 1

    def apply_revealed_truth(
        self,
        provider: str,
        outcomes: Mapping[str, str],
        beta: float,
        gamma: float,
    ) -> None:
        """Case 3: multiplicative update once an unchecked truth is revealed.

        Args:
            provider: The transaction's provider ``p_k``.
            outcomes: collector id -> one of ``"correct"`` (×1),
                ``"wrong"`` (×gamma), ``"missed"`` (×beta) — exactly the
                prose of Section 3.4.2.  (The paper's Algorithm-3 listing
                ambiguously types the else-branch; the prose and the
                Theorem-1 potential argument fix correct→1, wrong→γ,
                missed→β, which we follow.)
            beta: Conceal discount.
            gamma: Mislabel discount ``gamma_tx`` for this transaction.
        """
        factors = {"wrong": gamma, "missed": beta}
        for collector, outcome in outcomes.items():
            if outcome == "correct":
                continue
            factor = factors.get(outcome)
            if factor is None:
                raise ProtocolViolationError(
                    f"unknown reveal outcome {outcome!r} for {collector!r}"
                )
            self.vector(collector).scale(provider, factor)
            self.updates["reveal"] += 1
            self._m_magnitude.observe(-math.log(factor))

    def total_weight(self, provider: str, collectors: Iterable[str]) -> float:
        """Sum of weights w.r.t. ``provider`` over ``collectors``.

        Routed through the row cache (:attr:`WeightRow.total`), summed
        left to right as ``sum(weight(c, provider))``.
        """
        collectors = tuple(collectors)
        if not collectors:
            return 0
        return self.selection_row(provider, collectors).total

    # -- membership churn -------------------------------------------------

    def retire_collector(self, collector: str) -> ReputationVector:
        """Remove a collector's vector (left the alliance / crash-stopped).

        Returns the retired vector so a caller implementing a grace
        period can hold it aside.

        Raises:
            ProtocolViolationError: unknown collector.
        """
        vector = self.vector(collector)
        del self._vectors[collector]
        return vector

    def readmit_collector(self, collector: str, providers: Iterable[str]) -> None:
        """Re-admit a collector after churn (recovered from a crash).

        The one site of the bootstrap rule: the newcomer inherits, per
        provider, the median incumbent's standing, so it neither
        dominates selection nor starts from a clean slate; a provider no
        incumbent oversees starts at genesis trust.

        Raises:
            ProtocolViolationError: the collector is still registered.
        """
        if collector in self._vectors:
            raise ProtocolViolationError(
                f"collector {collector!r} still registered with {self.governor!r}"
            )
        vector = ReputationVector.fresh(tuple(providers), self.initial)
        for provider in vector.provider_weights:
            incumbents = [
                v.provider_weights[provider]
                for v in self._vectors.values()
                if provider in v.provider_weights
            ]
            if incumbents:
                weight = max(_median(incumbents), WEIGHT_FLOOR)
                vector.provider_weights[provider] = weight
        self._vectors[collector] = vector

    # -- durable state (checkpoint persistence) ---------------------------

    def export_state(self) -> dict:
        """JSON-safe sparse row payload for checkpoint pinning.

        Only the touched entries are written, so the payload size tracks
        the number of *touched* rows, not the membership.  Floats
        survive the JSON round trip exactly (``repr`` round-trips), so a
        restored book is weight-for-weight identical.
        """
        collectors = {
            cid: {
                "default": vec.provider_weights.default,
                "overrides": dict(vec.provider_weights.overrides),
                "misreport": vec.misreport,
                "forge": vec.forge,
            }
            for cid, vec in self._vectors.items()
        }
        return {"initial": self.initial, "collectors": collectors}

    def restore_state(self, state: Mapping) -> None:
        """Overwrite registered vectors from an :meth:`export_state` payload.

        Collectors must already be registered (the engine rebuilds the
        topology before restoring); entries absent from the payload's
        overrides keep the payload's default.  The payload comes off a
        disk, so each row is checked before it is applied: an override
        for a provider its collector does not oversee would be served by
        :meth:`weight` yet skipped by every digest, which iterates
        members.  (A caller that must not keep a half-restored book
        restores a known-good payload on error, as the engine does.)

        Raises:
            ProtocolViolationError: the payload is malformed, names an
                unregistered collector or a non-member provider, or
                holds a weight that is not finite and positive.
        """
        try:
            for cid, row in state.get("collectors", {}).items():
                vec = self.vector(cid)
                weights = vec.provider_weights
                default = float(row.get("default", self.initial))
                overrides = {p: float(w) for p, w in row.get("overrides", {}).items()}
                foreign = [p for p in overrides if p not in weights]
                if foreign:
                    raise ProtocolViolationError(
                        f"book state for {cid!r} names non-member providers {foreign}"
                    )
                if not all(0.0 < w < math.inf for w in (default, *overrides.values())):
                    raise ProtocolViolationError(
                        f"book state for {cid!r} holds a weight outside (0, inf)"
                    )
                counters = int(row.get("misreport", 0)), int(row.get("forge", 0))
                weights.default, weights.overrides = default, overrides
                weights._bump()
                vec.misreport, vec.forge = counters
        except (AttributeError, TypeError, ValueError) as exc:
            raise ProtocolViolationError(f"malformed book state: {exc}") from None
