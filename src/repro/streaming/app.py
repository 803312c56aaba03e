"""A streaming deployment: the paper's round over a virtual population.

:class:`StreamingApp` *is* :class:`~repro.core.protocol.ProtocolEngine` —
its round, leader election (PoS/VRF over unit stake), reward from the
leader's book, run record, closing rounds and harness audit — over a
provider population that is a
:class:`~repro.streaming.universe.VirtualUniverse`: a provider agent is
**instantiated on first arrival** (key enrolment, link registration,
governor link maps) and **retired after an idle window** (agent dropped,
cursors forgotten, link maps shrunk), so resident memory is bounded by
the *active set* plus the reputation rows Algorithm 3 has actually
touched — never by the universe size.  The sparse reputation books
(:class:`~repro.core.reputation.SparseWeightMap` over
:class:`~repro.streaming.universe.CollectorMembers`) make the governor
side equally lazy, and :func:`~repro.core.rewards.log_score` reads a
book in O(touched), so the reward costs what the books hold.

What the lazy population adds to the engine:

* arrivals exceeding ``b_limit`` spill into a FIFO **backlog** drained
  in later rounds (open-loop offered load vs. the engine's hard
  ``ConfigurationError``);
* retirement saves only the provider's signing nonce: a retired
  provider is *inactive* in the paper's sense (the Validity property
  does not quantify over it), and any still-unchecked truth it leaves
  behind is revealed at :meth:`~StreamingApp.finalize`.  Identity keys
  are stable across retire/re-arrive cycles (the Identity Manager keeps
  the enrolment record), so old signatures keep verifying.

The class *is* the synthetic run behind the ``stream-smoke`` preset:
Poisson arrivals, uniform selection, Bernoulli validity, plain
payloads, no adversaries.  A subclass changes the offered load by
overriding :meth:`~StreamingApp.offered_load`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.agents.provider import Provider
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.core.roundcore import RoundResult, RunRecord
from repro.crypto.identity import Role
from repro.exceptions import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.streaming.universe import VirtualUniverse, parse_provider_index
from repro.streaming.workload import StreamingWorkload
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.generator import TxSpec

__all__ = ["StreamingApp", "StreamMetrics", "stream_metrics"]


def stream_metrics(
    registry: MetricsRegistry, app: "StreamingApp | None" = None
) -> None:
    """Declare the ``stream_*`` family on ``registry``.

    A :class:`StreamingApp` passes itself, and the family reads its
    run record (``app.metrics``, the live provider and backlog sizes);
    with no app the family is declared and reads nothing.
    """

    def read(fn):
        return None if app is None else lambda: fn(app)

    registry.gauge(
        "stream_active_providers",
        "Provider agents currently instantiated (the resident active set)",
        read=read(lambda s: len(s.providers)),
    )
    registry.counter(
        "stream_instantiations_total",
        "Provider instantiations, by kind (first arrival vs. re-arrival)",
        labels=("kind",),
        read=read(lambda s: {
            "first": s.metrics.instantiations,
            "rearrival": s.metrics.reinstantiations,
        }),
    )
    registry.counter(
        "stream_retirements_total",
        "Providers retired after the idle window",
        read=read(lambda s: s.metrics.retirements),
    )
    registry.gauge(
        "stream_backlog",
        "Arrived transactions awaiting a block slot (b_limit spill)",
        read=read(lambda s: len(s._backlog)),
    )
    registry.counter(
        "stream_tx_total",
        "Streaming workload transactions committed into rounds",
        read=read(lambda s: s.metrics.transactions_offered),
    )
    registry.gauge(
        "stream_peak_rss_bytes",
        "Process peak RSS sampled at finalize (ru_maxrss)",
        read=read(lambda s: s.metrics.peak_rss_bytes),
    )


@dataclass
class StreamMetrics(RunRecord):
    """The run record plus the lazy population's counters (obs reads them)."""

    instantiations: int = 0
    reinstantiations: int = 0
    retirements: int = 0
    peak_active: int = 0
    peak_backlog: int = 0
    #: ``ru_maxrss`` as of the last :meth:`StreamingApp.finalize`.
    peak_rss_bytes: int = 0


@dataclass
class StreamingApp(ProtocolEngine):
    """A streaming deployment of shape ``(universe, n, m, r)``.

    Args:
        universe: Registered (virtual) provider population.
        n / m / r: Collector count, governor count, link degree.
        params: Protocol parameters (``b_limit`` caps a block; the rest
            of a round's arrivals wait in the backlog).
        seed: Master seed (arrivals, workload and agents; collector and
            governor RNGs derive in the materialized engine's order).
        obs: Optional metrics registry (the engine's families plus
            ``stream_*``; see OBSERVABILITY.md).  Never touches RNG or
            control flow.
    """

    universe: int = 10_000
    n: int = 8
    m: int = 4
    r: int = 4
    params: ProtocolParams = field(
        default_factory=lambda: ProtocolParams(f=0.5, b_limit=48)
    )
    seed: int = 0
    obs: MetricsRegistry | None = None

    #: Idle rounds (>= 1) before an instantiated provider is retired.
    retirement_rounds = 6
    run_record = StreamMetrics

    def __post_init__(self) -> None:
        if self.retirement_rounds < 1:
            raise ConfigurationError(
                f"retirement_rounds must be >= 1, got {self.retirement_rounds}"
            )
        universe = VirtualUniverse(universe=self.universe, n=self.n, m=self.m, r=self.r)
        self.workload = StreamingWorkload(universe, seed=self.seed, **self.offered_load())
        # No up-front provider sweep: provider keys are drawn lazily at
        # first arrival, after the collectors' and governors'.
        ProtocolEngine.__init__(self, universe, self.params, seed=self.seed, obs=self.obs)
        self._backlog: deque[TxSpec] = deque()
        stream_metrics(self.obs, self)
        # Idle clocks of the active provider agents (``self.providers``).
        self._last_seen: dict[str, int] = {}
        # What survives a provider's retirement: its signing nonce.
        self._retired: dict[str, int] = {}

    # -- what a subclass overrides ---------------------------------------

    def offered_load(self) -> dict:
        """``StreamingWorkload`` keywords: arrival process and validity rate."""
        return {
            "arrivals": PoissonArrivals(20.0, seed=self.seed),
            "p_valid": 0.8,
        }

    # -- provider lifecycle ----------------------------------------------

    def _arrive(self, pid: str, round_number: int) -> None:
        """Materialize ``pid`` if it is new, and stamp its idle clock."""
        if pid not in self.providers:
            self._instantiate(pid)
        self._last_seen[pid] = round_number

    def _instantiate(self, pid: str) -> None:
        """Materialize a virtual provider on arrival."""
        if not self.topology.contains_provider(pid):
            raise ConfigurationError(
                f"provider {pid!r} is outside the registered universe"
            )
        linked = self.topology.collectors_of_index(parse_provider_index(pid))
        nonce = self._retired.pop(pid, None)
        if nonce is None:
            key = self.im.enroll(pid, Role.PROVIDER)
            for cid in linked:
                self.im.register_link(cid, pid)
            self.metrics.instantiations += 1
        else:
            # Re-arrival: the enrolment record (and its key) persists in
            # the Identity Manager, so old signatures keep verifying.
            key = self.im.record(pid).key
            self.metrics.reinstantiations += 1
        provider = Provider(provider_id=pid, key=key, linked_collectors=linked, seed=self.seed)
        if nonce is not None:
            provider._nonce = nonce
        self.providers[pid] = provider
        for gov in self.governors.values():
            gov.link_provider(pid, linked)
        self.metrics.peak_active = max(self.metrics.peak_active, len(self.providers))

    def _retire_idle(self, round_number: int) -> None:
        cutoff = round_number - self.retirement_rounds
        for pid in [
            p for p, seen in self._last_seen.items() if seen <= cutoff
        ]:
            provider = self.providers.pop(pid)
            self._retired[pid] = provider._nonce
            del self._last_seen[pid]
            self.store.forget_reader(pid)
            for gov in self.governors.values():
                gov.unlink_provider(pid)
            self.metrics.retirements += 1

    # -- the run ----------------------------------------------------------

    def run_round(self, specs: Iterable[TxSpec] = ()) -> RoundResult:
        """One round: ``specs``, then the round's arrivals, join the backlog;
        the engine's round takes at most ``b_limit`` minus the re-evaluated
        queue of them, once their providers have arrived."""
        round_number = self._round + 1
        self._backlog.extend(specs)
        self._backlog.extend(self.workload.for_round(round_number))
        self.metrics.peak_backlog = max(self.metrics.peak_backlog, len(self._backlog))
        budget = self.params.b_limit - len(self._reevaluated_queue)
        batch = [self._backlog.popleft() for _ in range(min(budget, len(self._backlog)))]
        for spec in batch:
            self._arrive(spec.provider, round_number)
        result = super().run_round(batch)
        # Only instantiated (active) providers scan blocks.
        self._retire_idle(round_number)
        return result

    def run(self, rounds: int) -> None:
        """Drive ``rounds`` rounds of the workload's arrivals."""
        for _ in range(rounds):
            self.run_round()

    def finalize(self) -> None:
        """Sample peak RSS, then close the books as the engine does: its
        closing rounds take no arrivals, and the harness audit reads a
        reputation row by its overrides, so neither costs more in a
        larger universe."""
        import resource
        import sys

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is bytes on macOS, kilobytes on Linux.
        scale = 1 if sys.platform == "darwin" else 1024
        self.metrics.peak_rss_bytes = rss_kb * scale
        super().finalize()

    # -- reading the run --------------------------------------------------

    @property
    def audit_clean(self) -> bool:
        """No violation in the harness audit so far."""
        return not self.audit_report.violations

    def report(self):
        """Run metrics so far (finalises the harness audit)."""
        self.finalize()
        m = self.metrics
        return {
            "rounds": m.rounds,
            "transactions": m.transactions_offered,
            "instantiations": m.instantiations,
            "retirements": m.retirements,
            "peak_active": m.peak_active,
            "peak_backlog": m.peak_backlog,
            "audit_clean": self.audit_clean,
        }

    def touched_rows(self) -> int:
        """Total sparse-override entries across all books (memory proxy)."""
        total = 0
        for gov in self.governors.values():
            for cid in gov.book.collectors():
                total += gov.book.vector(cid).provider_weights.touched
        return total
