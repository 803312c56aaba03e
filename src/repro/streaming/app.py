"""One streaming run: a virtual universe, its workload and its session.

:class:`StreamingApp` wires a
:class:`~repro.streaming.universe.VirtualUniverse` to a
:class:`~repro.streaming.workload.StreamingWorkload` and a
:class:`~repro.streaming.session.StreamingSession` and drives them.  As
it stands it *is* the synthetic run behind the ``stream-smoke`` preset:
Poisson arrivals, uniform selection, Bernoulli validity, plain payloads,
no adversaries.  The domain oracles in :mod:`repro.apps` subclass it and
supply only what makes them a domain — the offered load, the adversary
mix, the payload hook and the per-record tally their report reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.agents.behaviors import CollectorBehavior
from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.streaming.session import StreamingSession
from repro.streaming.universe import VirtualUniverse
from repro.streaming.workload import StreamingWorkload
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.generator import TxSpec

__all__ = ["StreamingApp"]


@dataclass
class StreamingApp:
    """A streaming deployment of shape ``(universe, n, m, r)``.

    Args:
        universe: Registered (virtual) provider population.
        n / m / r: Collector count, governor count, link degree.
        params: Protocol parameters (``b_limit`` caps a block; the rest
            of a round's arrivals wait in the session's backlog).
        seed: Master seed (arrivals, workload and session).
        obs: Optional metrics registry for the ``stream_*`` family.
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

    #: Idle rounds before an instantiated provider is retired.
    retirement_rounds = 6
    #: ``(spec, index, rng) -> TxSpec`` payload hook (none: plain payloads).
    _enrich = None

    def __post_init__(self) -> None:
        self.virtual = VirtualUniverse(
            universe=self.universe, n=self.n, m=self.m, r=self.r
        )
        self.workload = StreamingWorkload(
            self.virtual,
            selection="uniform",
            seed=self.seed,
            spec_hook=self._enrich,
            **self.offered_load(),
        )
        self.session = StreamingSession(
            self.virtual,
            self.params,
            workload=self.workload,
            behaviors=self.adversary_mix(),
            seed=self.seed,
            retirement_rounds=self.retirement_rounds,
            obs=self.obs,
        )

    # -- what a domain oracle overrides -----------------------------------

    def offered_load(self) -> dict:
        """``StreamingWorkload`` keywords: arrival process and validity model."""
        return {
            "arrivals": PoissonArrivals(20.0, seed=self.seed),
            "validity": "bernoulli",
            "p_valid": 0.8,
        }

    def adversary_mix(self) -> Mapping[str, CollectorBehavior]:
        """Collector id -> behaviour (the synthetic run has no adversaries)."""
        return {}

    def _tally(self, rec) -> None:
        """Count one committed record into the domain report (nothing here)."""

    def _seat(
        self, indices: Sequence[int], behavior: Callable[[], CollectorBehavior]
    ) -> dict[str, CollectorBehavior]:
        """A fresh ``behavior()`` on each of the collectors at ``indices``."""
        collectors = self.virtual.collectors
        if indices and max(indices) >= len(collectors):
            raise ConfigurationError(
                f"{type(self).__name__}'s adversary mix seats collector "
                f"{max(indices)}; the committee has n={len(collectors)}"
            )
        return {collectors[i]: behavior() for i in indices}

    # -- the run ----------------------------------------------------------

    def run_round(self, specs: Iterable[TxSpec] = ()):
        """One round: its arrivals, behind any ``specs`` offered on top."""
        arrivals = self.workload.for_round(self.session.round_number + 1)
        block = self.session.run_round([*specs, *arrivals])
        for rec in block.tx_list:
            self._tally(rec)
        return block

    def run(self, rounds: int) -> None:
        """Drive the streaming session for ``rounds`` rounds."""
        for _ in range(rounds):
            self.run_round()

    def finalize(self) -> None:
        """Reveal pending truths and run the session's harness audit."""
        self.session.finalize()

    @property
    def audit_clean(self) -> bool:
        """No violation in the session's audit (vacuous before ``finalize``)."""
        report = self.session.audit_report
        return report is None or not report.violations

    def report(self):
        """Run metrics so far (finalises the session's audit)."""
        self.finalize()
        m = self.session.metrics
        return {
            "rounds": m.rounds,
            "transactions": m.transactions,
            "instantiations": m.instantiations,
            "retirements": m.retirements,
            "peak_active": m.peak_active,
            "peak_backlog": m.peak_backlog,
            "audit_clean": self.audit_clean,
        }
