"""Insurance underwriting on the protocol (Section 5.2).

Mapping, per the paper: **potential policyholders are providers** (their
application materials are transactions), **independent agents are
collectors** (verify and label the materials; their commission tempts
them to pass bad applications), **insurance companies are governors**.

The domain substrate: each policyholder has a true health record in a
hidden registry; an application *declares* a record, and the transaction
is valid iff the declaration matches the registry (no concealed medical
history, correct smoker status, ...).  The signature binds the
policyholder to his declaration — "he cannot deny the facts" — and the
reputation mechanism exposes agents that systematically whitewash bad
applications (:class:`CommissionBiasedAgent`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.agents.behaviors import CollectorBehavior, HonestBehavior
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolEngine
from repro.exceptions import ConfigurationError
from repro.ledger.transaction import CheckStatus, Label
from repro.network.topology import Topology
from repro.rng import Generator, default_rng
from repro.workloads.generator import TxSpec

__all__ = [
    "HealthRecord",
    "Application",
    "CommissionBiasedAgent",
    "InsuranceAlliance",
    "UnderwritingReport",
]


@dataclass(frozen=True)
class HealthRecord:
    """The registry's ground truth for one person."""

    age: int
    smoker: bool
    chronic_condition: bool
    prior_claims: int

    def as_dict(self) -> dict:
        """Hashable payload form."""
        return {
            "age": self.age,
            "smoker": self.smoker,
            "chronic_condition": self.chronic_condition,
            "prior_claims": self.prior_claims,
        }


@dataclass(frozen=True)
class Application:
    """A declared record submitted for underwriting."""

    applicant: str
    declared: HealthRecord

    def as_payload(self) -> dict:
        """Hashable payload form."""
        return {"applicant": self.applicant, "declared": self.declared.as_dict()}


@dataclass
class CommissionBiasedAgent:
    """The paper's dishonest independent agent.

    His commission depends on policies sold, so he *whitewashes*: an
    application he knows to be invalid is labeled +1 with probability
    ``whitewash_rate``.  Valid applications are always labeled honestly
    (there is no commission in rejecting good business).  This is a
    *directional* misreporter — a strictly harder case than symmetric
    noise for naive majority schemes, and exactly what the reputation
    mechanism's unchecked-transaction entries punish.
    """

    whitewash_rate: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 <= self.whitewash_rate <= 1.0:
            raise ConfigurationError("whitewash_rate must be in [0, 1]")

    def label_for(self, true_valid: bool, rng: Generator) -> Label | None:
        if not true_valid and rng.random() < self.whitewash_rate:
            return Label.VALID
        return Label.from_bool(true_valid)

    def should_forge(self, rng: Generator) -> bool:
        return False


@dataclass(frozen=True)
class UnderwritingReport:
    """Domain metrics for an alliance run."""

    applications: int
    honest_applications: int
    fraudulent_applications: int
    fraud_on_chain_as_valid: int
    fraud_caught: int
    honest_agent_revenue: float
    biased_agent_revenue: float

    @property
    def fraud_leakage(self) -> float:
        """Fraction of fraudulent applications that got through as valid."""
        return (
            self.fraud_on_chain_as_valid / self.fraudulent_applications
            if self.fraudulent_applications
            else 0.0
        )


@dataclass
class InsuranceAlliance:
    """A consortium of insurers running the protocol for underwriting.

    Args:
        n_applicants / n_agents / n_companies: Population sizes.
        agents_per_applicant: Link degree ``r``.
        biased_agents: agent id -> behaviour (e.g. CommissionBiasedAgent).
        fraud_rate: Probability an applicant misdeclares.
        seed: Master seed.
    """

    n_applicants: int = 20
    n_agents: int = 10
    n_companies: int = 4
    agents_per_applicant: int = 5
    biased_agents: Mapping[str, CollectorBehavior] = field(default_factory=dict)
    params: ProtocolParams = field(default_factory=ProtocolParams)
    fraud_rate: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraud_rate <= 1.0:
            raise ConfigurationError("fraud_rate must be in [0, 1]")
        self.topology = Topology.regular(
            l=self.n_applicants,
            n=self.n_agents,
            m=self.n_companies,
            r=self.agents_per_applicant,
        )
        behaviors = {c: HonestBehavior() for c in self.topology.collectors}
        unknown = set(self.biased_agents) - set(self.topology.collectors)
        if unknown:
            raise ConfigurationError(f"unknown biased agents: {sorted(unknown)}")
        behaviors.update(self.biased_agents)
        self.engine = ProtocolEngine(
            self.topology, self.params, behaviors=behaviors, seed=self.seed
        )
        self._rng = default_rng(self.seed + 7)
        self.registry: dict[str, HealthRecord] = {
            p: self._random_record() for p in self.topology.providers
        }
        self._applications = 0
        self._fraudulent = 0
        self._fraud_as_valid = 0
        self._fraud_caught = 0

    def _random_record(self) -> HealthRecord:
        return HealthRecord(
            age=self._rng.integers(18, 80),
            smoker=bool(self._rng.random() < 0.3),
            chronic_condition=bool(self._rng.random() < 0.2),
            prior_claims=self._rng.poisson(0.5),
        )

    def _declare(self, applicant: str) -> tuple[Application, bool]:
        """An application, possibly fraudulent; returns (app, is_valid)."""
        truth = self.registry[applicant]
        if self._rng.random() < self.fraud_rate:
            # Misdeclare the costliest attribute: hide conditions/claims.
            declared = HealthRecord(
                age=truth.age,
                smoker=False,
                chronic_condition=False,
                prior_claims=0,
            )
            is_valid = declared == truth  # fraud only if something was hidden
        else:
            declared = truth
            is_valid = True
        return Application(applicant=applicant, declared=declared), is_valid

    def run_round(self, applications_per_round: int = 10) -> None:
        """One underwriting round through the full protocol."""
        applicants = list(self.topology.providers)
        specs = []
        frauds: set[int] = set()
        for i in range(applications_per_round):
            applicant = applicants[(self._applications + i) % len(applicants)]
            application, is_valid = self._declare(applicant)
            if not is_valid:
                frauds.add(i)
            specs.append(
                TxSpec(
                    provider=applicant,
                    payload=application.as_payload(),
                    is_valid=is_valid,
                )
            )
        self._applications += len(specs)
        self._fraudulent += len(frauds)
        result = self.engine.run_round(specs)
        # Count fraud dispositions from the block: a fraudulent
        # application recorded as checked-valid leaked through (cannot
        # happen with a truthful oracle); recorded invalid = caught.
        fraud_ids = {
            rec.tx.tx_id
            for rec in result.block.tx_list
            if not self.engine.oracle.validate(rec.tx)
        }
        for rec in result.block.tx_list:
            if rec.tx.tx_id not in fraud_ids:
                continue
            if rec.label is Label.VALID:
                self._fraud_as_valid += 1
            elif rec.status is not CheckStatus.UNCHECKED:
                self._fraud_caught += 1

    def report(self) -> UnderwritingReport:
        """Domain metrics so far (finalises the engine's loss books)."""
        self.engine.finalize()
        rewards = self.engine.metrics.rewards_paid
        biased = set(self.biased_agents)
        # Fraud caught also includes checked-and-discarded applications,
        # which never reach a block; derive from governor validations.
        caught_total = self._fraudulent - self._fraud_as_valid
        return UnderwritingReport(
            applications=self._applications,
            honest_applications=self._applications - self._fraudulent,
            fraudulent_applications=self._fraudulent,
            fraud_on_chain_as_valid=self._fraud_as_valid,
            fraud_caught=max(caught_total, 0),
            honest_agent_revenue=sum(
                v for c, v in rewards.items() if c not in biased
            ),
            biased_agent_revenue=sum(v for c, v in rewards.items() if c in biased),
        )
