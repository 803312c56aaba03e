"""The full protocol engine: collecting, uploading, processing, arguing.

:class:`ProtocolEngine` wires the whole hierarchy together — Identity
Manager, topology, provider/collector/governor agents, PoS leader
election, block store, reward distribution, optional stake-transform
consensus — and executes the round of :mod:`repro.core.roundcore` with
every hand-off delivered at once.

Message accounting in this in-process engine is analytic: each phase
adds exactly the messages the real exchange would send, so the E7
complexity bench measures the paper's ``O(b_limit * m)`` ordinary-block
and ``O(m^2)`` stake-transform terms without a packet-level run
(the packet-level path is exercised separately by the
:mod:`repro.network`-backed integration tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.agents.behaviors import CollectorBehavior
from repro.agents.governor import Governor
from repro.consensus.stake import make_transfer
from repro.consensus.messages import NewStateProposal
from repro.consensus.stake_consensus import StakeConsensusRound, make_proposal
from repro.core.params import ProtocolParams
from repro.core.rewards import distribute_rewards
from repro.core.roundcore import RoundCore
from repro.exceptions import ConfigurationError, LeaderMisbehaviourError
from repro.ledger.block import Block
from repro.ledger.store import BlockStore
from repro.ledger.transaction import LabeledTransaction
from repro.network.topology import Topology
from repro.network.visibility import VisibilityMap
from repro.obs.registry import MetricsRegistry
from repro.workloads.generator import TxSpec

__all__ = ["RoundResult", "EngineMetrics", "ProtocolEngine"]


@dataclass
class RoundResult:
    """Summary of one executed round.

    ``uploads`` carries the round's verified collector uploads (the
    labeled transactions), so applications can read the per-collector
    labels — e.g. the car-sharing dispatcher reads driver willingness
    from them.
    """

    round_number: int
    leader: str
    block: Block
    transactions_offered: int
    argues_admitted: int
    rewards: Mapping[str, float]
    uploads: tuple[LabeledTransaction, ...] = ()
    stake_messages: int = 0


@dataclass
class EngineMetrics:
    """Run-level counters across all rounds."""

    rounds: int = 0
    transactions_offered: int = 0
    forged_uploads: int = 0
    provider_messages: int = 0
    collector_messages: int = 0
    governor_messages: int = 0
    stake_messages: int = 0
    argues_total: int = 0
    rewards_paid: dict[str, float] = field(default_factory=dict)


class ProtocolEngine(RoundCore):
    """In-process execution of the full three-tier protocol.

    Args:
        topology: The provider/collector/governor link structure.
        params: Protocol parameters.
        behaviors: collector id -> behaviour; missing ids are honest.
        seed: Master seed; all agent RNGs derive from it.
        stake: governor id -> stake units (default: 1 each).
        visibility: Partial governor visibility (paper §3.1's "partial
            information" adjustment); None = the default full view.
            Must satisfy the coverage constraint (validated).
        abusive_providers: provider id -> spurious-argue rate; these
            providers also contest correctly-recorded invalid
            transactions, burning one validation per argue at every
            governor that holds the record unchecked (bounded griefing;
            the record never flips).
        obs: Optional :class:`~repro.obs.MetricsRegistry`; when given,
            the engine, its governors, and their reputation books feed
            the ``engine_* / gov_* / rep_*`` metric families (see
            OBSERVABILITY.md).  Observability never touches RNG or
            control flow, so seeded runs are bit-identical with it on,
            off, or absent.
    """

    def __init__(
        self,
        topology: Topology,
        params: ProtocolParams,
        behaviors: Mapping[str, CollectorBehavior] | None = None,
        seed: int = 0,
        stake: Mapping[str, int] | None = None,
        visibility: VisibilityMap | None = None,
        abusive_providers: Mapping[str, float] | None = None,
        obs: MetricsRegistry | None = None,
    ):
        if visibility is not None:
            visibility.validate(topology)
        super().__init__(params, seed, obs)
        self.topology = topology
        self.visibility = visibility
        self.store = BlockStore()
        self.metrics = EngineMetrics()
        # Harness-level AuditReport, filled by finalize().
        self.audit_report = None
        metrics = self.metrics
        self._register_engine_metrics(
            lambda: metrics.rounds,
            lambda: metrics.transactions_offered,
            lambda: metrics.argues_total,
        )

        def register_books(governor: Governor) -> None:
            if visibility is None:
                governor.register_topology(topology)
            else:
                governor.register_topology(
                    topology, visibility.collectors_for(governor.governor_id)
                )

        self._enroll(
            topology,
            topology.providers,
            topology.providers_of,
            register_books,
            behaviors,
            stake,
            abusive_providers,
        )
        self._stake_nonce = 0
        self._byzantine: set[str] = set()
        self.expulsions: list[tuple[str, str]] = []

    # -- round execution -------------------------------------------------

    def run_round(self, specs: Sequence[TxSpec]) -> RoundResult:
        """Execute one full round over the given workload batch."""
        sees = None if self.visibility is None else self.visibility.sees
        done = self._run_zero_latency_round(
            specs, self.providers.__getitem__, sees, self._elect_leader
        )
        m = self.topology.m
        metrics = self.metrics
        metrics.provider_messages += done.deliveries
        metrics.forged_uploads += done.forged
        metrics.collector_messages += len(done.uploads) * m
        # Leader broadcasts the block to the other m-1 governors; the
        # paper's O(b_limit * m) term counts the payload size times m.
        metrics.governor_messages += m - 1
        metrics.argues_total += done.argues

        # Rewards from the leader's reputation view.
        block = done.block
        rewards = distribute_rewards(self.params, self.governors[block.proposer].book)
        for cid, amount in rewards.items():
            metrics.rewards_paid[cid] = metrics.rewards_paid.get(cid, 0.0) + amount

        metrics.rounds += 1
        metrics.transactions_offered += len(specs)
        self._m_block_size.observe(float(len(block.tx_list)))

        return RoundResult(
            round_number=block.round_number,
            leader=block.proposer,
            block=block,
            transactions_offered=len(specs),
            argues_admitted=done.argues_admitted,
            rewards=rewards,
            uploads=tuple(done.uploads),
        )

    def _elect_leader(self, round_number: int) -> str:
        # The election's order is the not-yet-expelled governors
        # (expel_governor shrinks it), which also fixes the VRF index j.
        eligible = self.election.governor_order
        # VRF announcements: every staked eligible governor broadcasts
        # y_j outputs to the other m-1 governors.
        staked = sum(1 for g in eligible if self.stake.balance(g) > 0)
        self.metrics.governor_messages += staked * (self.topology.m - 1)
        if not staked:
            # All stake sits with expelled governors: fall back to
            # round-robin among the eligible so the chain stays live.
            return eligible[(round_number - 1) % len(eligible)]
        return self.election.run(self.stake, round_number)

    # -- stake transfers ---------------------------------------------------

    def transfer_stake(self, sender: str, receiver: str, amount: int) -> int:
        """Run a stake transfer through the 3-step consensus.

        A leader marked Byzantine (see :meth:`mark_byzantine_governor`)
        proposes a tampered NEW_STATE; honest governors broadcast expel
        evidence, the leader is removed from future elections, and the
        round re-runs under a new leader — the expulsion flow the paper
        adopts from CycLedger.

        Returns the number of governor messages the exchange took, a
        tampered attempt included; E7 reports it for an honest and a
        Byzantine leader.
        """
        key = self.im.record(sender).key
        transfer = make_transfer(key, receiver, amount, self._stake_nonce)
        self._stake_nonce += 1
        total_messages = 0
        for _attempt in range(self.topology.m):
            leader = self._elect_leader(self._round + 1)
            consensus = StakeConsensusRound(
                im=self.im, governors=list(self.topology.governors)
            )
            tampered = None
            if leader in self._byzantine:
                honest = make_proposal(
                    self.im.record(leader).key, 0, self.stake, [transfer]
                )
                bad_state = dict(honest.new_state)
                bad_state[leader] = bad_state.get(leader, 0) + amount
                tampered = NewStateProposal(
                    round_number=honest.round_number,
                    leader=leader,
                    new_state=bad_state,
                    transfers_digest=honest.transfers_digest,
                    signature=honest.signature,
                )
            try:
                consensus.run(
                    leader, self.stake, [transfer], tampered_proposal=tampered
                )
            except LeaderMisbehaviourError:
                total_messages += consensus.messages_exchanged
                self.expel_governor(leader, reason="tampered NEW_STATE")
                continue
            self.stake.apply(transfer)
            total_messages += consensus.messages_exchanged
            self.metrics.stake_messages += total_messages
            self.metrics.governor_messages += total_messages
            return total_messages
        raise LeaderMisbehaviourError(
            "no honest leader could be elected for the stake transfer "
            f"(expelled: {sorted(self.expelled_governors)})"
        )

    # -- failure injection & expulsion ---------------------------------------

    def mark_byzantine_governor(self, gid: str) -> None:
        """Fault-inject: this governor tampers NEW_STATE when leading."""
        if gid not in self.governors:
            raise ConfigurationError(f"unknown governor {gid!r}")
        self._byzantine.add(gid)

    def expel_governor(self, gid: str, reason: str = "") -> None:
        """Remove a governor from future leader elections.

        The expelled governor keeps its ledger replica (it can still
        read), but can no longer lead rounds or stake-consensus.

        Raises:
            ConfigurationError: expelling the last eligible governor.
        """
        if gid not in self.governors:
            raise ConfigurationError(f"unknown governor {gid!r}")
        remaining = [g for g in self.election.governor_order if g != gid]
        if not remaining:
            raise ConfigurationError("cannot expel the last eligible governor")
        self.election.governor_order = remaining
        self.expulsions.append((gid, reason))

    @property
    def expelled_governors(self) -> frozenset[str]:
        """Governors removed from leadership."""
        return frozenset(gid for gid, _reason in self.expulsions)

    # -- finalisation -------------------------------------------------------

    def finalize(self) -> None:
        """Close the books: pack what an argue admitted in a closing round,
        reveal every pending truth, run the harness audit into ``audit_report``."""
        self._close_books("harness", self.topology.r, lambda: self.run_round(()))
