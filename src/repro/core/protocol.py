"""The full protocol engine: collecting, uploading, processing, arguing.

:class:`ProtocolEngine` wires the whole hierarchy together — Identity
Manager, topology, provider/collector/governor agents, PoS leader
election, block store, reward distribution, optional stake-transform
consensus — and executes the round of :mod:`repro.core.roundcore` with
every hand-off delivered at once.  It is the one zero-latency engine:
the ``stream`` host (:class:`~repro.streaming.app.StreamingApp`) is this
engine over a lazy population.  It counts no messages; the networked
engine's network counters are the packet-level record.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.agents.behaviors import CollectorBehavior
from repro.audit.auditor import harness_audit
from repro.consensus.stake import make_transfer
from repro.consensus.messages import NewStateProposal
from repro.consensus.stake_consensus import StakeConsensusRound, make_proposal
from repro.core.params import ProtocolParams
from repro.core.roundcore import RoundCore, RoundResult
from repro.exceptions import ConfigurationError, LeaderMisbehaviourError
from repro.ledger.properties import UPLOADED
from repro.ledger.store import BlockStore
from repro.ledger.transaction import LabeledTransaction, TxRecord
from repro.network.topology import Topology
from repro.network.visibility import VisibilityMap
from repro.obs.registry import MetricsRegistry
from repro.workloads.generator import TxSpec

__all__ = ["ProtocolEngine"]


class ProtocolEngine(RoundCore):
    """In-process execution of the full three-tier protocol.

    Args:
        topology: The provider/collector/governor link structure: a
            :class:`~repro.network.topology.Topology`, or a population
            that answers the same questions lazily.
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
        # Harness-level AuditReport, filled by finalize().
        self.audit_report = None
        self._register_engine_metrics()
        self._enroll(topology, behaviors, stake, abusive_providers)
        self._stake_nonce = 0
        self._byzantine: set[str] = set()
        self.expulsions: list[tuple[str, str]] = []

    # -- round execution -------------------------------------------------

    def run_round(self, specs: Sequence[TxSpec]) -> RoundResult:
        """Execute one full round over the given workload batch, every
        hand-off delivered at once."""
        round_number = self._begin_round(specs)
        timestamp = float(round_number)

        # Collecting and uploading: every linked collector labels.
        uploads: list[LabeledTransaction] = []
        flags = self.transcript.flags
        for provider, tx in self._originate(specs, self.providers.__getitem__, timestamp):
            for cid in provider.linked_collectors:
                for labeled in self.collectors[cid].process_all(tx, self.oracle):
                    uploads.append(labeled)
                    flags[tx.tx_id] |= UPLOADED
        # Forgery opportunities: once per collector per round.
        forged = 0
        for collector in self.collectors.values():
            upload = collector.maybe_forge(timestamp)
            if upload is not None:
                uploads.append(upload)
                forged += 1

        # Processing: every governor screens independently (own draws,
        # own book) what its view receives; the leader's records become
        # the block.
        leader_id = self.election.run(self.stake, round_number)
        visibility = self.visibility
        leader_records: list[TxRecord] = []
        for gid, governor in self.governors.items():
            for upload in uploads:
                if visibility is None or visibility.sees(gid, upload.collector):
                    governor.ingest_upload(upload)
            records = governor.screen_pending()
            if gid == leader_id:
                leader_records = records
        prev_hash = self.governors[leader_id].ledger.tip_hash()
        block = self._pack(leader_id, prev_hash, leader_records, round_number)
        for governor in self.governors.values():
            governor.ledger.append(block)

        # Arguing: an admitted argue is re-validated by every governor
        # (case-3 update) and its record enters the next block.
        argues = 0
        for _provider, tx_id, _serial in self._argue_scan():
            argues += 1
            admitted: TxRecord | None = None
            for governor in self.governors.values():
                record = governor.handle_argue(tx_id)
                if record is not None:
                    admitted = record
            if admitted is not None:
                self._reevaluated_queue[tx_id] = admitted
        return self._close_round(RoundResult(
            block, len(specs), argues, len(self._reevaluated_queue), forged, uploads
        ))

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
            leader = self.election.run(self.stake, self._round + 1)
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
            return total_messages + consensus.messages_exchanged
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
        reveal every pending truth, then audit replica agreement and the
        Theorem-1 regret into ``audit_report``."""
        # The engine's own round: a host's run_round may add load (the
        # stream host's arrivals), and a closing round takes none.
        self._close_books(lambda: ProtocolEngine.run_round(self, ()))
        self.audit_report = harness_audit(
            "harness",
            self.ledgers(),
            list(self.governors.values()),
            r=self.topology.r,
            beta=self.params.beta,
            round_number=self._round,
            s_min=0.0,  # the paper's premise: one well-behaved collector
            obs=self.obs,
        )
