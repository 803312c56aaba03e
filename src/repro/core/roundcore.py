"""The paper's round, written once.

:class:`RoundCore` owns one round of the protocol and nothing else:

1. **Collecting** — workload transactions are signed by their providers
   and delivered to the providers' ``r`` linked collectors.
2. **Uploading** — each collector labels per his behaviour (possibly
   concealing or forging) and uploads to every governor.
3. **Processing** — every governor verifies uploads, screens each
   transaction (its *own* draw, updating its *local* reputations) and
   keeps the record until a block holds it; the round leader — elected
   via the VRF/PoS scheme — packs the records it keeps (behind any
   re-validated after argues; :meth:`RoundCore._pack`) into the block,
   which every governor appends (Agreement by construction, as the
   paper assumes governors do not subvert the chain).
4. **Arguing** — active providers scan the new block and argue about
   valid-but-unchecked-invalid records; admitted argues are re-validated,
   trigger case-3 reputation updates on every governor, and the records
   enter the *next* block.

Two engines drive it.  :class:`~repro.core.protocol.ProtocolEngine`
runs the steps back to back with every hand-off delivered at once, over
a materialised :class:`~repro.network.topology.Topology` or, as the
``stream`` host (:class:`~repro.streaming.app.StreamingApp`), over a
lazy :class:`~repro.streaming.universe.VirtualUniverse`;
``NetworkedProtocolEngine`` puts timed messages between the same steps,
so it calls them one at a time (``_begin_round``, ``_originate``,
``_pack``, ``_argue_scan``).  Both close a round by
:meth:`RoundCore._close_round` — the reward from the leader's book and
one :class:`RunRecord` — and return one :class:`RoundResult`; both end a
run by :meth:`RoundCore._close_books`, their own round as the closing one.

Both engines therefore run every feature the round has: the population's
partial view (paper §3.1; each governor ingests only the uploads of the
collectors its ``Governor.view`` names), providers whose behaviour is
:class:`~repro.agents.behaviors.ArgueAbuse`, and the governors' stake
transfer with the expulsion of a tampering leader (§3.4.3,
:meth:`RoundCore.transfer_stake`).

Draw order is part of the contract: enrolment draws keys providers →
collectors → governors, as every seeded ledger pinned in
``tests/golden_matrix.json`` expects.  Agents hold no stream: each draw
is keyed by the run seed, the agent and the transaction
(:func:`repro.rng.keyed_draws`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from repro.agents.behaviors import ArgueAbuse, CollectorBehavior, HonestBehavior
from repro.agents.collector import Collector
from repro.agents.governor import Governor
from repro.agents.provider import Provider
from repro.audit.auditor import AuditReport, SafetyAuditor, harness_audit
from repro.consensus.messages import NewStateProposal
from repro.consensus.pos import LeaderElection
from repro.consensus.stake import StakeLedger, make_transfer
from repro.consensus.stake_consensus import StakeConsensusRound, make_proposal
from repro.core.params import ProtocolParams
from repro.core.rewards import distribute_rewards
from repro.crypto.identity import IdentityManager, Role
from repro.exceptions import ConfigurationError, LeaderMisbehaviourError
from repro.ledger.block import Block
from repro.ledger.properties import BROADCAST, HONEST_VALID, RunTranscript
from repro.ledger.transaction import LabeledTransaction, SignedTransaction, TxRecord
from repro.ledger.validation import CountingOracle, GroundTruthOracle
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:
    # repro.workloads imports the engines; a runtime import would cycle.
    from repro.workloads.generator import TxSpec

__all__ = ["RoundCore", "RoundResult", "RunRecord"]


def _reject_unknown(what: str, supplied: Iterable[str], role: str, known: Iterable[str]) -> None:
    unknown = set(supplied).difference(known)
    if unknown:
        raise ConfigurationError(f"{what} for unknown {role}: {sorted(unknown)}")


@dataclass
class RoundResult:
    """What one round did, on every engine."""

    #: Carries the round number and the leader (its proposer).
    block: Block
    transactions_offered: int
    #: Argue messages providers raised after the block.
    argues: int
    #: Records an argue admitted since the pack, queued for the next block.
    argues_admitted: int
    forged: int
    #: The round's collector uploads (zero-latency rounds only): the
    #: car-sharing dispatcher reads driver willingness from their labels.
    uploads: Sequence[LabeledTransaction] = ()
    #: collector id -> reward paid from the leader's book; None until
    #: :meth:`RoundCore._close_round` pays it.
    rewards: Mapping[str, float] | None = field(default=None, init=False)


@dataclass
class RunRecord:
    """Run-level counters over the rounds an engine closed (``engine.metrics``)."""

    rounds: int = 0
    transactions_offered: int = 0
    argues_total: int = 0
    forged_uploads: int = 0
    rewards_paid: dict[str, float] = field(default_factory=dict)


class RoundCore:
    """State and steps of one protocol round, shared by every engine.

    Subclasses set ``store`` (a :class:`~repro.ledger.store.BlockStore`
    or its durable twin) and own whatever surrounds the round.
    """

    #: The run record's type: a host that counts more extends it.
    run_record = RunRecord

    def __init__(self, params: ProtocolParams, seed: int, obs: MetricsRegistry | None):
        self.params = params
        self.seed = seed
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.im = IdentityManager(seed=seed, obs=self.obs)
        self.transcript = RunTranscript()
        # One entry per offered id: the truth is two bits of its flags.
        self.oracle = GroundTruthOracle(self.transcript.flags)
        self.providers: dict[str, Provider] = {}
        self.collectors: dict[str, Collector] = {}
        self.governors: dict[str, Governor] = {}
        self._round = 0
        # Records admitted by an argue, awaiting the next block.
        self._reevaluated_queue: dict[str, TxRecord] = {}
        # gid -> records it screened that no block holds yet.
        self._kept: dict[str, list[TxRecord]] = {}
        self._stake_nonce = 0
        self._byzantine: set[str] = set()
        #: (governor, reason) per expulsion, in order.
        self.expulsions: list[tuple[str, str]] = []
        #: The deployment's one harness auditor (see :meth:`_close_round`
        #: and :meth:`reveal_pending`).
        self.harness_auditor = SafetyAuditor("harness", im=None, obs=self.obs)
        # The round the Theorem-1 guardrail last ran at.
        self._guarded_round: int | None = None

    def _register_engine_metrics(self) -> None:
        """Open the run record ``metrics`` and the ``engine_*`` family that
        reads it, with the one histogram (see OBSERVABILITY.md)."""
        record = self.metrics = self.run_record()
        self.obs.counter(
            "engine_rounds_total", "Protocol rounds executed", read=lambda: record.rounds
        )
        self.obs.counter(
            "engine_tx_offered_total",
            "Workload transactions offered to providers",
            read=lambda: record.transactions_offered,
        )
        self.obs.counter(
            "engine_argues_total",
            "Argue messages raised by providers",
            read=lambda: record.argues_total,
        )
        self._m_block_size = self.obs.histogram(
            "engine_block_size",
            "Records packed per block",
            buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )

    # -- enrolment ---------------------------------------------------------

    def _enroll(
        self,
        population,
        behaviors: Mapping[str, CollectorBehavior | ArgueAbuse] | None,
        stake: Mapping[str, int] | None = None,
    ) -> None:
        """Enrol every agent in role order, then open the PoS ledger.

        ``population`` (a ``Topology`` or a ``VirtualUniverse``) names the
        agents and links: its ``providers`` are enrolled now — none for a
        streaming population, which enrols on arrival — and each
        governor's books register the memberships (``providers_of``: a
        tuple, or a lazy view) of the collectors its ``view`` row names.
        ``behaviors`` maps a collector to a ``CollectorBehavior`` and a
        provider to an ``ArgueAbuse``.  ``stake`` defaults to one unit each.
        """
        collectors, governors = population.collectors, population.governors
        behaviors = behaviors or {}
        initial_stake = dict(stake) if stake else {g: 1 for g in governors}
        providers = set(population.providers)
        _reject_unknown("behaviours", behaviors, "collectors or providers",
                        providers.union(collectors))
        for aid, behavior in behaviors.items():
            if isinstance(behavior, ArgueAbuse) != (aid in providers):
                role = "provider" if aid in providers else "collector"
                raise ConfigurationError(
                    f"behaviour {type(behavior).__name__} given to {role} {aid!r}"
                )
        _reject_unknown("stake", initial_stake, "governors", governors)
        keys = {pid: self.im.enroll(pid, Role.PROVIDER) for pid in population.providers}
        for cid in collectors:
            key = self.im.enroll(cid, Role.COLLECTOR)
            self.collectors[cid] = Collector(
                collector_id=cid,
                key=key,
                linked_providers=population.providers_of(cid),
                behavior=behaviors.get(cid, HonestBehavior()),
                seed=self.seed,
            )
        for gid in governors:
            key = self.im.enroll(gid, Role.GOVERNOR)
            governor = Governor(
                governor_id=gid,
                key=key,
                params=self.params,
                im=self.im,
                oracle=CountingOracle(inner=self.oracle),
                seed=self.seed,
                obs=self.obs,
            )
            governor.register_topology(population)
            self.governors[gid] = governor
            self._kept[gid] = []
        for pid, key in keys.items():
            linked = population.collectors_of(pid)
            for cid in linked:
                self.im.register_link(cid, pid)
            abuse = behaviors.get(pid)
            rate = 0.0 if abuse is None else abuse.rate
            self.providers[pid] = Provider(
                provider_id=pid, key=key, linked_collectors=linked, argue_abuse_rate=rate,
                seed=self.seed,
            )
        self.stake = StakeLedger.from_balances(initial_stake)
        self.election = LeaderElection(im=self.im, governor_order=list(governors))

    # -- the round's steps ---------------------------------------------------

    def _begin_round(self, specs: Sequence[TxSpec]) -> int:
        """Admit a batch against ``b_limit`` and advance the round counter."""
        if len(specs) + len(self._reevaluated_queue) > self.params.b_limit:
            raise ConfigurationError(
                f"round batch of {len(specs)} plus {len(self._reevaluated_queue)} "
                f"re-evaluated records exceeds b_limit={self.params.b_limit}"
            )
        self._round += 1
        return self._round

    def _originate(
        self,
        specs: Sequence[TxSpec],
        provider_of: Callable[[str], Provider],
        timestamp: float,
    ) -> list[tuple[Provider, SignedTransaction]]:
        """Collecting: each spec's provider signs, the oracle learns the truth."""
        originated = []
        flags = self.transcript.flags
        for spec in specs:
            provider = provider_of(spec.provider)
            tx = provider.create_transaction(spec.payload, timestamp)
            self.oracle.assign(tx, spec.is_valid)
            flags[tx.tx_id] |= (
                BROADCAST | HONEST_VALID if spec.is_valid and provider.active else BROADCAST
            )
            originated.append((provider, tx))
        return originated

    def _pack(
        self, leader_id: str, prev_hash: bytes, ahead: Iterable[TxRecord], round_number: int
    ) -> Block:
        """The one pack step: the re-evaluated queue, then ``ahead`` (a
        shard engine's receipts), then the leader's kept records, each
        transaction once and cut to ``b_limit``.  Publishes the block and
        unkeeps, on every governor, what it holds."""
        records: dict[str, TxRecord] = {}
        for record in chain(self._reevaluated_queue.values(), ahead, self._kept[leader_id]):
            records.setdefault(record.tx.tx_id, record)
        self._reevaluated_queue.clear()
        block = Block(
            serial=self.store.height + 1,
            tx_list=tuple(islice(records.values(), self.params.b_limit)),
            prev_hash=prev_hash,
            proposer=leader_id,
            round_number=round_number,
            b_limit=self.params.b_limit,
        )
        self.store.publish(block)
        self._unkeep(block)
        return block

    def _unkeep(self, block: Block) -> None:
        """Drop from every governor's kept records what ``block`` holds."""
        held = {record.tx.tx_id for record in block.tx_list}
        for kept in self._kept.values():
            if kept:
                kept[:] = [r for r in kept if r.tx.tx_id not in held]

    def _argue_scan(self) -> Iterator[tuple[str, str, int]]:
        """Active providers read their unread blocks: ``(provider, tx, serial)``
        per argue, lazily — the caller handles one before the next is found."""
        for provider in self.providers.values():
            fresh = self.store.next_for(provider.provider_id)
            while fresh is not None:
                for tx_id in provider.review_block(fresh, self.oracle):
                    yield provider.provider_id, tx_id, fresh.serial
                fresh = self.store.next_for(provider.provider_id)

    def _close_round(self, result: RoundResult) -> RoundResult:
        """Close a round on every host: pay the reward from the leader's
        book into ``result.rewards``, add the round to the run record,
        observe the block's size, and run the harness sweep (each live
        governor's book, agreement among their ledgers)."""
        block = result.block
        result.rewards = distribute_rewards(self.params, self.governors[block.proposer].book)
        record = self.metrics
        paid = record.rewards_paid
        for cid, amount in result.rewards.items():
            paid[cid] = paid.get(cid, 0.0) + amount
        record.rounds += 1
        record.transactions_offered += result.transactions_offered
        record.argues_total += result.argues
        record.forged_uploads += result.forged
        self._m_block_size.observe(float(len(block.tx_list)))
        for collector in self.collectors.values():  # a counting behaviour's hook
            if hasattr(collector.behavior, "end_round"):
                collector.behavior.end_round()
        harness_audit(self.harness_auditor, self._live_governors(), self._round)
        return result

    def _live_governors(self) -> list[Governor]:
        """The governors the harness audits: all of them, on this host."""
        return list(self.governors.values())

    # -- stake transfers and expulsion (paper §3.4.3) -------------------------

    def transfer_stake(self, sender: str, receiver: str, amount: int) -> int:
        """Run a stake transfer through the 3-step consensus.

        A leader marked Byzantine (see :meth:`mark_byzantine_governor`)
        proposes a tampered NEW_STATE; honest governors broadcast expel
        evidence, the leader is removed from future elections, and the
        round re-runs under a new leader — the expulsion flow the paper
        adopts from CycLedger.  The exchange runs in memory
        (:class:`~repro.consensus.stake_consensus.StakeConsensusRound`),
        not as network messages.

        Returns the number of governor messages the exchange took, a
        tampered attempt included; E7 reports it for an honest and a
        Byzantine leader.
        """
        key = self.im.record(sender).key
        transfer = make_transfer(key, receiver, amount, self._stake_nonce)
        self._stake_nonce += 1
        total_messages = 0
        for _attempt in range(len(self.governors)):
            leader = self.election.run(self.stake, self._round + 1)
            consensus = StakeConsensusRound(im=self.im, governors=list(self.governors))
            tampered = None
            if leader in self._byzantine:
                honest = make_proposal(self.im.record(leader).key, 0, self.stake, [transfer])
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
                consensus.run(leader, self.stake, [transfer], tampered_proposal=tampered)
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

    # -- closing the books -------------------------------------------------

    def reveal_pending(self) -> None:
        """Reveal every pending unchecked truth (Theorem 1 assumes all real
        states are revealed "sometime"), so loss metrics cover the full
        stream, then check the Theorem-1 guardrail: a loss only grows and
        the bound has no ``T``, so this one check is as strong as one per
        round.  Closing again with no new round adds no check."""
        for governor in self.governors.values():
            governor.reveal_pending(self.oracle)
        losses = [governor.metrics.expected_loss for governor in self._live_governors()]
        if losses and self._guarded_round != self._round:
            self._guarded_round = self._round
            self.harness_auditor.audit_regret(
                max(losses),
                r=self.topology.r,
                beta=self.params.beta,
                round_number=self._round,
                s_min=0.0,  # the paper's premise: one well-behaved collector
            )

    def _close_books(self, closing_round: Callable[[], object]) -> None:
        """The closing rule of every host: while an argue-admitted record
        waits for "the next block", run ``closing_round`` (the host's own
        round on no specs); then reveal pending truths.  It ends: a block
        packs the whole queue, and a transaction is argued at most once."""
        while self._reevaluated_queue:
            closing_round()
        self.reveal_pending()

    # -- accessors ---------------------------------------------------------

    @property
    def round_number(self) -> int:
        """Rounds executed so far."""
        return self._round

    @property
    def audit_report(self) -> AuditReport:
        """The harness auditor's verdicts so far."""
        return self.harness_auditor.report

    def ledgers(self) -> list:
        """Every governor's ledger replica (for property checks)."""
        return [g.ledger for g in self.governors.values()]

    def close(self) -> None:
        """Release what the deployment holds outside the process (nothing here)."""

    @property
    def committed_total(self) -> int:
        """Origin (non-receipt) records in the committed blocks."""
        store = self.store
        blocks = map(store.retrieve, range(store.base_serial + 1, store.height + 1))
        return sum("xshard_receipt" not in r.tx.body.payload for b in blocks for r in b.tx_list)

    def tip_hashes(self) -> list[str]:
        """The chain's tip hash, as the one shard of a sharded deployment."""
        return [self.store.tip_hash().hex()]

    def collector_masses(self) -> dict[str, float]:
        """Each registered collector's reputation mass (mean over governors).

        A collector's mass at one governor is the sum of its per-provider
        weights; averaging across governors gives the shard-assignment
        signal (RepChain-style reputation-balanced sharding) without
        privileging any single governor's book.
        """
        masses: dict[str, list[float]] = {}
        for governor in self.governors.values():
            book = governor.book
            for cid in book.collectors():
                mass = float(sum(book.vector(cid).provider_weights.values()))
                masses.setdefault(cid, []).append(mass)
        return {cid: sum(masses[cid]) / len(masses[cid]) for cid in sorted(masses)}
