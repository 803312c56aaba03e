"""The paper's round, written once.

:class:`RoundCore` owns one round of the protocol and nothing else:

1. **Collecting** — workload transactions are signed by their providers
   and delivered to the providers' ``r`` linked collectors.
2. **Uploading** — each collector labels per his behaviour (possibly
   concealing or forging) and uploads to every governor.
3. **Processing** — every governor verifies uploads and screens each
   transaction (its *own* draw, updating its *local* reputations); the
   round leader — elected via the VRF/PoS scheme — packs *his* records
   (plus any transactions re-validated after argues) into the block,
   which every governor appends (Agreement by construction, as the
   paper assumes governors do not subvert the chain).
4. **Arguing** — active providers scan the new block and argue about
   valid-but-unchecked-invalid records; admitted argues are re-validated,
   trigger case-3 reputation updates on every governor, and the records
   enter the *next* block.

The engines are shells around it.  ``ProtocolEngine`` and
``StreamingApp`` run :meth:`RoundCore._run_zero_latency_round`;
``NetworkedProtocolEngine`` puts timed messages between the same steps,
so it calls them one at a time (``_begin_round``, ``_originate``,
``_pack``, ``_argue_scan``, ``_reveal_pending``).

What differs between the shells enters the shared body as a plain
callable (provider lookup, upload visibility, leader choice); the body
never asks which shell called it.  Draw order is part of the contract:
enrolment draws keys providers → collectors → governors and RNG seeds
collectors → governors → abusive providers, as every seeded ledger
pinned in ``tests/golden_matrix.json`` expects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from repro.agents.behaviors import CollectorBehavior, HonestBehavior
from repro.agents.collector import Collector
from repro.agents.governor import Governor
from repro.agents.provider import Provider
from repro.audit.auditor import harness_audit
from repro.consensus.pos import LeaderElection
from repro.consensus.stake import StakeLedger
from repro.core.params import ProtocolParams
from repro.crypto.identity import IdentityManager, Role
from repro.exceptions import ConfigurationError
from repro.ledger.block import Block
from repro.ledger.properties import BROADCAST, HONEST_VALID, UPLOADED, RunTranscript
from repro.ledger.transaction import LabeledTransaction, SignedTransaction, TxRecord
from repro.ledger.validation import CountingOracle, GroundTruthOracle
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.rng import Generator, default_rng

if TYPE_CHECKING:
    # repro.workloads imports the engines; a runtime import would cycle.
    from repro.workloads.generator import TxSpec

__all__ = ["RoundCore", "ZeroLatencyRound"]


def _reject_unknown(what: str, supplied: Iterable[str], role: str, known: Iterable[str]) -> None:
    unknown = set(supplied).difference(known)
    if unknown:
        raise ConfigurationError(f"{what} for unknown {role}: {sorted(unknown)}")


@dataclass
class ZeroLatencyRound:
    """What one zero-latency round did, for the caller's accounting."""

    #: Carries the round number and the leader (its proposer).
    block: Block
    uploads: list[LabeledTransaction]
    #: provider → collector deliveries (one per linked collector per tx).
    deliveries: int
    forged: int
    argues: int
    argues_admitted: int


class RoundCore:
    """State and steps of one protocol round, shared by every engine.

    Subclasses set ``store`` (a :class:`~repro.ledger.store.BlockStore`
    or its durable twin) and own whatever surrounds the round.
    """

    def __init__(self, params: ProtocolParams, seed: int, obs: MetricsRegistry | None):
        self.params = params
        self.seed = seed
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.im = IdentityManager(seed=seed, obs=self.obs)
        self.oracle = GroundTruthOracle()
        self.transcript = RunTranscript()
        self.providers: dict[str, Provider] = {}
        self.collectors: dict[str, Collector] = {}
        self.governors: dict[str, Governor] = {}
        self._round = 0
        # Records admitted by an argue, awaiting the next block.
        self._reevaluated_queue: dict[str, TxRecord] = {}
        self._master = default_rng(seed)

    def _register_engine_metrics(self, rounds, offered, argues) -> None:
        """The ``engine_*`` family: three readers off the subclass's own
        record, and the one histogram (see OBSERVABILITY.md)."""
        self.obs.counter("engine_rounds_total", "Protocol rounds executed", read=rounds)
        self.obs.counter(
            "engine_tx_offered_total",
            "Workload transactions offered to providers",
            read=offered,
        )
        self.obs.counter(
            "engine_argues_total", "Argue messages raised by providers", read=argues
        )
        self._m_block_size = self.obs.histogram(
            "engine_block_size",
            "Records packed per block",
            buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )

    # -- enrolment ---------------------------------------------------------

    def draw_rng(self) -> Generator:
        """An agent's private RNG, seeded by the next master draw."""
        return default_rng(self._master.integers(2**63))

    def _enroll(
        self,
        population,
        providers: Sequence[str],
        members_of: Callable[[str], Sequence[str]],
        register_books: Callable[[Governor], None],
        behaviors: Mapping[str, CollectorBehavior] | None,
        stake: Mapping[str, int] | None = None,
        abuse_rates: Mapping[str, float] | None = None,
    ) -> None:
        """Enrol every agent in role order, then open the PoS ledger.

        ``population`` (a ``Topology`` or a ``VirtualUniverse``) names the
        collectors and governors and maps a provider to its collectors.
        ``providers`` are enrolled now — none for a streaming population,
        which enrols on arrival — and get their links registered;
        ``members_of(cid)`` is a collector's provider membership (a
        tuple, or a lazy view); ``register_books`` creates a governor's
        reputation vectors; ``stake`` defaults to one unit each.
        """
        collectors, governors = population.collectors, population.governors
        behaviors = behaviors or {}
        abuse_rates = abuse_rates or {}
        initial_stake = dict(stake) if stake else {g: 1 for g in governors}
        _reject_unknown("behaviours", behaviors, "collectors", collectors)
        _reject_unknown("abuse rates", abuse_rates, "providers", providers)
        _reject_unknown("stake", initial_stake, "governors", governors)
        keys = {pid: self.im.enroll(pid, Role.PROVIDER) for pid in providers}
        for cid in collectors:
            key = self.im.enroll(cid, Role.COLLECTOR)
            self.collectors[cid] = Collector(
                collector_id=cid,
                key=key,
                linked_providers=members_of(cid),
                behavior=behaviors.get(cid, HonestBehavior()),
                rng=self.draw_rng(),
            )
        for gid in governors:
            key = self.im.enroll(gid, Role.GOVERNOR)
            governor = Governor(
                governor_id=gid,
                key=key,
                params=self.params,
                im=self.im,
                oracle=CountingOracle(inner=self.oracle),
                rng=self.draw_rng(),
                obs=self.obs,
            )
            register_books(governor)
            self.governors[gid] = governor
        # Abuse RNGs come last, so turning abuse on re-seeds no other agent.
        for pid, key in keys.items():
            linked = population.collectors_of(pid)
            for cid in linked:
                self.im.register_link(cid, pid)
            rate = abuse_rates.get(pid, 0.0)
            self.providers[pid] = Provider(
                provider_id=pid, key=key, linked_collectors=linked, argue_abuse_rate=rate,
                abuse_rng=self.draw_rng() if rate > 0.0 else None,
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
            flags[tx.tx_id] = (
                BROADCAST | HONEST_VALID if spec.is_valid and provider.active else BROADCAST
            )
            originated.append((provider, tx))
        return originated

    def _pack(
        self, leader_id: str, prev_hash: bytes, fresh: list[TxRecord], round_number: int
    ) -> Block:
        """Pack re-evaluated records ahead of ``fresh`` and publish the block."""
        records = list(self._reevaluated_queue.values()) + fresh
        self._reevaluated_queue.clear()
        block = Block(
            serial=self.store.height + 1,
            tx_list=tuple(records),
            prev_hash=prev_hash,
            proposer=leader_id,
            round_number=round_number,
            b_limit=self.params.b_limit,
        )
        self.store.publish(block)
        return block

    def _argue_scan(self) -> Iterator[tuple[str, str, int]]:
        """Active providers read their unread blocks: ``(provider, tx, serial)``
        per argue, lazily — the caller handles one before the next is found."""
        for provider in self.providers.values():
            fresh = self.store.next_for(provider.provider_id)
            while fresh is not None:
                for tx_id in provider.review_block(fresh, self.oracle):
                    yield provider.provider_id, tx_id, fresh.serial
                fresh = self.store.next_for(provider.provider_id)

    def _run_zero_latency_round(
        self,
        specs: Sequence[TxSpec],
        provider_of: Callable[[str], Provider],
        sees: Callable[[str, str], bool] | None,
        elect: Callable[[int], str],
    ) -> ZeroLatencyRound:
        """One full round with every hand-off delivered at once.

        ``provider_of`` maps a provider id to its agent (and may create
        it); ``sees(governor, collector)`` says whether the governor
        receives that collector's uploads (None = full view);
        ``elect`` maps the round number to the leader id.
        """
        round_number = self._begin_round(specs)
        timestamp = float(round_number)

        # Collecting and uploading: every linked collector labels.
        uploads: list[LabeledTransaction] = []
        deliveries = 0
        flags = self.transcript.flags
        for provider, tx in self._originate(specs, provider_of, timestamp):
            deliveries += len(provider.linked_collectors)
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
        # own book); the leader's records become the block.
        leader_id = elect(round_number)
        leader_records: list[TxRecord] = []
        for gid, governor in self.governors.items():
            for upload in uploads:
                if sees is None or sees(gid, upload.collector):
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
        argues = argues_admitted = 0
        for _provider, tx_id, _serial in self._argue_scan():
            argues += 1
            admitted: TxRecord | None = None
            for governor in self.governors.values():
                record = governor.handle_argue(tx_id)
                if record is not None:
                    admitted = record
            if admitted is not None:
                argues_admitted += 1
                self._reevaluated_queue[tx_id] = admitted
        return ZeroLatencyRound(
            block, uploads, deliveries, forged, argues, argues_admitted
        )

    # -- closing the books -------------------------------------------------

    def _reveal_pending(self) -> None:
        """Reveal every pending unchecked truth (Theorem 1 assumes all real
        states are revealed "sometime"), so loss metrics cover the full stream."""
        for governor in self.governors.values():
            governor.reveal_pending(self.oracle)

    def _close_books(self, owner: str, r: int, closing_round: Callable[[], object]) -> None:
        """While an argue-admitted record waits for "the next block", run
        ``closing_round`` (the host's round step, offering no specs); then
        reveal pending truths and audit replica agreement and Theorem-1 regret
        into ``audit_report``.  One closing block empties the queue."""
        if self._reevaluated_queue:
            closing_round()
        self._reveal_pending()
        self.audit_report = harness_audit(
            owner,
            self.ledgers(),
            list(self.governors.values()),
            r=r,
            beta=self.params.beta,
            round_number=self._round,
            s_min=0.0,  # the paper's premise: one well-behaved collector
            obs=self.obs,
        )

    # -- accessors ---------------------------------------------------------

    @property
    def round_number(self) -> int:
        """Rounds executed so far."""
        return self._round

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
