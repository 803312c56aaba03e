"""Governor agents — screening, reputation, ledger, argues.

A governor ingests collector uploads (verifying signatures and catching
forgeries — Algorithm 2's top half), screens each transaction after its
Δ window closes (Algorithm 2's ``endtime`` arm), updates reputations
(Algorithm 3), maintains his ledger replica, and serves ``argue``
requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.arguing import ArgueManager
from repro.core.params import ProtocolParams
from repro.core.reputation import ReputationBook
from repro.core.screening import (
    ReportSet,
    ScreeningDecision,
    decision_to_record,
    screen_transaction,
)
from repro.core.updating import apply_checked_update, apply_forge_update, apply_reveal_update
from repro.crypto.identity import IdentityManager
from repro.crypto.signatures import SigningKey
from repro.exceptions import ProtocolViolationError
from repro.ledger.chain import Ledger
from repro.ledger.transaction import (
    CheckStatus,
    Label,
    LabeledTransaction,
    SignedTransaction,
    TxRecord,
)
from repro.ledger.validation import CountingOracle, ValidityOracle
from repro.network.topology import Topology
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.rng import keyed_draws

__all__ = ["GovernorMetrics", "AwaitingTruth", "Governor"]


@dataclass
class GovernorMetrics:
    """What this governor spent and suffered, for the experiments.

    ``expected_loss`` accumulates the theorem's ``L_t`` per unchecked
    transaction; ``realized_loss`` adds 2 per unchecked record whose
    truth later proved the recorded (invalid) label wrong; ``mistakes``
    counts those events.
    """

    uploads_received: int = 0
    forgeries_caught: int = 0
    transactions_screened: int = 0
    validations: int = 0
    unchecked: int = 0
    mistakes: int = 0
    realized_loss: float = 0.0
    expected_loss: float = 0.0
    argues_served: int = 0


@dataclass(slots=True)
class AwaitingTruth:
    """What a governor keeps of an unchecked transaction until its truth
    arrives, by an admitted argue or :meth:`Governor.reveal_truth`.

    ``w_plus`` and ``w_minus`` are the screening-time masses the expected
    loss is booked against.  ``reporters`` are the collectors whose labels
    were screened, in arrival order, the order
    :func:`~repro.core.updating.compute_loss` sums their weights in; bit
    ``i`` of ``valid`` is set iff ``reporters[i]`` labelled it +1.
    """

    tx: SignedTransaction
    w_plus: float
    w_minus: float
    reporters: tuple[str, ...]
    valid: int

    @classmethod
    def of(cls, decision: ScreeningDecision) -> AwaitingTruth:
        """The record of an unchecked decision."""
        valid = 0
        for i, label in enumerate(decision.labels.values()):
            if label is Label.VALID:
                valid |= 1 << i
        return cls(decision.tx, decision.w_plus, decision.w_minus, tuple(decision.labels), valid)

    def labels(self) -> dict[str, Label]:
        """collector -> label, in arrival order."""
        return {
            collector: Label.VALID if self.valid >> i & 1 else Label.INVALID
            for i, collector in enumerate(self.reporters)
        }

    def drop(self, collector: str) -> None:
        """Forget a reporter's label (it was churned out)."""
        i = self.reporters.index(collector)
        self.reporters = self.reporters[:i] + self.reporters[i + 1:]
        self.valid = (self.valid & ((1 << i) - 1)) | ((self.valid >> (i + 1)) << i)


@dataclass
class Governor:
    """One governor node.

    Attributes:
        governor_id: Node id.
        key: Signing credential.
        params: Protocol parameters in force.
        im: Identity Manager handle for ``verify``.
        oracle: The governor's ``validate`` — wrapped in a
            :class:`CountingOracle` so validation cost is measured.
        seed: The run seed, which keys the governor's screening draws
            (:func:`repro.rng.keyed_draws`).
        obs: Metrics registry shared with the engine (the ``gov_*``
            family, labeled by governor id; see OBSERVABILITY.md).
    """

    governor_id: str
    key: SigningKey
    params: ProtocolParams
    im: IdentityManager
    oracle: CountingOracle
    seed: int
    obs: MetricsRegistry = field(default_factory=lambda: NULL_REGISTRY)
    book: ReputationBook = field(init=False)
    ledger: Ledger = field(init=False)
    argues: ArgueManager = field(init=False)
    metrics: GovernorMetrics = field(default_factory=GovernorMetrics)
    # tx_id -> (tx, {collector: label}) for the current round
    _received: dict[str, tuple[SignedTransaction, dict[str, Label]]] = field(
        default_factory=dict, repr=False
    )
    # tx_id -> what an unchecked transaction keeps until its truth arrives
    _pending_unchecked: dict[str, AwaitingTruth] = field(
        default_factory=dict, repr=False
    )
    #: The collectors whose uploads this governor receives (its row of the
    #: topology's view); None is the full view.
    view: frozenset[str] | None = field(default=None, init=False, repr=False)
    _linked: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)
    # The view less the collectors churned out since.
    _visible: frozenset[str] = field(default=frozenset(), repr=False)

    def __post_init__(self) -> None:
        if self.key.owner != self.governor_id:
            raise ValueError(
                f"key owner {self.key.owner!r} != governor {self.governor_id!r}"
            )
        self.book = ReputationBook(
            governor=self.governor_id,
            initial=self.params.initial_reputation,
            obs=self.obs,
        )
        self.ledger = Ledger(owner=self.governor_id)
        self.argues = ArgueManager(window=self.params.argue_window)
        gid, m = self.governor_id, self.metrics
        self.obs.counter(
            "gov_screenings_total",
            "Transactions screened, by governor and outcome",
            labels=("governor", "outcome"),
            read=lambda: {
                (gid, "checked"): m.transactions_screened - m.unchecked,
                (gid, "unchecked"): m.unchecked,
            },
        )
        self.obs.gauge(
            "gov_unchecked_ratio",
            "Running unchecked fraction per governor (Lemma 2 bounds E[.] by f)",
            labels=("governor",),
            read=lambda: {
                gid: m.unchecked / m.transactions_screened
                if m.transactions_screened
                else 0.0
            },
        )
        for name, field_name, help in (
            ("gov_forgeries_total", "forgeries_caught", "Forged uploads caught"),
            ("gov_argues_served_total", "argues_served",
             "Admitted argue calls re-validated"),
            ("gov_mistakes_total", "mistakes",
             "Unchecked records whose revealed truth contradicted the label"),
        ):
            self.obs.counter(
                name, help, labels=("governor",),
                read=lambda f=field_name: {gid: getattr(m, f)},
            )

    # -- setup ----------------------------------------------------------

    def register_topology(self, topology: Topology) -> None:
        """Create reputation vectors for the collectors this governor sees.

        Args:
            topology: The link structure: a :class:`Topology`, or a
                :class:`~repro.streaming.universe.VirtualUniverse`, which
                answers ``providers_of`` with a lazy membership view and
                names no provider up front, so :meth:`link_provider` adds
                each on its first arrival and governor memory is bounded
                by the *active* provider set.  Its ``view`` row for this
                governor (paper §3.1: "a governor may only perceive
                partial information") becomes :attr:`view`.  The
                per-provider linked set — the universe over which the
                silent mass ``W_0`` is computed — is intersected with
                the view, since a governor cannot fault a collector he
                never hears from.
        """
        view = topology.view
        self.view = None if view is None else frozenset(view[self.governor_id])
        self._visible = frozenset(
            c for c in topology.collectors if self.view is None or c in self.view
        )
        for collector in topology.collectors:
            if collector in self._visible:
                self.book.register_collector(collector, topology.providers_of(collector))
        self._linked = {}
        for provider in topology.providers:
            self.link_provider(provider, topology.collectors_of(provider))

    def link_provider(self, provider: str, collectors: tuple[str, ...]) -> None:
        """Record a (lazily instantiated) provider's linked collector set."""
        self._linked[provider] = tuple(c for c in collectors if c in self._visible)

    def unlink_provider(self, provider: str) -> None:
        """Forget a retired provider's linked set (frees active-set memory).

        Reputation overrides for the provider stay in the book —
        membership is universe-based, so a late truth reveal after the
        provider re-arrives (or even while retired) still finds its
        weights; only the O(active) link map shrinks.
        """
        self._linked.pop(provider, None)

    # -- collector churn (crash retirement / re-admission) ----------------

    def drop_collector(self, collector: str) -> None:
        """Retire a collector: remove its vector and scrub buffered labels.

        Used when a crashed collector is churned out.  Buffered labels
        from it are scrubbed so screening never looks up a weight the
        book no longer holds; a transaction left with no reports is
        dropped entirely (its armed Δ timer no-ops).  The collector is
        also removed from every provider's linked set, so it stops
        contributing silent mass ``W_0``.
        """
        self.book.retire_collector(collector)
        self._visible -= {collector}
        self._linked = {
            provider: tuple(c for c in linked if c != collector)
            for provider, linked in self._linked.items()
        }
        for tx_id in list(self._received):
            _tx, labels = self._received[tx_id]
            if collector in labels:
                del labels[collector]
                if not labels:
                    del self._received[tx_id]
        # Records awaiting their truth must be scrubbed too: a reveal
        # after the churn would otherwise look up the retired collector's
        # weight in a book that no longer holds it.  A record left with
        # no reporter is kept, so that an argue about it is still served;
        # its truth has nobody to update.
        for record in self._pending_unchecked.values():
            if collector in record.reporters:
                record.drop(collector)

    def last_reports(self, collector: str) -> list[str]:
        """Buffered transactions :meth:`drop_collector` would forget for good:
        ``collector``'s is the only report held, and no other collector is
        linked with the provider who could still send one."""
        return [
            tx_id
            for tx_id, (tx, labels) in self._received.items()
            if list(labels) == [collector]
            and all(c == collector for c in self._linked.get(tx.provider, ()))
        ]

    def admit_collector(self, collector: str, providers: Iterable[str]) -> None:
        """Re-admit a churned collector under the membership churn rules.

        Its vector starts at the incumbents' median
        (:meth:`repro.core.reputation.ReputationBook.readmit_collector`);
        the collector rejoins the linked sets of exactly ``providers``.
        A collector outside this governor's view is not admitted.
        """
        if self.view is not None and collector not in self.view:
            return
        providers = tuple(providers)
        self.book.readmit_collector(collector, providers)
        self._visible |= {collector}
        self._linked = {
            provider: (
                linked + (collector,)
                if provider in providers and collector not in linked
                else linked
            )
            for provider, linked in self._linked.items()
        }

    def crash_reset(self) -> None:
        """Model a crash-stop: volatile screening state is lost.

        The ledger (durable storage) survives; the in-memory report
        buffer does not.  Records awaiting their truth survive too — they
        are reconstructable from the ledger's unchecked records.
        """
        self._received.clear()

    # -- upload ingestion (Algorithm 2, deliver arm) ----------------------

    def ingest_upload(self, upload: LabeledTransaction, buffer: bool = True) -> bool:
        """Verify and buffer one collector upload.

        Performs the paper's ``verify(c_i, Tx)``: the collector's
        signature over (tx, label), the embedded provider signature, and
        the collector-provider link.  A failed embedded-provider check is
        a *forgery* — case-1 reputation update; a failed collector
        signature is simply dropped (cannot be attributed).  With
        ``buffer`` false (the transaction is screened already) the upload
        is checked and then dropped.

        Returns:
            True if buffered for screening.
        """
        self.metrics.uploads_received += 1
        if not self.book.is_registered(upload.collector):
            # Churned out (e.g. retired after a crash): late in-flight
            # uploads from it carry no reputation standing and are
            # dropped before any attribution is attempted.
            return False
        tx, label = upload.parse()
        # The IM keeps each verdict on the record it checked: every
        # governor checks them, only the first pays.
        if not self.im.verify(upload):
            return False
        if not (self.im.verify(tx) and self.im.is_linked(upload.collector, tx.provider)):
            apply_forge_update(self.book, upload.collector)
            self.metrics.forgeries_caught += 1
            return False
        if not buffer:
            return False
        _tx, labels = self._received.setdefault(tx.tx_id, (tx, {}))
        if upload.collector in labels:
            # Duplicate upload from the same collector: keep the first
            # (atomic broadcast makes later copies replays).
            return False
        labels[upload.collector] = label
        return True

    # -- screening (Algorithm 2, endtime arm) ----------------------------

    def screen_single(self, tx_id: str) -> TxRecord | None:
        """Screen one buffered transaction (Algorithm 2's ``endtime(tx)``).

        Used by the networked engine, whose per-transaction Δ timers fire
        independently.  Applies case-2 reputation updates for checked
        transactions and registers unchecked ones with the argue manager.

        Raises:
            ProtocolViolationError: ``tx_id`` is not buffered.
        """
        entry = self._received.pop(tx_id, None)
        if entry is None:
            raise ProtocolViolationError(f"no buffered reports for tx {tx_id}")
        tx, labels = entry
        reports = ReportSet(
            tx=tx,
            provider=tx.provider,
            labels=labels,
            linked_collectors=self._linked.get(tx.provider, tuple(sorted(labels))),
        )
        rng = keyed_draws(self.seed, self.governor_id, tx.body.digest)
        decision = screen_transaction(self.params, self.book, reports, self.oracle.validate, rng)
        self.metrics.transactions_screened += 1
        if decision.checked:
            self.metrics.validations += 1
            true_label = Label.from_bool(bool(decision.validation_result))
            apply_checked_update(self.book, decision.labels, true_label)
        else:
            self.metrics.unchecked += 1
            self._pending_unchecked[tx_id] = AwaitingTruth.of(decision)
            self.argues.record_unchecked(tx_id)
        return decision_to_record(decision)

    def screen_pending(self) -> list[TxRecord]:
        """Screen every buffered transaction; returns this round's records.

        The batch form used by the in-process engine, where all Δ timers
        of a round fire together at the phase boundary.
        """
        records: list[TxRecord] = []
        for tx_id in sorted(self._received):
            record = self.screen_single(tx_id)
            if record is not None:
                records.append(record)
        return records

    def has_buffered(self, tx_id: str) -> bool:
        """O(1) membership test against the report buffer."""
        return tx_id in self._received

    # -- truth revelation / argue (Algorithm 2, deliver_argue arm) --------

    def handle_argue(self, tx_id: str) -> TxRecord | None:
        """Serve an ``argue(tx, s)`` call for an unchecked transaction.

        Validates the transaction, applies the case-3 reputation update,
        and returns the re-evaluated record to include in a later block
        if the argue is admitted (within the burial window U).
        """
        outcome = self.argues.argue(tx_id)
        if not outcome.accepted:
            return None
        record = self._pending_unchecked.pop(tx_id, None)
        if record is None:
            raise ProtocolViolationError(
                f"argue admitted for {tx_id} but no pending decision is held"
            )
        self.metrics.argues_served += 1
        self.metrics.validations += 1
        is_valid = self.oracle.validate(record.tx)
        self._on_unchecked_truth(record, Label.from_bool(is_valid))
        if is_valid:
            return TxRecord(tx=record.tx, label=Label.VALID, status=CheckStatus.REEVALUATED)
        return None

    def reveal_truth(self, tx_id: str, oracle: ValidityOracle) -> None:
        """Out-of-band truth revelation (experiment harness hook).

        Theorem 1 assumes "the real states of T transactions ... are
        revealed sometime after they appeared in the ledger"; benches
        reveal through this method when no provider argues.
        """
        record = self._pending_unchecked.pop(tx_id, None)
        if record is None:
            return
        self.argues.resolve_silently(tx_id)
        self._on_unchecked_truth(record, Label.from_bool(oracle.validate(record.tx)))

    def reveal_pending(self, oracle: ValidityOracle) -> None:
        """Reveal every unchecked truth still pending (closes the loss books)."""
        for tx_id in list(self._pending_unchecked):
            self.reveal_truth(tx_id, oracle)

    def _on_unchecked_truth(self, record: AwaitingTruth, true_label: Label) -> None:
        """An unchecked truth arrives: book the loss, apply the case-3 update.

        The theorem's per-transaction expected loss is
        ``L_t = 2 W_wrong / (W_right + W_wrong)`` with right/wrong
        resolved against the revealed truth and the weights taken at
        screening time.  A record whose every reporter was churned out
        books nothing and updates nobody.
        """
        if not record.reporters:
            return
        wrong_mass = record.w_minus if true_label is Label.VALID else record.w_plus
        denom = record.w_plus + record.w_minus
        self.metrics.expected_loss += 2.0 * wrong_mass / denom if denom else 0.0
        if true_label is Label.VALID:
            # Recorded invalid-unchecked but actually valid: a mistake.
            self.metrics.mistakes += 1
            self.metrics.realized_loss += 2.0
        labels = record.labels()
        provider = record.tx.provider
        apply_reveal_update(
            self.params,
            self.book,
            provider,
            self._linked.get(provider, tuple(sorted(labels))),
            labels,
            true_label,
        )
