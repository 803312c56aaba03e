"""Runtime safety auditor — per-round invariant monitor with structured verdicts.

Each governor of a networked engine runs a :class:`SafetyAuditor`; every
engine (:class:`~repro.core.roundcore.RoundCore`) runs one more, the
harness's, over its live governors: :func:`harness_audit` after every
round and the Theorem-1 guardrail once the books close.  The monitored
invariants:

* **cross-governor agreement** — no two committed blocks share a serial
  with different hashes.  At the protocol layer this reuses the
  :class:`~repro.ledger.store.BlockStore` publication rule (``publish``
  raises :class:`~repro.exceptions.AgreementError` on a conflicting
  same-serial block); the harness re-checks the replicas after every
  round, each from the last serial it compared.
* **block integrity** — serial/prev-hash link against the local tip, a
  recomputed Merkle root over the TXList, per-record provider
  signatures, and a cross-check against the published store's hash
  (which catches in-flight block tampering before it poisons the
  replica).
* **reputation-book invariants** — every weight positive and finite,
  every provider row normalizable, vector versions monotone.
* **Theorem-1 guardrail** — the measured governor loss never exceeds
  ``rwm_bound(s_min, r, beta)`` (:mod:`repro.core.regret`), checked
  after the last reveal.
* **equivocation** — two *conflicting signed messages* from one node:
  a governor emitting commit votes for two different block hashes at
  one serial, or a collector emitting two different signed labels for
  one transaction.  These are the **provable** violations that justify
  quarantine: the evidence pair convinces any third party without
  trusting the accuser.

Verdicts are structured (:class:`AuditViolation` inside an
:class:`AuditReport`) and exported through ``repro.obs`` counters
(``audit_checks_total`` / ``audit_violations_total``).
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.regret import rwm_bound
from repro.crypto.merkle import MerkleTree
from repro.ledger.chain import Ledger
from repro.ledger.transaction import Label, LabeledTransaction
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.consensus.messages import CommitVote
    from repro.crypto.identity import IdentityManager
    from repro.ledger.block import Block

__all__ = [
    "ViolationType",
    "AuditViolation",
    "AuditReport",
    "SafetyAuditor",
    "SlotTable",
    "TxSlot",
    "harness_audit",
]

#: Violation classes that indicate the *local replica's* safety is at
#: stake (as opposed to misbehaviour detected in, and attributed to,
#: another node).  The soak tests assert honest governors report none.
SAFETY_TYPES = frozenset(
    {
        "agreement",
        "chain-integrity",
        "merkle-root",
        "bad-signature",
        "reputation-invariant",
        "regret-bound",
        # Cross-shard atomicity: a half-applied or replayed receipt means
        # the sharded ledger family itself lost exactly-once semantics.
        "receipt-replay",
        "receipt-half-applied",
    }
)


class ViolationType(str, Enum):
    """What kind of invariant broke (the ``type`` label on counters)."""

    GOVERNOR_EQUIVOCATION = "governor-equivocation"
    COLLECTOR_EQUIVOCATION = "collector-equivocation"
    BLOCK_TAMPER = "block-tamper"
    CHAIN_INTEGRITY = "chain-integrity"
    MERKLE_ROOT = "merkle-root"
    BAD_SIGNATURE = "bad-signature"
    AGREEMENT = "agreement"
    REPUTATION_INVARIANT = "reputation-invariant"
    REGRET_BOUND = "regret-bound"
    RECEIPT_REPLAY = "receipt-replay"
    RECEIPT_HALF_APPLIED = "receipt-half-applied"
    RECEIPT_EQUIVOCATION = "receipt-equivocation"


@dataclass(frozen=True)
class AuditViolation:
    """One detected invariant violation.

    Attributes:
        type: The broken invariant.
        culprit: Node id the violation is attributed to (``"unknown"``
            when the evidence cannot name one — e.g. an in-flight
            tamper carries no valid signature).
        round_number: Protocol round during which it was detected.
        detail: Human-readable description.
        serial: Block serial involved, when applicable.
        provable: True iff the evidence is two conflicting *signed*
            messages — the quarantine bar.  Unattributable or merely
            observed anomalies never justify expelling a peer.
        evidence: The conflicting signed objects (votes or uploads).
    """

    type: ViolationType
    culprit: str
    round_number: int
    detail: str
    serial: int | None = None
    provable: bool = False
    evidence: tuple = ()

    @property
    def is_safety(self) -> bool:
        """Whether this violation compromises the local replica itself."""
        return self.type.value in SAFETY_TYPES


@dataclass
class AuditReport:
    """Structured verdict stream of one auditor (governor or harness)."""

    auditor: str
    violations: list[AuditViolation] = field(default_factory=list)
    #: Check name -> times executed.
    checks: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def declare(self, obs: MetricsRegistry) -> None:
        """Add this report to what ``audit_checks_total`` / ``audit_violations_total`` read."""
        obs.counter(
            "audit_checks_total",
            "Auditor invariant checks executed, by check",
            labels=("check",),
            read=lambda: self.checks,
        )
        obs.counter(
            "audit_violations_total",
            "Invariant violations detected, by type",
            labels=("type",),
            read=lambda: Counter(v.type.value for v in self.violations),
        )

    @property
    def clean(self) -> bool:
        """True iff no violation of any kind was recorded."""
        return not self.violations

    def safety_violations(self) -> list[AuditViolation]:
        """Violations that compromise this replica's own safety.

        Attributed misbehaviour of *other* nodes (equivocation, block
        tampering that was contained) is excluded: detecting an attacker
        is the auditor working, not the replica failing.
        """
        return [v for v in self.violations if v.is_safety]


class TxSlot:
    """What one deployment's governors know about one transaction.

    ``uploads`` holds, once for every governor, each collector's first
    verified upload with each label, as the broadcast delivered it;
    ``bits`` holds the rest, laid out by :class:`SlotTable`.
    """

    __slots__ = ("uploads", "bits")

    def __init__(self) -> None:
        self.uploads: tuple[LabeledTransaction, ...] = ()
        self.bits = 0


class SlotTable(dict):
    """``tx_id -> TxSlot`` for one deployment of ``width`` governors.

    Looking a transaction up makes its slot.  A slot's ``bits`` come in
    rows of one bit per governor, governor ``g`` at bit ``g`` of each:

    * row 0: ``g``'s Δ timer is armed (since its last crash); row 1: it
      has not fired yet;
    * row 2: ``g``'s auditor holds label evidence for the transaction;
    * row 3: some block holds the transaction (one bit, :attr:`packed`);
    * three rows for the ``k``-th collector the table meets, from row
      ``4 + 3k``: ``g``'s auditor holds its +1 label, its -1 label, and,
      holding both, got the -1 label second.
    """

    def __init__(self, width: int = 1, collectors: Iterable[str] = ()):
        self.width = width
        self.packed = 1 << 3 * width
        #: collector -> the bit its rows start at
        self.collectors = {c: (4 + 3 * k) * width for k, c in enumerate(collectors)}

    def __missing__(self, tx_id: str) -> TxSlot:
        slot = self[tx_id] = TxSlot()
        return slot

    def label_bits(self, collector: str, label: int, index: int) -> tuple[int, int, int]:
        """Governor ``index``'s bit for holding ``collector``'s ``label``, its
        bits for either label, and every governor's for ``label``."""
        width = self.width
        plus = self.collectors.setdefault(collector, (4 + 3 * len(self.collectors)) * width)
        row = plus if label > 0 else plus + width
        return 1 << row + index, (1 | 1 << width) << plus + index, (1 << width) - 1 << row


class SafetyAuditor:
    """Per-governor (or harness) invariant monitor.

    Stateless with respect to the protocol (it only observes), stateful
    in its evidence buffers: signed commit votes per ``(governor,
    serial)`` and signed labels per ``(collector, tx_id)``, which is
    what turns a second conflicting message into a provable violation;
    the harness's also remembers where its book and agreement sweeps
    left off.

    Args:
        owner: The governor (or harness) this auditor reports for.
        im: Identity Manager handle for signature verification —
            evidence only counts when the signatures verify.
        obs: Metrics registry; ``audit_*`` counters (see
            OBSERVABILITY.md).
        slots, index: The deployment's :class:`SlotTable` and this
            auditor's governor bit in it; without one it keeps a private one.
    """

    def __init__(
        self,
        owner: str,
        im: "IdentityManager | None" = None,
        obs: MetricsRegistry | None = None,
        slots: SlotTable | None = None,
        index: int = 0,
    ):
        self.owner = owner
        self.im = im
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.report = AuditReport(auditor=owner)
        # Evidence, held for the life of the run (nothing is pruned): per
        # serial, each governor's first verified vote — replaced by the
        # ``(first, second)`` pair once a conflicting one arrives; per
        # transaction, each collector's labels, in ``slots``.
        self._votes: dict[int, dict[str, "CommitVote | tuple"]] = {}
        if slots is None:  # a standalone auditor: a private one-governor table
            slots = SlotTable()
        self._slots = slots
        self._index = index
        #: Transactions this auditor holds label evidence for.
        self.tx_evidence = 0
        self._held = 1 << 2 * slots.width + index
        # (collector, label) -> this auditor's SlotTable.label_bits
        self._label_bits = {
            (c, label): slots.label_bits(c, label, index)
            for c in slots.collectors for label in (Label.VALID, Label.INVALID)
        }
        # (governor, collector) -> the reputation vector last read and
        # its version then: the harness re-reads a row only once it changed.
        self._book_reads: dict[tuple[str, str], tuple[object, int]] = {}
        # Agreement: the hash each compared serial agreed on, and per
        # replica owner the ledger object and the last serial compared.
        self._agreed: dict[int, bytes] = {}
        self._compared: dict[str, tuple[Ledger, int]] = {}
        self.report.declare(self.obs)
        self.obs.gauge(
            "audit_evidence_entries",
            "Transactions and block serials an auditor holds signed evidence "
            "for, as of the last closed round",
            labels=("auditor",),
            read=lambda: {owner: self.tx_evidence + len(self._votes)},
        )

    # -- bookkeeping ----------------------------------------------------

    def _check(self, name: str) -> None:
        self.report.checks[name] += 1

    def _record(self, violation: AuditViolation) -> AuditViolation:
        self.report.violations.append(violation)
        return violation

    # -- block integrity (Algorithm 2's append path) ---------------------

    def audit_block(
        self,
        block: "Block",
        expected_serial: int,
        expected_prev: bytes,
        round_number: int,
        store_hash: bytes | None = None,
    ) -> list[AuditViolation]:
        """Re-verify a delivered block before the replica appends it.

        Returns the violations found (empty on a clean block).  A
        ``BLOCK_TAMPER`` result means the delivered copy's hash differs
        from the published store's same-serial block — the caller should
        append the authentic copy instead of the delivered one.
        """
        found: list[AuditViolation] = []
        self._check("block-link")
        if block.serial != expected_serial:
            found.append(
                AuditViolation(
                    type=ViolationType.CHAIN_INTEGRITY,
                    culprit=block.proposer,
                    round_number=round_number,
                    serial=block.serial,
                    detail=f"expected serial {expected_serial}, got {block.serial}",
                )
            )
        if block.prev_hash != expected_prev:
            found.append(
                AuditViolation(
                    type=ViolationType.CHAIN_INTEGRITY,
                    culprit=block.proposer,
                    round_number=round_number,
                    serial=block.serial,
                    detail=f"block {block.serial} prev_hash does not extend the tip",
                )
            )
        self._check("merkle-root")
        recomputed = MerkleTree([rec.hash() for rec in block.tx_list]).root
        if recomputed != block.tx_root:
            found.append(
                AuditViolation(
                    type=ViolationType.MERKLE_ROOT,
                    culprit=block.proposer,
                    round_number=round_number,
                    serial=block.serial,
                    detail=f"block {block.serial} Merkle root mismatch",
                )
            )
        if self.im is not None:
            self._check("record-signatures")
            for rec in block.tx_list:
                tx = rec.tx
                if not self.im.verify(tx):
                    found.append(
                        AuditViolation(
                            type=ViolationType.BAD_SIGNATURE,
                            culprit=block.proposer,
                            round_number=round_number,
                            serial=block.serial,
                            detail=(
                                f"record {tx.tx_id} in block {block.serial} carries "
                                "an invalid provider signature"
                            ),
                        )
                    )
        if store_hash is not None:
            self._check("store-crosscheck")
            if block.hash() != store_hash:
                found.append(
                    AuditViolation(
                        type=ViolationType.BLOCK_TAMPER,
                        culprit="unknown",
                        round_number=round_number,
                        serial=block.serial,
                        detail=(
                            f"delivered block {block.serial} differs from the "
                            "published store copy (in-flight tampering)"
                        ),
                    )
                )
        for violation in found:
            self._record(violation)
        return found

    # -- commit votes (governor equivocation) ----------------------------

    def ingest_vote(
        self,
        vote: "CommitVote",
        own_hash: bytes | None,
        round_number: int,
    ) -> tuple[AuditViolation | None, bool]:
        """Record one signed commit vote; detect governor equivocation.

        Returns ``(violation, mismatch)``: ``violation`` is a provable
        :data:`~ViolationType.GOVERNOR_EQUIVOCATION` when this auditor
        now holds two verified votes from one governor for different
        hashes at one serial; ``mismatch`` is True when the vote
        contradicts this replica's own committed hash — the signal to
        forward the vote to peers as evidence (so the subset that
        received the *other* equivocating vote can complete the proof).
        """
        self._check("commit-vote")
        if self.im is not None and not self.im.verify(vote):
            # Unverifiable votes are no evidence of anything; drop.
            self._record(
                AuditViolation(
                    type=ViolationType.BAD_SIGNATURE,
                    culprit="unknown",
                    round_number=round_number,
                    serial=vote.serial,
                    detail=(
                        f"commit vote claiming {vote.governor} for serial "
                        f"{vote.serial} failed signature verification"
                    ),
                )
            )
            return None, False
        by_governor = self._votes.setdefault(vote.serial, {})
        held = by_governor.setdefault(vote.governor, vote)
        mismatch = own_hash is not None and vote.block_hash != own_hash
        if type(held) is not tuple and held.block_hash != vote.block_hash:
            held = by_governor[vote.governor] = (held, vote)
        if type(held) is tuple:
            return (
                self._record(
                    AuditViolation(
                        type=ViolationType.GOVERNOR_EQUIVOCATION,
                        culprit=vote.governor,
                        round_number=round_number,
                        serial=vote.serial,
                        detail=(
                            f"governor {vote.governor} signed conflicting commit "
                            f"votes for serial {vote.serial}"
                        ),
                        provable=True,
                        evidence=held,
                    )
                ),
                mismatch,
            )
        return None, mismatch

    # -- uploads (collector equivocation) --------------------------------

    def observe_upload(
        self, upload: LabeledTransaction, round_number: int, slot: TxSlot | None = None
    ) -> AuditViolation | None:
        """Record one signed collector label; detect label equivocation.

        Only uploads whose collector signature verifies are evidence;
        an in-flight tamper (stripped signature, flipped label) fails
        verification and therefore can never *frame* a collector.
        ``slot`` is the upload's transaction's, when the caller holds it.
        """
        self.report.checks["upload-label"] += 1  # _check, inline on the hot path
        if self.im is not None and not self.im.verify(upload):
            return None
        if slot is None:
            slot = self._slots[upload.tx.tx_id]
        bits = slot.bits
        try:
            mine, either, kept = self._label_bits[upload.collector, upload.label]
        except KeyError:
            mine, either, kept = self._label_bits[upload.collector, upload.label] = (
                self._slots.label_bits(upload.collector, upload.label, self._index)
            )
        held = bits & either
        if not held:  # the first label from this collector
            if not bits & kept:  # and no governor holds it yet
                slot.uploads += (upload,)
            if not bits & self._held:
                self.tx_evidence += 1
            slot.bits = bits | self._held | mine
            return None
        if held == mine:
            return None  # a replay
        # The third of the collector's rows, two above its +1 row.
        minus_second = (either & -either) << 2 * self._slots.width
        if held != either:  # the first conflicting label
            if not bits & kept:
                slot.uploads += (upload,)
            bits = slot.bits = bits | mine | (minus_second if upload.label < 0 else 0)
        # Both labels held: the pair, in the order this auditor got them.
        collector, by_label = upload.collector, {}
        for kept_upload in slot.uploads:
            if kept_upload.collector == collector:
                by_label[kept_upload.label] = kept_upload
        second = Label.INVALID if bits & minus_second else Label.VALID
        return self._record(
            AuditViolation(
                type=ViolationType.COLLECTOR_EQUIVOCATION,
                culprit=collector,
                round_number=round_number,
                detail=(
                    f"collector {collector} signed conflicting labels "
                    f"for tx {upload.tx.tx_id}"
                ),
                provable=True,
                evidence=(by_label[-second], by_label[second]),
            )
        )

    # -- reputation-book invariants --------------------------------------

    def audit_book(self, book, round_number: int) -> list[AuditViolation]:
        """Check the reputation-book invariants after a round.

        Weights positive and finite, per-collector rows normalizable
        (finite sum), and vector versions monotone across calls (the
        multiplicative update only ever *advances* state).  A row is
        re-read only when its vector object or its version changed since
        the last call (a vector readmitted after churn is new, not
        "backwards"), and it is read as its default plus its overrides:
        O(touched), whatever the size of its membership.
        """
        found: list[AuditViolation] = []
        self._check("reputation-book")
        governor = book.governor
        for collector, vector in book._vectors.items():
            version = vector._version
            last = self._book_reads.get((governor, collector))
            details = []
            if last is not None and last[0] is vector:
                if version == last[1]:
                    continue
                if version < last[1]:
                    details.append(
                        f"vector version of {collector} went backwards ({last[1]} -> {version})"
                    )
            self._book_reads[governor, collector] = (vector, version)
            row = vector.provider_weights
            overrides = row.overrides
            untouched = len(row.members) - len(overrides)
            total = sum(overrides.values()) + row.default * untouched
            low = min(overrides.values(), default=1.0)  # the map refuses a default <= 0
            # NaN fails every comparison, so a clean row passes both tests;
            # an empty row has none to fail.
            if not (0.0 < total < math.inf and 0.0 < low) and row.members:
                weights = list(overrides.items())
                if untouched:  # the default stands for every untouched member
                    weights.append(("<untouched>", row.default))
                details += [
                    f"weight w[{collector}][{provider}] = {weight!r} is not positive finite"
                    for provider, weight in weights if not 0.0 < weight < math.inf
                ] or [f"row of {collector} is not normalizable (sum {total!r})"]
            for detail in details:
                found.append(self._record(AuditViolation(
                    type=ViolationType.REPUTATION_INVARIANT,
                    culprit=governor,
                    round_number=round_number,
                    detail=detail,
                )))
        return found

    # -- harness-level checks --------------------------------------------

    def audit_agreement(
        self, ledgers: Sequence[Ledger], round_number: int
    ) -> AuditViolation | None:
        """Cross-replica agreement over the given (honest, live) ledgers,
        up to the shortest one's height: each replica is walked from the
        last serial it was compared at against the hash the first replica
        to reach each serial set (its checkpoint vouches below its base)."""
        self._check("agreement")
        common = min((ledger.height for ledger in ledgers), default=0)
        agreed, compared = self._agreed, self._compared
        for ledger in ledgers:
            last = compared.get(ledger.owner)
            start = last[1] if last is not None and last[0] is ledger else 0
            for serial in range(max(start, ledger.base_serial) + 1, common + 1):
                block_hash = ledger.retrieve(serial).hash()
                if agreed.setdefault(serial, block_hash) != block_hash:
                    return self._record(AuditViolation(
                        type=ViolationType.AGREEMENT,
                        culprit="unknown",
                        round_number=round_number,
                        serial=serial,
                        detail=f"replica {ledger.owner!r} disagrees at serial {serial}",
                    ))
            if common > start:
                compared[ledger.owner] = (ledger, common)
        return None

    def audit_regret(
        self,
        measured_loss: float,
        r: int,
        beta: float,
        round_number: int,
        s_min: float = 0.0,
        culprit: str = "harness",
    ) -> AuditViolation | None:
        """Theorem-1 guardrail: flag runs whose loss exceeds ``rwm_bound``."""
        self._check("regret-bound")
        bound = rwm_bound(s_min=s_min, r=r, beta=beta)
        if measured_loss > bound:
            return self._record(
                AuditViolation(
                    type=ViolationType.REGRET_BOUND,
                    culprit=culprit,
                    round_number=round_number,
                    detail=(
                        f"measured loss {measured_loss:.4f} exceeds "
                        f"rwm_bound(s_min={s_min}, r={r}, beta={beta}) = {bound:.4f}"
                    ),
                )
            )
        return None


def harness_audit(auditor: SafetyAuditor, governors: Sequence, round_number: int) -> AuditReport:
    """One round's harness sweep over the live ``governors``: each one's
    reputation book, then agreement among their ledgers."""
    for governor in governors:
        auditor.audit_book(governor.book, round_number)
    auditor.audit_agreement([governor.ledger for governor in governors], round_number)
    return auditor.report
