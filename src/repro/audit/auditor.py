"""Runtime safety auditor — per-round invariant monitor with structured verdicts.

Each governor runs a :class:`SafetyAuditor`; the harness (engine) runs
the cross-replica checks on top.  The monitored invariants:

* **cross-governor agreement** — no two committed blocks share a serial
  with different hashes.  At the protocol layer this reuses the
  :class:`~repro.ledger.store.BlockStore` publication rule (``publish``
  raises :class:`~repro.exceptions.AgreementError` on a conflicting
  same-serial block); the harness re-checks replicas after every round
  via :func:`repro.ledger.chain.check_agreement`.
* **block integrity** — serial/prev-hash link against the local tip, a
  recomputed Merkle root over the TXList, per-record provider
  signatures, and a cross-check against the published store's hash
  (which catches in-flight block tampering before it poisons the
  replica).
* **reputation-book invariants** — every weight positive and finite,
  every provider row normalizable, vector versions monotone.
* **Theorem-1 guardrail** — the measured governor loss never exceeds
  ``rwm_bound(s_min, r, beta)`` (:mod:`repro.core.regret`).
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
from typing import TYPE_CHECKING, Iterable

from repro.core.regret import rwm_bound
from repro.crypto.merkle import MerkleTree
from repro.ledger.chain import Ledger, check_agreement
from repro.ledger.transaction import LabeledTransaction
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.consensus.messages import CommitVote
    from repro.crypto.identity import IdentityManager
    from repro.ledger.block import Block

from repro.exceptions import AgreementError

__all__ = [
    "ViolationType",
    "AuditViolation",
    "AuditReport",
    "SafetyAuditor",
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


class SafetyAuditor:
    """Per-governor invariant monitor.

    Stateless with respect to the protocol (it only observes), stateful
    in its evidence buffers: signed commit votes per ``(governor,
    serial)`` and signed labels per ``(collector, tx_id)``, which is
    what turns a second conflicting message into a provable violation.

    Args:
        owner: The governor (or harness) this auditor reports for.
        im: Identity Manager handle for signature verification —
            evidence only counts when the signatures verify.
        obs: Metrics registry; ``audit_*`` counters (see
            OBSERVABILITY.md).
    """

    def __init__(
        self,
        owner: str,
        im: "IdentityManager | None" = None,
        obs: MetricsRegistry | None = None,
    ):
        self.owner = owner
        self.im = im
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.report = AuditReport(auditor=owner)
        # Evidence, held for the life of the run (nothing is pruned): per
        # serial / tx_id, each signer's first verified message — replaced
        # by the ``(first, second)`` pair once a conflicting one arrives.
        # A serial's votes are keyed by governor; a transaction's labels
        # are one tuple in arrival order, scanned by collector (at most r
        # entries, and a tx outnumbers serials by a block's size).
        self._votes: dict[int, dict[str, "CommitVote | tuple"]] = {}
        self._labels: dict[str, tuple["LabeledTransaction | tuple", ...]] = {}
        # collector -> last observed reputation-vector version
        self._book_versions: dict[str, int] = {}
        self.report.declare(self.obs)
        self.obs.gauge(
            "audit_evidence_entries",
            "Transactions and block serials an auditor holds signed evidence "
            "for, as of the last closed round",
            labels=("auditor",),
            read=lambda: {owner: len(self._labels) + len(self._votes)},
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
        self, upload: LabeledTransaction, round_number: int
    ) -> AuditViolation | None:
        """Record one signed collector label; detect label equivocation.

        Only uploads whose collector signature verifies are evidence;
        an in-flight tamper (stripped signature, flipped label) fails
        verification and therefore can never *frame* a collector.
        """
        self._check("upload-label")
        if self.im is not None and not self.im.verify(upload):
            return None
        tx_id, collector = upload.tx.tx_id, upload.collector
        held = self._labels.get(tx_id, ())
        for index, entry in enumerate(held):
            pair = type(entry) is tuple
            first = entry[0] if pair else entry
            if first.collector != collector:
                continue
            if not pair:
                if first.label == upload.label:
                    return None
                entry = (first, upload)
                self._labels[tx_id] = held[:index] + (entry,) + held[index + 1:]
            return self._record(
                AuditViolation(
                    type=ViolationType.COLLECTOR_EQUIVOCATION,
                    culprit=collector,
                    round_number=round_number,
                    detail=(
                        f"collector {collector} signed conflicting labels "
                        f"for tx {tx_id}"
                    ),
                    provable=True,
                    evidence=entry,
                )
            )
        self._labels[tx_id] = held + (upload,)
        return None

    # -- reputation-book invariants --------------------------------------

    def audit_book(self, book, round_number: int) -> list[AuditViolation]:
        """Check the reputation-book invariants after a round.

        Weights positive and finite, per-collector rows normalizable
        (positive finite sum), and vector versions monotone across
        calls (the multiplicative update only ever *advances* state).
        """
        found: list[AuditViolation] = []
        self._check("reputation-book")
        for collector in book.collectors():
            vector = book.vector(collector)
            total = 0.0
            for provider, weight in vector.provider_weights.items():
                if not (weight > 0.0 and math.isfinite(weight)):
                    found.append(
                        AuditViolation(
                            type=ViolationType.REPUTATION_INVARIANT,
                            culprit=book.governor,
                            round_number=round_number,
                            detail=(
                                f"weight w[{collector}][{provider}] = {weight!r} "
                                "is not a positive finite number"
                            ),
                        )
                    )
                else:
                    total += weight
            if vector.provider_weights and not (total > 0.0 and math.isfinite(total)):
                found.append(
                    AuditViolation(
                        type=ViolationType.REPUTATION_INVARIANT,
                        culprit=book.governor,
                        round_number=round_number,
                        detail=f"row of {collector} is not normalizable (sum {total!r})",
                    )
                )
            version = vector._version
            last = self._book_versions.get(collector)
            if last is not None and version < last:
                found.append(
                    AuditViolation(
                        type=ViolationType.REPUTATION_INVARIANT,
                        culprit=book.governor,
                        round_number=round_number,
                        detail=(
                            f"vector version of {collector} went backwards "
                            f"({last} -> {version})"
                        ),
                    )
                )
            self._book_versions[collector] = version
        for violation in found:
            self._record(violation)
        return found

    # -- harness-level checks --------------------------------------------

    def audit_agreement(
        self, ledgers: Iterable[Ledger], round_number: int
    ) -> AuditViolation | None:
        """Cross-replica agreement over the given (honest, live) ledgers."""
        self._check("agreement")
        try:
            check_agreement(list(ledgers))
        except AgreementError as exc:
            return self._record(
                AuditViolation(
                    type=ViolationType.AGREEMENT,
                    culprit="unknown",
                    round_number=round_number,
                    detail=str(exc),
                )
            )
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


def harness_audit(
    owner: str,
    ledgers: Iterable[Ledger],
    governors: Iterable,
    r: int,
    beta: float,
    round_number: int,
    s_min: float = 0.0,
    obs: MetricsRegistry | None = None,
) -> AuditReport:
    """One-shot harness audit over a finished (or paused) run.

    Checks cross-replica agreement and the Theorem-1 guardrail against
    the worst (maximum) governor ``expected_loss``.  Used by the
    in-process engine's ``finalize`` and by benches; the networked
    engine runs the same checks incrementally per round.
    """
    auditor = SafetyAuditor(owner=owner, im=None, obs=obs)
    auditor.audit_agreement(ledgers, round_number)
    losses = [g.metrics.expected_loss for g in governors]
    if losses:
        auditor.audit_regret(
            max(losses), r=r, beta=beta, round_number=round_number, s_min=s_min
        )
    return auditor.report
