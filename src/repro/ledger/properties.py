"""Run-level safety and liveness property checkers (Section 3.1).

The five properties the protocol must satisfy:

1. **Agreement** — same-serial blocks identical across replicas
   (:func:`repro.ledger.chain.check_agreement`).
2. **Chain Integrity** — ``h' = H(B)`` links (checked on append and by
   :meth:`Ledger.verify_integrity`; re-checked here across a run).
3. **No Skipping** — consecutive serials (same).
4. **Almost No Creation** — every transaction perceived in a block was
   previously broadcast by a provider *and* a collector.  This needs the
   broadcast transcript, so the checker takes a :class:`RunTranscript`.
5. **Validity** — a valid transaction from an honest *active* provider
   eventually appears (with a valid disposition) in a block.

:class:`RunTranscript` is the minimal trace protocol runs record to make
4 and 5 checkable after the fact; the simulation harness populates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.exceptions import (
    AgreementError,
    ChainIntegrityError,
    LedgerError,
    SkippedBlockError,
)
from repro.ledger.chain import Ledger, check_agreement
from repro.ledger.transaction import CheckStatus, Label

__all__ = [
    "BROADCAST",
    "HONEST_VALID",
    "TRUTH_KNOWN",
    "TRUTH_VALID",
    "UPLOADED",
    "RunTranscript",
    "PropertyReport",
    "check_all_properties",
]


#: Per-transaction flags of a :class:`RunTranscript`, OR-ed together.
BROADCAST = 1  # went through broadcast_provider
UPLOADED = 2  # went through broadcast_collector
HONEST_VALID = 4  # valid, from an honest active provider (Validity quantifies these)
TRUTH_KNOWN = 8  # a GroundTruthOracle over these flags holds the truth
TRUTH_VALID = 16  # ... and the truth is valid


@dataclass
class RunTranscript:
    """What happened during a run, as needed by the property checkers.

    Attributes:
        flags: tx id -> ``BROADCAST | UPLOADED | HONEST_VALID`` bits: one
            entry per transaction the run saw, so each id is held once.
            An engine's :class:`~repro.ledger.validation.GroundTruthOracle`
            keeps its ``TRUTH_*`` bits in the same entry.  Writers OR their
            bits in (``flags[tx_id] |= UPLOADED``), never assign.
    """

    flags: dict[str, int] = field(default_factory=dict)


@dataclass
class PropertyReport:
    """Outcome of checking all five properties over a run."""

    agreement: bool = True
    chain_integrity: bool = True
    no_skipping: bool = True
    almost_no_creation: bool = True
    validity: bool = True
    violations: list[str] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        """True iff every property held."""
        return (
            self.agreement
            and self.chain_integrity
            and self.no_skipping
            and self.almost_no_creation
            and self.validity
        )


def check_all_properties(
    replicas: Iterable[Ledger],
    transcript: RunTranscript,
) -> PropertyReport:
    """Check the five Section-3.1 properties over a finished run.

    Args:
        replicas: Every governor's ledger copy.
        transcript: The run's broadcast trace.

    Returns:
        A :class:`PropertyReport`; inspect ``violations`` for details.
    """
    ledgers = list(replicas)
    if not ledgers:
        raise LedgerError("need at least one replica to check properties")
    report = PropertyReport()

    # Catch exactly the checker's violation exceptions: anything else
    # (including an auditor-raised violation crossing this layer) is a
    # bug in the run, not a property verdict, and must propagate.
    try:
        check_agreement(ledgers)
    except AgreementError as exc:
        report.agreement = False
        report.violations.append(f"agreement: {exc}")

    for ledger in ledgers:
        try:
            ledger.verify_integrity()
        except SkippedBlockError as exc:
            report.no_skipping = False
            report.violations.append(f"no-skipping: {exc}")
        except ChainIntegrityError as exc:
            report.chain_integrity = False
            report.violations.append(f"chain-integrity: {exc}")

    # Almost No Creation: everything in any replica must have been both
    # provider-broadcast and collector-uploaded.
    flags = transcript.flags
    for ledger in ledgers:
        for serial, rec in ledger.all_records():
            tx_id = rec.tx.tx_id
            seen = flags.get(tx_id, 0)
            if not seen & BROADCAST:
                report.almost_no_creation = False
                report.violations.append(
                    f"almost-no-creation: tx {tx_id} in block {serial} of "
                    f"{ledger.owner} was never provider-broadcast"
                )
            if not seen & UPLOADED:
                report.almost_no_creation = False
                report.violations.append(
                    f"almost-no-creation: tx {tx_id} in block {serial} of "
                    f"{ledger.owner} was never collector-uploaded"
                )

    # Latest occurrence wins: a re-evaluated transaction appears again
    # in a newer block, and Validity judges its final disposition.
    latest = {rec.tx.tx_id: rec for _serial, rec in ledgers[0].all_records()}
    for tx_id, seen in flags.items():
        if not seen & HONEST_VALID:
            continue
        rec = latest.get(tx_id)
        if rec is None:
            report.validity = False
            report.violations.append(
                f"validity: honest valid tx {tx_id} never appeared in a block"
            )
            continue
        # "Appear in a block eventually" with its true (valid) status:
        # either checked-valid, or re-evaluated to valid after an argue.
        ok = rec.label is Label.VALID or rec.status is CheckStatus.REEVALUATED
        if not ok:
            report.validity = False
            report.violations.append(
                f"validity: honest valid tx {tx_id} is permanently "
                f"recorded as {rec.label.name}/{rec.status.value}"
            )
    return report
