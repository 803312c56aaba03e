"""Cross-shard atomicity auditor.

The :class:`repro.sharding.ShardCoordinator` commits a cross-shard
transaction in two legs: on the home shard as an ordinary record, then
on the remote shard as a signed receipt.  :class:`CrossShardAuditor`
watches both legs and enforces the atomicity invariant:

* **never half-applied** — every home-committed cross-shard transaction
  eventually has exactly one remote commit (checked at
  :meth:`finalize`), and no remote commit exists without a matching
  home commit;
* **replay-proof** — a receipt id commits at most once on its remote
  shard (``receipt-replay``);
* **receipt equivocation** — two *validly signed* receipts with the
  same id but conflicting content are a provable violation attributed
  to the signing proposer, mirroring the commit-vote equivocation bar
  of :class:`~repro.audit.auditor.SafetyAuditor`;
* **bad signatures** — a receipt whose proposer signature does not
  verify against the home shard's identity manager never counts as a
  home commit.

Verdicts reuse the structured :class:`~repro.audit.auditor.AuditReport`
stream and the ``audit_checks_total`` / ``audit_violations_total``
counter families, so shard runs surface in the same telemetry as every
other auditor.
"""

from __future__ import annotations

from repro.audit.auditor import AuditReport, AuditViolation, ViolationType
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

__all__ = ["CrossShardAuditor"]


class CrossShardAuditor:
    """Harness-side monitor of the two-leg cross-shard commit flow."""

    def __init__(self, obs: MetricsRegistry | None = None):
        self.obs = obs if obs is not None else NULL_REGISTRY
        self.report = AuditReport(auditor="xshard")
        # receipt_id -> the receipt as first (validly) home-committed.
        self._home: dict[str, object] = {}
        # receipt_id -> (remote shard, serial) of the first remote commit.
        self._remote: dict[str, tuple[int, int]] = {}
        self.report.declare(self.obs)

    def _check(self, name: str) -> None:
        self.report.checks[name] += 1

    def _record(self, violation: AuditViolation) -> AuditViolation:
        self.report.violations.append(violation)
        return violation

    # -- the two commit legs --------------------------------------------

    def record_home_commit(
        self, receipt, verified: bool, round_number: int
    ) -> AuditViolation | None:
        """Register a receipt minted from a home-shard commit.

        ``verified`` is the *home* shard's identity manager's verdict on
        the proposer signature, computed where the keys live (the scan
        ships it with the receipt) — it must hold before the receipt may
        be relayed.  Returns a violation (also recorded) when the
        signature failed or a conflicting receipt already exists for
        the id.
        """
        self._check("receipt-signature")
        if not verified:
            return self._record(
                AuditViolation(
                    type=ViolationType.BAD_SIGNATURE,
                    culprit=receipt.proposer,
                    round_number=round_number,
                    detail=f"receipt {receipt.receipt_id} signature failed",
                    serial=receipt.home_serial,
                )
            )
        self._check("receipt-equivocation")
        known = self._home.get(receipt.receipt_id)
        if known is not None and known != receipt:
            return self._record(
                AuditViolation(
                    type=ViolationType.RECEIPT_EQUIVOCATION,
                    culprit=receipt.proposer,
                    round_number=round_number,
                    detail=(
                        f"two signed receipts for id {receipt.receipt_id} "
                        "with conflicting content"
                    ),
                    serial=receipt.home_serial,
                    provable=True,
                    evidence=(known, receipt),
                )
            )
        self._home.setdefault(receipt.receipt_id, receipt)
        return None

    def record_remote_commit(
        self, receipt_id: str, shard: int, serial: int, round_number: int
    ) -> AuditViolation | None:
        """Register a receipt record observed on a remote-shard chain."""
        self._check("receipt-replay")
        if receipt_id in self._remote:
            prev_shard, prev_serial = self._remote[receipt_id]
            return self._record(
                AuditViolation(
                    type=ViolationType.RECEIPT_REPLAY,
                    culprit=f"shard-{shard}",
                    round_number=round_number,
                    detail=(
                        f"receipt {receipt_id} committed twice: shard "
                        f"{prev_shard} serial {prev_serial}, then shard "
                        f"{shard} serial {serial}"
                    ),
                    serial=serial,
                )
            )
        self._remote[receipt_id] = (shard, serial)
        self._check("receipt-has-home")
        if receipt_id not in self._home:
            return self._record(
                AuditViolation(
                    type=ViolationType.RECEIPT_HALF_APPLIED,
                    culprit=f"shard-{shard}",
                    round_number=round_number,
                    detail=(
                        f"receipt {receipt_id} committed on shard {shard} "
                        "without a home-shard commit"
                    ),
                    serial=serial,
                )
            )
        return None

    # -- run-level verdicts ---------------------------------------------

    def pending(self) -> list[str]:
        """Receipt ids home-committed but not yet remote-committed."""
        return sorted(rid for rid in self._home if rid not in self._remote)

    def atomicity_violations(self) -> list[AuditViolation]:
        """Half-applied or replayed receipts recorded so far."""
        return [
            v
            for v in self.report.violations
            if v.type
            in (ViolationType.RECEIPT_REPLAY, ViolationType.RECEIPT_HALF_APPLIED)
        ]

    def finalize(self, round_number: int) -> AuditReport:
        """Close the books: every home commit must have its remote leg.

        Call after the coordinator has flushed in-flight relays; any
        receipt still missing its remote commit is a half-applied
        cross-shard transaction.
        """
        for rid in self.pending():
            self._check("receipt-completed")
            self._record(
                AuditViolation(
                    type=ViolationType.RECEIPT_HALF_APPLIED,
                    culprit=f"shard-{self._home[rid].remote_shard}",
                    round_number=round_number,
                    detail=(
                        f"receipt {rid} home-committed but never committed "
                        "on its remote shard"
                    ),
                    serial=self._home[rid].home_serial,
                )
            )
        return self.report
