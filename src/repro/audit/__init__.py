"""Runtime safety auditor: invariant monitoring, structured verdicts, quarantine feed.

See :mod:`repro.audit.auditor` for the monitored invariants; every check
runs on every engine (there is no off-switch).
"""

from repro.audit.auditor import (
    AuditReport,
    AuditViolation,
    SafetyAuditor,
    ViolationType,
    harness_audit,
)
from repro.audit.xshard import CrossShardAuditor

__all__ = [
    "AuditReport",
    "AuditViolation",
    "CrossShardAuditor",
    "SafetyAuditor",
    "ViolationType",
    "harness_audit",
]
