"""Runtime safety auditor: invariant monitoring, structured verdicts, quarantine feed.

See :mod:`repro.audit.auditor` for the monitored invariants and
:mod:`repro.audit.config` for its switchboard
(auditor on by default, force-disableable, bit-identical seeded runs
either way when no violations occur).
"""

from repro.audit.auditor import (
    AuditReport,
    AuditViolation,
    SafetyAuditor,
    ViolationType,
    harness_audit,
)
# NOTE: read the live switchboard via ``repro.audit.config`` (e.g.
# ``config.get_config()``) — re-exporting ``ACTIVE`` here would freeze a
# stale binding the moment ``configure()`` replaces it.
from repro.audit.config import (
    AuditConfig,
    configure,
    disabled,
    get_config,
    overridden,
    set_config,
)
from repro.audit.xshard import CrossShardAuditor

__all__ = [
    "AuditConfig",
    "AuditReport",
    "AuditViolation",
    "CrossShardAuditor",
    "SafetyAuditor",
    "ViolationType",
    "harness_audit",
    "configure",
    "disabled",
    "get_config",
    "overridden",
    "set_config",
]
