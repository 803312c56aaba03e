"""Runtime safety auditor: invariant monitoring, structured verdicts, quarantine feed.

See :mod:`repro.audit.auditor` for the monitored invariants; every check
runs on every engine (there is no off-switch).
"""
