"""Runtime knobs for the safety auditor.

A frozen config dataclass, a process-wide ``ACTIVE`` instance, and
scoped/global override helpers.  The auditor is
**on by default** — every networked engine constructed without an
explicit ``audit=`` argument snapshots the active config — and force-
disableable for the bit-identity regression tests
(``tests/test_audit.py``): with no violations present, a seeded run
produces bit-identical ledgers whether the auditor is on or off,
because audit traffic (commit votes) rides a fixed-delay, fault-exempt
path that consumes no RNG from any simulation stream.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

__all__ = [
    "AuditConfig",
    "ACTIVE",
    "get_config",
    "set_config",
    "configure",
    "overridden",
    "disabled",
]


@dataclass(frozen=True)
class AuditConfig:
    """Feature flags for each auditor check, all on by default.

    Attributes:
        enabled: Master switch.  Off, the engine performs no audit work
            at all (no votes, no checks, no quarantine) and behaves
            bit-identically to the pre-auditor implementation.
        commit_votes: Governors exchange signed per-block commit votes
            and detect governor equivocation (two conflicting signed
            votes for one serial — the provable violation).
        block_integrity: Re-verify every delivered block before append:
            serial/prev-hash link, recomputed Merkle root, per-record
            provider signatures, and the published-store cross-check
            that contains in-flight block tampering.
        reputation_invariants: Per-round reputation-book checks —
            weights positive and finite, rows normalizable, vector
            versions monotonic.
        theorem_guardrail: Flag any run whose measured governor loss
            exceeds ``rwm_bound(s_min, r, beta)`` (Theorem 1).
        quarantine: Act on provable violations — suppress the culprit's
            traffic and exclude it from leader election.  Off, the
            auditor still detects and reports, but never contains.
        s_min: The best collector's assumed cumulative loss fed to the
            Theorem-1 guardrail; 0 encodes the paper's "at least one
            well-behaved collector" premise.
    """

    enabled: bool = True
    commit_votes: bool = True
    block_integrity: bool = True
    reputation_invariants: bool = True
    theorem_guardrail: bool = True
    quarantine: bool = True
    s_min: float = 0.0


#: The process-wide active configuration.  Engines snapshot it at
#: construction; replace it only through :func:`set_config` /
#: :func:`configure` / the context managers.
ACTIVE = AuditConfig()


def get_config() -> AuditConfig:
    """The currently active :class:`AuditConfig`."""
    return ACTIVE


def set_config(config: AuditConfig) -> None:
    """Install ``config`` as the process-wide active configuration."""
    global ACTIVE
    ACTIVE = config


def configure(**knobs) -> AuditConfig:
    """Flip individual knobs on the active configuration and return it."""
    set_config(replace(ACTIVE, **knobs))
    return ACTIVE


@contextmanager
def overridden(**knobs) -> Iterator[AuditConfig]:
    """Scoped override of individual knobs; restores the prior config."""
    prior = ACTIVE
    set_config(replace(prior, **knobs))
    try:
        yield ACTIVE
    finally:
        set_config(prior)


@contextmanager
def disabled() -> Iterator[AuditConfig]:
    """Scoped reference mode with the auditor fully off."""
    prior = ACTIVE
    set_config(AuditConfig(enabled=False))
    try:
        yield ACTIVE
    finally:
        set_config(prior)
