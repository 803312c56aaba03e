"""Interprets a :class:`~repro.faults.plan.FaultPlan` against a network.

:class:`FaultInjector` is the runtime half of the fault subsystem.  It

* installs itself as the :attr:`SyncNetwork.fault_filter` interception
  hook, drawing per-message loss / duplication / reordering decisions
  from its own seeded RNG (independent of workload and latency RNGs, so
  enabling faults never perturbs the rest of the simulation);
* schedules the plan's node crashes, recoveries, and partition windows
  on the simulator, routing them through caller-supplied callbacks so
  an engine can run real crash semantics (volatile-state loss, ledger
  resync) rather than a bare partition.

Certain protocol-internal control traffic must stay out of scope or the
recovery machinery would sabotage itself: acks and gap-repair NACKs are
themselves the *retry* path, and the auditor's commit votes must not
perturb (or be perturbed by) the fault RNG stream, so the injector
exempts payload kinds in :attr:`EXEMPT_KINDS` from message faults
(crashes still silence them — a dead node sends nothing).  The exempt
check runs before any RNG draw, which is what keeps auditor-on and
auditor-off runs bit-identical.

Beyond omission faults, the injector optionally consults a
:class:`~repro.byzantine.tampering.MessageTamperer` (its own seeded
RNG) and carries its payload substitutions through
:attr:`~repro.faults.plan.FaultAction.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.exceptions import SimulationError
from repro.faults.plan import FaultAction, FaultPlan
from repro.network.simnet import SyncNetwork
from repro.rng import default_rng

__all__ = ["FaultInjectionStats", "FaultInjector"]

_CLEAN = FaultAction()


@dataclass
class FaultInjectionStats:
    """What the injector actually did, for reports and assertions."""

    messages_seen: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    tampered: int = 0
    crashes: int = 0
    recoveries: int = 0
    partitions_opened: int = 0
    partitions_healed: int = 0


@dataclass
class FaultInjector:
    """Drives one :class:`FaultPlan` on one network.

    Args:
        plan: The schedule to execute.
        on_crash / on_recover: Node-fault callbacks; default to the
            network's ``partition`` / ``heal`` (pure connectivity
            faults).  :class:`repro.core.netengine.NetworkedProtocolEngine`
            passes its own crash/recover methods so governors lose
            volatile state and resync their ledgers.
    """

    #: Payload kinds never subjected to message faults (see module doc).
    EXEMPT_KINDS = frozenset({"rel-ack", "abcast-nack", "audit-commit"})

    plan: FaultPlan
    on_crash: Callable[[str], None] | None = None
    on_recover: Callable[[str], None] | None = None
    #: Optional Byzantine tamperer consulted per non-exempt message; its
    #: substitutions flow through ``FaultAction.replace``.  Draws from
    #: its own seeded RNG, never from the injector's.
    tamperer: Any | None = None
    stats: FaultInjectionStats = field(default_factory=FaultInjectionStats)

    def __post_init__(self) -> None:
        self._rng = default_rng(self.plan.seed)
        self._installed_on: SyncNetwork | None = None

    # -- installation ---------------------------------------------------

    def install(self, network: SyncNetwork) -> "FaultInjector":
        """Hook message faults and schedule node/partition faults.

        Idempotent per network; fault times already in the past are
        clamped to "now" so a plan can be installed mid-run.  A network
        accepts only one injector — silently replacing an installed
        plan's message filter would leave its node faults scheduled but
        its link faults gone, a hard-to-debug half-plan.
        """
        if self._installed_on is network:
            return self
        if network.fault_filter is not None:
            raise SimulationError(
                "network already has a fault filter installed; "
                "one FaultInjector per network"
            )
        self._installed_on = network
        network.fault_filter = self._filter
        sim = network.sim
        crash = self.on_crash or network.partition
        recover = self.on_recover or network.heal

        def at(time: float, callback: Callable[[], None]) -> None:
            sim.schedule_at(max(time, sim.now), callback)

        for nf in self.plan.node_faults:
            at(nf.crash_at, self._node_event(crash, nf.node, "crashes"))
            if nf.recover_at is not None:
                at(nf.recover_at, self._node_event(recover, nf.node, "recoveries"))
        for window in self.plan.partitions:
            at(window.start, self._window_event(network, window, True))
            at(window.end, self._window_event(network, window, False))
        return self

    def _node_event(self, action: Callable[[str], None], node: str, counter: str):
        def fire() -> None:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            action(node)
        return fire

    def _window_event(self, network: SyncNetwork, window, opening: bool):
        def fire() -> None:
            for node in window.nodes:
                if opening:
                    network.partition(node)
                else:
                    network.heal(node)
            if opening:
                self.stats.partitions_opened += 1
            else:
                self.stats.partitions_healed += 1
        return fire

    # -- per-message hook ------------------------------------------------

    def _filter(self, sender: str, receiver: str, payload: Any) -> FaultAction:
        self.stats.messages_seen += 1
        if getattr(payload, "kind", None) in self.EXEMPT_KINDS:
            return _CLEAN
        # The tamperer runs before the omission draws but on its own RNG,
        # so adding/removing it never perturbs the loss/dup/reorder
        # stream of an existing seeded plan.
        replacement = None
        if self.tamperer is not None:
            replacement = self.tamperer.maybe_tamper(sender, receiver, payload)
            if replacement is not None:
                self.stats.tampered += 1
        spec = self.plan.spec_for(sender, receiver)
        if spec.is_clean:
            return _CLEAN if replacement is None else FaultAction(replace=replacement)
        if spec.loss and self._rng.random() < spec.loss:
            self.stats.dropped += 1
            return FaultAction(drop=True)
        duplicates = 0
        extra_delay = 0.0
        if spec.duplicate and self._rng.random() < spec.duplicate:
            self.stats.duplicated += 1
            duplicates = 1
        if spec.reorder and self._rng.random() < spec.reorder:
            self.stats.reordered += 1
            extra_delay = self._rng.uniform(0.0, spec.reorder_delay) or spec.reorder_delay
        if duplicates == 0 and extra_delay == 0.0 and replacement is None:
            return _CLEAN
        return FaultAction(
            duplicates=duplicates, extra_delay=extra_delay, replace=replacement
        )
