"""Declarative, seeded fault schedules for the simulated network.

A :class:`FaultPlan` is pure data: per-link message-fault probabilities
(loss, duplication, reordering), timed node crashes (crash-stop or
crash-recovery), and partition windows.  It is interpreted by
:class:`repro.faults.injector.FaultInjector`, which installs it on a
:class:`~repro.network.simnet.SyncNetwork` — every engine built on the
network then runs under the plan unchanged.

Plans are deterministic given their ``seed``: the same plan over the
same traffic produces the same drops, duplicates, and delays, so chaos
tests are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = [
    "LinkFaultSpec",
    "NodeFaultSpec",
    "PartitionWindow",
    "FaultAction",
    "FaultPlan",
]


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class LinkFaultSpec:
    """Per-message fault probabilities on one (or every) directed link.

    Attributes:
        loss: P[message silently dropped].
        duplicate: P[one extra copy delivered] (given not dropped).
        reorder: P[delivery delayed past later traffic] (given not
            dropped) — the delayed copy escapes the per-channel FIFO
            clamp, so later sends overtake it.
        reorder_delay: Upper bound of the injected extra delay; the
            draw is uniform in ``(0, reorder_delay]``.
    """

    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    reorder_delay: float = 0.1

    def __post_init__(self) -> None:
        _check_prob("loss", self.loss)
        _check_prob("duplicate", self.duplicate)
        _check_prob("reorder", self.reorder)
        if self.reorder_delay <= 0:
            raise ConfigurationError(
                f"reorder_delay must be positive, got {self.reorder_delay}"
            )

    @property
    def is_clean(self) -> bool:
        """Whether this spec injects nothing."""
        return self.loss == 0.0 and self.duplicate == 0.0 and self.reorder == 0.0


@dataclass(frozen=True)
class NodeFaultSpec:
    """A timed crash: crash-stop (``recover_at`` None) or crash-recovery."""

    node: str
    crash_at: float
    recover_at: float | None = None

    def __post_init__(self) -> None:
        if self.crash_at < 0:
            raise ConfigurationError(f"crash_at must be >= 0, got {self.crash_at}")
        if self.recover_at is not None and self.recover_at <= self.crash_at:
            raise ConfigurationError(
                f"recover_at {self.recover_at} must be after crash_at {self.crash_at}"
            )


@dataclass(frozen=True)
class PartitionWindow:
    """A set of nodes cut off from the rest during ``[start, end)``.

    Unlike a crash, a partitioned node keeps its volatile state — on
    heal it resumes with its buffers intact (and relies on gap repair
    or ledger sync for what it missed).
    """

    nodes: tuple[str, ...]
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ConfigurationError("partition window needs at least one node")
        if not 0 <= self.start < self.end:
            raise ConfigurationError(
                f"need 0 <= start < end, got [{self.start}, {self.end})"
            )


@dataclass(frozen=True)
class FaultAction:
    """What the injector decided for one message (simnet hook contract).

    ``replace`` extends the omission-fault contract to Byzantine
    *tampering*: when not None, the network delivers this payload in
    place of the original (see :mod:`repro.byzantine.tampering`).
    """

    drop: bool = False
    duplicates: int = 0
    extra_delay: float = 0.0
    replace: Any = None


@dataclass
class FaultPlan:
    """A complete seeded fault schedule.

    Build fluently::

        plan = (
            FaultPlan(seed=7)
            .with_default_link(LinkFaultSpec(loss=0.1))
            .with_link("c0", "g0", LinkFaultSpec(loss=0.5, duplicate=0.2))
            .with_crash("g2", at=1.0, recover_at=3.0)
            .with_partition(("g1",), start=2.0, end=2.5)
        )
    """

    seed: int = 0
    default_link: LinkFaultSpec = field(default_factory=LinkFaultSpec)
    links: dict[tuple[str, str], LinkFaultSpec] = field(default_factory=dict)
    node_faults: list[NodeFaultSpec] = field(default_factory=list)
    partitions: list[PartitionWindow] = field(default_factory=list)

    # -- fluent builders ------------------------------------------------

    def with_default_link(self, spec: LinkFaultSpec) -> "FaultPlan":
        """Set the fault spec applied to every link without an override."""
        self.default_link = spec
        return self

    def with_link(self, sender: str, receiver: str, spec: LinkFaultSpec) -> "FaultPlan":
        """Override the fault spec of one directed link."""
        self.links[(sender, receiver)] = spec
        return self

    def with_loss(self, loss: float) -> "FaultPlan":
        """Shorthand: uniform per-link loss probability."""
        self.default_link = replace(self.default_link, loss=loss)
        return self

    def with_crash(self, node: str, at: float, recover_at: float | None = None) -> "FaultPlan":
        """Schedule a crash-stop (or crash-recovery) fault for ``node``."""
        self.node_faults.append(NodeFaultSpec(node=node, crash_at=at, recover_at=recover_at))
        return self

    def with_partition(self, nodes: tuple[str, ...], start: float, end: float) -> "FaultPlan":
        """Schedule a partition window."""
        self.partitions.append(PartitionWindow(nodes=tuple(nodes), start=start, end=end))
        return self

    # -- queries --------------------------------------------------------

    def spec_for(self, sender: str, receiver: str) -> LinkFaultSpec:
        """The effective spec on the directed link sender→receiver."""
        return self.links.get((sender, receiver), self.default_link)
