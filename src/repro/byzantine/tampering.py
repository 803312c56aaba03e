"""Seeded in-flight message tampering (the Byzantine network adversary).

A :class:`MessageTamperer` plugs into the
:class:`~repro.faults.injector.FaultInjector` (``install_faults(plan,
tamperer=...)``) and rewrites payloads *in flight* — the model of a
compromised relay rather than a misbehaving agent:

* **signature stripping** — the collector signature on an upload is
  replaced with a zeroed tag, so governors drop it unattributed;
* **label flipping** — the upload's ±1 label is inverted *without*
  re-signing, so the original collector signature no longer covers the
  content.  Governors reject it, which is the point: a network attacker
  without a collector's key cannot frame that collector;
* **replay** — a previously delivered upload is substituted for the
  current one, modelling stale/duplicated reports (defused downstream
  by the engine's pack-time on-chain dedup);
* **block corruption** — a record is dropped from (or the prev link
  bent on) a block in flight; the safety auditor's store cross-check
  catches the hash mismatch and appends the authentic published copy.

Payloads are rewritten through their transport wrappers
(:class:`~repro.network.reliable.ReliableEnvelope`,
:class:`~repro.network.broadcast.SequencedPayload`) with
``dataclasses.replace``, so seqnos, msg_ids, and acks stay intact —
tampering corrupts content, never the carrier.  The tamperer draws from
its **own** seeded RNG: adding it to a fault plan perturbs neither the
injector's omission stream nor any other simulation RNG.

One knowingly modelled weakness: a tampered upload riding the reliable
channel is still *acked* by its receiver (the ack covers the envelope,
not the content), so it is never retransmitted — content tampering
defeats ack/retransmit reliability, exactly as it would in a real
deployment without end-to-end authenticated acks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Callable

from repro.exceptions import ConfigurationError
from repro.ledger.block import Block
from repro.ledger.transaction import Label, LabeledTransaction
from repro.network.broadcast import SequencedPayload
from repro.network.reliable import ReliableEnvelope
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.rng import default_rng

__all__ = ["TamperSpec", "TamperStats", "MessageTamperer"]

#: The zeroed tag a stripped signature carries (format-valid, never verifies).
_STRIPPED_TAG = b"\x00" * 32


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class TamperSpec:
    """Per-message tampering probabilities.

    Attributes:
        strip_signature: P[upload's collector signature zeroed].
        flip_label: P[upload's label inverted, signature kept].
        replay: P[upload replaced by a stale previously-seen one].
        corrupt_block: P[block content corrupted in flight].
        replay_horizon: How many past uploads per receiver are kept as
            replay candidates.
    """

    strip_signature: float = 0.0
    flip_label: float = 0.0
    replay: float = 0.0
    corrupt_block: float = 0.0
    replay_horizon: int = 32

    def __post_init__(self) -> None:
        _check_prob("strip_signature", self.strip_signature)
        _check_prob("flip_label", self.flip_label)
        _check_prob("replay", self.replay)
        _check_prob("corrupt_block", self.corrupt_block)
        if self.replay_horizon < 1:
            raise ConfigurationError(
                f"replay_horizon must be >= 1, got {self.replay_horizon}"
            )


@dataclass
class TamperStats:
    """What the tamperer actually did, for reports and assertions."""

    inspected: int = 0
    stripped: int = 0
    flipped: int = 0
    replayed: int = 0
    blocks_corrupted: int = 0

    @property
    def total(self) -> int:
        """All substitutions performed."""
        return self.stripped + self.flipped + self.replayed + self.blocks_corrupted


class MessageTamperer:
    """Rewrites eligible payloads in flight per a :class:`TamperSpec`.

    Args:
        spec: What to tamper with, and how often.
        seed: Dedicated RNG seed (independent of every other stream).
        obs: Metrics registry; registers ``byz_messages_seen_total`` and
            ``byz_tampered_total{mode}`` (see OBSERVABILITY.md).
    """

    def __init__(
        self,
        spec: TamperSpec,
        seed: int = 0,
        obs: MetricsRegistry | None = None,
    ):
        self.spec = spec
        self.stats = TamperStats()
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._rng = default_rng(seed)
        # receiver -> recent uploads, the replay candidate pool
        self._history: dict[str, deque[LabeledTransaction]] = {}
        stats = self.stats
        self.obs.counter(
            "byz_messages_seen_total",
            "Messages inspected by the Byzantine tamperer",
            read=lambda: stats.inspected,
        )
        self.obs.counter(
            "byz_tampered_total",
            "Messages rewritten in flight, by tamper mode",
            labels=("mode",),
            read=lambda: {
                mode: count
                for mode, count in (
                    ("strip-signature", stats.stripped),
                    ("flip-label", stats.flipped),
                    ("replay", stats.replayed),
                    ("corrupt-block", stats.blocks_corrupted),
                )
                if count
            },
        )

    # -- wrapper plumbing ------------------------------------------------

    def _unwrap(self, payload: Any) -> tuple[Any, Callable[[Any], Any]]:
        """Innermost content plus a rebuilder that re-wraps a substitute."""
        if isinstance(payload, ReliableEnvelope):
            inner, rebuild = self._unwrap(payload.body)
            return inner, lambda new: dc_replace(payload, body=rebuild(new))
        if isinstance(payload, SequencedPayload):
            inner, rebuild = self._unwrap(payload.body)
            return inner, lambda new: dc_replace(payload, body=rebuild(new))
        return payload, lambda new: new

    def _remember(self, receiver: str, upload: LabeledTransaction) -> None:
        history = self._history.get(receiver)
        if history is None:
            history = deque(maxlen=self.spec.replay_horizon)
            self._history[receiver] = history
        history.append(upload)

    # -- the injector hook -----------------------------------------------

    def maybe_tamper(self, sender: str, receiver: str, payload: Any) -> Any | None:
        """Decide one message's fate; return the substitute or ``None``.

        Called by :meth:`repro.faults.injector.FaultInjector._filter` for every
        non-exempt message; the substitution (if any) flows through
        :attr:`~repro.faults.plan.FaultAction.replace`.
        """
        self.stats.inspected += 1
        inner, rebuild = self._unwrap(payload)
        spec = self.spec
        if isinstance(inner, Block):
            if spec.corrupt_block and self._rng.random() < spec.corrupt_block:
                self.stats.blocks_corrupted += 1
                return rebuild(self._corrupt(inner))
            return None
        if not isinstance(inner, LabeledTransaction):
            return None
        if spec.replay and self._rng.random() < spec.replay:
            history = self._history.get(receiver)
            if history:
                stale = history[self._rng.integers(len(history))]
                self._remember(receiver, inner)
                self.stats.replayed += 1
                return rebuild(stale)
        self._remember(receiver, inner)
        if spec.strip_signature and self._rng.random() < spec.strip_signature:
            self.stats.stripped += 1
            return rebuild(dc_replace(inner, collector_signature=_STRIPPED_TAG))
        if spec.flip_label and self._rng.random() < spec.flip_label:
            self.stats.flipped += 1
            # The original signature stays: it no longer covers the
            # content, so governors drop the upload — the attacker
            # cannot frame the collector without its key.
            flipped = dc_replace(inner, label=Label(-int(inner.label)))
            return rebuild(flipped)
        return None

    def _corrupt(self, block: Block) -> Block:
        """A content-corrupted copy of ``block`` (hash necessarily differs)."""
        if block.tx_list:
            return dc_replace(block, tx_list=block.tx_list[:-1])
        bent = bytes([block.prev_hash[0] ^ 0xFF]) + block.prev_hash[1:]
        return dc_replace(block, prev_hash=bent)
