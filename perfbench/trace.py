"""Wall-clock spans recorded from the benchmark's side of the API.

``repro.obs`` records sim-time only, so the benchmark measures where a
committed transaction's *wall* time goes by wrapping the program's
callables at each layer boundary with ``perf_counter`` spans.  One table,
:data:`SPAN_TABLE`, names every wrapped callable as ``(layer, span name,
object, attribute)``; nothing under ``src/`` changes (spans inside the
program are a later issue).

* ``object`` is a module path, or ``module:Class`` for a method.
* ``attribute`` is the callable's name.  ``"os.fsync"``-style attributes
  name a function of a stdlib module *as that one repro module calls it*:
  the repro module's global is swapped for a proxy, so ``os.fsync`` from
  ``repro.storage`` is timed and ``os.fsync`` from anywhere else is not.
* A module-level function that other ``repro`` modules imported by name
  (``from repro.crypto.signatures import sign``) is rebound in every one of
  them, so all call sites produce spans.

Each span records its table row, start, end, parent span and the round
number current when it began.  Spans live in typed arrays in memory and are
written out once, by :meth:`Tracer.dump`, after the run.  A span's *self
time* is its duration minus the time its child spans cover.  Only the
thread that created the tracer records spans: the real-TCP transport's IO
thread runs beside the driver and must not corrupt the parent stack.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from array import array
from time import perf_counter
from typing import Iterable

__all__ = ["SPAN_TABLE", "SpanTotals", "Tracer", "self_times"]

#: Modules whose import pulls in every layer named below, so that the
#: by-name rebinding pass sees all importers before patching.
_PRELOAD = (
    "repro.core.netengine",
    "repro.core.protocol",
    "repro.network.cluster",
    "repro.sharding",
    "repro.storage",
    "repro.workloads.scenarios",
    "repro.workloads.xshard",
)

#: (layer, span name, object, attribute).  Layers are the package names;
#: a span name shared by several rows pools them into one per-layer metric.
SPAN_TABLE: tuple[tuple[str, str, str, str], ...] = (
    # -- crypto ------------------------------------------------------------
    ("crypto", "encode", "repro.crypto.hashing", "canonical_encode"),
    ("crypto", "hash", "repro.crypto.hashing", "hash_value"),
    ("crypto", "hash", "repro.crypto.hashing", "hash_many"),
    ("crypto", "sign", "repro.crypto.signatures", "sign"),
    ("crypto", "verify", "repro.crypto.identity:IdentityManager", "verify"),
    ("crypto", "verify_batch", "repro.crypto.identity:IdentityManager", "verify_batch"),
    ("crypto", "merkle", "repro.crypto.merkle:MerkleTree", "__init__"),
    # -- ledger ------------------------------------------------------------
    ("ledger", "block_build", "repro.ledger.block:Block", "__post_init__"),
    ("ledger", "block_hash", "repro.ledger.block:Block", "hash"),
    ("ledger", "append", "repro.ledger.chain:Ledger", "append"),
    ("ledger", "store_publish", "repro.ledger.store:BlockStore", "publish"),
    ("ledger", "sync", "repro.ledger.sync", "sync_replica"),
    ("ledger", "codec_encode", "repro.ledger.codec", "encode_block"),
    ("ledger", "codec_decode", "repro.ledger.codec", "decode_block"),
    # -- core --------------------------------------------------------------
    ("core", "screen", "repro.core.screening", "screen_transaction"),
    ("core", "rep_row", "repro.core.reputation:ReputationBook", "selection_row"),
    ("core", "reputation_update", "repro.core.updating", "apply_checked_update"),
    ("core", "reputation_update", "repro.core.updating", "apply_reveal_update"),
    ("core", "reputation_update", "repro.core.updating", "apply_forge_update"),
    ("core", "argue", "repro.core.arguing:ArgueManager", "argue"),
    ("core", "argue", "repro.core.arguing:ArgueManager", "record_unchecked"),
    ("core", "rewards", "repro.core.rewards", "distribute_rewards"),
    ("core", "round_glue", "repro.core.protocol:ProtocolEngine", "run_round"),
    ("core", "round_glue", "repro.core.protocol:ProtocolEngine", "finalize"),
    ("core", "round_glue", "repro.core.netengine:NetworkedProtocolEngine", "run_round"),
    ("core", "round_glue", "repro.core.netengine:NetworkedProtocolEngine", "begin_round"),
    ("core", "round_glue", "repro.core.netengine:NetworkedProtocolEngine", "begin_argue"),
    ("core", "round_glue", "repro.core.netengine:NetworkedProtocolEngine", "complete_round"),
    ("core", "round_glue", "repro.core.netengine:NetworkedProtocolEngine", "drain_recovery"),
    ("core", "round_glue", "repro.core.netengine:NetworkedProtocolEngine", "finalize"),
    ("core", "receipt_inject", "repro.core.netengine:NetworkedProtocolEngine", "inject_receipts"),
    # -- agents ------------------------------------------------------------
    ("agents", "provider_sign", "repro.agents.provider:Provider", "create_transaction"),
    ("agents", "provider_review", "repro.agents.provider:Provider", "review_block"),
    ("agents", "collector_label", "repro.agents.collector:Collector", "process_all"),
    ("agents", "collector_label", "repro.agents.collector:Collector", "maybe_forge"),
    ("agents", "governor_ingest", "repro.agents.governor:Governor", "ingest_upload"),
    ("agents", "governor_screen", "repro.agents.governor:Governor", "screen_single"),
    ("agents", "governor_argue", "repro.agents.governor:Governor", "handle_argue"),
    ("agents", "governor_reveal", "repro.agents.governor:Governor", "reveal_truth"),
    # -- consensus / audit -------------------------------------------------
    ("consensus", "election", "repro.consensus.pos:LeaderElection", "run"),
    ("audit", "observe", "repro.audit.auditor:SafetyAuditor", "observe_upload"),
    ("audit", "observe", "repro.audit.auditor:SafetyAuditor", "audit_block"),
    ("audit", "observe", "repro.audit.auditor:SafetyAuditor", "ingest_vote"),
    ("audit", "end_of_round", "repro.audit.auditor:SafetyAuditor", "audit_book"),
    ("audit", "end_of_round", "repro.audit.auditor:SafetyAuditor", "audit_agreement"),
    ("audit", "end_of_round", "repro.audit.auditor:SafetyAuditor", "audit_regret"),
    ("audit", "end_of_round", "repro.audit.auditor", "harness_audit"),
    ("audit", "xshard", "repro.audit.xshard:CrossShardAuditor", "record_home_commit"),
    ("audit", "xshard", "repro.audit.xshard:CrossShardAuditor", "record_remote_commit"),
    ("audit", "xshard", "repro.audit.xshard:CrossShardAuditor", "finalize"),
    # -- network -----------------------------------------------------------
    ("network", "event_loop", "repro.network.simnet:Simulator", "run"),
    ("network", "send", "repro.network.simnet:SyncNetwork", "send"),
    ("network", "send", "repro.network.simnet:SyncNetwork", "multicast"),
    ("network", "abcast", "repro.network.broadcast:AtomicBroadcast", "broadcast"),
    ("network", "abcast", "repro.network.broadcast:AtomicBroadcast", "on_message"),
    ("network", "reliable", "repro.network.reliable:ReliableChannel", "send"),
    ("network", "reliable", "repro.network.reliable:ReliableChannel", "_retry"),
    ("network", "tcp_run_until", "repro.network.realnet:RealNetwork", "run_until"),
    ("network", "tcp_convey_wait", "repro.network.realnet:RealNetwork", "_await_conveyance"),
    ("network", "tcp_convey", "repro.network.realnet:RealNetwork", "_convey"),
    ("network", "tcp_pickle", "repro.network.realnet", "pickle.dumps"),
    ("network", "tcp_frame", "repro.network.realnet", "encode_frame"),
    ("network", "tcp_close", "repro.network.realnet:RealNetwork", "close"),
    # -- faults ------------------------------------------------------------
    ("faults", "injector", "repro.faults.injector:FaultInjector", "_filter"),
    # -- storage -----------------------------------------------------------
    ("storage", "publish", "repro.storage.durable:DurableBlockStore", "publish"),
    ("storage", "append", "repro.storage.segments:SegmentLog", "append"),
    ("storage", "fsync", "repro.storage.segments", "os.fsync"),
    ("storage", "fsync", "repro.storage.checkpoints", "os.fsync"),
    ("storage", "checkpoint", "repro.storage.checkpoints", "write_checkpoint"),
    ("storage", "compact", "repro.storage.segments:SegmentLog", "truncate_before"),
    ("storage", "recover", "repro.storage.recovery", "recover"),
    ("storage", "recover", "repro.storage.recovery", "apply_truncation"),
    # -- sharding ----------------------------------------------------------
    ("sharding", "route", "repro.sharding.coordinator:ShardCoordinator", "submit"),
    ("sharding", "super_round", "repro.sharding.coordinator:ShardCoordinator", "run_super_round"),
    ("sharding", "super_round", "repro.sharding.coordinator:ShardCoordinator", "finalize"),
    ("sharding", "reshuffle", "repro.sharding.coordinator:ShardCoordinator", "reshuffle"),
    ("sharding", "receipt", "repro.sharding.receipts", "make_receipt"),
    ("sharding", "receipt", "repro.sharding.receipts", "verify_receipt"),
    ("sharding", "scan", "repro.parallel.backend", "scan_shard_commits"),
    # -- parallel (driver side of the process pool) ------------------------
    ("parallel", "phase_call", "repro.parallel.pool:ParallelBackend", "_call"),
    ("parallel", "ipc_pickle", "repro.parallel.pool", "pickle.dumps"),
    ("parallel", "ipc_pickle", "repro.parallel.pool", "pickle.loads"),
    # -- the benchmark's own load generator --------------------------------
    ("workloads", "generate", "repro.workloads.generator:WorkloadGenerator", "take"),
    ("workloads", "generate", "repro.workloads.xshard:CrossShardWorkload", "take"),
)


class _ModuleProxy:
    """Stands in for a stdlib module inside one repro module's globals."""

    def __init__(self, real, name: str, replacement) -> None:
        self._real = real
        setattr(self, name, replacement)

    def __getattr__(self, name: str):
        return getattr(self._real, name)


class SpanTotals:
    """Call count, total and self time of one ``(layer, span)`` pair."""

    __slots__ = ("calls", "total_ms", "self_ms", "result_sum")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ms = 0.0
        self.self_ms = 0.0
        #: Sum of the integer return values (``Simulator.run`` returns the
        #: number of events it executed), 0 for spans that return none.
        self.result_sum = 0


def self_times(
    parents: Iterable[int], starts: Iterable[float], ends: Iterable[float]
) -> list[float]:
    """Self time per span: duration minus the time child spans cover.

    Children of one parent never overlap (one thread, strictly nested
    calls), so the covered time is the plain sum of child durations.
    """
    durations = [end - start for start, end in zip(starts, ends)]
    own = list(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= durations[index]
    return own


class Tracer:
    """Patch :data:`SPAN_TABLE` in, collect spans, patch it back out."""

    def __init__(self, table: Iterable[tuple[str, str, str, str]] = SPAN_TABLE):
        self.table = tuple(table)
        #: Distinct (layer, span) pairs in first-seen order; spans store
        #: an index into this list.
        self.keys: list[tuple[str, str]] = []
        self._key_index: dict[tuple[str, str], int] = {}
        self.key_of = array("H")
        self.parent = array("l")
        self.round_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.result_sums: list[int] = []
        self._own: list[float] = []  # self times, computed once after the run
        #: Shared identifier of the spans of one round; the drive loop
        #: sets it before offering each batch.
        self.round = 0
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every table row; idempotence is the caller's concern."""
        for name in _PRELOAD:
            importlib.import_module(name)
        for layer, span, target, attribute in self.table:
            key = self._key(layer, span)
            module_name, _, class_name = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in attribute:
                self._patch_stdlib_call(module, attribute, key)
                continue
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attribute]
            wrapper = self._wrap(original, key)
            self._set(owner, attribute, wrapper)
            if not class_name:
                self._rebind_importers(module, attribute, original, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _key(self, layer: str, span: str) -> int:
        pair = (layer, span)
        index = self._key_index.get(pair)
        if index is None:
            index = len(self.keys)
            self._key_index[pair] = index
            self.keys.append(pair)
            self.result_sums.append(0)
        return index

    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _rebind_importers(self, home, attribute: str, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or module is home or not name.startswith("repro."):
                continue
            if module.__dict__.get(attribute) is original:
                self._set(module, attribute, wrapper)

    def _patch_stdlib_call(self, module, attribute: str, key: int) -> None:
        global_name, _, function = attribute.partition(".")
        current = module.__dict__[global_name]
        if isinstance(current, _ModuleProxy):
            # Second function of the same stdlib module (pickle.loads
            # after pickle.dumps): extend the proxy already in place.
            setattr(current, function, self._wrap(getattr(current._real, function), key))
            return
        proxy = _ModuleProxy(current, function, self._wrap(getattr(current, function), key))
        self._set(module, global_name, proxy)

    def _wrap(self, function, key: int):
        key_of, parent, round_of = self.key_of, self.parent, self.round_of
        start, end, stack, sums = self.start, self.end, self._stack, self.result_sums
        thread, get_ident = self._thread, threading.get_ident
        tracer = self

        def traced(*args, **kwargs):
            if get_ident() != thread:
                return function(*args, **kwargs)
            index = len(start)
            key_of.append(key)
            parent.append(stack[-1] if stack else -1)
            round_of.append(tracer.round)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = function(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if type(result) is int:
                sums[key] += result
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", "traced")
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    # -- reading -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def totals(
        self, window: tuple[float, float] | None = None
    ) -> dict[tuple[str, str], SpanTotals]:
        """Per ``(layer, span)`` totals over spans that began in ``window``."""
        if len(self._own) != len(self.start):  # spans were added since
            self._own = self_times(self.parent, self.start, self.end)
        own = self._own
        out = {pair: SpanTotals() for pair in self.keys}
        for index, key in enumerate(self.key_of):
            began = self.start[index]
            if window is not None and not window[0] <= began <= window[1]:
                continue
            entry = out[self.keys[key]]
            entry.calls += 1
            entry.total_ms += (self.end[index] - began) * 1e3
            entry.self_ms += own[index] * 1e3
        if window is None:
            for key, pair in enumerate(self.keys):
                out[pair].result_sum = self.result_sums[key]
        return out

    def durations_ms(self, layer: str, span: str) -> list[float]:
        """Every duration of one span name, in call order."""
        key = self._key_index.get((layer, span))
        return [
            (self.end[i] - self.start[i]) * 1e3
            for i, k in enumerate(self.key_of)
            if k == key
        ]

    def covered_s(self, window: tuple[float, float]) -> float:
        """Wall time inside ``window`` covered by root spans."""
        covered = 0.0
        for index, parent in enumerate(self.parent):
            if parent < 0 and window[0] <= self.start[index] <= window[1]:
                covered += min(self.end[index], window[1]) - self.start[index]
        return covered

    def dump(self, path, **header) -> None:
        """Write every span, columnar, with times in µs from the first."""
        origin = self.start[0] if len(self.start) else 0.0
        document = dict(header)
        document["keys"] = [list(pair) for pair in self.keys]
        document["spans"] = {
            "key": self.key_of.tolist(),
            "parent": self.parent.tolist(),
            "round": self.round_of.tolist(),
            "start_us": [round((t - origin) * 1e6) for t in self.start],
            "end_us": [round((t - origin) * 1e6) for t in self.end],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
