"""Per-layer metrics, built from a traced run.

Three sources, all read after the run ends: the tracer's per-span totals
(``*_calls``, ``*_self_ms``), a ``MetricsRegistry`` snapshot for the counts
the program already keeps (``net_*``, ``abcast_*``, ``rel_*``,
``storage_*``, ``par_*``, ``tpt_*``, the cache hit counters), and the facts
the workload read back from the deployment (:attr:`RunRecord.extras`).

``shard_par`` runs its engines in worker processes, which neither the
benchmark's spans nor the driver's registry can see.  Its engine-side
layers therefore come from a traced run of the serial twin — the same seed
commits the identical ledger there, in this process — and only
``parallel.*``, the tracing overhead and the unattributed share come from
the process-pool run.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.obs import snapshot as registry_snapshot

from perfbench.metrics import catalogue
from perfbench.stats import TooFewSamples, percentile
from perfbench.trace import SpanTotals, Tracer
from perfbench.workloads import RunRecord

__all__ = ["TracedRun", "layer_metrics"]


@dataclass
class TracedRun:
    """One traced run and everything that was recorded about it."""

    record: RunRecord
    tracer: Tracer
    registry: object

    def __post_init__(self) -> None:
        self.totals = self.tracer.totals()
        self.snapshot = registry_snapshot(self.registry)["metrics"]

    def span(self, layer: str, name: str) -> SpanTotals:
        return self.totals.get((layer, name)) or SpanTotals()

    def counter(self, name: str, **labels: str) -> float:
        """Sum of a counter's samples whose labels include ``labels``."""
        entry = self.snapshot.get(name)
        if entry is None:
            return 0.0
        return sum(
            sample["value"]
            for sample in entry["samples"]
            if all(sample["labels"].get(k) == v for k, v in labels.items())
        )

    def histogram_sum(self, name: str) -> float:
        entry = self.snapshot.get(name)
        return sum(sample["sum"] for sample in entry["samples"]) if entry else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _p50(samples: list[float]) -> float | None:
    """Median under the ten-samples-beyond rule; 0 for a layer not used."""
    if not samples:
        return 0.0
    try:
        return percentile(samples, 0.5)
    except TooFewSamples:
        return None


def layer_metrics(
    main: TracedRun,
    twin: TracedRun | None,
    baseline: RunRecord,
    twin_baseline: RunRecord | None,
    committed: int,
    load_1m: float,
) -> dict[str, float | None]:
    """Every per-layer metric of the catalogue for one workload.

    Args:
        main: The traced run of the workload proper.
        twin: The traced serial twin, for a workload whose engines run in
            other processes; its spans and registry then stand in for the
            engine-side layers.
        baseline / twin_baseline: The same runs untraced with obs off.
        committed: Transactions the run committed (the per-tx divisor).
        load_1m: Host 1-minute load average when the run ended.
    """
    engine = twin if twin is not None else main
    tx = committed
    rounds = len(main.record.round_ms) + main.record.extras.get("flush_rounds", 0)
    wall_s = main.record.wall_s

    def self_ms(layer: str, *names: str) -> float:
        return sum(engine.span(layer, name).self_ms for name in names)

    def calls(layer: str, name: str) -> int:
        return engine.span(layer, name).calls

    screened = engine.counter("gov_screenings_total")
    unchecked = engine.counter("gov_screenings_total", outcome="unchecked")
    events = (
        engine.span("network", "event_loop").result_sum
        + engine.span("network", "tcp_run_until").result_sum
    )
    workers = main.record.extras.get("workers", 0)
    worker_round_s = main.histogram_sum("par_worker_round_seconds")
    values: dict[str, float | None] = {
        # The demoted end-to-end metrics, from the one untraced run.
        "driver.tx_per_s": _ratio(tx, baseline.wall_s),
        "driver.round_ms_p50": statistics.median(baseline.round_ms),
        "driver.cpu_ms_per_tx": 1e3 * _ratio(baseline.cpu_s, tx),
        "crypto.encode_calls": calls("crypto", "encode"),
        "crypto.encode_self_ms": self_ms("crypto", "encode"),
        "crypto.sign_calls": calls("crypto", "sign"),
        "crypto.sign_self_ms": self_ms("crypto", "sign"),
        "crypto.verify_calls": calls("crypto", "verify"),
        "crypto.verify_self_ms": self_ms("crypto", "verify"),
        "crypto.sig_cache_hit_ratio": _ratio(
            engine.counter("crypto_sig_cache_hits"),
            engine.counter("crypto_sig_cache_hits")
            + engine.counter("crypto_sig_cache_misses"),
        ),
        "ledger.block_build_self_ms": self_ms("ledger", "block_build"),
        "ledger.append_self_ms": self_ms("ledger", "append"),
        "ledger.codec_encode_self_ms": self_ms("ledger", "codec_encode"),
        "ledger.codec_decode_self_ms": self_ms("ledger", "codec_decode"),
        "ledger.codec_bytes_per_tx": _ratio(
            engine.counter("storage_bytes_written_total"), tx
        ),
        "core.screen_calls": calls("core", "screen"),
        "core.screen_self_ms": self_ms("core", "screen"),
        "core.screen_skip_ratio": _ratio(unchecked, screened),
        "core.validations_per_tx": _ratio(
            screened - unchecked + engine.counter("gov_argues_served_total"), tx
        ),
        "core.reputation_update_self_ms": self_ms("core", "reputation_update"),
        "core.rep_row_cache_hit_ratio": _ratio(
            engine.counter("rep_norm_cache_hits"),
            engine.counter("rep_norm_cache_hits")
            + engine.counter("rep_norm_cache_misses"),
        ),
        "core.argue_self_ms": self_ms("core", "argue"),
        "core.argues_per_ktx": 1e3 * _ratio(engine.counter("engine_argues_total"), tx),
        "core.rewards_self_ms": self_ms("core", "rewards"),
        "core.round_glue_self_ms": self_ms("core", "round_glue"),
        "core.sim_s_per_round": _ratio(main.record.extras.get("sim_s", 0.0), rounds),
        "agents.provider_sign_self_ms": self_ms("agents", "provider_sign"),
        "agents.collector_label_self_ms": self_ms("agents", "collector_label"),
        "agents.governor_ingest_calls": calls("agents", "governor_ingest"),
        "agents.governor_ingest_self_ms": self_ms("agents", "governor_ingest"),
        "consensus.election_self_ms": self_ms("consensus", "election"),
        "audit.observe_self_ms": self_ms("audit", "observe"),
        "audit.end_of_round_self_ms": self_ms("audit", "end_of_round", "xshard"),
        "audit.violations": main.record.extras.get("audit_violations", 0),
        "network.events_per_tx": _ratio(events, tx),
        "network.event_loop_self_ms": self_ms("network", "event_loop", "tcp_run_until"),
        "network.send_self_ms": self_ms("network", "send"),
        "network.msgs_per_tx": _ratio(engine.counter("net_messages_sent_total"), tx),
        "network.bytes_per_tx": _ratio(engine.counter("net_bytes_sent_total"), tx),
        "network.abcast_self_ms": self_ms("network", "abcast"),
        "network.abcast_repairs": engine.counter("abcast_repairs_total", event="requested"),
        "network.reliable_self_ms": self_ms("network", "reliable"),
        "network.reliable_retransmit_ratio": _ratio(
            engine.counter("rel_retransmits_total"), engine.counter("rel_sent_total")
        ),
        "network.reliable_gave_up": engine.counter("rel_gave_up_total"),
        "faults.injector_self_ms": self_ms("faults", "injector"),
        "faults.dropped": engine.record.extras.get("faults_dropped", 0),
        "faults.duplicated": engine.record.extras.get("faults_duplicated", 0),
        "network.tcp_frames_per_tx": _ratio(
            engine.counter("tpt_frames_total", direction="out"), tx
        ),
        "network.tcp_bytes_out_per_tx": _ratio(
            engine.counter("tpt_bytes_total", direction="out"), tx
        ),
        "network.tcp_bytes_in_per_tx": _ratio(
            engine.counter("tpt_bytes_total", direction="in"), tx
        ),
        "network.tcp_convey_wait_ms": engine.span("network", "tcp_convey_wait").total_ms,
        "network.tcp_retransmits": engine.counter("tpt_retransmits_total"),
        "network.tcp_reconnects": engine.counter("tpt_reconnects_total"),
        "storage.publish_calls": calls("storage", "publish"),
        "storage.publish_self_ms": self_ms("storage", "publish"),
        "storage.append_ms_p50": _p50(engine.tracer.durations_ms("storage", "append")),
        "storage.fsync_calls_per_tx": _ratio(calls("storage", "fsync"), tx),
        "storage.fsync_ms_total": engine.span("storage", "fsync").total_ms,
        "storage.checkpoint_calls": calls("storage", "checkpoint"),
        "storage.checkpoint_self_ms": self_ms("storage", "checkpoint"),
        "storage.disk_bytes_per_tx": _ratio(main.record.extras.get("disk_bytes", 0), tx),
        "storage.restart_ms_p50": _p50(main.record.extras.get("restart_ms", [])),
        "storage.restart_replayed_blocks": main.record.extras.get(
            "restart_replayed_blocks", 0
        ),
        "sharding.route_self_ms": self_ms("sharding", "route"),
        "sharding.receipts_per_ktx": 1e3
        * _ratio(engine.counter("shard_cross_tx_out_total"), tx),
        "sharding.receipt_self_ms": self_ms("sharding", "receipt"),
        "sharding.reshuffle_self_ms": self_ms("sharding", "reshuffle"),
        "sharding.migrations": engine.counter("shard_migrations_total"),
        "parallel.spawn_s": main.record.setup_s if workers else 0.0,
        "parallel.barrier_wait_ms_total": 1e3
        * main.histogram_sum("par_barrier_wait_seconds"),
        "parallel.worker_round_ms_total": 1e3 * worker_round_s,
        "parallel.worker_busy_ratio": _ratio(worker_round_s, workers * wall_s),
        "parallel.ipc_msgs_per_round": _ratio(main.counter("par_ipc_msgs_total"), rounds),
        "parallel.ipc_bytes_per_tx": _ratio(main.counter("par_ipc_bytes_total"), tx),
        # base: the serial twin's untraced drive wall
        "parallel.speedup_vs_serial": (
            _ratio(twin_baseline.wall_s, baseline.wall_s) if workers else 0.0
        ),
        "workloads.generate_self_ms": main.span("workloads", "generate").self_ms,
        # base: the untraced run of the same rounds in the same process
        "obs.trace_overhead_pct": 100.0 * (_ratio(wall_s, baseline.wall_s) - 1.0),
        "bench.unattributed_pct": 100.0
        * (1.0 - _ratio(main.tracer.covered_s(main.record.drive_window), wall_s)),
        "bench.host_load_1m": load_1m,
    }
    missing = set(catalogue().per_layer) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics without a definition: {sorted(missing)}")
    return {name: values[name] for name in catalogue().per_layer}
