"""E15 — crash-restart recovery cost of the durable segment log.

Grows standalone durable chains to several lengths, then measures what
a restart pays: the wall-clock :func:`repro.storage.recover` replay,
with and without Merkle checkpoints.  Checkpoint compaction bounds the
replay to the post-checkpoint window, so recovery time is flat in
chain length; the no-checkpoint configuration replays from genesis and
grows linearly — that contrast is the headline table.

A seeded torn-tail crash (``DiskFaultPlan``'s ``torn_record``) rides
along at the largest scale, on a chain an engine committed past its last
checkpoint: the bench asserts the corruption is *detected*, the
recovered state is a verified prefix of the original chain, and an
engine restarted from the scarred directory pulls at least one block
through ``sync_from_peer`` and rejoins at the bit-identical tip.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_recovery.py          # full scale
    PYTHONPATH=src python benchmarks/bench_recovery.py --quick  # CI smoke

or through pytest-benchmark like the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_recovery.py -q
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import time
from dataclasses import replace

if __name__ == "__main__":  # script mode: make _helpers + repro importable
    _here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(_here))
    _src = _here.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from _helpers import emit

from repro.analysis.reporting import format_table
from repro.crypto.signatures import SigningKey
from repro.faults.disk import DiskFaultPlan
from repro.ledger.block import Block
from repro.ledger.transaction import CheckStatus, Label, TxRecord, make_signed_transaction
from repro.obs import MetricsRegistry
from repro.storage import StorageConfig, open_durable_store, recover
from repro.workloads.scenarios import SCENARIOS, build

KEY = SigningKey(owner="p0", secret=b"\x44" * 32)
SEED = 11
CHECKPOINT_INTERVAL = 16
SEGMENT_BYTES = 16 * 1024
TX_PER_BLOCK = 4

#: Work scales.  ``quick`` is the CI smoke configuration: same code
#: paths, fault, and files, small enough to finish in seconds.
SCALES = {
    "full": dict(lengths=(200, 400)),
    "quick": dict(lengths=(60,)),
}


def _build_chain(directory, n: int, checkpoint_interval: int) -> list[Block]:
    """Commit ``n`` deterministic blocks through a durable store."""
    store, _ = open_durable_store(
        StorageConfig(
            directory=directory,
            checkpoint_interval=checkpoint_interval,
            segment_bytes=SEGMENT_BYTES,
            fsync=False,  # measuring replay, not the OS page cache
        )
    )
    nonce = iter(range(10 * n * TX_PER_BLOCK))
    prev = store.tip_hash()
    blocks = []
    for serial in range(1, n + 1):
        records = tuple(
            TxRecord(
                tx=make_signed_transaction(
                    KEY, f"b{serial}.{i}", 1.0, nonce=next(nonce)
                ),
                label=Label.VALID,
                status=CheckStatus.CHECKED,
            )
            for i in range(TX_PER_BLOCK)
        )
        block = Block(
            serial=serial, tx_list=records, prev_hash=prev,
            proposer="g0", round_number=serial,
        )
        store.publish(block)
        blocks.append(block)
        prev = block.hash()
    return blocks


def _measure(directory, blocks: list[Block]) -> dict:
    """One timed recovery pass over an existing ledger directory."""
    t0 = time.perf_counter()
    report = recover(directory)
    elapsed = time.perf_counter() - t0
    by_serial = {b.serial: b for b in blocks}
    prefix_ok = all(
        b.hash() == by_serial[b.serial].hash() for b in report.blocks
    ) and (
        report.base_serial == 0
        or report.base_hash == by_serial[report.base_serial].hash()
    )
    tip_ok = (
        report.height == len(blocks)
        and (report.blocks[-1].hash() if report.blocks else report.base_hash)
        == blocks[-1].hash()
    )
    return {
        "replayed": len(report.blocks),
        "base_serial": report.base_serial,
        "height": report.height,
        "corruptions": [c.kind for c in report.corruptions],
        "clean": report.clean,
        "prefix_ok": prefix_ok,
        "tip_ok": tip_ok,
        "replay_ms": round(elapsed * 1e3, 3),
        "blocks_per_s": round(len(report.blocks) / elapsed, 1) if report.blocks else 0.0,
    }


def run_case(n: int, checkpoint_interval: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as tmp:
        blocks = _build_chain(tmp, n, checkpoint_interval)
        stats = _measure(tmp, blocks)
    stats.update(blocks=n, checkpoint_interval=checkpoint_interval, fault="none")
    stats["ok"] = stats["clean"] and stats["prefix_ok"] and stats["tip_ok"]
    return stats


def run_torn_tail_case(n: int, registry: MetricsRegistry | None = None) -> dict:
    """Crash mid-append at scale ``n``: detect, truncate, restart, rejoin.

    An engine on ``durable-smoke``'s shape commits ``n`` rounds and half a
    checkpoint interval more to its segment log, so committed blocks lie
    past the last checkpoint; a seeded torn record then scars the final
    one.  A second engine restarts from the scarred directory and fills
    the suffix its disk lacks — at least the torn block — from the first
    engine's store through ``RestartHandoff.sync_from_peer``: it must hold
    the uninterrupted run's tip.
    """
    rounds = n + CHECKPOINT_INTERVAL // 2
    scenario = replace(
        SCENARIOS["durable-smoke"], rounds=rounds,
        checkpoint_interval=CHECKPOINT_INTERVAL, segment_bytes=SEGMENT_BYTES,
    )
    with tempfile.TemporaryDirectory(prefix="bench-recovery-torn-") as tmp:
        uninterrupted, workload, _ = build(scenario, SEED, storage_dir=tmp)
        for _ in range(rounds):
            uninterrupted.run_round(workload.take(scenario.batch))
        peer = uninterrupted.store
        blocks = [peer.retrieve(serial) for serial in range(1, peer.height + 1)]
        applied = DiskFaultPlan(seed=SEED).with_fault("torn_record").apply(tmp)
        stats = _measure(tmp, blocks)
        restarted, _, _ = build(scenario, SEED, storage_dir=tmp, obs=registry)
        peer_filled = restarted.handoff.sync_from_peer(peer)
        converged = restarted.store.tip_hash() == peer.tip_hash()
    stats.update(
        blocks=len(blocks),
        checkpoint_interval=CHECKPOINT_INTERVAL,
        fault="torn_record" if applied else "none",
        detected="torn-tail" in stats["corruptions"],
        peer_filled=peer_filled,
        converged=converged,
    )
    stats["ok"] = (
        bool(applied)
        and stats["detected"]
        and stats["prefix_ok"]
        and not stats["clean"]
        and peer_filled >= 1
        and converged
    )
    return stats


def run_suite(quick: bool = False) -> dict:
    """Run the E15 sweep and emit both result twins; returns metrics."""
    scale = SCALES["quick" if quick else "full"]
    t0 = time.perf_counter()
    registry = MetricsRegistry()

    sweep = []
    for n in scale["lengths"]:
        sweep.append(run_case(n, checkpoint_interval=0))  # genesis replay
        sweep.append(run_case(n, checkpoint_interval=CHECKPOINT_INTERVAL))
    torn = run_torn_tail_case(scale["lengths"][-1], registry=registry)

    # Checkpoints bound the replay window regardless of chain length.
    bounded = all(
        s["replayed"] <= 2 * CHECKPOINT_INTERVAL
        for s in sweep
        if s["checkpoint_interval"]
    )
    all_ok = bounded and all(s["ok"] for s in sweep) and torn["ok"]

    rows = [
        (
            s["blocks"], s["checkpoint_interval"] or "off", s["fault"],
            s["base_serial"], s["replayed"], f"{s['replay_ms']:.1f}",
            ",".join(s["corruptions"]) or "-", s["ok"],
        )
        for s in [*sweep, torn]
    ]
    table = format_table(
        ["blocks", "ckpt every", "fault", "base", "replayed",
         "replay ms", "corruptions", "ok"],
        rows,
    )
    table += (
        f"\ncheckpoints bound replay to <= {2 * CHECKPOINT_INTERVAL} blocks "
        f"at every length: {'yes' if bounded else 'NO'}\n"
        f"torn-tail crash detected, peer-fill pulled {torn['peer_filled']} "
        f"block(s) past the last checkpoint and converged to the original "
        f"tip: {'yes' if torn['ok'] else 'NO'}\n"
    )
    metrics = {
        "recovery_sweep": sweep,
        "torn_tail": torn,
        "checkpoint_replay_bounded": bounded,
        "all_ok": all_ok,
    }
    emit(
        "E15_recovery",
        "E15 — crash-restart recovery: segment-log replay with and "
        "without Merkle checkpoints, plus a seeded torn-tail crash",
        table,
        metrics=metrics,
        registry=registry,
        duration_s=time.perf_counter() - t0,
        quick=quick,
        timing=("replay_ms", "blocks_per_s", "replay ms", "storage_recovery_replay_seconds"),
    )
    return metrics


def test_recovery_suite(benchmark):
    """pytest-benchmark entry point (full scale, like the other benches)."""
    metrics = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    assert metrics["checkpoint_replay_bounded"]
    assert metrics["torn_tail"]["ok"]
    assert metrics["all_ok"]


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small CI-smoke scale (same code paths, fault, and files)",
    )
    args = parser.parse_args(argv)
    metrics = run_suite(quick=args.quick)
    if not metrics["all_ok"]:
        print("FATAL: E15 acceptance criteria not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())