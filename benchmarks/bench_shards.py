"""E14/E16 — sharded deployment: sim-time scaling and backend parity.

**E14 (sim-time).**  Fixes the deployment totals (l=24 providers, n=8
collectors, m=8 governors, r=2) and splits them across S ∈ {1, 2, 4}
shards driven by one :class:`~repro.sharding.ShardCoordinator` under
saturating offered load.  Because the shards' rounds overlap on the
shared simulator clock, S shards commit up to ``S * b_limit`` records
in the sim-time one shard commits ``b_limit`` — the table reports the
realised aggregate origin-tx throughput and its speedup over S=1.

**E16 (backend parity, ``--workers N``).**  The same fixed workload
swept over S ∈ {1, 2, 4} × execution backends {serial, N-process}: the
parallel backend (:mod:`repro.parallel`) hosts each shard's engine in
its own worker process.  The table asserts that the parallel ledger
tips, committed counts and simulated clock are **bit-identical** to the
serial ones for every S, with a clean cross-shard audit.  It times
nothing: the wall-clock comparison of the two backends is ``perfbench``'s
``shard_par`` workload (``parallel.speedup_vs_serial``).

Every configuration runs under an active fault plan (link loss +
duplication on every shard, plus a governor crash/recovery on shard 0)
with 15% cross-shard traffic and epoch reshuffles every 4 super-rounds,
so the headline numbers carry the full relay/retry/migration overhead.
The bench asserts the acceptance criteria directly:

* S=4 achieves at least 2x the aggregate committed-tx throughput of
  S=1 at equal totals (E14, sim-time);
* the cross-shard auditor records zero atomicity violations (no
  receipt half-applied or replayed) despite the faults;
* an identically seeded repeat of the S=4 run is bit-identical
  (chain tips, committed counts, sim clock), and under ``--workers``
  the parallel backend reproduces the serial tips exactly (E16).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_shards.py              # E14 full
    PYTHONPATH=src python benchmarks/bench_shards.py --quick      # CI smoke
    PYTHONPATH=src python benchmarks/bench_shards.py --workers 4  # + E16

or through pytest-benchmark like the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_shards.py -q
"""

from __future__ import annotations

import pathlib
import sys
import time

if __name__ == "__main__":  # script mode: make _helpers + repro importable
    _here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(_here))
    _src = _here.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from _helpers import emit

from repro.analysis.reporting import format_table
from repro.core.params import ProtocolParams
from repro.faults.plan import FaultPlan, LinkFaultSpec
from repro.network.topology import Topology
from repro.obs import MetricsRegistry
from repro.sharding import ShardCoordinator
from repro.workloads.generator import BernoulliWorkload
from repro.workloads.xshard import CrossShardWorkload

#: Deployment-wide totals, identical for every shard count.
L, N, M, R = 24, 8, 8, 2
PARAMS = ProtocolParams(f=0.5, delta=0.2, b_limit=16)
SHARD_COUNTS = (1, 2, 4)
P_CROSS = 0.15
EPOCH_ROUNDS = 4
SEED = 11
#: Specs offered per super-round — saturates even the S=4 configuration
#: (4 shards x b_limit=16 = 64 slots), so every block packs full.
OFFERED = 128

#: Work scales.  ``quick`` is the CI smoke configuration: same code
#: paths, faults, and files, small enough to finish in seconds.
SCALES = {
    "full": dict(rounds=12),
    "quick": dict(rounds=6),
}


def _install_faults(coordinator, sharded, seed: int) -> None:
    """The E14 fault plan: loss + duplication everywhere, one crash."""
    for k in range(sharded.num_shards):
        plan = FaultPlan(seed=seed + 100 + k).with_default_link(
            LinkFaultSpec(loss=0.02, duplicate=0.05)
        )
        if k == 0:
            victim = sharded.shards[0].governors[-1]
            plan.with_crash(victim, at=0.8, recover_at=1.6)
        coordinator.install_faults(k, plan)


def run_config(
    shards: int,
    rounds: int,
    seed: int = SEED,
    registry: MetricsRegistry | None = None,
    workers: int = 1,
) -> dict:
    """One sharded deployment at fixed totals; returns its stats.

    ``workers=1`` runs the serial in-process backend; ``workers>1``
    spawns that many shard worker processes (E16).
    """
    sharded = Topology.sharded(l=L, n=N, m=M, r=R, shards=shards, seed=seed)
    coordinator = ShardCoordinator(
        sharded,
        PARAMS,
        seed=seed,
        epoch_rounds=EPOCH_ROUNDS,
        resilience=True,
        obs=registry,
        workers=workers if workers > 1 else None,
    )
    _install_faults(coordinator, sharded, seed)
    providers = [p for topo in sharded.shards for p in topo.providers]
    inner = BernoulliWorkload(providers, p_valid=0.8, seed=seed + 1)
    workload = CrossShardWorkload(
        inner,
        sharded.provider_shard,
        p_cross=P_CROSS if shards > 1 else 0.0,
        seed=seed + 2,
    )
    minted = 0
    for _ in range(rounds):
        coordinator.submit(workload.take(OFFERED))
        result = coordinator.run_super_round()
        minted += result.receipts_minted
    report = coordinator.finalize()
    stats = {
        "shards": shards,
        "workers": workers,
        "backend": coordinator.backend.kind,
        "committed": coordinator.committed_total,
        "sim_seconds": round(coordinator.now, 6),
        "throughput": round(coordinator.throughput(), 4),
        "receipts_minted": minted,
        "receipts_pending": len(coordinator.auditor.pending()),
        "migrations": sum(len(m) for _, _, m in coordinator.reshuffle_log),
        "atomicity_violations": len(coordinator.auditor.atomicity_violations()),
        "audit_clean": report.clean,
        "tips": coordinator.tip_hashes(),
    }
    coordinator.close()
    return stats


def run_suite(quick: bool = False) -> dict:
    """Run the E14 sweep and emit both result twins; returns metrics."""
    scale = SCALES["quick" if quick else "full"]
    t0 = time.perf_counter()

    registry = MetricsRegistry()
    sweep = []
    for shards in SHARD_COUNTS:
        stats = run_config(
            shards, scale["rounds"],
            registry=registry if shards == SHARD_COUNTS[-1] else None,
        )
        sweep.append(stats)

    base = sweep[0]["throughput"]
    for stats in sweep:
        stats["speedup"] = round(stats["throughput"] / base, 4)

    # Determinism: an identically seeded repeat of the S=4 run must be
    # bit-identical — same chain tips, same counts, same clock.
    repeat = run_config(SHARD_COUNTS[-1], scale["rounds"])
    reference = sweep[-1]
    deterministic = all(
        repeat[key] == reference[key]
        for key in ("committed", "sim_seconds", "tips", "receipts_minted")
    )

    all_ok = (
        deterministic
        and sweep[-1]["speedup"] >= 2.0
        and all(s["audit_clean"] for s in sweep)
        and all(s["atomicity_violations"] == 0 for s in sweep)
        and all(s["receipts_pending"] == 0 for s in sweep)
    )

    rows = [
        (
            s["shards"], s["committed"], f"{s['sim_seconds']:.2f}",
            f"{s['throughput']:.2f}", f"{s['speedup']:.2f}x",
            s["receipts_minted"], s["migrations"],
            s["atomicity_violations"], s["audit_clean"],
        )
        for s in sweep
    ]
    table = format_table(
        ["shards", "committed", "sim s", "tx/s", "speedup",
         "receipts", "migrations", "atomicity viol.", "audit clean"],
        rows,
    )
    table += (
        f"\nfault plan active on every run: link loss 2%, duplication 5%, "
        f"governor crash/recovery on shard 0\n"
        f"seeded S=4 repeat bit-identical: "
        f"{'yes' if deterministic else 'NO'}\n"
    )
    metrics = {
        "shard_sweep": [
            {k: v for k, v in s.items() if k != "tips"} for s in sweep
        ],
        "speedup_s4_vs_s1": sweep[-1]["speedup"],
        "deterministic": deterministic,
        "all_ok": all_ok,
    }
    emit(
        "E14_shards",
        "E14 — sharded aggregate throughput at fixed totals "
        "(l=24, n=8, m=8), faults + cross-shard traffic on",
        table,
        metrics=metrics,
        registry=registry,
        duration_s=time.perf_counter() - t0,
        quick=quick,
    )
    return metrics


def run_parity_suite(workers: int, quick: bool = False) -> dict:
    """E16: serial-vs-parallel parity sweep; emits the result twins.

    For every S in the shard sweep, runs the identical seeded workload
    and fault plan on the serial backend and on a ``min(workers, S)``
    -process parallel backend, and requires the same chain tips,
    committed count and simulated clock from both.
    """
    scale = SCALES["quick" if quick else "full"]
    t0 = time.perf_counter()

    registry = MetricsRegistry()
    sweep = []
    for shards in SHARD_COUNTS:
        serial = run_config(shards, scale["rounds"])
        sweep.append({**serial, "tips_match_serial": None})
        nworkers = min(workers, shards)
        if nworkers > 1:
            parallel = run_config(
                shards, scale["rounds"], workers=nworkers,
                registry=registry if shards == SHARD_COUNTS[-1] else None,
            )
            parallel["tips_match_serial"] = all(
                parallel[key] == serial[key]
                for key in ("tips", "committed", "sim_seconds")
            )
            sweep.append(parallel)

    tips_identical = all(
        s["tips_match_serial"] for s in sweep if s["backend"] == "parallel"
    )
    all_ok = (
        tips_identical
        and all(s["audit_clean"] for s in sweep)
        and all(s["atomicity_violations"] == 0 for s in sweep)
    )

    table = format_table(
        ["shards", "workers", "backend", "committed", "tips=serial", "audit clean"],
        [
            (
                s["shards"], s["workers"], s["backend"], s["committed"],
                {None: "—", True: "yes", False: "NO"}[s["tips_match_serial"]],
                s["audit_clean"],
            )
            for s in sweep
        ],
    )
    table += (
        f"\nidentical seeded workload and fault plan on both backends; "
        f"wall-clock figures: perfbench `shard_par`\n"
        f"parallel tips bit-identical to serial: "
        f"{'yes' if tips_identical else 'NO'}\n"
    )
    metrics = {
        "workers_requested": workers,
        "parity_sweep": [
            {k: v for k, v in s.items() if k != "tips"} for s in sweep
        ],
        "tips_identical": tips_identical,
        "all_ok": all_ok,
    }
    emit(
        "E16_shards_parallel",
        "E16 — serial vs multi-process shard backends at identical seeds: "
        "bit-identical ledgers",
        table,
        metrics=metrics,
        registry=registry,
        duration_s=time.perf_counter() - t0,
        quick=quick,
        timing=(
            "par_barrier_wait_seconds", "par_worker_boot_seconds",
            "par_worker_round_seconds",
        ),
    )
    return metrics


def test_shards_suite(benchmark):
    """pytest-benchmark entry point (full scale, like the other benches)."""
    metrics = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    assert metrics["speedup_s4_vs_s1"] >= 2.0
    assert metrics["deterministic"]
    assert metrics["all_ok"]


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small CI-smoke scale (same code paths, seconds not minutes)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="also run the E16 parity sweep with up to N worker "
             "processes per deployment (E14 alone when omitted)",
    )
    args = parser.parse_args(argv)
    metrics = run_suite(quick=args.quick)
    if not metrics["all_ok"]:
        print("FATAL: E14 acceptance criteria not met", file=sys.stderr)
        return 1
    if args.workers is not None:
        e16 = run_parity_suite(args.workers, quick=args.quick)
        if not e16["all_ok"]:
            print("FATAL: E16 acceptance criteria not met", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
